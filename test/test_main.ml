(* Test runner: all suites. The pipeline invariant validators are
   installed unconditionally, so every statement any suite executes is
   checked at the post-bind / post-rewrite / post-optimize boundaries. *)

(* Property suites derive their qcheck random states from one session
   seed. It is printed before the run so a CI failure reproduces locally
   with QCHECK_SEED=<printed value>. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> begin
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> invalid_arg "QCHECK_SEED must be an integer"
  end
  | None ->
    Random.self_init ();
    Random.int 1_000_000_000

let () =
  Check.Pipeline.install ();
  Printf.printf "qcheck seed: %d (rerun with QCHECK_SEED=%d to reproduce)\n%!" qcheck_seed
    qcheck_seed;
  Alcotest.run "sqlxnf"
    [ ("value", Test_value.suite);
      ("expr", Test_expr.suite);
      ("table", Test_table.suite);
      ("plan", Test_plan.suite);
      ("sql-parser", Test_sql_parser.suite);
      ("sql-exec", Test_exec.suite);
      ("rewrite-optimizer", Test_rewrite.suite);
      ("txn-storage", Test_txn.suite);
      ("co-schema", Test_co_schema.suite);
      ("xnf-parser", Test_xnf_parser.suite);
      ("xnf-semantic", Test_semantic.suite);
      ("xnf-translate", Test_translate.suite);
      ("xnf-path", Test_path.suite);
      ("xnf-cursor-udi", Test_cursor_udi.suite);
      ("xnf-cache-extras", Test_cache_extras.suite);
      ("workload", Test_workload.suite);
      ("baselines", Test_baseline.suite);
      ("conformance", Test_conformance.suite);
      ("csv", Test_csv.suite);
      ("errors", Test_errors.suite);
      ("observability", Test_obs.suite);
      ("properties", Test_props.suite qcheck_seed);
      ("properties-2", Test_props2.suite qcheck_seed);
      ("xnf-fetch-plan", Test_fetch_plan.suite);
      ("fuzz", Test_fuzz.suite);
      ("check", Test_check.suite);
      ("xnf-batch-edge", Test_batch_edge.suite);
      ("sys-catalog", Test_sys.suite);
      ("advisor", Test_advisor.suite);
      ("wal-file", Test_wal_file.suite qcheck_seed);
      ("recovery", Test_recovery.suite);
      ("cost-pick", Test_cost_pick.suite);
      ("access-path", Test_access_path.suite);
      ("prober-params", Test_prober_params.suite) ]
