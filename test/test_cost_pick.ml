(* Cost-based access-path selection and the adaptive mid-fixpoint
   fallback: the stats-health selection matrix (missing / fresh / stale),
   ?force precedence over the cost model, the adaptive switch firing on
   injected drift (exact counter deltas) and staying quiet within
   tolerance, switched-strategy reuse on the next execution of the same
   plan, and PLAN301/PLAN305 consistency with the shared estimator. *)

open Relational

let switches () = Obs.Metrics.counter_get "xnf.translate.strategy_switches"

let execs db stmts = List.iter (fun stmt -> ignore (Db.exec db stmt)) stmts

let compose api q =
  let def, restrs, _take =
    Xnf.View_registry.compose (Xnf.Api.registry api) (Xnf.Xnf_parser.parse_query q)
  in
  (def, restrs)

let strat =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Xnf.Translate.strategy_name v))
    (fun a b -> a = b)

let contains ~affix str =
  let n = String.length affix and m = String.length str in
  let rec go i = i + n <= m && (String.sub str i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ---- the skew fixture ----

   10 parents all carrying f=5, 20 children with g = h = k mod 10 and an
   index on the low-NDV column g. The composite join (p.f = c.g AND
   p.k = c.h) keeps the true connection count tiny while every probe
   lands in the g=5 bucket; with fresh stats on THIS data the cost model
   still picks indexed (cand_fan ~2). [drift] then floods the g=5 bucket
   with rows whose h never matches: estimates are untouched (no
   re-ANALYZE), but every indexed probe now scans thousands of
   candidates for nothing. *)

let q_skew =
  "OUT OF p0 AS (SELECT * FROM sp), c0 AS (SELECT * FROM sc), \
   e0 AS (RELATE p0, c0 WHERE (p0.f = c0.g AND p0.k = c0.h)) TAKE *"

let mk_skew () =
  let db = Db.create () in
  execs db
    [ "CREATE TABLE sp (k INTEGER PRIMARY KEY, f INTEGER)";
      "CREATE TABLE sc (k INTEGER PRIMARY KEY, g INTEGER, h INTEGER)";
      "CREATE INDEX scix ON sc (g)";
      "INSERT INTO sp VALUES "
      ^ String.concat ", " (List.init 10 (fun k -> Printf.sprintf "(%d, 5)" k));
      "INSERT INTO sc VALUES "
      ^ String.concat ", "
          (List.init 20 (fun k -> Printf.sprintf "(%d, %d, %d)" k (k mod 10) (k mod 10))) ];
  (db, Xnf.Api.create db)

let drift db =
  execs db
    (List.init 6 (fun b ->
         "INSERT INTO sc VALUES "
         ^ String.concat ", "
             (List.init 500 (fun i ->
                  Printf.sprintf "(%d, 5, 9999)" (1000 + (b * 500) + i)))))

(* with a hair trigger, restored afterwards *)
let with_adaptive ~factor ~min_rows f =
  let f0 = Xnf.Translate.adaptive_factor () and m0 = Xnf.Translate.adaptive_min_rows () in
  Fun.protect
    ~finally:(fun () ->
      Xnf.Translate.set_adaptive_factor f0;
      Xnf.Translate.set_adaptive_min_rows m0)
    (fun () ->
      Xnf.Translate.set_adaptive_factor factor;
      Xnf.Translate.set_adaptive_min_rows min_rows;
      f ())

(* ---- selection matrix: stats health decides cost vs static ---- *)

let test_matrix_missing_stats () =
  let db, api = mk_skew () in
  let def, _ = compose api q_skew in
  let cp = Xnf.Translate.compile_def db def in
  Alcotest.(check bool) "no ANALYZE -> static rules" false (Xnf.Translate.cost_based cp);
  Alcotest.(check strat) "static rules keep the index" Xnf.Translate.S_indexed
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp))

let test_matrix_fresh_stats () =
  let db, api = mk_skew () in
  (* make the skew visible to ANALYZE — and widen the frontier well past
     ndv(g), the regime where per-probe buckets (rows/ndv(g) candidates
     each) cost more than one hash build over the child *)
  drift db;
  ignore
    (Db.exec db
       ("INSERT INTO sp VALUES "
       ^ String.concat ", " (List.init 50 (fun k -> Printf.sprintf "(%d, 5)" (10 + k)))));
  ignore (Db.exec db "ANALYZE");
  let def, _ = compose api q_skew in
  let cp = Xnf.Translate.compile_def db def in
  Alcotest.(check bool) "fresh stats -> cost model" true (Xnf.Translate.cost_based cp);
  Alcotest.(check strat) "cost model sees the skewed bucket" Xnf.Translate.S_hash
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp))

let test_matrix_stale_stats () =
  let db, api = mk_skew () in
  drift db;
  ignore (Db.exec db "ANALYZE");
  ignore (Db.exec db "INSERT INTO sc VALUES (9000, 0, 0)");
  let def, _ = compose api q_skew in
  let cp = Xnf.Translate.compile_def db def in
  Alcotest.(check bool) "DML after ANALYZE -> stale -> static rules" false
    (Xnf.Translate.cost_based cp);
  Alcotest.(check strat) "static fallback" Xnf.Translate.S_indexed
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp))

let switch_t =
  Alcotest.testable (fun ppf (_ : Xnf.Translate.switch_rec) -> Fmt.string ppf "sw") ( = )

let test_force_wins_over_cost () =
  let db, api = mk_skew () in
  drift db;
  ignore (Db.exec db "ANALYZE");
  let def, restrs = compose api q_skew in
  let cp = Xnf.Translate.compile_def ~force:Xnf.Translate.S_indexed db def in
  Alcotest.(check bool) "?force is never cost-based" false (Xnf.Translate.cost_based cp);
  Alcotest.(check strat) "?force=indexed honored despite the stats" Xnf.Translate.S_indexed
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp));
  (* and adaptive switching must leave a forced plan alone *)
  let b0 = switches () in
  let _ =
    with_adaptive ~factor:1. ~min_rows:1 (fun () -> Xnf.Translate.execute_def db cp restrs)
  in
  Alcotest.(check int) "no switch on a forced plan" b0 (switches ());
  Alcotest.(check (list switch_t)) "no switch recorded" [] (Xnf.Translate.switches cp)

(* ---- adaptive fallback ---- *)

let test_adaptive_switch_fires () =
  let db, api = mk_skew () in
  ignore (Db.exec db "ANALYZE");
  let def, restrs = compose api q_skew in
  let cp = Xnf.Translate.compile_def db def in
  Alcotest.(check strat) "uniform data: cost model picks indexed" Xnf.Translate.S_indexed
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp));
  (* inject drift AFTER compile: estimates stand, reality moved *)
  drift db;
  let b0 = switches () in
  let cache = Xnf.Translate.execute_def db cp restrs in
  Alcotest.(check int) "exactly one switch" (b0 + 1) (switches ());
  (match Xnf.Translate.switches cp with
  | [ sw ] ->
    Alcotest.(check string) "switched edge" "e0" sw.Xnf.Translate.sw_edge;
    Alcotest.(check strat) "from the compile-time pick" Xnf.Translate.S_indexed
      sw.Xnf.Translate.sw_from;
    Alcotest.(check strat) "to batch hash" Xnf.Translate.S_hash sw.Xnf.Translate.sw_to
  | sws -> Alcotest.failf "expected one switch, got %d" (List.length sws));
  Alcotest.(check strat) "effective strategy reflects the switch" Xnf.Translate.S_hash
    (List.assoc "e0" (Xnf.Translate.effective_strategies cp));
  (* the switched execution still delivers the correct instance *)
  let oracle = Baseline.Sql_route.fetch db def in
  (match Fuzz.Oracle.compare_caches oracle cache with
  | None -> ()
  | Some d -> Alcotest.failf "switched instance diverged: %s" d)

let test_adaptive_quiet_within_tolerance () =
  let db, api = mk_skew () in
  ignore (Db.exec db "ANALYZE");
  let def, restrs = compose api q_skew in
  let cp = Xnf.Translate.compile_def db def in
  let b0 = switches () in
  (* no drift: observed counters match the estimates, nothing may fire
     even at the default thresholds *)
  let _ = Xnf.Translate.execute_def db cp restrs in
  Alcotest.(check int) "no switch without drift" b0 (switches ());
  Alcotest.(check int) "switch list empty" 0 (List.length (Xnf.Translate.switches cp));
  Alcotest.(check strat) "effective = compiled" Xnf.Translate.S_indexed
    (List.assoc "e0" (Xnf.Translate.effective_strategies cp))

let test_switch_reused_next_execution () =
  let db, api = mk_skew () in
  ignore (Db.exec db "ANALYZE");
  let def, restrs = compose api q_skew in
  let cp = Xnf.Translate.compile_def db def in
  drift db;
  let _ = Xnf.Translate.execute_def db cp restrs in
  Alcotest.(check int) "switched once" 1 (List.length (Xnf.Translate.switches cp));
  (* a warm re-execution of the same plan starts from the switched
     strategy: the drift is already served by hash, so no new switch *)
  let b0 = switches () in
  let cache = Xnf.Translate.execute_def db cp restrs in
  Alcotest.(check int) "no re-switch on the warm run" b0 (switches ());
  Alcotest.(check int) "still exactly one switch recorded" 1
    (List.length (Xnf.Translate.switches cp));
  Alcotest.(check strat) "hash still effective" Xnf.Translate.S_hash
    (List.assoc "e0" (Xnf.Translate.effective_strategies cp));
  let oracle = Baseline.Sql_route.fetch db def in
  (match Fuzz.Oracle.compare_caches oracle cache with
  | None -> ()
  | Some d -> Alcotest.failf "warm switched instance diverged: %s" d)

(* ---- point root over an unindexed child ----

   One parent (k = 7) joins a 2,000-row child on the unindexed fk (20
   matches) — the oo1_closure root edge in miniature (and
   examples/converge/g7_point_root.xnf). Generic would re-read and join
   the whole child extent on every execution, so the honest cost picks
   hash-batch; a hair-trigger adaptive check must re-cost with the same
   function and keep it. *)

let test_point_root_adaptive_keeps_hash () =
  let db = Db.create () in
  execs db
    ([ "CREATE TABLE pp (k INTEGER PRIMARY KEY, f INTEGER)";
       "CREATE TABLE pc (k INTEGER PRIMARY KEY, fk INTEGER, g INTEGER)";
       "INSERT INTO pp VALUES "
       ^ String.concat ", " (List.init 100 (fun k -> Printf.sprintf "(%d, %d)" k (k mod 10))) ]
    @ List.init 20 (fun b ->
          "INSERT INTO pc VALUES "
          ^ String.concat ", "
              (List.init 100 (fun i ->
                   let k = (b * 100) + i in
                   Printf.sprintf "(%d, %d, %d)" k (k mod 100) (k mod 7))))
    @ [ "ANALYZE" ]);
  let api = Xnf.Api.create db in
  let plan =
    Xnf.Fetch_plan.compile db (Xnf.Api.registry api)
      (Xnf.Xnf_parser.parse_query
         "OUT OF p0 AS (SELECT * FROM pp WHERE k = 7), c0 AS (SELECT * FROM pc), \
          e0 AS (RELATE p0, c0 WHERE (p0.k = c0.fk)) TAKE *")
  in
  Alcotest.(check bool) "cost-based" true (Xnf.Fetch_plan.cost_based plan);
  let cache =
    with_adaptive ~factor:0.5 ~min_rows:1 (fun () -> Xnf.Fetch_plan.execute db plan)
  in
  Alcotest.(check int) "children of the point root" 20
    (Xnf.Cache.live_count (Xnf.Cache.node cache "c0"));
  Alcotest.(check strat) "e0 served by hash-batch" Xnf.Translate.S_hash
    (List.assoc "e0" (Xnf.Fetch_plan.effective_strategies plan));
  Alcotest.(check (list switch_t)) "no switch recorded" [] (Xnf.Fetch_plan.switches plan)

(* ---- one servability definition ----

   [Edge_cost.candidates] over an edge's shape is the only definition of
   which strategies can serve it; a ?force pin an edge cannot serve falls
   back to generic. Over every edge of the convergence corpus, plus a
   USING edge whose link binds no parent column (hash has no probe key
   there), the strategies a forced compile keeps must be exactly the
   candidates, and every forced plan must deliver the instance of the
   SQL route ([Baseline.Sql_route], before SUCH THAT restrictions) and,
   with the query's restrictions applied, the unforced plan's instance. *)

let all_strategies = Xnf.Translate.[ S_indexed; S_hash; S_generic ]

(* one convergence group on a fresh database: its setup run, its
   OUT OF formulations returned *)
let load_group path =
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n' |> List.map String.trim
  in
  let is_query = String.starts_with ~prefix:"OUT OF" in
  let db = Db.create () in
  let api = Xnf.Api.create db in
  List.iter
    (fun l ->
      if l <> "" && not (String.starts_with ~prefix:"--" l || is_query l) then
        ignore (Xnf.Api.exec api l))
    lines;
  (db, api, List.filter is_query lines)

let check_servability db api q =
  let def, restrs = compose api q in
  let forced = List.map (fun s -> (s, Xnf.Translate.compile_def ~force:s db def)) all_strategies in
  List.iter
    (fun (es : Xnf.Translate.edge_shape) ->
      let name = es.Xnf.Translate.es_name in
      let kept =
        List.filter
          (fun s -> List.assoc name (Xnf.Translate.edge_strategies (List.assoc s forced)) = s)
          all_strategies
      in
      Alcotest.(check (list strat)) (q ^ " / " ^ name) (Edge_cost.candidates es) kept)
    (Xnf.Translate.edge_shapes (Xnf.Translate.compile_def db def));
  let reference = Baseline.Sql_route.fetch db def in
  let restricted = Xnf.Translate.execute_def db (Xnf.Translate.compile_def db def) restrs in
  List.iter
    (fun (s, cp) ->
      let name = Xnf.Translate.strategy_name s in
      (match Fuzz.Oracle.compare_caches reference (Xnf.Translate.execute_def db cp []) with
      | None -> ()
      | Some d -> Alcotest.failf "%s forced %s diverged: %s" q name d);
      match Fuzz.Oracle.compare_caches restricted (Xnf.Translate.execute_def db cp restrs) with
      | None -> ()
      | Some d -> Alcotest.failf "%s forced %s under SUCH THAT diverged: %s" q name d)
    forced;
  List.length restrs

(* the test runs in the build tree's test directory (dune copies the
   corpus there); [dune exec] runs it from the project root *)
let converge_dir =
  if Sys.file_exists "../examples/converge" then "../examples/converge" else "examples/converge"

let test_servability_agrees () =
  let groups =
    Sys.readdir converge_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xnf")
    |> List.sort compare
  in
  Alcotest.(check bool) "convergence corpus visible" true (groups <> []);
  let restrs =
    List.fold_left
      (fun n f ->
        let db, api, forms = load_group (Filename.concat converge_dir f) in
        List.fold_left (fun n q -> n + check_servability db api q) n forms)
      0 groups
  in
  (* g2_unique, g3_path and g5_pathedge carry SUCH THAT restrictions *)
  Alcotest.(check bool) "restrictions ran under every forced plan" true (restrs > 0);
  let db, api, _ = load_group (Filename.concat converge_dir "g6_using.xnf") in
  ignore
    (check_servability db api
       "OUT OF p0 AS (SELECT * FROM sp), c0 AS (SELECT * FROM sc), \
        e0 AS (RELATE p0, c0 USING slink l WHERE (p0.k + 0 = l.pk AND l.ck = c0.k)) TAKE *")

(* ---- advisor consistency with the shared estimator ---- *)

(* tiny frontier, large unique-indexed child: the shared estimator must
   make the planner pick indexed, the advisor raise no PLAN300/PLAN305
   on that plan, and a ?force=hash-batch plan draw PLAN301 recommending
   exactly the planner's unforced pick *)
let mk_unique () =
  let db = Db.create () in
  execs db
    [ "CREATE TABLE bp (k INTEGER PRIMARY KEY, f INTEGER)";
      "CREATE TABLE bc (k INTEGER PRIMARY KEY, f INTEGER)";
      "CREATE INDEX bcix ON bc (f)";
      "INSERT INTO bp VALUES "
      ^ String.concat ", " (List.init 5 (fun k -> Printf.sprintf "(%d, %d)" k k)) ];
  execs db
    (List.init 4 (fun b ->
         "INSERT INTO bc VALUES "
         ^ String.concat ", "
             (List.init 500 (fun i ->
                  let k = (b * 500) + i in
                  Printf.sprintf "(%d, %d)" k k))));
  ignore (Db.exec db "ANALYZE");
  (db, Xnf.Api.create db)

let q_unique =
  "OUT OF p0 AS (SELECT * FROM bp), c0 AS (SELECT * FROM bc), \
   e0 AS (RELATE p0, c0 WHERE (p0.k = c0.f)) TAKE *"

let codes rp = List.map (fun d -> d.Diag.code) (Check.Plan_advisor.diags rp)

let test_advisor_agrees_with_planner () =
  let db, api = mk_unique () in
  let def, _ = compose api q_unique in
  let cp = Xnf.Translate.compile_def db def in
  Alcotest.(check bool) "cost-based" true (Xnf.Translate.cost_based cp);
  Alcotest.(check strat) "planner picks indexed" Xnf.Translate.S_indexed
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp));
  let rp = Check.Plan_advisor.analyze_compiled db cp in
  List.iter
    (fun c ->
      if List.mem c (codes rp) then
        Alcotest.failf "%s raised against the cost-picked plan" c)
    [ "PLAN300"; "PLAN301"; "PLAN305" ];
  (* forcing the strategy the estimator rejects must draw PLAN301, and
     its hint must name the planner's own unforced pick *)
  let forced = Xnf.Translate.compile_def ~force:Xnf.Translate.S_hash db def in
  let rpf = Check.Plan_advisor.analyze_compiled db forced in
  (match
     List.find_opt (fun d -> d.Diag.code = "PLAN301") (Check.Plan_advisor.diags rpf)
   with
  | None -> Alcotest.fail "expected PLAN301 on the forced-worst plan"
  | Some d ->
    Alcotest.(check bool) "PLAN301 recommends the planner's pick" true
      (contains ~affix:"?force=indexed" (Option.value ~default:"" d.Diag.hint)))

let test_advisor_inversion_matches_pick () =
  (* no index anywhere: the shared estimator makes hash both the
     planner's pick and the advisor's PLAN305 inversion subject *)
  let db = Db.create () in
  execs db
    [ "CREATE TABLE ip (k INTEGER PRIMARY KEY, f INTEGER)";
      "CREATE TABLE ic (k INTEGER PRIMARY KEY, f INTEGER)";
      "INSERT INTO ip VALUES "
      ^ String.concat ", " (List.init 8 (fun k -> Printf.sprintf "(%d, %d)" k k)) ];
  execs db
    (List.init 2 (fun b ->
         "INSERT INTO ic VALUES "
         ^ String.concat ", "
             (List.init 400 (fun i ->
                  let k = (b * 400) + i in
                  Printf.sprintf "(%d, %d)" k (k mod 8)))));
  ignore (Db.exec db "ANALYZE");
  let api = Xnf.Api.create db in
  let q =
    "OUT OF p0 AS (SELECT * FROM ip), c0 AS (SELECT * FROM ic), \
     e0 AS (RELATE p0, c0 WHERE (p0.k = c0.f)) TAKE *"
  in
  let def, _ = compose api q in
  let cp = Xnf.Translate.compile_def db def in
  Alcotest.(check strat) "planner picks hash (no index)" Xnf.Translate.S_hash
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp));
  let rp = Check.Plan_advisor.analyze_compiled db cp in
  Alcotest.(check bool) "PLAN305 flags the build-side inversion" true
    (List.mem "PLAN305" (codes rp))

let suite =
  [ Alcotest.test_case "matrix: missing stats -> static" `Quick test_matrix_missing_stats;
    Alcotest.test_case "matrix: fresh stats -> cost pick" `Quick test_matrix_fresh_stats;
    Alcotest.test_case "matrix: stale stats -> static" `Quick test_matrix_stale_stats;
    Alcotest.test_case "?force wins over the cost model" `Quick test_force_wins_over_cost;
    Alcotest.test_case "adaptive switch fires on drift" `Quick test_adaptive_switch_fires;
    Alcotest.test_case "adaptive quiet within tolerance" `Quick test_adaptive_quiet_within_tolerance;
    Alcotest.test_case "switched strategy reused when warm" `Quick test_switch_reused_next_execution;
    Alcotest.test_case "point root: adaptive keeps hash" `Quick
      test_point_root_adaptive_keeps_hash;
    Alcotest.test_case "servability: candidates = forced keeps" `Quick test_servability_agrees;
    Alcotest.test_case "advisor agrees with planner" `Quick test_advisor_agrees_with_planner;
    Alcotest.test_case "PLAN305 subject is the cost pick" `Quick test_advisor_inversion_matches_pick ]
