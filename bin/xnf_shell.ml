(* Interactive SQL/XNF shell.

     dune exec bin/xnf_shell.exe                 -- empty database
     dune exec bin/xnf_shell.exe -- --demo       -- company demo database
     dune exec bin/xnf_shell.exe -- -f script.sql

   Accepts plain SQL and XNF statements (the shared-database architecture
   of Fig. 7 at the prompt). Meta commands:

     \d               list tables and views
     \co              list XNF views
     \explain <sql>   show rewritten QGM and physical plan
     \fetch <query>   load a CO and keep it as the current cache
     \show            print the current cache
     \stats           translation counters (xnf.translate.* deltas) since the
                      last \fetch
     \lint <query>    statically check an XNF/SQL statement, report diagnostics
     \advise <query>  static plan advisor: cost-annotated plan + PLAN3xx advisories
     \advisories      show the session advisory log (sys.advisories)
     \check on|off    toggle the pipeline invariant validators
     \metrics [p]     dump nonzero metrics, optionally filtered to prefix p
                      (\metrics json / \metrics prom render the registry)
     \slowlog [ms]    show or set the slow-query threshold (\slowlog off)
     \plans           list cached fetch plans and prepared statements
     \trace           print the span tree of the last traced statement
     \walk <edge>     cursor-walk the current cache across <edge>
     \export <t> <f>  write table t to CSV file f
     \import <t> <f>  bulk-load CSV file f into table t
     \checkpoint      snapshot the session to the data dir, truncate the WAL
     \recover         rebuild the session from the data dir (checkpoint + WAL)
     \q               quit

   EXPLAIN ANALYZE <query> (XNF or SQL SELECT) runs the statement under
   the instrumented executor and prints per-stage timings plus
   per-operator row counts. EXPLAIN ADVISE <query> compiles (but never
   runs) an OUT OF ... TAKE query and prints the static plan advisor's
   cost annotations and PLAN3xx advisories. *)

open Relational

let print_result = function
  | Db.Rows { Db.rschema; rrows } ->
    let cols = List.map (fun c -> c.Schema.col_name) (Schema.columns rschema) in
    Fmt.pr "%s@." (String.concat " | " cols);
    Fmt.pr "%s@." (String.make (max 10 (String.length (String.concat " | " cols))) '-');
    List.iter
      (fun row ->
        Fmt.pr "%s@."
          (String.concat " | " (List.map Value.to_string (Array.to_list row))))
      rrows;
    Fmt.pr "(%d rows)@." (List.length rrows)
  | Db.Affected n -> Fmt.pr "%d rows affected@." n
  | Db.Done msg -> Fmt.pr "%s@." msg

let print_outcome current = function
  | Xnf.Api.Fetched cache ->
    current := Some cache;
    Fmt.pr "%a" Xnf.Cache.pp cache
  | Xnf.Api.Co_deleted n -> Fmt.pr "composite object deleted: %d base rows removed@." n
  | Xnf.Api.Co_updated n -> Fmt.pr "composite object updated: %d component tuples changed@." n
  | Xnf.Api.View_defined name -> Fmt.pr "XNF view %s defined@." name
  | Xnf.Api.View_dropped name -> Fmt.pr "view %s dropped@." name
  | Xnf.Api.Prepared name -> Fmt.pr "prepared statement %s ready@." name
  | Xnf.Api.Sql r -> print_result r

let load_demo api =
  let db = Xnf.Api.db api in
  Workload.Company.populate db ~seed:1 ~scale:Workload.Company.small
    ~repr:Workload.Company.Cdb1;
  Workload.Company.register_views api ~repr:Workload.Company.Cdb1;
  Fmt.pr "demo company database loaded; XNF views: ALL-DEPS, ALL-DEPS-ORG, EXT-ALL-DEPS-ORG, ORG-UNIT@."

(* counter window of the last [\fetch]: [\stats] reports the
   xnf.translate.* counters' growth since then *)
let fetch_window = ref (Obs.Metrics.since ())

let handle_meta api current line =
  let db = Xnf.Api.db api in
  let strip prefix =
    String.trim (String.sub line (String.length prefix) (String.length line - String.length prefix))
  in
  if line = "\\q" then exit 0
  else if line = "\\d" then begin
    Fmt.pr "tables:@.";
    List.iter (fun n -> Fmt.pr "  %s@." n) (Catalog.table_names (Db.catalog db));
    Fmt.pr "system views:@.";
    List.iter (fun n -> Fmt.pr "  %s@." n) (Catalog.virtual_names (Db.catalog db))
  end
  else if line = "\\co" then begin
    Fmt.pr "XNF views:@.";
    List.iter (fun n -> Fmt.pr "  %s@." n) (Xnf.View_registry.names (Xnf.Api.registry api))
  end
  else if String.length line > 9 && String.sub line 0 9 = "\\explain " then
    Fmt.pr "%s@." (Db.explain db (strip "\\explain "))
  else if String.length line > 6 && String.sub line 0 6 = "\\lint " then begin
    let src = strip "\\lint " in
    match Check.Lint.lint_string db (Xnf.Api.registry api) src with
    | [] -> Fmt.pr "no diagnostics@."
    | ds ->
      Fmt.pr "%a" Diag.pp_list (Diag.sort ds);
      Fmt.pr "%d error(s), %d warning(s)@." (Diag.count_errors ds) (Diag.count_warnings ds)
  end
  else if String.length line > 8 && String.sub line 0 8 = "\\advise " then begin
    match Check.Plan_advisor.advise_text api (strip "\\advise ") with
    | Ok rp -> Fmt.pr "%s%!" (Check.Plan_advisor.render rp)
    | Error ds -> Fmt.pr "%a" Diag.pp_list (Diag.sort ds)
  end
  else if line = "\\advisories" then begin
    match Xnf.Api.advisories api with
    | [] -> Fmt.pr "no advisories logged@."
    | advs ->
      List.iter
        (fun (a : Xnf.Api.advisory) ->
          Fmt.pr "#%d [%s] %s[%s]: %s@." a.Xnf.Api.adv_seq a.Xnf.Api.adv_source
            a.Xnf.Api.adv_severity a.Xnf.Api.adv_code a.Xnf.Api.adv_message)
        (List.rev advs)
  end
  else if line = "\\check on" then begin
    Check.Pipeline.install ();
    Fmt.pr "pipeline invariant validators enabled@."
  end
  else if line = "\\check off" then begin
    Check.Pipeline.uninstall ();
    Fmt.pr "pipeline invariant validators disabled@."
  end
  else if line = "\\check" then
    Fmt.pr "pipeline invariant validators are %s@."
      (if Check.Pipeline.installed () then "on" else "off")
  else if String.length line > 7 && String.sub line 0 7 = "\\fetch " then begin
    fetch_window := Obs.Metrics.since ();
    let cache = Xnf.Api.fetch_string api (strip "\\fetch ") in
    current := Some cache;
    Fmt.pr "%a" Xnf.Cache.pp cache
  end
  else if line = "\\show" then begin
    match !current with
    | Some cache -> Fmt.pr "%a" Xnf.Cache.pp cache
    | None -> Fmt.pr "no composite object loaded (use \\fetch)@."
  end
  else if String.length line > 8 && String.sub line 0 8 = "\\export " then begin
    match String.split_on_char ' ' (strip "\\export ") with
    | [ table; path ] ->
      Csv_io.export_file (Catalog.table (Db.catalog db) table) path;
      Fmt.pr "exported %s to %s@." table path
    | _ -> Fmt.pr "usage: \\export <table> <file>@."
  end
  else if String.length line > 8 && String.sub line 0 8 = "\\import " then begin
    match String.split_on_char ' ' (strip "\\import ") with
    | [ table; path ] ->
      let n = Csv_io.import_file db (Catalog.table (Db.catalog db) table) path in
      Fmt.pr "imported %d rows into %s@." n table
    | _ -> Fmt.pr "usage: \\import <table> <file>@."
  end
  else if line = "\\metrics json" then Fmt.pr "%s@." (Obs.Metrics.to_json ())
  else if line = "\\metrics prom" then Fmt.pr "%s@." (Obs.Metrics.to_prometheus ())
  else if line = "\\metrics" then Fmt.pr "%a" (Obs.Metrics.dump ?prefix:None) ()
  else if String.length line > 9 && String.sub line 0 9 = "\\metrics " then
    Fmt.pr "%a" (Obs.Metrics.dump ~prefix:(strip "\\metrics ")) ()
  else if line = "\\slowlog" then begin
    match Obs.Query_stats.slowlog_ms () with
    | Some ms -> Fmt.pr "slow-query threshold: %.3f ms@." ms
    | None -> Fmt.pr "slow-query log disabled@."
  end
  else if line = "\\slowlog off" then begin
    Obs.Query_stats.set_slowlog_ms None;
    Fmt.pr "slow-query log disabled@."
  end
  else if String.length line > 9 && String.sub line 0 9 = "\\slowlog " then begin
    match float_of_string_opt (strip "\\slowlog ") with
    | Some ms when ms >= 0. ->
      Obs.Query_stats.set_slowlog_ms (Some ms);
      Fmt.pr "slow-query threshold set to %.3f ms@." ms
    | _ -> Fmt.pr "usage: \\slowlog <ms> | \\slowlog off@."
  end
  else if line = "\\trace" then begin
    match Obs.Trace.last () with
    | Some sp -> Fmt.pr "%s@." (Obs.Trace.to_string sp)
    | None -> Fmt.pr "no trace recorded yet@."
  end
  else if String.length line > 6 && String.sub line 0 6 = "\\walk " then begin
    match !current with
    | None -> Fmt.pr "no composite object loaded (use \\fetch)@."
    | Some cache -> begin
      match Xnf.Cache.edge_opt cache (strip "\\walk ") with
      | None -> Fmt.pr "unknown relationship %s@." (strip "\\walk ")
      | Some ei ->
        (* the E1-style browsing pattern: step the parent, expand children *)
        let parent = Xnf.Cursor.open_independent cache ei.Xnf.Cache.ei_parent in
        let child = Xnf.Cursor.open_dependent ~parent (Xnf.Cursor.via ei.Xnf.Cache.ei_name) in
        let steps = ref 0 and hits = ref 0 in
        Xnf.Cursor.iter
          (fun _ ->
            incr steps;
            Xnf.Cursor.iter (fun _ -> incr hits) child)
          parent;
        Fmt.pr "walked %d %s tuples, %d %s tuples via %s@." !steps
          ei.Xnf.Cache.ei_parent !hits ei.Xnf.Cache.ei_child ei.Xnf.Cache.ei_name
    end
  end
  else if line = "\\plans" then begin
    (match Xnf.Api.plans api with
    | [] -> Fmt.pr "plan cache empty@."
    | ps ->
      Fmt.pr "plan cache (most recently used first):@.";
      List.iter (fun (_, p) -> Fmt.pr "  %s@." (Xnf.Fetch_plan.describe p)) ps);
    match Xnf.Api.prepared_plans api with
    | [] -> ()
    | ps ->
      Fmt.pr "prepared statements:@.";
      List.iter (fun (n, p) -> Fmt.pr "  %-16s %s@." n (Xnf.Fetch_plan.describe p)) ps
  end
  else if line = "\\checkpoint" then begin
    match Db.data_dir db with
    | None -> Fmt.pr "no data directory (start the shell with --data DIR)@."
    | Some dir -> begin
      try
        let lsn = Xnf.Api.checkpoint api in
        Fmt.pr "checkpoint written to %s (lsn %d), wal truncated@." dir lsn
      with Db.Exec_error msg -> Fmt.pr "checkpoint failed: %s@." msg
    end
  end
  else if line = "\\recover" then begin
    match Db.data_dir db with
    | None -> Fmt.pr "no data directory (start the shell with --data DIR)@."
    | Some dir -> begin
      try
        let st = Xnf.Api.recover api in
        current := None;
        Fmt.pr
          "recovered from %s: checkpoint lsn %d, %d wal record(s) replayed, %d torn byte(s) truncated@."
          dir st.Db.rs_checkpoint_lsn st.Db.rs_replayed st.Db.rs_truncated_bytes
      with Db.Exec_error msg -> Fmt.pr "recover failed: %s@." msg
    end
  end
  else if line = "\\stats" then begin
    let d name = !fetch_window ("xnf.translate." ^ name) in
    Fmt.pr "queries issued: %d, fixpoint rounds: %d, tuples probed: %d@." (d "queries")
      (d "rounds") (d "tuples_probed");
    Fmt.pr "indexed probers: %d, hash-batch probers: %d, generic probers: %d@."
      (d "indexed_probes") (d "hash_edges") (d "generic_probes")
  end
  else Fmt.pr "unknown command %s@." line

let run_line api current line =
  let line = String.trim line in
  if line = "" then ()
  else if line.[0] = '\\' then handle_meta api current line
  else if String.length line > 16 && String.lowercase_ascii (String.sub line 0 16) = "explain analyze " then begin
    let body = String.trim (String.sub line 16 (String.length line - 16)) in
    try Fmt.pr "%s@." (Xnf.Api.explain_analyze api body) with
    | Sql_lexer.Parse_error msg -> Fmt.pr "parse error: %s@." msg
    | Binder.Bind_error msg -> Fmt.pr "semantic error: %s@." msg
    | Xnf.Api.Api_error msg -> Fmt.pr "error: %s@." msg
    | Xnf.Translate.Translate_error msg -> Fmt.pr "translation error: %s@." msg
  end
  else if String.length line > 15 && String.lowercase_ascii (String.sub line 0 15) = "explain advise " then begin
    let body = String.trim (String.sub line 15 (String.length line - 15)) in
    match Check.Plan_advisor.advise_text api body with
    | Ok rp -> Fmt.pr "%s%!" (Check.Plan_advisor.render rp)
    | Error ds -> Fmt.pr "%a" Diag.pp_list (Diag.sort ds)
  end
  else
    try print_outcome current (Xnf.Api.exec api line) with
    | Sql_lexer.Parse_error msg -> Fmt.pr "parse error: %s@." msg
    | Binder.Bind_error msg -> Fmt.pr "semantic error: %s@." msg
    | Db.Exec_error msg -> Fmt.pr "execution error: %s@." msg
    | Xnf.Co_schema.Schema_error msg -> Fmt.pr "CO schema error: %s@." msg
    | Xnf.View_registry.View_error msg -> Fmt.pr "view error: %s@." msg
    | Xnf.Translate.Translate_error msg -> Fmt.pr "translation error: %s@." msg
    | Xnf.Cache.Cache_error msg -> Fmt.pr "cache error: %s@." msg
    | Xnf.Api.Api_error msg -> Fmt.pr "error: %s@." msg
    | Txn.Txn_error msg -> Fmt.pr "transaction error: %s@." msg
    | Catalog.Unknown_table t -> Fmt.pr "unknown table: %s@." t
    | Catalog.Duplicate_name n -> Fmt.pr "duplicate name: %s@." n
    | Check.Pipeline.Invariant_violation ds ->
      Fmt.pr "internal invariant violation:@.%a" Diag.pp_list ds

let repl api =
  let current = ref None in
  Fmt.pr "SQL/XNF shell — \\q quits, \\d lists tables, \\co lists XNF views, \\metrics and \\trace observe@.";
  try
    while true do
      Fmt.pr "xnf> %!";
      let line = input_line stdin in
      run_line api current line
    done
  with End_of_file -> ()

let run_file api path =
  let current = ref None in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          let line = String.trim line in
          if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "--") then begin
            Fmt.pr "xnf> %s@." line;
            run_line api current line
          end
        done
      with End_of_file -> ())

(* Batch linter over a statement file: lint every non-comment line,
   print diagnostics with their line number, exit nonzero when any
   error-severity diagnostic is found. Clean CREATE VIEW statements are
   registered so later statements can import them. *)
let lint_file api ~json path =
  let db = Xnf.Api.db api in
  let reg = Xnf.Api.registry api in
  let ic = open_in path in
  let errors = ref 0 and warnings = ref 0 and stmts = ref 0 and lineno = ref 0 in
  let collected = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          incr lineno;
          if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "--") then begin
            incr stmts;
            let ds = Check.Lint.lint_string db reg line in
            errors := !errors + Diag.count_errors ds;
            warnings := !warnings + Diag.count_warnings ds;
            if json then collected := !collected @ ds
            else List.iter (fun d -> Fmt.pr "%s:%d: %a@." path !lineno Diag.pp d) (Diag.sort ds);
            if not (Diag.has_errors ds) then begin
              match Xnf.Xnf_parser.parse_stmt line with
              | Xnf.Xnf_ast.X_create_view _ -> ignore (Xnf.Api.exec api line)
              | _ | (exception _) -> ()
            end
          end
        done
      with End_of_file -> ());
  if json then Fmt.pr "%s@." (Diag.to_json !collected)
  else Fmt.pr "%s: %d statement(s), %d error(s), %d warning(s)@." path !stmts !errors !warnings;
  if !errors > 0 then exit 1

(* Batch plan advisor over a statement file. Non-query statements (DDL,
   DML, CREATE XNF VIEW, ANALYZE) are EXECUTED so the catalog, indexes
   and statistics evolve exactly as they would in a session; every
   OUT OF ... TAKE query is compiled fresh and advised, never run. Exit
   status 1 on any error-severity diagnostic (including failed
   statements), 0 for clean or warnings/info-only runs. *)
let advise_file api ~json path =
  let ic = open_in path in
  let errors = ref 0 and warnings = ref 0 and advised = ref 0 and lineno = ref 0 in
  let collected = ref [] in
  let report ?(loc = true) ds =
    errors := !errors + Diag.count_errors ds;
    warnings := !warnings + Diag.count_warnings ds;
    if json then collected := !collected @ ds
    else
      List.iter
        (fun d ->
          if loc then Fmt.pr "%s:%d: %a@." path !lineno Diag.pp d else Fmt.pr "%a@." Diag.pp d)
        (Diag.sort ds)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = String.trim (input_line ic) in
          incr lineno;
          if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "--") then begin
            let is_query =
              match Xnf.Xnf_parser.parse_stmt line with
              | Xnf.Xnf_ast.X_query _ -> true
              | _ | (exception _) -> false
            in
            if is_query then begin
              incr advised;
              match Check.Plan_advisor.advise_text api line with
              | Ok rp -> report (Check.Plan_advisor.diags rp)
              | Error ds -> report ds
            end
            else
              try ignore (Xnf.Api.exec api line)
              with e ->
                report
                  [ Diag.err ~code:"XNF000"
                      (Printf.sprintf "statement failed: %s" (Printexc.to_string e)) ]
          end
        done
      with End_of_file -> ());
  if json then Fmt.pr "%s@." (Diag.to_json !collected)
  else
    Fmt.pr "%s: %d quer(y/ies) advised, %d error(s), %d warning(s)@." path !advised !errors
      !warnings;
  if !errors > 0 then exit 1

let main demo lint advise json data file =
  (* cmdliner also fills [data] from XNF_DATA_DIR; an empty value means
     "not durable" either way *)
  let data_dir = match data with Some "" | None -> None | some -> some in
  let db = Db.create ?data_dir () in
  let api = Xnf.Api.create db in
  (match data_dir with
  | Some dir when lint = None && advise = None -> Fmt.pr "durable session: %s@." dir
  | _ -> ());
  (* keep a few recent fetch results so repeated OUT OF queries hit the
     cache (observable via \metrics as the xnf.fetchcache counters), and
     cache compiled fetch plans across result-cache misses (\plans,
     xnf.plancache counters) *)
  Xnf.Api.set_result_cache api 8;
  Xnf.Api.set_plan_cache api 32;
  (* estimate-vs-actual drift detection on every plan-executed fetch,
     surfaced via \advisories and the sys.advisories view *)
  Check.Plan_advisor.install api;
  ignore (Check.Pipeline.install_from_env ());
  if demo then load_demo api;
  match (lint, advise, file) with
  | Some path, _, _ -> lint_file api ~json path
  | None, Some path, _ -> advise_file api ~json path
  | None, None, Some path -> run_file api path
  | None, None, None -> repl api

let cmd =
  let open Cmdliner in
  let demo =
    Arg.(value & flag & info [ "demo" ] ~doc:"Preload the demo company database and XNF views.")
  in
  let file =
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"Execute statements from $(docv) instead of reading stdin.")
  in
  let lint =
    Arg.(value & opt (some string) None & info [ "lint" ] ~docv:"FILE"
           ~doc:"Statically check every statement in $(docv) and exit; nonzero exit status \
                 when any error-severity diagnostic is reported.")
  in
  let advise =
    Arg.(value & opt (some string) None & info [ "advise" ] ~docv:"FILE"
           ~doc:"Run the static plan advisor over $(docv): non-query statements execute \
                 (so DDL and ANALYZE take effect), OUT OF queries are compiled and advised \
                 but never run. Nonzero exit status when any error-severity diagnostic is \
                 reported; warnings and advisories exit 0.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"With $(b,--lint) or $(b,--advise): report diagnostics as a JSON array \
                 instead of text.")
  in
  let data =
    Arg.(value & opt (some string) None & info [ "data" ] ~docv:"DIR" ~env:(Cmd.Env.info "XNF_DATA_DIR")
           ~doc:"Durable session directory: recover $(docv)/checkpoint.db and \
                 $(docv)/wal.log on startup (creating $(docv) if needed) and log all \
                 changes to the WAL. \\\\checkpoint and \\\\recover operate on it.")
  in
  let info =
    Cmd.info "xnf_shell" ~doc:"Interactive SQL/XNF shell"
      ~man:[ `S Manpage.s_description;
             `P "A shared relational database with the XNF composite-object extensions: \
                 plain SQL and OUT OF ... TAKE queries at the same prompt." ]
  in
  Cmd.v info Term.(const main $ demo $ lint $ advise $ json $ data $ file)

let () = exit (Cmdliner.Cmd.eval cmd)
