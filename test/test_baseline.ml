(* Integration tests: baselines agree with the XNF translator. *)

open Relational

let mk () =
  let db = Db.create () in
  Workload.Company.populate db ~seed:7 ~scale:Workload.Company.small ~repr:Workload.Company.Cdb1;
  let api = Xnf.Api.create db in
  Workload.Company.register_views api ~repr:Workload.Company.Cdb1;
  (db, api)

let compose api q = Xnf.View_registry.compose (Xnf.Api.registry api) q

let sorted_rows rows = List.sort Row.compare rows

let test_unshared_translation_equivalent () =
  let db, api = mk () in
  let q = Xnf.Xnf_parser.parse_query "OUT OF ALL-DEPS TAKE *" in
  let def, _, _ = compose api q in
  let shared = Xnf.Api.fetch api q in
  let naive = Baseline.Naive_translate.extract_unshared db def in
  List.iter
    (fun (name, rows) ->
      let ni = Xnf.Cache.node shared name in
      let shared_rows =
        sorted_rows (List.map (fun t -> (Xnf.Cache.row t)) (Xnf.Cache.live_tuples ni))
      in
      let naive_rows = sorted_rows rows in
      Alcotest.(check int) ("cardinality " ^ name) (List.length shared_rows) (List.length naive_rows);
      List.iter2
        (fun a b -> Alcotest.(check bool) ("row of " ^ name) true (Row.equal a b))
        shared_rows naive_rows)
    naive.Baseline.Naive_translate.node_rows

let test_unshared_issues_more_queries () =
  let db, api = mk () in
  let q = Xnf.Xnf_parser.parse_query "OUT OF ALL-DEPS-ORG TAKE *" in
  let def, _, _ = compose api q in
  let d = Obs.Metrics.since () in
  ignore (Xnf.Api.fetch api q);
  let shared_queries = d "xnf.translate.queries" in
  let naive = Baseline.Naive_translate.extract_unshared db def in
  Alcotest.(check bool) "naive recomputes" true
    (naive.Baseline.Naive_translate.queries_issued >= shared_queries)

let test_navigational_extraction_counts () =
  let db, api = mk () in
  let q = Xnf.Xnf_parser.parse_query "OUT OF ALL-DEPS TAKE *" in
  let def, _, _ = compose api q in
  let nav = Baseline.Sql_navigator.create db in
  let fetched = Baseline.Sql_navigator.extract_navigational nav def in
  let shared = Xnf.Api.fetch api q in
  (* navigational fetches count repeats on shared children; the set-oriented
     extraction fetches every tuple once *)
  Alcotest.(check bool) "at least as many fetches" true (fetched >= Xnf.Cache.total_tuples shared);
  (* one query per parent tuple and relationship, plus one per root *)
  Alcotest.(check bool) "per-step calls dominate" true
    (Baseline.Sql_navigator.calls nav > List.length def.Xnf.Co_schema.co_nodes)

let test_lw90_instantiation () =
  let db, api = mk () in
  let q = Xnf.Xnf_parser.parse_query "OUT OF ALL-DEPS TAKE *" in
  let def, _, _ = compose api q in
  let nav = Baseline.Sql_navigator.create db in
  let objs = Baseline.Lw90.instantiate nav def in
  let shared = Xnf.Api.fetch api q in
  Alcotest.(check int) "one object tree per dept"
    (Xnf.Cache.live_count (Xnf.Cache.node shared "xdept"))
    (List.length objs);
  Alcotest.(check bool) "objects duplicated vs shared instance" true
    (Baseline.Lw90.count_objects objs >= Xnf.Cache.total_tuples shared)

let test_lw90_rejects_recursion () =
  let _, api = mk () in
  let q = Xnf.Xnf_parser.parse_query "OUT OF EXT-ALL-DEPS-ORG TAKE *" in
  let def, _, _ = compose api q in
  Alcotest.(check bool) "recursive CO unsupported" false (Baseline.Lw90.supported def)

(* the shared classifier agrees with what extract_unshared accepts: the
   supported branch runs, the unsupported branch raises Unsupported *)
let test_unshared_classifier_supported () =
  let db, api = mk () in
  let q = Xnf.Xnf_parser.parse_query "OUT OF ALL-DEPS TAKE *" in
  let def, _, _ = compose api q in
  Alcotest.(check bool) "DAG classified supported" true
    (Baseline.Naive_translate.supported def);
  let naive = Baseline.Naive_translate.extract_unshared db def in
  Alcotest.(check bool) "supported schema evaluates" true
    (naive.Baseline.Naive_translate.queries_issued > 0)

let test_unshared_classifier_unsupported () =
  let db, api = mk () in
  let q = Xnf.Xnf_parser.parse_query "OUT OF EXT-ALL-DEPS-ORG TAKE *" in
  let def, _, _ = compose api q in
  Alcotest.(check bool) "recursive CO classified unsupported" false
    (Baseline.Naive_translate.supported def);
  Alcotest.check_raises "extract_unshared raises on recursive schemas"
    (Baseline.Naive_translate.Unsupported
       "unshared inlining diverges on recursive composite objects")
    (fun () -> ignore (Baseline.Naive_translate.extract_unshared db def))

let test_modeled_ipc () =
  let db, _ = mk () in
  let nav = Baseline.Sql_navigator.create db in
  ignore (Baseline.Sql_navigator.query nav "SELECT * FROM dept");
  ignore (Baseline.Sql_navigator.query nav "SELECT * FROM emp");
  Alcotest.(check int) "two calls" 2 (Baseline.Sql_navigator.calls nav);
  Alcotest.(check (float 1e-9)) "modeled ipc" 0.0002
    (Baseline.Sql_navigator.modeled_ipc_seconds nav ~ipc_us:100.)

let suite =
  [ Alcotest.test_case "unshared translation equivalent" `Quick test_unshared_translation_equivalent;
    Alcotest.test_case "unshared issues more queries" `Quick test_unshared_issues_more_queries;
    Alcotest.test_case "navigational extraction counts" `Quick test_navigational_extraction_counts;
    Alcotest.test_case "LW90 instantiation" `Quick test_lw90_instantiation;
    Alcotest.test_case "LW90 rejects recursion" `Quick test_lw90_rejects_recursion;
    Alcotest.test_case "unshared classifier: supported branch" `Quick
      test_unshared_classifier_supported;
    Alcotest.test_case "unshared classifier: unsupported branch" `Quick
      test_unshared_classifier_unsupported;
    Alcotest.test_case "modeled IPC accounting" `Quick test_modeled_ipc ]
