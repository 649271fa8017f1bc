(* Integration tests: XNF query evaluation — every query family of §3 of
   the paper, checked against hand-computed instances (the F1–F6
   demonstrations of DESIGN.md). *)

open Relational

(* The Fig. 4/5 scenario:
     d1 (NY), d2 (SF)
     e1, e2 employed by d1; e5 by d2; e3, e4 unemployed (edno NULL)
     p1 owned+managed in d2 (by e5)
     e2 manages p2, p3;  e3 manages p4
     membership: e3 on p2; e4 on p2 and p4
   Restricting EXT-ALL-DEPS-ORG to NY must keep d1, e1..e4, p2..p4 and
   drop d2, e5, p1 (the paper's Fig. 5 result shape). *)
let mk_db () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER, descr VARCHAR)";
      "CREATE TABLE proj (pno INTEGER PRIMARY KEY, pname VARCHAR, pdno INTEGER, pmgrno INTEGER, pbudget INTEGER)";
      "CREATE TABLE empproj (epeno INTEGER, eppno INTEGER, percentage INTEGER)";
      "INSERT INTO dept VALUES (1, 'd1', 'NY', 1000), (2, 'd2', 'SF', 2000)";
      "INSERT INTO emp VALUES (1, 'e1', 1000, 1, 'regular'), (2, 'e2', 1800, 1, 'staff'), \
       (3, 'e3', 900, NULL, 'regular'), (4, 'e4', 2500, NULL, 'staff'), (5, 'e5', 1200, 2, 'regular')";
      "INSERT INTO proj VALUES (1, 'p1', 2, 5, 500), (2, 'p2', 1, 2, 1500), \
       (3, 'p3', 1, 2, 800), (4, 'p4', 1, 3, 3000)";
      "INSERT INTO empproj VALUES (3, 2, 50), (4, 2, 50), (4, 4, 100)" ];
  db

let mk_api () =
  let db = mk_db () in
  let api = Xnf.Api.create db in
  List.iter
    (fun v -> ignore (Xnf.Api.exec api v))
    [ "CREATE VIEW ALL-DEPS AS OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ, \
       employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno), \
       ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno) TAKE *";
      "CREATE VIEW ALL-DEPS-ORG AS OUT OF ALL-DEPS, \
       membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage AS percentage \
       USING EMPPROJ ep WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno) TAKE *";
      "CREATE VIEW EXT-ALL-DEPS-ORG AS OUT OF ALL-DEPS-ORG, \
       projmanagement AS (RELATE Xemp, Xproj WHERE Xemp.eno = Xproj.pmgrno) TAKE *" ];
  (db, api)

let node_keys cache node =
  Xnf.Cache.live_tuples (Xnf.Cache.node cache node)
  |> List.map (fun t -> Value.as_int (Xnf.Cache.col t 0))
  |> List.sort compare

let conn_count cache edge =
  List.length (Xnf.Cache.conns_live (Xnf.Cache.edge cache edge))

let fetch api s = Xnf.Api.fetch_string api s

(* F1: the basic CO constructor (§3.1) with reachability *)
let test_basic_constructor_reachability () =
  let _, api = mk_api () in
  let cache =
    fetch api
      "OUT OF Xdept AS (SELECT * FROM dept WHERE loc = 'NY'), Xemp AS EMP, Xproj AS PROJ, \
       employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno), \
       ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno) TAKE *"
  in
  Alcotest.(check (list int)) "NY dept" [ 1 ] (node_keys cache "xdept");
  (* only e1,e2 reachable; e3,e4 (NULL edno), e5 (SF) excluded *)
  Alcotest.(check (list int)) "reachable emps" [ 1; 2 ] (node_keys cache "xemp");
  Alcotest.(check (list int)) "owned projects" [ 2; 3; 4 ] (node_keys cache "xproj");
  Alcotest.(check int) "employment conns" 2 (conn_count cache "employment")

(* F2: same CO from the explicit link-table representation (Fig. 2) *)
let test_two_representations_agree () =
  let _, api = mk_api () in
  let db2 = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db2 s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, descr VARCHAR)";
      "CREATE TABLE deptemp (dedno INTEGER, deeno INTEGER)";
      "INSERT INTO dept VALUES (1, 'd1', 'NY', 1000), (2, 'd2', 'SF', 2000)";
      "INSERT INTO emp VALUES (1, 'e1', 1000, 'regular'), (2, 'e2', 1800, 'staff'), (5, 'e5', 1200, 'regular')";
      "INSERT INTO deptemp VALUES (1, 1), (1, 2), (2, 5)" ];
  let api2 = Xnf.Api.create db2 in
  let q1 =
    "OUT OF Xdept AS (SELECT * FROM dept WHERE loc = 'NY'), Xemp AS EMP, \
     employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *"
  in
  let q2 =
    "OUT OF Xdept AS (SELECT * FROM dept WHERE loc = 'NY'), Xemp AS EMP, \
     employment AS (RELATE Xdept, Xemp USING DEPTEMP de \
     WHERE Xdept.dno = de.dedno AND Xemp.eno = de.deeno) TAKE *"
  in
  let c1 = fetch api q1 and c2 = fetch api2 q2 in
  Alcotest.(check (list int)) "same employees through both representations"
    (node_keys c1 "xemp") (node_keys c2 "xemp");
  Alcotest.(check int) "same connections" (conn_count c1 "employment") (conn_count c2 "employment")

(* F3: views over views make new tuples reachable (§3.2, Fig. 3) *)
let test_view_composition_extends_reachability () =
  let _, api = mk_api () in
  let base = fetch api "OUT OF ALL-DEPS TAKE *" in
  (* without membership, e3/e4 are unreachable *)
  Alcotest.(check (list int)) "ALL-DEPS emps" [ 1; 2; 5 ] (node_keys base "xemp");
  let org = fetch api "OUT OF ALL-DEPS-ORG TAKE *" in
  Alcotest.(check (list int)) "ALL-DEPS-ORG emps" [ 1; 2; 3; 4; 5 ] (node_keys org "xemp");
  Alcotest.(check int) "membership conns" 3 (conn_count org "membership")

(* relationship attributes (§3.2) *)
let test_relationship_attributes () =
  let _, api = mk_api () in
  let org = fetch api "OUT OF ALL-DEPS-ORG TAKE *" in
  let ei = Xnf.Cache.edge org "membership" in
  Alcotest.(check int) "attr schema" 1 (Schema.arity ei.Xnf.Cache.ei_attr_schema);
  let percentages =
    Xnf.Cache.conns_live ei
    |> List.map (fun c -> Value.as_int (Xnf.Cache.conn_attrs c).(0))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "percentages" [ 50; 50; 100 ] percentages

(* node restriction (§3.3) *)
let test_node_restriction () =
  let _, api = mk_api () in
  let cache = fetch api "OUT OF ALL-DEPS WHERE Xemp e SUCH THAT e.sal < 1500 TAKE *" in
  Alcotest.(check (list int)) "cheap emps only" [ 1; 5 ] (node_keys cache "xemp");
  Alcotest.(check int) "conns follow" 2 (conn_count cache "employment");
  (* depts and projects unaffected by the employee restriction *)
  Alcotest.(check (list int)) "depts kept" [ 1; 2 ] (node_keys cache "xdept")

(* edge restriction (§3.3): discards the connection AND (via reachability)
   the child, but not the parent *)
let test_edge_restriction () =
  let _, api = mk_api () in
  let cache =
    fetch api
      "OUT OF ALL-DEPS WHERE employment (d, e) SUCH THAT e.sal < d.budget / 100 TAKE *"
  in
  (* budgets/100: d1 -> 10, d2 -> 20: nobody qualifies *)
  Alcotest.(check (list int)) "no emps" [] (node_keys cache "xemp");
  Alcotest.(check (list int)) "depts stay" [ 1; 2 ] (node_keys cache "xdept");
  Alcotest.(check int) "no employment conns" 0 (conn_count cache "employment")

(* structural projection (§3.3): dropping Xproj implicitly drops ownership *)
let test_structural_projection () =
  let _, api = mk_api () in
  let cache =
    fetch api "OUT OF ALL-DEPS WHERE Xemp e SUCH THAT e.sal < 2000 TAKE Xdept(*), Xemp(*), employment"
  in
  Alcotest.(check bool) "no xproj" true (Xnf.Cache.node_opt cache "xproj" = None);
  Alcotest.(check bool) "no ownership" true (Xnf.Cache.edge_opt cache "ownership" = None);
  Alcotest.(check (list int)) "emps" [ 1; 2; 5 ] (node_keys cache "xemp")

(* column projection in TAKE *)
let test_column_projection () =
  let _, api = mk_api () in
  let cache = fetch api "OUT OF ALL-DEPS TAKE Xdept(*), Xemp(ename, sal), employment" in
  let ni = Xnf.Cache.node cache "xemp" in
  Alcotest.(check int) "two columns" 2 (Schema.arity ni.Xnf.Cache.ni_schema);
  let t = List.hd (Xnf.Cache.live_tuples ni) in
  Alcotest.(check int) "row width" 2 (Array.length (Xnf.Cache.row t))

(* F4/F5: recursive CO and restriction on it (§3.4) *)
let test_recursive_co_fig5 () =
  let _, api = mk_api () in
  let cache =
    fetch api
      "OUT OF EXT-ALL-DEPS-ORG WHERE Xdept SUCH THAT loc = 'NY' \
       TAKE Xdept(*), employment, Xemp(*), projmanagement, membership, Xproj(*)"
  in
  Alcotest.(check (list int)) "only NY dept" [ 1 ] (node_keys cache "xdept");
  (* e1,e2 employed; p2,p3 managed by e2; e3,e4 via membership on p2;
     e3 manages p4; e4 works on p4. e5 and p1 are unreachable. *)
  Alcotest.(check (list int)) "Fig.5 employees" [ 1; 2; 3; 4 ] (node_keys cache "xemp");
  Alcotest.(check (list int)) "Fig.5 projects" [ 2; 3; 4 ] (node_keys cache "xproj");
  Alcotest.(check bool) "ownership projected away" true (Xnf.Cache.edge_opt cache "ownership" = None)

(* naive and semi-naive fixpoints agree on recursive COs *)
let test_fixpoint_equivalence () =
  let _, api = mk_api () in
  let q =
    Xnf.Xnf_parser.parse_query
      "OUT OF EXT-ALL-DEPS-ORG WHERE Xdept SUCH THAT loc = 'NY' TAKE *"
  in
  let semi = Xnf.Api.fetch ~fixpoint:Xnf.Translate.Semi_naive api q in
  let naive = Xnf.Api.fetch ~fixpoint:Xnf.Translate.Naive api q in
  (* whole instances: extents, connections and their attributes *)
  match Fuzz.Oracle.compare_caches semi naive with
  | Some d -> Alcotest.failf "naive and semi-naive instances differ: %s" d
  | None -> ()

(* path expressions in queries (§3.5) *)
let test_count_path_restriction () =
  let _, api = mk_api () in
  let cache =
    fetch api
      "OUT OF EXT-ALL-DEPS-ORG WHERE Xdept d SUCH THAT \
       COUNT(d->employment->projmanagement) >= 2 AND d.budget > 500 TAKE *"
  in
  (* d1: e1,e2 employed; e2 manages p2,p3 -> count 2; d2: e5 manages p1 -> 1 *)
  Alcotest.(check (list int)) "only d1 qualifies" [ 1 ] (node_keys cache "xdept")

let test_qualified_path_exists () =
  let _, api = mk_api () in
  let cache =
    fetch api
      "OUT OF EXT-ALL-DEPS-ORG WHERE Xdept d SUCH THAT \
       EXISTS d->employment->(Xemp e WHERE e.descr = 'staff')->projmanagement->\
       (Xproj p WHERE p.pbudget > d.budget) TAKE *"
  in
  (* d1: staff e2 manages p2 (1500 > 1000) -> kept. d2: e5 is regular -> dropped *)
  Alcotest.(check (list int)) "staff-managed big projects" [ 1 ] (node_keys cache "xdept")

(* closure (§3.6): an XNF query over a view over a view *)
let test_closure_views_over_views () =
  let _, api = mk_api () in
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW CHEAP AS OUT OF ALL-DEPS-ORG WHERE Xemp e SUCH THAT e.sal < 2000 TAKE *");
  let cache = fetch api "OUT OF CHEAP WHERE Xdept SUCH THAT loc = 'NY' TAKE *" in
  Alcotest.(check (list int)) "restriction composes" [ 1 ] (node_keys cache "xdept");
  (* sal < 2000 keeps e1,e2,e3,e5; NY keeps d1's reach: e1,e2 employed,
     e3 via membership on p2 *)
  Alcotest.(check (list int)) "composed emps" [ 1; 2; 3 ] (node_keys cache "xemp")

(* CO deletion (§3.7) *)
let test_co_delete () =
  let db, api = mk_api () in
  match
    Xnf.Api.exec api
      "OUT OF Xdept AS (SELECT * FROM dept WHERE loc = 'SF'), Xproj AS PROJ, \
       ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno) DELETE *"
  with
  | Xnf.Api.Co_deleted n ->
    (* d2 and its project p1 *)
    Alcotest.(check int) "deleted d2+p1" 2 n;
    Alcotest.(check int) "dept gone" 1 (List.length (Db.rows_of db "SELECT * FROM dept"));
    Alcotest.(check int) "proj gone" 3 (List.length (Db.rows_of db "SELECT * FROM proj"))
  | _ -> Alcotest.fail "expected Co_deleted"

(* cyclic self-relationship with role names (§2: manages) *)
let test_cyclic_roles () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, mgrno INTEGER)";
      "INSERT INTO emp VALUES (1, 'boss', NULL), (2, 'mid', 1), (3, 'leaf', 2), (4, 'stray', NULL)" ];
  let api = Xnf.Api.create db in
  let cache =
    fetch api
      "OUT OF Xboss AS (SELECT * FROM emp WHERE mgrno IS NULL AND eno = 1), Xemp AS EMP, \
       toplevel AS (RELATE Xboss b, Xemp e WHERE b.eno = e.mgrno), \
       manages AS (RELATE Xemp m, Xemp r WHERE m.eno = r.mgrno) TAKE *"
  in
  (* reachability through the recursive 'manages' edge: mid, leaf; stray is not *)
  Alcotest.(check (list int)) "management chain" [ 2; 3 ] (node_keys cache "xemp")

(* staleness detection *)
let test_staleness () =
  let db, api = mk_api () in
  let cache = fetch api "OUT OF ALL-DEPS TAKE *" in
  Alcotest.(check bool) "fresh" false (Xnf.Cache.stale cache db);
  ignore (Db.exec db "UPDATE emp SET sal = sal + 1 WHERE eno = 1");
  Alcotest.(check bool) "stale after external write" true (Xnf.Cache.stale cache db)

(* translation statistics: sharing means one materialization per node *)
let test_translate_stats () =
  let _, api = mk_api () in
  let d = Obs.Metrics.since () in
  ignore (fetch api "OUT OF ALL-DEPS TAKE *");
  let queries = d "xnf.translate.queries" in
  Alcotest.(check bool) "issued a bounded number of queries" true (queries >= 5 && queries <= 12);
  Alcotest.(check bool) "DAG converges quickly" true (d "xnf.translate.rounds" <= 3)

(* a node derived from a tabular SQL view: the two view systems compose *)
let test_node_from_sql_view () =
  let db, api = mk_api () in
  ignore (Db.exec db "CREATE VIEW ny_depts AS SELECT * FROM dept WHERE loc = 'NY'");
  let cache =
    fetch api
      "OUT OF Xdept AS (SELECT * FROM ny_depts), Xemp AS EMP, \
       employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *"
  in
  Alcotest.(check (list int)) "view-derived root" [ 1 ] (node_keys cache "xdept");
  Alcotest.(check (list int)) "reachable emps" [ 1; 2 ] (node_keys cache "xemp");
  (* such a node is not directly updatable (its base is a view) *)
  Alcotest.(check bool) "not updatable" true
    ((Xnf.Cache.node cache "xdept").Xnf.Cache.ni_upd = None)

(* udi update through a TAKE column projection: the column map re-bases *)
let test_update_after_column_projection () =
  let db, api = mk_api () in
  let cache = fetch api "OUT OF ALL-DEPS TAKE Xdept(*), Xemp(sal, ename), employment" in
  let ni = Xnf.Cache.node cache "xemp" in
  let t = List.hd (Xnf.Cache.live_tuples ni) in
  let name = Value.as_string (Xnf.Cache.col t 1) in
  let ses = Xnf.Udi.session db cache in
  Xnf.Udi.update ses ~node:"xemp" ~pos:t.Xnf.Cache.t_pos [ ("sal", Value.Int 42) ];
  let base =
    List.hd (Db.rows_of db (Printf.sprintf "SELECT sal, ename FROM emp WHERE ename = '%s'" name))
  in
  Alcotest.(check bool) "projected update lands on the right base column" true
    (Value.equal base.(0) (Value.Int 42) && Value.equal base.(1) (Value.Str name))

let suite =
  [ Alcotest.test_case "CO constructor + reachability (F1)" `Quick test_basic_constructor_reachability;
    Alcotest.test_case "two representations agree (F2)" `Quick test_two_representations_agree;
    Alcotest.test_case "views over views extend reachability (F3)" `Quick
      test_view_composition_extends_reachability;
    Alcotest.test_case "relationship attributes" `Quick test_relationship_attributes;
    Alcotest.test_case "node restriction" `Quick test_node_restriction;
    Alcotest.test_case "edge restriction" `Quick test_edge_restriction;
    Alcotest.test_case "structural projection" `Quick test_structural_projection;
    Alcotest.test_case "column projection" `Quick test_column_projection;
    Alcotest.test_case "recursive CO restriction (F4/F5)" `Quick test_recursive_co_fig5;
    Alcotest.test_case "fixpoint strategies agree" `Quick test_fixpoint_equivalence;
    Alcotest.test_case "COUNT(path) restriction" `Quick test_count_path_restriction;
    Alcotest.test_case "qualified path EXISTS" `Quick test_qualified_path_exists;
    Alcotest.test_case "closure: views over views (F6)" `Quick test_closure_views_over_views;
    Alcotest.test_case "CO deletion" `Quick test_co_delete;
    Alcotest.test_case "cyclic relationship with roles" `Quick test_cyclic_roles;
    Alcotest.test_case "staleness detection" `Quick test_staleness;
    Alcotest.test_case "node derived from SQL view" `Quick test_node_from_sql_view;
    Alcotest.test_case "update after column projection" `Quick test_update_after_column_projection;
    Alcotest.test_case "translation statistics" `Quick test_translate_stats ]
