(* Language conformance: every construct documented in LANGUAGE.md parses
   and executes against the demo company database. This suite pins the
   documented surface — if a grammar change breaks a documented form, it
   fails here first. *)

let mk () =
  let db = Relational.Db.create () in
  Workload.Company.populate db ~seed:77 ~scale:Workload.Company.small
    ~repr:Workload.Company.Cdb1;
  let api = Xnf.Api.create db in
  Workload.Company.register_views api ~repr:Workload.Company.Cdb1;
  api

let sql_statements =
  [ "SELECT * FROM dept";
    "SELECT DISTINCT loc FROM dept";
    "SELECT d.* FROM dept d";
    "SELECT dname AS n FROM dept WHERE loc = 'NY' OR budget > 100";
    "SELECT * FROM dept d, emp e WHERE d.dno = e.edno";
    "SELECT * FROM dept d INNER JOIN emp e ON d.dno = e.edno";
    "SELECT * FROM dept d LEFT JOIN emp e ON d.dno = e.edno";
    "SELECT * FROM (SELECT dno FROM dept) sub WHERE sub.dno >= 0";
    "SELECT edno, COUNT(*), SUM(sal), AVG(sal), MIN(sal), MAX(sal) FROM emp GROUP BY edno HAVING COUNT(*) >= 1";
    "SELECT COUNT(DISTINCT loc) FROM dept";
    "SELECT dno FROM dept UNION ALL SELECT eno FROM emp";
    "SELECT dno FROM dept UNION SELECT dno FROM dept ORDER BY 1 LIMIT 2";
    "SELECT * FROM emp ORDER BY sal DESC, ename LIMIT 3";
    "SELECT * FROM emp WHERE sal BETWEEN 100 AND 10000";
    "SELECT * FROM emp WHERE ename LIKE 'emp%' AND edno IS NOT NULL";
    "SELECT * FROM emp WHERE edno IN (0, 1, 2)";
    "SELECT * FROM emp WHERE edno IN (SELECT dno FROM dept WHERE budget > 0)";
    "SELECT * FROM emp WHERE edno NOT IN (SELECT dno FROM dept WHERE budget < 0)";
    "SELECT * FROM dept d WHERE EXISTS (SELECT * FROM emp e WHERE e.edno = d.dno)";
    "SELECT * FROM dept d WHERE NOT EXISTS (SELECT * FROM emp e WHERE e.edno = d.dno AND e.sal > 999999)";
    "SELECT (SELECT MAX(sal) FROM emp) FROM dept";
    "SELECT CASE WHEN budget > 1000 THEN 'big' ELSE 'small' END FROM dept";
    "SELECT ABS(0 - dno), LOWER(dname), UPPER(loc), LENGTH(dname), MOD(dno, 2), COALESCE(NULL, dno) FROM dept";
    "INSERT INTO skills (sno, sname) VALUES (900, 'conformance')";
    "UPDATE skills SET slevel = 1 WHERE sno = 900";
    "DELETE FROM skills WHERE sno = 900";
    "CREATE TABLE conf_t (id INTEGER PRIMARY KEY, v VARCHAR(10) NOT NULL, f FLOAT, b BOOLEAN)";
    "CREATE INDEX conf_i ON conf_t (v) USING ORDERED";
    "CREATE VIEW conf_v AS SELECT id FROM conf_t";
    "SELECT * FROM conf_v";
    "DROP VIEW conf_v";
    "DROP TABLE conf_t";
    "EXPLAIN SELECT * FROM dept WHERE dno = 1";
    "BEGIN";
    "INSERT INTO skills (sno, sname) VALUES (901, 'txn')";
    "ROLLBACK" ]

let xnf_statements =
  [ (* constructor forms *)
    "OUT OF x AS DEPT TAKE *";
    "OUT OF x AS (SELECT * FROM dept WHERE loc = 'NY') TAKE *";
    "OUT OF x AS DEPT, y AS EMP, e AS (RELATE x, y WHERE x.dno = y.edno) TAKE *";
    "OUT OF x AS DEPT, y AS EMP, e AS (RELATE x p, y c WHERE p.dno = c.edno) TAKE *";
    "OUT OF p AS PROJ, e AS EMP, m AS (RELATE p, e WITH ATTRIBUTES ep.percentage AS pct \
     USING EMPPROJ ep WHERE p.pno = ep.eppno AND e.eno = ep.epeno) TAKE *";
    (* view import, closure *)
    "OUT OF ALL-DEPS TAKE *";
    "OUT OF ALL-DEPS-ORG TAKE *";
    "OUT OF EXT-ALL-DEPS-ORG TAKE *";
    "OUT OF ORG-UNIT TAKE *";
    (* restrictions *)
    "OUT OF ALL-DEPS WHERE Xemp e SUCH THAT e.sal < 5000 TAKE *";
    "OUT OF ALL-DEPS WHERE Xdept SUCH THAT budget > 0 TAKE *";
    "OUT OF ALL-DEPS WHERE employment (d, e) SUCH THAT e.sal < d.budget * 100 TAKE *";
    "OUT OF ALL-DEPS WHERE Xemp e SUCH THAT e.sal < 5000 AND Xdept SUCH THAT budget > 0 TAKE *";
    (* path expressions *)
    "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT COUNT(d->employment) >= 0 TAKE *";
    "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT EXISTS d->employment TAKE *";
    "OUT OF EXT-ALL-DEPS-ORG WHERE Xdept d SUCH THAT \
     EXISTS d->employment->(Xemp e WHERE e.sal > 0)->projmanagement TAKE *";
    "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT COUNT(d->employment->Xemp) >= 0 TAKE *";
    (* projection *)
    "OUT OF ALL-DEPS TAKE Xdept(*), Xemp(*), employment";
    "OUT OF ALL-DEPS TAKE Xdept(dname), Xemp(ename, sal), employment";
    "OUT OF ALL-DEPS WHERE Xdept SUCH THAT loc = 'NY' TAKE Xemp(*)";
    (* views *)
    "CREATE VIEW CONF-V AS OUT OF ALL-DEPS WHERE Xemp e SUCH THAT e.sal > 0 TAKE *";
    "OUT OF CONF-V TAKE *";
    "DROP VIEW CONF-V";
    (* CO DML *)
    "OUT OF x AS (SELECT * FROM skills WHERE sno < 0) DELETE *";
    "OUT OF ALL-DEPS UPDATE Xemp SET sal = sal + 0" ]

let test_sql () =
  let api = mk () in
  List.iter
    (fun s ->
      match Xnf.Api.exec api s with
      | _ -> ()
      | exception e ->
        Alcotest.failf "documented SQL failed: %s (%s)" s (Printexc.to_string e))
    sql_statements

let test_xnf () =
  let api = mk () in
  List.iter
    (fun s ->
      match Xnf.Api.exec api s with
      | _ -> ()
      | exception e ->
        Alcotest.failf "documented XNF failed: %s (%s)" s (Printexc.to_string e))
    xnf_statements

(* ---- path expressions inside COUNT/EXISTS (paper §3, Fig. 6) ----

   Reduced (ending on a relationship) and qualified (node checkpoint with
   a predicate) path forms, cross-checked three ways with the fuzz oracle
   comparators: equivalent formulations must produce identical instances,
   both reachability fixpoints must agree, and the delivered instance
   must satisfy the structural invariants. *)

let test_path_expr_oracle () =
  let api = mk () in
  let equivalent_pairs =
    [ (* COUNT >= 1 is EXISTS *)
      ( "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT COUNT(d->employment) >= 1 TAKE *",
        "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT EXISTS d->employment TAKE *" );
      (* a reduced path is its node-checkpointed form *)
      ( "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT COUNT(d->employment) >= 2 TAKE *",
        "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT COUNT(d->employment->Xemp) >= 2 TAKE *" );
      (* a qualified step with a tautological predicate reduces away *)
      ( "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT \
         EXISTS d->employment->(Xemp e WHERE e.eno = e.eno) TAKE *",
        "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT EXISTS d->employment TAKE *" );
      (* qualified COUNT keeps only children passing the predicate *)
      ( "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT \
         COUNT(d->employment->(Xemp e WHERE e.sal >= 0)) >= 1 TAKE *",
        "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT \
         EXISTS d->employment->(Xemp e WHERE e.sal >= 0) TAKE *" ) ]
  in
  List.iter
    (fun (qa, qb) ->
      let a = Xnf.Api.fetch_string api qa in
      let b = Xnf.Api.fetch_string api qb in
      (match Fuzz.Oracle.compare_caches a b with
      | Some d -> Alcotest.failf "equivalent path queries diverge:\n  %s\n  %s\n  %s" qa qb d
      | None -> ());
      (match Fuzz.Oracle.check_conn_liveness a with
      | Some d -> Alcotest.failf "conn liveness violated by %s: %s" qa d
      | None -> ());
      match Fuzz.Oracle.check_reachability a with
      | Some d -> Alcotest.failf "reachability violated by %s: %s" qa d
      | None -> ())
    equivalent_pairs;
  (* both fixpoint strategies agree on a qualified two-step path *)
  let text =
    "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT \
     EXISTS d->employment->(Xemp e WHERE e.sal > 0) TAKE *"
  in
  let q = Xnf.Xnf_parser.parse_query text in
  let semi = Xnf.Api.fetch ~fixpoint:Xnf.Translate.Semi_naive api q in
  let naive = Xnf.Api.fetch ~fixpoint:Xnf.Translate.Naive api q in
  match Fuzz.Oracle.compare_caches semi naive with
  | Some d -> Alcotest.failf "fixpoints diverge on %s: %s" text d
  | None -> ()

(* the COUNT threshold matches independent adjacency counting on the
   unrestricted instance *)
let test_count_path_threshold () =
  let api = mk () in
  let base = Xnf.Api.fetch_string api "OUT OF ALL-DEPS TAKE *" in
  let ei = Xnf.Cache.edge base "employment" in
  let expected =
    Xnf.Cache.live_tuples (Xnf.Cache.node base "xdept")
    |> List.filter (fun t -> List.length (Xnf.Cache.children base ei t.Xnf.Cache.t_pos) >= 2)
    |> List.map (fun t -> (Xnf.Cache.row t))
    |> List.sort Relational.Row.compare
  in
  let restricted =
    Xnf.Api.fetch_string api
      "OUT OF ALL-DEPS WHERE Xdept d SUCH THAT COUNT(d->employment) >= 2 TAKE *"
  in
  let got = Fuzz.Oracle.node_extent restricted "xdept" in
  Alcotest.(check int) "dept count" (List.length expected) (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "dept row" true (Relational.Row.equal a b))
    expected got

let suite =
  [ Alcotest.test_case "documented SQL surface" `Quick test_sql;
    Alcotest.test_case "documented XNF surface" `Quick test_xnf;
    Alcotest.test_case "path expressions in COUNT/EXISTS vs oracle" `Quick test_path_expr_oracle;
    Alcotest.test_case "COUNT(path) threshold vs adjacency" `Quick test_count_path_threshold ]
