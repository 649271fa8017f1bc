(* The shared access-path chooser: SQL SELECT, UPDATE/DELETE victim
   selection and XNF root evaluation agree with a scan on every result,
   and an index path reads only the rows its key selects. *)

open Relational

let exec api s = Xnf.Api.exec api s

let affected = function
  | Xnf.Api.Sql (Db.Affected n) -> n
  | _ -> Alcotest.fail "expected an affected-row count"

let root_rows api q =
  match exec api q with
  | Xnf.Api.Fetched c -> Xnf.Cache.live_count (Xnf.Cache.node c "r")
  | _ -> Alcotest.fail "expected a fetched CO"

(* a 3-row table whose column [a] holds two NULLs, optionally indexed *)
let null_table ~indexed =
  let db = Db.create () in
  let api = Xnf.Api.create db in
  Xnf.Api.set_result_cache api 0;
  List.iter
    (fun s -> ignore (exec api s))
    ([ "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)";
       "INSERT INTO t VALUES (1, NULL, 0), (2, NULL, 0), (3, 5, 0)" ]
    @ if indexed then [ "CREATE INDEX tai ON t (a)" ] else []);
  (db, api)

(* [a = NULL] is UNKNOWN on every row: no statement form may see a row,
   whether or not an index on [a] serves the restriction *)
let test_null_key () =
  let results ~indexed =
    let db, api = null_table ~indexed in
    let selected = List.length (Db.rows_of db "SELECT * FROM t WHERE a = NULL") in
    let rooted = root_rows api "OUT OF r AS (SELECT * FROM t WHERE a = NULL) TAKE *" in
    let updated = affected (exec api "UPDATE t SET b = 1 WHERE a = NULL") in
    let deleted = affected (exec api "DELETE FROM t WHERE a = NULL") in
    let left = List.length (Db.rows_of db "SELECT * FROM t WHERE b = 0") in
    [ selected; rooted; updated; deleted; left ]
  in
  let scanned = results ~indexed:false in
  Alcotest.(check (list int)) "scan: nothing matches a = NULL" [ 0; 0; 0; 0; 3 ] scanned;
  Alcotest.(check (list int)) "index agrees with the scan" scanned (results ~indexed:true)

(* rows of [table] read while [f] runs, through the table's touch hook *)
let touched ?(table = "part") db f =
  let t = Catalog.table (Db.catalog db) table in
  let n = ref 0 in
  Table.set_touch t (Some (fun _ -> incr n));
  Fun.protect ~finally:(fun () -> Table.set_touch t None) (fun () -> ignore (f ()));
  !n

let test_index_reads_one_row () =
  let db = Db.create () in
  let api = Xnf.Api.create db in
  ignore (exec api "CREATE TABLE part (id INTEGER PRIMARY KEY, g INTEGER)");
  for i = 0 to 199 do
    ignore (exec api (Printf.sprintf "INSERT INTO part VALUES (%d, %d)" i (i mod 7)))
  done;
  ignore (exec api "PREPARE pt AS OUT OF r AS (SELECT * FROM part WHERE id = ?) TAKE *");
  let fetched = ref 0 in
  Alcotest.(check int) "EXECUTE of a point root reads 1 row" 1
    (touched db (fun () ->
         let c = Xnf.Api.execute_prepared api "pt" [ Value.Int 7 ] in
         fetched := Xnf.Cache.live_count (Xnf.Cache.node c "r")));
  Alcotest.(check int) "and delivers it" 1 !fetched;
  Alcotest.(check int) "PK UPDATE reads 1 row" 1
    (touched db (fun () -> exec api "UPDATE part SET g = 9 WHERE id = 11"));
  Alcotest.(check int) "PK DELETE reads 1 row" 1
    (touched db (fun () -> exec api "DELETE FROM part WHERE id = 12"));
  (* a key hidden behind arithmetic is not sargable: the scan fallback *)
  Alcotest.(check int) "id + 0 = k scans every row" 199
    (touched db (fun () -> exec api "UPDATE part SET g = 8 WHERE id + 0 = 13"));
  Alcotest.(check (list int)) "the scanned UPDATE hit its row" [ 8 ]
    (List.map (fun r -> Value.as_int r.(0)) (Db.rows_of db "SELECT g FROM part WHERE id = 13"))

(* the chooser's rule: first index whose every key column is bound by a
   literal/parameter equality, either operand order; the rest is residual *)
let test_choose_rule () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE c (k INTEGER PRIMARY KEY, x INTEGER, y INTEGER)");
  ignore (Db.exec db "CREATE INDEX cxy ON c (x, y)");
  let t = Catalog.table (Db.catalog db) "c" in
  let lit i = Expr.Lit (Value.Int i) in
  let eq a b = Expr.Cmp (Expr.Eq, a, b) in
  let ge = Expr.Cmp (Expr.Ge, Expr.Col 1, lit 0) in
  let show conjuncts = Access_path.describe (Access_path.choose t conjuncts) in
  Alcotest.(check string) "half a composite key scans" "scan" (show [ eq (Expr.Col 1) (lit 1) ]);
  Alcotest.(check string) "flipped operands bind" "index:cxy"
    (show [ eq (lit 2) (Expr.Col 2); ge; eq (Expr.Col 1) (Expr.Param 0) ]);
  Alcotest.(check string) "column = column does not bind" "scan"
    (show [ eq (Expr.Col 0) (Expr.Col 1) ]);
  match Access_path.choose t [ ge; eq (Expr.Col 0) (lit 4) ] with
  | Access_path.Index { key; residual; _ } ->
    Alcotest.(check int) "one key expression" 1 (List.length key);
    Alcotest.(check bool) "residual keeps the range conjunct" true (residual = [ ge ])
  | Access_path.Scan -> Alcotest.fail "k = 4 should use the primary key"

(* a correlated subquery's [inner.col = outer.col] binds a parameter: the
   inner restriction probes an index on [col] per outer row, and returns
   what the scan returns *)
let test_correlated_param_key () =
  let run ~indexed =
    let db = Db.create () in
    List.iter
      (fun s -> ignore (Db.exec db s))
      ([ "CREATE TABLE part (id INTEGER PRIMARY KEY, g INTEGER, w INTEGER)";
         "INSERT INTO part VALUES (1, 1, 10), (2, 1, 30), (3, 2, 5), (4, 2, 7), (5, NULL, 1), (6, 3, 4)" ]
      @ if indexed then [ "CREATE INDEX partg ON part (g)" ] else []);
    let rows = ref [] in
    let reads =
      touched db (fun () ->
          rows :=
            Db.rows_of db
              "SELECT p.id FROM part p WHERE p.w >= (SELECT MAX(q.w) FROM part q WHERE q.g = p.g) \
               ORDER BY p.id")
    in
    (List.map (fun r -> Value.as_int r.(0)) !rows, reads)
  in
  let scanned, scan_reads = run ~indexed:false and probed, probe_reads = run ~indexed:true in
  Alcotest.(check (list int)) "scan result" [ 2; 4; 6 ] scanned;
  Alcotest.(check (list int)) "index agrees with the scan" scanned probed;
  Alcotest.(check bool) "the index reads fewer rows" true (probe_reads < scan_reads)

(* a USING disconnect deletes its link row through an index covering the
   link's match columns when one exists, and finds the same victim *)
let test_link_delete_candidates () =
  let run ~indexed =
    let db = Db.create () in
    let api = Xnf.Api.create db in
    List.iter
      (fun s -> ignore (exec api s))
      ([ "CREATE TABLE proj (pno INTEGER PRIMARY KEY)";
         "CREATE TABLE emp (eno INTEGER PRIMARY KEY)";
         "CREATE TABLE empproj (epeno INTEGER, eppno INTEGER)";
         "INSERT INTO proj VALUES (10), (11), (12)";
         "INSERT INTO emp VALUES (1), (2), (3)";
         "INSERT INTO empproj VALUES (1, 10), (2, 10), (1, 11), (3, 11), (2, 12), (3, 12)" ]
      @ if indexed then [ "CREATE INDEX empproj_pno ON empproj (eppno)" ] else []);
    let cache =
      Xnf.Api.fetch_string api
        "OUT OF Xproj AS PROJ, Xemp AS EMP, membership AS (RELATE Xproj, Xemp USING EMPPROJ ep \
         WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno) TAKE *"
    in
    let pos node k =
      (List.find
         (fun t -> Value.equal (Xnf.Cache.col t 0) (Value.Int k))
         (Xnf.Cache.live_tuples (Xnf.Cache.node cache node)))
        .Xnf.Cache.t_pos
    in
    let ses = Xnf.Api.session api cache in
    let reads =
      touched ~table:"empproj" db (fun () ->
          Xnf.Udi.disconnect ses ~edge:"membership" ~parent:(pos "xproj" 11) ~child:(pos "xemp" 3))
    in
    let left =
      List.map
        (fun r -> (Value.as_int r.(0), Value.as_int r.(1)))
        (Db.rows_of db "SELECT epeno, eppno FROM empproj ORDER BY eppno, epeno")
    in
    (left, reads)
  in
  let scanned, scan_reads = run ~indexed:false and probed, probe_reads = run ~indexed:true in
  Alcotest.(check (list (pair int int))) "the (3, 11) link row is gone"
    [ (1, 10); (2, 10); (1, 11); (2, 12); (3, 12) ] scanned;
  Alcotest.(check (list (pair int int))) "index agrees with the scan" scanned probed;
  Alcotest.(check (pair int int)) "scan reads 6 link rows, the index the 2 under pno 11" (6, 2)
    (scan_reads, probe_reads)

(* examples/converge/g8_roots.xnf writes one point root several ways: the
   group is only a differential if some forms probe pt's primary key and
   some scan pt *)
let test_g8_forms_mix_paths () =
  let db, api, forms =
    Test_cost_pick.load_group (Filename.concat Test_cost_pick.converge_dir "g8_roots.xnf")
  in
  let root_access q =
    let def, _ = Test_cost_pick.compose api q in
    Access_path.describe (List.assoc "r" (Xnf.Translate.node_access (Xnf.Translate.compile_def db def)))
  in
  Alcotest.(check (list string)) "per-form root access"
    [ "index:pt_pk"; "index:pt_pk"; "index:pt_pk"; "scan"; "scan"; "index:pt_pk"; "index:pt_pk" ]
    (List.map root_access forms)

let suite =
  [ Alcotest.test_case "null key: index agrees with scan" `Quick test_null_key;
    Alcotest.test_case "index paths read one row" `Quick test_index_reads_one_row;
    Alcotest.test_case "chooser rule" `Quick test_choose_rule;
    Alcotest.test_case "correlated parameter key" `Quick test_correlated_param_key;
    Alcotest.test_case "link deletes use a covering index" `Quick test_link_delete_candidates;
    Alcotest.test_case "g8 forms mix index and scan" `Quick test_g8_forms_mix_paths ]
