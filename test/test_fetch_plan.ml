(* Prepared fetch plans and the plan cache: warm-hit behavior, the DDL
   invalidation matrix (what must and must not invalidate a cached plan),
   parameter binding, and LRU eviction — with the xnf.plancache.* /
   xnf.plan.compiles observability counters asserted throughout. *)

open Relational

let hits () = Obs.Metrics.counter_get "xnf.plancache.hits"
let misses () = Obs.Metrics.counter_get "xnf.plancache.misses"
let invalidations () = Obs.Metrics.counter_get "xnf.plancache.invalidations"
let evictions () = Obs.Metrics.counter_get "xnf.plancache.evictions"
let compiles () = Obs.Metrics.counter_get "xnf.plan.compiles"

let mk () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "INSERT INTO dept VALUES (1, 'd1', 100), (2, 'd2', 200)";
      "INSERT INTO emp VALUES (1, 'c', 900, 1), (2, 'a', 300, 1), (3, 'b', 500, 2), (4, 'a', 100, 2)" ];
  let api = Xnf.Api.create db in
  Xnf.Api.set_plan_cache api 8;
  (db, api)

let q_all =
  "OUT OF Xdept AS DEPT, Xemp AS EMP, \
   employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *"

let live_rows cache node =
  List.map (fun t -> Array.to_list (Xnf.Cache.row t)) (Xnf.Cache.live_tuples (Xnf.Cache.node cache node))

(* ---- warm hits ---- *)

let test_warm_hit () =
  let _, api = mk () in
  let c0 = compiles () and h0 = hits () and m0 = misses () in
  let a = Xnf.Api.fetch_string api q_all in
  Alcotest.(check int) "first fetch compiles" (c0 + 1) (compiles ());
  Alcotest.(check int) "first fetch misses" (m0 + 1) (misses ());
  let b = Xnf.Api.fetch_string api q_all in
  Alcotest.(check int) "second fetch hits" (h0 + 1) (hits ());
  Alcotest.(check int) "no recompilation" (c0 + 1) (compiles ());
  Alcotest.(check int) "same instance: xemp" (List.length (live_rows a "xemp"))
    (List.length (live_rows b "xemp"));
  Alcotest.(check bool) "same rows" true (live_rows a "xemp" = live_rows b "xemp")

let test_disabled_cache_recompiles () =
  let _, api = mk () in
  Xnf.Api.set_plan_cache api 0;
  let c0 = compiles () and h0 = hits () in
  ignore (Xnf.Api.fetch_string api q_all);
  ignore (Xnf.Api.fetch_string api q_all);
  Alcotest.(check int) "no hits when disabled" h0 (hits ());
  Alcotest.(check int) "one compile per fetch when disabled" (c0 + 2) (compiles ())

(* exec and fetch_string key the plan cache by the same trimmed text *)
let test_exec_and_fetch_string_share_plan () =
  let _, api = mk () in
  let c0 = compiles () and h0 = hits () in
  (match Xnf.Api.exec api q_all with
  | Xnf.Api.Fetched _ -> ()
  | _ -> Alcotest.fail "expected Fetched outcome");
  ignore (Xnf.Api.fetch_string api ("  " ^ q_all ^ "\n"));
  Alcotest.(check int) "one compile" (c0 + 1) (compiles ());
  Alcotest.(check int) "one hit" (h0 + 1) (hits ());
  Alcotest.(check int) "one plan-cache slot" 1 (List.length (Xnf.Api.plans api))

(* ---- the invalidation matrix: what MUST invalidate ---- *)

let test_create_index_invalidates () =
  let db, api = mk () in
  let i0 = invalidations () and c0 = compiles () in
  ignore (Xnf.Api.fetch_string api q_all);
  ignore (Db.exec db "CREATE INDEX iedno ON emp (edno)");
  let cache = Xnf.Api.fetch_string api q_all in
  Alcotest.(check int) "invalidated" (i0 + 1) (invalidations ());
  Alcotest.(check int) "recompiled" (c0 + 2) (compiles ());
  Alcotest.(check int) "instance intact" 4 (List.length (live_rows cache "xemp"))

let test_drop_index_invalidates () =
  let db, api = mk () in
  ignore (Db.exec db "CREATE INDEX iedno ON emp (edno)");
  ignore (Xnf.Api.fetch_string api q_all);
  let i0 = invalidations () in
  ignore (Db.exec db "DROP INDEX iedno");
  ignore (Xnf.Api.fetch_string api q_all);
  Alcotest.(check int) "invalidated" (i0 + 1) (invalidations ())

let test_base_table_ddl_invalidates () =
  let db, api = mk () in
  ignore (Xnf.Api.fetch_string api q_all);
  let i0 = invalidations () in
  (* any catalog change conservatively invalidates, even an unrelated
     table: plans snapshot the catalog version *)
  ignore (Db.exec db "CREATE TABLE scratch (x INTEGER)");
  ignore (Xnf.Api.fetch_string api q_all);
  Alcotest.(check int) "create table invalidates" (i0 + 1) (invalidations ());
  let i1 = invalidations () in
  ignore (Db.exec db "DROP TABLE scratch");
  ignore (Xnf.Api.fetch_string api q_all);
  Alcotest.(check int) "drop table invalidates" (i1 + 1) (invalidations ())

let test_view_redefinition_invalidates () =
  let _, api = mk () in
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW V AS OUT OF Xdept AS DEPT, Xemp AS EMP, \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *");
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  Alcotest.(check int) "view fetch" 4 (List.length (live_rows cache "xemp"));
  let i0 = invalidations () in
  (* redefinition = drop + create; both bump the registry version *)
  ignore (Xnf.Api.exec api "DROP VIEW V");
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW V AS OUT OF Xdept AS DEPT, Xemp AS (SELECT * FROM EMP WHERE sal > 400), \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *");
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  Alcotest.(check int) "invalidated" (i0 + 1) (invalidations ());
  Alcotest.(check int) "new definition is served" 2 (List.length (live_rows cache "xemp"))

(* ---- the invalidation matrix: what must NOT invalidate ---- *)

let test_dml_does_not_invalidate () =
  let db, api = mk () in
  ignore (Xnf.Api.fetch_string api q_all);
  let i0 = invalidations () and h0 = hits () and c0 = compiles () in
  ignore (Db.exec db "INSERT INTO emp VALUES (5, 'e', 700, 1)");
  let cache = Xnf.Api.fetch_string api q_all in
  Alcotest.(check int) "no invalidation" i0 (invalidations ());
  Alcotest.(check int) "served warm" (h0 + 1) (hits ());
  Alcotest.(check int) "no recompilation" c0 (compiles ());
  (* the warm plan still re-reads base data *)
  Alcotest.(check int) "new row visible" 5 (List.length (live_rows cache "xemp"))

let test_udi_write_does_not_invalidate () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api q_all in
  let i0 = invalidations () and c0 = compiles () in
  (* a CO-level write through the udi layer: raises emp 1's salary *)
  let ses = Xnf.Api.session api cache in
  let ni = Xnf.Cache.node cache "xemp" in
  let pos = (List.hd (Xnf.Cache.live_tuples ni)).Xnf.Cache.t_pos in
  Xnf.Udi.update ses ~node:"xemp" ~pos [ ("sal", Value.Int 1000) ];
  let cache' = Xnf.Api.fetch_string api q_all in
  Alcotest.(check int) "no invalidation" i0 (invalidations ());
  Alcotest.(check int) "no recompilation" c0 (compiles ());
  Alcotest.(check bool) "write visible on refetch" true
    (List.exists (fun r -> List.nth r 2 = Value.Int 1000) (live_rows cache' "xemp"))

(* ---- PREPARE / EXECUTE ---- *)

let test_prepare_execute_params () =
  let _, api = mk () in
  (match
     Xnf.Api.exec api
       "PREPARE pd AS OUT OF Xdept AS DEPT, Xemp AS EMP, \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) \
        WHERE Xdept SUCH THAT dno = ? TAKE *"
   with
  | Xnf.Api.Prepared name -> Alcotest.(check string) "prepared" "pd" name
  | _ -> Alcotest.fail "expected Prepared outcome");
  let run v =
    match Xnf.Api.exec api (Printf.sprintf "EXECUTE pd (%d)" v) with
    | Xnf.Api.Fetched cache -> cache
    | _ -> Alcotest.fail "expected Fetched outcome"
  in
  Alcotest.(check int) "dno=1 keeps 2 emps" 2 (List.length (live_rows (run 1) "xemp"));
  Alcotest.(check int) "dno=2 keeps 2 emps" 2 (List.length (live_rows (run 2) "xemp"));
  Alcotest.(check int) "dno=9 keeps none" 0 (List.length (live_rows (run 9) "xemp"));
  let one = live_rows (run 1) "xemp" and two = live_rows (run 2) "xemp" in
  Alcotest.(check bool) "bindings differ" true (one <> two)

let test_prepared_survives_dml_revalidates_after_ddl () =
  let db, api = mk () in
  ignore
    (Xnf.Api.exec api
       "PREPARE pq AS OUT OF Xemp AS EMP WHERE Xemp SUCH THAT sal > ? TAKE *");
  let run v =
    match Xnf.Api.exec api (Printf.sprintf "EXECUTE pq (%d)" v) with
    | Xnf.Api.Fetched cache -> List.length (live_rows cache "xemp")
    | _ -> Alcotest.fail "expected Fetched outcome"
  in
  Alcotest.(check int) "sal>400" 2 (run 400);
  ignore (Db.exec db "INSERT INTO emp VALUES (5, 'e', 700, 1)");
  Alcotest.(check int) "DML visible without recompile" 3 (run 400);
  let i0 = invalidations () in
  ignore (Db.exec db "CREATE INDEX isal ON emp (sal)");
  Alcotest.(check int) "still correct after DDL" 3 (run 400);
  Alcotest.(check int) "prepared plan revalidated" (i0 + 1) (invalidations ())

let test_execute_errors () =
  let _, api = mk () in
  ignore
    (Xnf.Api.exec api
       "PREPARE pq AS OUT OF Xemp AS EMP WHERE Xemp SUCH THAT sal > ? TAKE *");
  (try
     ignore (Xnf.Api.exec api "EXECUTE pq");
     Alcotest.fail "expected arity error"
   with Xnf.Api.Api_error _ -> ());
  (try
     ignore (Xnf.Api.exec api "EXECUTE pq (1, 2)");
     Alcotest.fail "expected arity error"
   with Xnf.Api.Api_error _ -> ());
  try
    ignore (Xnf.Api.exec api "EXECUTE nosuch (1)");
    Alcotest.fail "expected unknown-name error"
  with Xnf.Api.Api_error _ -> ()

(* ---- LRU eviction ---- *)

let test_lru_eviction () =
  let _, api = mk () in
  Xnf.Api.set_plan_cache api 2;
  let e0 = evictions () in
  ignore (Xnf.Api.fetch_string api "OUT OF Xemp AS EMP TAKE *");
  ignore (Xnf.Api.fetch_string api "OUT OF Xdept AS DEPT TAKE *");
  Alcotest.(check int) "within capacity" e0 (evictions ());
  ignore (Xnf.Api.fetch_string api q_all);
  Alcotest.(check int) "third distinct query evicts" (e0 + 1) (evictions ());
  Alcotest.(check int) "capacity respected" 2 (List.length (Xnf.Api.plans api));
  (* the evicted (least recently used) query now misses and recompiles *)
  let m0 = misses () in
  ignore (Xnf.Api.fetch_string api "OUT OF Xemp AS EMP TAKE *");
  Alcotest.(check int) "LRU entry was evicted" (m0 + 1) (misses ())

let suite =
  [ Alcotest.test_case "warm fetches hit the plan cache" `Quick test_warm_hit;
    Alcotest.test_case "disabled cache keeps fetch-per-call" `Quick test_disabled_cache_recompiles;
    Alcotest.test_case "exec and fetch_string share one plan" `Quick
      test_exec_and_fetch_string_share_plan;
    Alcotest.test_case "CREATE INDEX invalidates" `Quick test_create_index_invalidates;
    Alcotest.test_case "DROP INDEX invalidates" `Quick test_drop_index_invalidates;
    Alcotest.test_case "base-table DDL invalidates" `Quick test_base_table_ddl_invalidates;
    Alcotest.test_case "XNF view redefinition invalidates" `Quick test_view_redefinition_invalidates;
    Alcotest.test_case "DML does not invalidate" `Quick test_dml_does_not_invalidate;
    Alcotest.test_case "udi writes do not invalidate" `Quick test_udi_write_does_not_invalidate;
    Alcotest.test_case "PREPARE/EXECUTE binds parameters" `Quick test_prepare_execute_params;
    Alcotest.test_case "prepared plans survive DML, revalidate after DDL" `Quick
      test_prepared_survives_dml_revalidates_after_ddl;
    Alcotest.test_case "EXECUTE arity and name errors" `Quick test_execute_errors;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction ]
