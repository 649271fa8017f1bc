(* Unit tests: cache key indexes, ordered cursors, the fetch-result cache. *)

open Relational

let mk () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "INSERT INTO dept VALUES (1, 'd1', 100), (2, 'd2', 200)";
      "INSERT INTO emp VALUES (1, 'c', 900, 1), (2, 'a', 300, 1), (3, 'b', 500, 2), (4, 'a', 100, 2)" ];
  let api = Xnf.Api.create db in
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW V AS OUT OF Xdept AS DEPT, Xemp AS EMP, \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *");
  (db, api)

let test_key_index () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  let ki = Xnf.Cache.build_key_index cache ~node:"xemp" ~col:"ename" in
  Alcotest.(check int) "two a's" 2 (List.length (Xnf.Cache.lookup_key cache ki (Value.Str "a")));
  Alcotest.(check int) "one b" 1 (List.length (Xnf.Cache.lookup_key cache ki (Value.Str "b")));
  Alcotest.(check bool) "missing" true (Xnf.Cache.lookup_key_one cache ki (Value.Str "z") = None);
  (* tombstoned tuples are filtered out of lookups *)
  let ni = Xnf.Cache.node cache "xemp" in
  let b_pos = Option.get (Xnf.Cache.lookup_key_one cache ki (Value.Str "b")) in
  (Xnf.Cache.tuple ni b_pos).Xnf.Cache.t_live <- false;
  Alcotest.(check int) "dead filtered" 0 (List.length (Xnf.Cache.lookup_key cache ki (Value.Str "b")))

let test_key_index_errors () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  (try
     ignore (Xnf.Cache.build_key_index cache ~node:"xemp" ~col:"nosuch");
     Alcotest.fail "expected unknown column"
   with Xnf.Cache.Cache_error _ -> ());
  try
    ignore (Xnf.Cache.build_key_index cache ~node:"nosuch" ~col:"eno");
    Alcotest.fail "expected unknown node"
  with Xnf.Cache.Cache_error _ -> ()

let names c = List.map (fun t -> Value.as_string (Xnf.Cache.col t 1)) (Xnf.Cursor.to_list c)

let test_ordered_cursor () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  let asc = Xnf.Cursor.open_independent ~order:("ename", `Asc) cache "xemp" in
  Alcotest.(check (list string)) "ascending" [ "a"; "a"; "b"; "c" ] (names asc);
  let desc = Xnf.Cursor.open_independent ~order:("sal", `Desc) cache "xemp" in
  Alcotest.(check (list string)) "by salary desc" [ "c"; "b"; "a"; "a" ] (names desc);
  (* reset keeps the ordering *)
  Xnf.Cursor.reset desc;
  Alcotest.(check (list string)) "after reset" [ "c"; "b"; "a"; "a" ] (names desc)

let test_ordered_cursor_unknown_column () =
  let _, api = mk () in
  let cache = Xnf.Api.fetch_string api "OUT OF V TAKE *" in
  try
    ignore (Xnf.Cursor.open_independent ~order:("zzz", `Asc) cache "xemp");
    Alcotest.fail "expected cursor error"
  with Xnf.Cursor.Cursor_error _ -> ()

(* ---- the result cache: fresh hits, reloads, own writes ---- *)

let q_v = "OUT OF V TAKE *"

let rc_misses () = Obs.Metrics.counter_get "xnf.fetchcache.misses"

let mk_rc () =
  let db, api = mk () in
  Xnf.Api.set_result_cache api 4;
  (db, api)

let test_result_cache_fresh_hit () =
  let _, api = mk_rc () in
  let c1 = Xnf.Api.fetch_string api q_v in
  let c2 = Xnf.Api.fetch_string api q_v in
  Alcotest.(check bool) "same instance while fresh" true (c1 == c2)

let test_result_cache_reloads_on_insert () =
  let db, api = mk_rc () in
  let c1 = Xnf.Api.fetch_string api q_v in
  ignore (Db.exec db "INSERT INTO emp VALUES (9, 'z', 50, 1)");
  let m0 = rc_misses () in
  let c2 = Xnf.Api.fetch_string api q_v in
  Alcotest.(check int) "stale entry misses" (m0 + 1) (rc_misses ());
  Alcotest.(check bool) "reloaded" true (not (c1 == c2));
  Alcotest.(check int) "sees the new employee" 5
    (Xnf.Cache.live_count (Xnf.Cache.node c2 "xemp"))

let test_result_cache_saved_write_stays_fresh () =
  let _, api = mk_rc () in
  let c1 = Xnf.Api.fetch_string api q_v in
  (* a saved udi write refreshes the instance's version snapshot *)
  let ses = Xnf.Api.session api c1 in
  Xnf.Udi.with_deferred ses (fun () ->
      Xnf.Udi.update ses ~node:"xemp" ~pos:0 [ ("sal", Value.Int 901) ]);
  let c2 = Xnf.Api.fetch_string api q_v in
  Alcotest.(check bool) "own saved write does not invalidate" true (c1 == c2)

let test_result_cache_unsaved_edit () =
  let _, api = mk_rc () in
  let c1 = Xnf.Api.fetch_string api q_v in
  (* a deferred edit rewrites the cached tuple but not the base table *)
  let ses = Xnf.Api.session api c1 in
  Xnf.Udi.set_deferred ses true;
  Xnf.Udi.update ses ~node:"xemp" ~pos:0 [ ("sal", Value.Int 901) ];
  let again = Xnf.Api.fetch_string api q_v in
  Xnf.Api.set_result_cache api 0;
  let fresh = Xnf.Api.fetch_string api q_v in
  Alcotest.(check bool) "edited instance not served" true (not (c1 == again));
  match Fuzz.Oracle.compare_caches again fresh with
  | Some d -> Alcotest.failf "refetch after an unsaved edit differs from a fresh fetch: %s" d
  | None -> ()

let test_recompute_reachability_rootless () =
  let _, api = mk () in
  (* evaluate-then-project: the output drops the root; maintenance must not
     wipe the instance *)
  let cache = Xnf.Api.fetch_string api "OUT OF V WHERE Xdept SUCH THAT budget > 150 TAKE Xemp(*)" in
  Alcotest.(check int) "emps of big dept" 2 (Xnf.Cache.live_count (Xnf.Cache.node cache "xemp"));
  Xnf.Cache.recompute_reachability cache;
  Alcotest.(check int) "still there" 2 (Xnf.Cache.live_count (Xnf.Cache.node cache "xemp"))

let suite =
  [ Alcotest.test_case "key index" `Quick test_key_index;
    Alcotest.test_case "key index errors" `Quick test_key_index_errors;
    Alcotest.test_case "ordered cursor" `Quick test_ordered_cursor;
    Alcotest.test_case "ordered cursor unknown column" `Quick test_ordered_cursor_unknown_column;
    Alcotest.test_case "result cache: fresh hits" `Quick test_result_cache_fresh_hit;
    Alcotest.test_case "result cache: reload on change" `Quick test_result_cache_reloads_on_insert;
    Alcotest.test_case "result cache: own writes stay fresh" `Quick
      test_result_cache_saved_write_stays_fresh;
    Alcotest.test_case "result cache: unsaved edit refetches" `Quick
      test_result_cache_unsaved_edit;
    Alcotest.test_case "rootless projected instance" `Quick test_recompute_reachability_rootless ]
