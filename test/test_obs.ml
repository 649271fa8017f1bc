(* Observability: metrics registry semantics, span tracing, renderers, and
   end-to-end EXPLAIN ANALYZE through the full stack. *)

open Relational

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let quickstart_api () =
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "INSERT INTO dept VALUES (1, 'toys', 'NY', 1000), (2, 'tools', 'SF', 2000)";
      "INSERT INTO emp VALUES (10, 'alice', 1500, 1), (11, 'bob', 900, 1), (12, 'carol', 2500, 2)" ];
  let api = Xnf.Api.create db in
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW ALL-DEPS AS \
        OUT OF Xdept AS DEPT, Xemp AS EMP, \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) \
        TAKE *");
  (db, api)

(* ---- counters / gauges / histograms ---- *)

let test_counter () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  Alcotest.(check int) "starts at 0" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "incremented" 42 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "by name" 42 (Obs.Metrics.counter_get "test.counter");
  Alcotest.(check int) "absent name reads 0" 0 (Obs.Metrics.counter_get "test.nope");
  let c' = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "memoized by name" 43 (Obs.Metrics.counter_value c)

let test_gauge () =
  Obs.Metrics.reset ();
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set g 2.5;
  Alcotest.(check (float 1e-9)) "set" 2.5 (Obs.Metrics.gauge_value g);
  Obs.Metrics.set g 1.0;
  Alcotest.(check (float 1e-9)) "overwritten" 1.0 (Obs.Metrics.gauge_value g)

let test_histogram () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram ~bounds:[| 10.; 100. |] "test.hist" in
  List.iter (Obs.Metrics.observe h) [ 5.; 50.; 500.; 7. ];
  Alcotest.(check int) "count" 4 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 562. (Obs.Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "sum by name" 562. (Obs.Metrics.hist_sum_get "test.hist");
  Alcotest.check_raises "bounds must ascend" (Invalid_argument "Metrics.histogram: bounds")
    (fun () -> ignore (Obs.Metrics.histogram ~bounds:[| 2.; 1. |] "test.bad"))

let test_reset () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.reset" in
  Obs.Metrics.incr ~by:7 c;
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "registration survives reset" 1 (Obs.Metrics.counter_get "test.reset")

let test_renderers () =
  Obs.Metrics.reset ();
  Obs.Metrics.incr ~by:3 (Obs.Metrics.counter "test.render.hits");
  Obs.Metrics.observe (Obs.Metrics.histogram ~bounds:[| 10. |] "test.render.lat") 5.;
  let json = Obs.Metrics.to_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" needle) true
        (contains ~needle json))
    [ "\"test.render.hits\":3"; "\"test.render.lat\""; "+inf" ];
  let prom = Obs.Metrics.to_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "prom has %s" needle) true
        (contains ~needle prom))
    [ "test_render_hits 3"; "test_render_lat_bucket{le=\"10\"} 1";
      "test_render_lat_bucket{le=\"+Inf\"} 1"; "test_render_lat_count 1" ]

(* ---- spans ---- *)

let test_span_nesting () =
  Obs.Trace.clear ();
  let r =
    Obs.Trace.with_span "outer" (fun () ->
        Obs.Trace.with_span "inner-a" (fun () -> Obs.Trace.add_meta "k" "v");
        Obs.Trace.with_span "inner-b" (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_span returns" 17 r;
  match Obs.Trace.last () with
  | None -> Alcotest.fail "no root span recorded"
  | Some sp ->
    Alcotest.(check string) "root name" "outer" sp.Obs.Trace.sp_name;
    Alcotest.(check (list string)) "children in order" [ "inner-a"; "inner-b" ]
      (List.map (fun c -> c.Obs.Trace.sp_name) sp.Obs.Trace.sp_children);
    Alcotest.(check bool) "elapsed recorded" true (sp.Obs.Trace.sp_elapsed_ns >= 0.);
    (match Obs.Trace.find sp "inner-a" with
    | None -> Alcotest.fail "find missed inner-a"
    | Some inner ->
      Alcotest.(check (option string)) "meta" (Some "v") (Obs.Trace.meta inner "k"));
    Alcotest.(check bool) "pp renders names" true
      (contains ~needle:"inner-b" (Obs.Trace.to_string sp))

let test_span_exception_safety () =
  Obs.Trace.clear ();
  (try
     Obs.Trace.with_span "boom" (fun () ->
         Obs.Trace.with_span "child" (fun () -> failwith "expected"))
   with Failure _ -> ());
  match Obs.Trace.last () with
  | None -> Alcotest.fail "span lost on exception"
  | Some sp ->
    Alcotest.(check string) "root closed" "boom" sp.Obs.Trace.sp_name;
    (* the open-span stack must be empty again: a new root records cleanly *)
    Obs.Trace.with_span "after" (fun () -> ());
    match Obs.Trace.last () with
    | Some sp' -> Alcotest.(check string) "stack recovered" "after" sp'.Obs.Trace.sp_name
    | None -> Alcotest.fail "no span after recovery"

let test_span_disabled () =
  Obs.Trace.clear ();
  Obs.Trace.set_enabled false;
  let r = Obs.Trace.with_span "invisible" (fun () -> 5) in
  Obs.Trace.set_enabled true;
  Alcotest.(check int) "body still runs" 5 r;
  Alcotest.(check bool) "nothing recorded" true (Obs.Trace.last () = None)

(* ---- end-to-end ---- *)

let test_explain_analyze_xnf () =
  let _, api = quickstart_api () in
  Obs.Trace.clear ();
  let report = Xnf.Api.explain_analyze api "OUT OF ALL-DEPS TAKE *" in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %s" needle) true
        (contains ~needle report))
    [ "xnf.fetch"; "translate"; "cache-fill"; "fixpoint"; "Operators:"; "access=scan" ];
  (* every node and edge operator reports a positive actual row count *)
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "nonzero rows for %s" needle) true
        (contains ~needle report))
    [ "node xdept"; "rows=2"; "node xemp"; "rows=3"; "edge employment"; "conns=3" ];
  (* the edge's span carries its accumulated fixpoint probe time *)
  Alcotest.(check bool) "edge span reports probe_ms" true
    (contains ~needle:"conns=3  probe_ms=" report);
  (* a root's node span names the access path that read its base table *)
  Alcotest.(check bool) "point root probes the primary key" true
    (contains ~needle:"access=index:dept_pk"
       (Xnf.Api.explain_analyze api "OUT OF Xd AS (SELECT * FROM dept WHERE dno = 1) TAKE *"))

let test_explain_analyze_sql () =
  let _, api = quickstart_api () in
  let report = Xnf.Api.explain_analyze api "SELECT * FROM emp WHERE sal < 2000" in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %s" needle) true
        (contains ~needle report))
    [ "Plan (actual):"; "SeqScan emp"; "rows=2"; "execute"; "(2 rows)" ]

let test_pipeline_counters () =
  let _, api = quickstart_api () in
  Obs.Metrics.reset ();
  let cache = Xnf.Api.fetch_string api "OUT OF ALL-DEPS TAKE *" in
  Alcotest.(check bool) "translate queries counted" true
    (Obs.Metrics.counter_get "xnf.translate.queries" > 0);
  Alcotest.(check bool) "fixpoint rounds counted" true
    (Obs.Metrics.counter_get "xnf.translate.rounds" > 0);
  (* a repeated cursor walk produces navigation hits *)
  let depts = Xnf.Cursor.open_independent cache "xdept" in
  let emps = Xnf.Cursor.open_dependent ~parent:depts (Xnf.Cursor.via "employment") in
  for _ = 1 to 2 do
    Xnf.Cursor.iter (fun _ -> Xnf.Cursor.iter (fun _ -> ()) emps) depts
  done;
  Alcotest.(check bool) "nav hits after walk" true
    (Obs.Metrics.counter_get "xnf.cache.nav_hits" > 0);
  Alcotest.(check bool) "cursor steps counted" true
    (Obs.Metrics.counter_get "xnf.cursor.steps" > 0)

let test_fetch_result_cache () =
  let db, api = quickstart_api () in
  Xnf.Api.set_result_cache api 4;
  Obs.Metrics.reset ();
  let q = "OUT OF ALL-DEPS TAKE *" in
  let c1 = Xnf.Api.fetch_string api q in
  let c2 = Xnf.Api.fetch_string api q in
  Alcotest.(check bool) "second fetch served from cache" true (c1 == c2);
  Alcotest.(check int) "one miss" 1 (Obs.Metrics.counter_get "xnf.fetchcache.misses");
  Alcotest.(check int) "one hit" 1 (Obs.Metrics.counter_get "xnf.fetchcache.hits");
  (* a base-table write invalidates the entry (staleness check) *)
  ignore (Db.exec db "UPDATE emp SET sal = 901 WHERE eno = 11");
  let c3 = Xnf.Api.fetch_string api q in
  Alcotest.(check bool) "stale entry re-fetched" true (c1 != c3);
  Alcotest.(check int) "stale counts as miss" 2
    (Obs.Metrics.counter_get "xnf.fetchcache.misses")

let test_bufpool_metrics () =
  Obs.Metrics.reset ();
  let pool = Buffer_pool.create ~capacity:2 () in
  List.iter (Buffer_pool.access pool) [ 1; 1; 2; 3; 1 ];
  Alcotest.(check int) "pool hits" 1 (Buffer_pool.hits pool);
  Alcotest.(check int) "pool misses" 4 (Buffer_pool.misses pool);
  Alcotest.(check bool) "pool evictions happen" true (Buffer_pool.evictions pool > 0);
  Alcotest.(check int) "global hits mirror" 1 (Obs.Metrics.counter_get "bufpool.hits");
  Alcotest.(check int) "global faults mirror" 4 (Obs.Metrics.counter_get "bufpool.faults")

let suite =
  [ Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "histogram semantics" `Quick test_histogram;
    Alcotest.test_case "reset keeps registrations" `Quick test_reset;
    Alcotest.test_case "json and prometheus renderers" `Quick test_renderers;
    Alcotest.test_case "span nesting and meta" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "tracing can be disabled" `Quick test_span_disabled;
    Alcotest.test_case "explain analyze on a CO query" `Quick test_explain_analyze_xnf;
    Alcotest.test_case "explain analyze on SQL" `Quick test_explain_analyze_sql;
    Alcotest.test_case "pipeline counters" `Quick test_pipeline_counters;
    Alcotest.test_case "fetch-result cache hit/miss/staleness" `Quick test_fetch_result_cache;
    Alcotest.test_case "buffer pool metrics" `Quick test_bufpool_metrics ]
