(* Batch hash edge execution: strategy selection (indexed > hash-batch >
   generic, and forcing), the fused one-pass fixpoint (exact
   queries_issued / fixpoint_rounds / tuples_probed / hash_* counters on
   chain, recursive and USING schemas), build reuse across warm
   EXECUTE/plan-cache hits with DML invalidation, frontier dedup under
   instance sharing, and the EXPLAIN ANALYZE / \plans strategy display. *)

open Relational
open Workload

(* xnf.translate.* counter growth since the last [mark ()] *)
let window = ref (Obs.Metrics.since ())
let mark () = window := Obs.Metrics.since ()
let tr name = !window ("xnf.translate." ^ name)

let compose api q =
  let def, restrs, _take =
    Xnf.View_registry.compose (Xnf.Api.registry api) (Xnf.Xnf_parser.parse_query q)
  in
  (def, restrs)

let strategies_of api q =
  let def, _ = compose api q in
  Xnf.Translate.edge_strategies (Xnf.Translate.compile_def (Xnf.Api.db api) def)

let node_count cache node = Xnf.Cache.live_count (Xnf.Cache.node cache node)
let conn_count cache edge = List.length (Xnf.Cache.conns_live (Xnf.Cache.edge cache edge))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let strat =
  Alcotest.testable
    (fun ppf v -> Fmt.string ppf (Xnf.Translate.strategy_name v))
    (fun a b -> a = b)

(* ---- strategy selection matrix ---- *)

(* one schema, three edges: an indexed FK, an unindexed FK (batch hash),
   and a non-equality predicate (generic) *)
let mk_matrix_api () =
  let db = Db.create () in
  List.iter
    (fun stmt -> ignore (Db.exec db stmt))
    [ "CREATE TABLE a (ka INTEGER PRIMARY KEY, lo INTEGER, hi INTEGER)";
      "CREATE TABLE b (kb INTEGER PRIMARY KEY, pa INTEGER)";
      "CREATE TABLE c (kc INTEGER PRIMARY KEY, pa INTEGER)";
      "CREATE TABLE d (kd INTEGER PRIMARY KEY, v INTEGER)";
      "CREATE INDEX b_pa ON b (pa)";
      "INSERT INTO a VALUES (1, 0, 10)";
      "INSERT INTO b VALUES (1, 1), (2, 1)";
      "INSERT INTO c VALUES (1, 1), (2, 2)";
      "INSERT INTO d VALUES (3, 3), (20, 20)" ];
  Xnf.Api.create db

let q_matrix =
  "OUT OF Xa AS A, Xb AS B, Xc AS C, Xd AS D, \
   eb AS (RELATE Xa, Xb WHERE Xa.ka = Xb.pa), \
   ec AS (RELATE Xa, Xc WHERE Xa.ka = Xc.pa), \
   ed AS (RELATE Xa, Xd WHERE Xd.v > Xa.lo AND Xd.v < Xa.hi) TAKE *"

let test_selection_matrix () =
  let api = mk_matrix_api () in
  let ss = strategies_of api q_matrix in
  Alcotest.(check strat) "indexed FK -> indexed" Xnf.Translate.S_indexed (List.assoc "eb" ss);
  Alcotest.(check strat) "unindexed FK -> batch hash" Xnf.Translate.S_hash (List.assoc "ec" ss);
  Alcotest.(check strat) "non-equality -> generic" Xnf.Translate.S_generic (List.assoc "ed" ss)

let test_forcing_and_fallback () =
  let api = mk_matrix_api () in
  let db = Xnf.Api.db api in
  let def, _ = compose api q_matrix in
  let forced f = Xnf.Translate.edge_strategies (Xnf.Translate.compile_def ~force:f db def) in
  let g = forced Xnf.Translate.S_generic in
  List.iter
    (fun e -> Alcotest.(check strat) (e ^ " forced generic") Xnf.Translate.S_generic (List.assoc e g))
    [ "eb"; "ec"; "ed" ];
  let h = forced Xnf.Translate.S_hash in
  Alcotest.(check strat) "indexed edge forced to hash" Xnf.Translate.S_hash (List.assoc "eb" h);
  Alcotest.(check strat) "generic edge: hash infeasible, falls back" Xnf.Translate.S_generic
    (List.assoc "ed" h);
  let i = forced Xnf.Translate.S_indexed in
  Alcotest.(check strat) "hash edge: index infeasible, falls back" Xnf.Translate.S_generic
    (List.assoc "ec" i)

(* every strategy must deliver the identical instance *)
let test_forced_strategies_agree () =
  let api = mk_matrix_api () in
  let db = Xnf.Api.db api in
  let def, restrs = compose api q_matrix in
  let base = Xnf.Translate.execute_def db (Xnf.Translate.compile_def db def) restrs in
  List.iter
    (fun force ->
      let alt = Xnf.Translate.execute_def db (Xnf.Translate.compile_def ~force db def) restrs in
      match Fuzz.Oracle.compare_caches base alt with
      | None -> ()
      | Some d -> Alcotest.failf "%s diverged: %s" (Xnf.Translate.strategy_name force) d)
    [ Xnf.Translate.S_indexed; Xnf.Translate.S_hash; Xnf.Translate.S_generic ]

(* ---- derived children ----

   A DISTINCT child has no base table: its extent is materialized once
   per fetch and every edge into it probes that extent, identified by
   extent index. An equi edge is served by a hash build over the extent;
   two edges reaching the same extent rows share the child tuples. *)

let mk_derived_api () =
  let db = Db.create () in
  List.iter
    (fun stmt -> ignore (Db.exec db stmt))
    [ "CREATE TABLE p (k INTEGER PRIMARY KEY, lo INTEGER)";
      "CREATE TABLE c (k INTEGER PRIMARY KEY, pf INTEGER, g INTEGER)";
      "INSERT INTO p VALUES (1, 5), (2, 6), (3, 9)";
      "INSERT INTO c VALUES (1, 1, 5), (2, 1, 5), (3, 2, 5), (4, 2, 7), (5, 4, 6), (6, NULL, 9)" ];
  Xnf.Api.create db

let q_derived =
  "OUT OF Xp AS P, Xd AS (SELECT DISTINCT pf, g FROM c), \
   e1 AS (RELATE Xp, Xd WHERE Xp.k = Xd.pf), \
   e2 AS (RELATE Xp, Xd WHERE Xp.lo = Xd.g) TAKE *"

let test_derived_child_hash () =
  let api = mk_derived_api () in
  let db = Xnf.Api.db api in
  let def, _ = compose api q_derived in
  let cp = Xnf.Translate.compile_def db def in
  List.iter
    (fun (es : Xnf.Translate.edge_shape) ->
      let name = es.Xnf.Translate.es_name in
      Alcotest.(check (list strat)) (name ^ " candidates")
        [ Xnf.Translate.S_hash; Xnf.Translate.S_generic ] (Edge_cost.candidates es);
      Alcotest.(check strat) (name ^ " picked") Xnf.Translate.S_hash
        (List.assoc name (Xnf.Translate.edge_strategies cp)))
    (Xnf.Translate.edge_shapes cp);
  let reference = Baseline.Sql_route.fetch db def in
  mark ();
  let got = Xnf.Translate.execute_def db cp [] in
  Alcotest.(check int) "one hash build per edge, over the extent" 2 (tr "hash_builds");
  (* (1,5) (2,5) (2,7) (4,6) (NULL,9): e1 reaches the first three, e2
     reaches (1,5) (2,5) (4,6) and (NULL,9); one tuple per extent row *)
  Alcotest.(check int) "child tuples deduplicated by extent index" 5 (node_count got "xd");
  Alcotest.(check int) "e1 connections" 3 (conn_count got "e1");
  Alcotest.(check int) "e2 connections" 4 (conn_count got "e2");
  List.iter
    (fun (label, cache) ->
      match Fuzz.Oracle.compare_caches reference cache with
      | None -> ()
      | Some d -> Alcotest.failf "%s diverged from the SQL route: %s" label d)
    [ ("cost-free pick", got);
      ( "forced generic",
        Xnf.Translate.execute_def db (Xnf.Translate.compile_def ~force:Xnf.Translate.S_generic db def) [] )
    ]

(* a USING table that does not exist is a coded error for a derived
   child too: the key analysis runs for every child at compile time, so
   the error does not wait for a frontier (the root here is empty) *)
let test_derived_using_missing_link () =
  let api = mk_derived_api () in
  match
    Xnf.Api.fetch_string api
      "OUT OF Xp AS (SELECT * FROM p WHERE k < 0), Xd AS (SELECT DISTINCT pf, g FROM c), \
       e AS (RELATE Xp, Xd USING nosuch L WHERE Xp.k = L.a AND L.b = Xd.pf) TAKE *"
  with
  | exception Xnf.Translate.Translate_error msg ->
    Alcotest.(check bool) ("coded: " ^ msg) true (contains msg "[XNF005]")
  | _ -> Alcotest.fail "expected a Translate_error"

(* a derived child no parent reaches is never materialized: the empty
   root leaves the edge unprobed, so the fetch runs the root query only —
   no derived-extent query, no build over it *)
let test_derived_unreached_lazy () =
  let api = mk_derived_api () in
  mark ();
  let got =
    Xnf.Api.fetch_string api
      "OUT OF Xp AS (SELECT * FROM p WHERE k < 0), Xd AS (SELECT DISTINCT pf, g FROM c), \
       e1 AS (RELATE Xp, Xd WHERE Xp.k = Xd.pf) TAKE *"
  in
  Alcotest.(check int) "no child reached" 0 (node_count got "xd");
  Alcotest.(check int) "the root query only" 1 (tr "queries");
  Alcotest.(check int) "no build over the extent" 0 (tr "hash_builds")

(* a USING edge whose link binds no parent column has no hash probe key,
   so generic serves it: each frontier row scans the link table once and
   each link row reaches its child through the link-to-child key —
   frontier x (link + matches) candidates, not frontier x link x child *)
let test_generic_using_scan () =
  let db = Db.create () in
  List.iter
    (fun stmt -> ignore (Db.exec db stmt))
    [ "CREATE TABLE sp (k INTEGER PRIMARY KEY, f INTEGER)";
      "CREATE TABLE sc (k INTEGER PRIMARY KEY, g INTEGER)";
      "CREATE TABLE slink (pk INTEGER, ck INTEGER)";
      "INSERT INTO sp VALUES " ^ String.concat ", " (List.init 10 (Printf.sprintf "(%d, 0)"));
      "INSERT INTO sc VALUES " ^ String.concat ", " (List.init 100 (Printf.sprintf "(%d, 0)"));
      "INSERT INTO slink VALUES "
      ^ String.concat ", " (List.init 100 (fun k -> Printf.sprintf "(%d, %d)" (k mod 10) k)) ];
  let api = Xnf.Api.create db in
  let def, _ =
    compose api
      "OUT OF p0 AS (SELECT * FROM sp), c0 AS (SELECT * FROM sc), \
       e0 AS (RELATE p0, c0 USING slink l WHERE (p0.k + 0 = l.pk AND l.ck = c0.k)) TAKE *"
  in
  let cp = Xnf.Translate.compile_def db def in
  Alcotest.(check strat) "generic is the only candidate" Xnf.Translate.S_generic
    (List.assoc "e0" (Xnf.Translate.edge_strategies cp));
  mark ();
  let got = Xnf.Translate.execute_def db cp [] in
  Alcotest.(check int) "frontier" 10 (tr "tuples_probed");
  Alcotest.(check int) "10 probes x (100 link rows + 100 child matches)" 2000
    (tr "candidates_scanned");
  Alcotest.(check int) "connections" 100 (conn_count got "e0");
  match Fuzz.Oracle.compare_caches (Baseline.Sql_route.fetch db def) got with
  | None -> ()
  | Some d -> Alcotest.failf "diverged from the SQL route: %s" d

(* ---- fused one-pass execution: exact counters ---- *)

(* unindexed chain of depth 2: 1 roots query + 2 builds + 2 batch probe
   passes = 5 queries, and the connections phase issues nothing *)
let test_one_pass_chain_counters () =
  let db = Db.create () in
  Chain.populate ~indexes:false db ~seed:7 ~depth:2 ~n_roots:2 ~fanout:2;
  let api = Xnf.Api.create db in
  mark ();
  let cache = Xnf.Api.fetch_string api (Chain.co_query ~depth:2) in
  Alcotest.(check int) "x0 roots" 2 (node_count cache "x0");
  Alcotest.(check int) "x1 reached" 4 (node_count cache "x1");
  Alcotest.(check int) "x2 reached" 8 (node_count cache "x2");
  Alcotest.(check int) "link1 conns" 4 (conn_count cache "link1");
  Alcotest.(check int) "link2 conns" 8 (conn_count cache "link2");
  Alcotest.(check int) "exactly one pass: roots + 2 builds + 2 probe passes" 5 (tr "queries");
  Alcotest.(check int) "hash edges selected" 2 (tr "hash_edges");
  Alcotest.(check int) "one build per edge" 2 (tr "hash_builds");
  Alcotest.(check int) "no reuse on a cold fetch" 0 (tr "hash_build_reuses");
  Alcotest.(check int) "one batch pass per edge" 2 (tr "hash_probes");
  Alcotest.(check int) "rounds" 3 (tr "rounds");
  Alcotest.(check int) "frontier sizes: 2 roots + 4 mid" 6 (tr "tuples_probed")

(* the indexed path is fused too: the same chain with FK indexes must not
   re-probe full extents after the fixpoint (1 roots query + 2 probe
   passes, nothing else) *)
let test_one_pass_indexed_counters () =
  let db = Db.create () in
  Chain.populate ~indexes:true db ~seed:7 ~depth:2 ~n_roots:2 ~fanout:2;
  let api = Xnf.Api.create db in
  mark ();
  let cache = Xnf.Api.fetch_string api (Chain.co_query ~depth:2) in
  Alcotest.(check int) "link2 conns" 8 (conn_count cache "link2");
  Alcotest.(check int) "indexed edges selected" 2 (tr "indexed_probes");
  Alcotest.(check int) "exactly one pass: roots + 2 probe passes" 3 (tr "queries")

(* recursive CO over an unindexed management tree: per-round batch passes,
   and both edges probe the one build over memp's mgrno *)
let test_recursive_tree_counters () =
  let db = Db.create () in
  let n = Chain.mgmt_tree ~indexes:false db ~levels:3 ~fanout:2 in
  Alcotest.(check int) "tree size" 7 n;
  let api = Xnf.Api.create db in
  mark ();
  let cache = Xnf.Api.fetch_string api Chain.mgmt_query in
  Alcotest.(check int) "root extracted" 1 (node_count cache "xroot");
  Alcotest.(check int) "subordinates reached" 6 (node_count cache "xemp");
  Alcotest.(check int) "top conns" 2 (conn_count cache "top");
  Alcotest.(check int) "manages conns" 4 (conn_count cache "manages");
  Alcotest.(check int) "both edges batch hash" 2 (tr "hash_edges");
  Alcotest.(check int) "one shared build over memp" 1 (tr "hash_builds");
  Alcotest.(check int) "top r1; manages r2, r3" 3 (tr "hash_probes");
  Alcotest.(check int) "rounds = tree levels" 3 (tr "rounds");
  Alcotest.(check int) "roots + 1 build + 3 passes" 5 (tr "queries");
  Alcotest.(check int) "frontier sizes 1 + 2 + 4" 7 (tr "tuples_probed")

(* closure-shaped plan: both edges hash memp on mgrno through one shared
   build, so one SQL INSERT into memp costs the next execution exactly one
   rebuild, not one per edge *)
let test_shared_build_rebuilt_once () =
  let db = Db.create () in
  ignore (Chain.mgmt_tree ~indexes:false db ~levels:3 ~fanout:2);
  let api = Xnf.Api.create db in
  Xnf.Api.set_plan_cache api 8;
  let builds () = Obs.Metrics.counter_get "xnf.translate.hash_builds" in
  ignore (Xnf.Api.fetch_string api Chain.mgmt_query);
  ignore (Xnf.Api.exec api "INSERT INTO memp VALUES (99, 0, 99)");
  let b0 = builds () in
  let cache = Xnf.Api.fetch_string api Chain.mgmt_query in
  Alcotest.(check int) "one rebuild after the insert" 1 (builds () - b0);
  Alcotest.(check int) "new subordinate reached" 7 (node_count cache "xemp")

(* USING link table without indexes: the edge chains two builds *)
let test_using_chained_builds () =
  let db = Db.create () in
  List.iter
    (fun stmt -> ignore (Db.exec db stmt))
    [ "CREATE TABLE stu (sno INTEGER PRIMARY KEY, sname VARCHAR)";
      "CREATE TABLE crs (cno INTEGER PRIMARY KEY, cname VARCHAR)";
      "CREATE TABLE enr (esno INTEGER, ecno INTEGER, grade INTEGER)";
      "INSERT INTO stu VALUES (1, 's1'), (2, 's2')";
      "INSERT INTO crs VALUES (10, 'c1'), (20, 'c2'), (30, 'c3')";
      "INSERT INTO enr VALUES (1, 10, 80), (1, 20, 90), (2, 20, 70)" ];
  let api = Xnf.Api.create db in
  let q =
    "OUT OF Xs AS STU, Xc AS CRS, \
     taking AS (RELATE Xs, Xc WITH ATTRIBUTES en.grade AS grade \
     USING ENR en WHERE Xs.sno = en.esno AND en.ecno = Xc.cno) TAKE *"
  in
  Alcotest.(check strat) "USING without indexes -> batch hash" Xnf.Translate.S_hash
    (List.assoc "taking" (strategies_of api q));
  mark ();
  let cache = Xnf.Api.fetch_string api q in
  Alcotest.(check int) "courses reached" 2 (node_count cache "xc");
  Alcotest.(check int) "enrollments" 3 (conn_count cache "taking");
  Alcotest.(check int) "link + child builds" 2 (tr "hash_builds");
  Alcotest.(check int) "one batch pass" 1 (tr "hash_probes");
  (* 1 roots query + 2 builds + 1 pass; the connections readout is free *)
  Alcotest.(check int) "queries" 4 (tr "queries");
  Alcotest.(check int) "only the student frontier is probed" 2 (tr "tuples_probed")

(* ---- build reuse across warm executions ---- *)

let test_build_reuse_plan_cache () =
  let db = Db.create () in
  Chain.populate ~indexes:false db ~seed:3 ~depth:1 ~n_roots:2 ~fanout:2;
  let api = Xnf.Api.create db in
  Xnf.Api.set_plan_cache api 8;
  let q = Chain.co_query ~depth:1 in
  mark ();
  ignore (Xnf.Api.fetch_string api q);
  Alcotest.(check int) "cold: one build" 1 (tr "hash_builds");
  Alcotest.(check int) "cold: no reuse" 0 (tr "hash_build_reuses");
  ignore (Xnf.Api.fetch_string api q);
  ignore (Xnf.Api.fetch_string api q);
  Alcotest.(check int) "warm plan-cache hits rebuild nothing" 1 (tr "hash_builds");
  Alcotest.(check int) "one reuse per warm fetch" 2 (tr "hash_build_reuses");
  (* DML on the child table bumps its version: same plan, fresh build *)
  ignore (Db.exec db "INSERT INTO t1 VALUES (99, 0, 5)");
  let cache = Xnf.Api.fetch_string api q in
  Alcotest.(check int) "stale build rebuilt" 2 (tr "hash_builds");
  Alcotest.(check int) "no bogus reuse" 2 (tr "hash_build_reuses");
  Alcotest.(check int) "new child visible" 5 (node_count cache "x1")

let test_build_reuse_prepared_execute () =
  let db = Db.create () in
  Chain.populate ~indexes:false db ~seed:3 ~depth:1 ~n_roots:2 ~fanout:2;
  let api = Xnf.Api.create db in
  Xnf.Api.prepare api ~name:"p" (Xnf.Xnf_parser.parse_query (Chain.co_query ~depth:1));
  mark ();
  ignore (Xnf.Api.execute_prepared api "p" []);
  ignore (Xnf.Api.execute_prepared api "p" []);
  ignore (Xnf.Api.execute_prepared api "p" []);
  Alcotest.(check int) "EXECUTE builds once" 1 (tr "hash_builds");
  Alcotest.(check int) "then reuses" 2 (tr "hash_build_reuses")

(* USING reuse is per source: DML on the link table rebuilds only it *)
let test_using_partial_invalidation () =
  let db = Db.create () in
  List.iter
    (fun stmt -> ignore (Db.exec db stmt))
    [ "CREATE TABLE stu (sno INTEGER PRIMARY KEY, sname VARCHAR)";
      "CREATE TABLE crs (cno INTEGER PRIMARY KEY, cname VARCHAR)";
      "CREATE TABLE enr (esno INTEGER, ecno INTEGER)";
      "INSERT INTO stu VALUES (1, 's1')";
      "INSERT INTO crs VALUES (10, 'c1'), (20, 'c2')";
      "INSERT INTO enr VALUES (1, 10)" ];
  let api = Xnf.Api.create db in
  Xnf.Api.set_plan_cache api 8;
  let q =
    "OUT OF Xs AS STU, Xc AS CRS, \
     taking AS (RELATE Xs, Xc USING ENR en WHERE Xs.sno = en.esno AND en.ecno = Xc.cno) TAKE *"
  in
  mark ();
  ignore (Xnf.Api.fetch_string api q);
  Alcotest.(check int) "cold: link + child builds" 2 (tr "hash_builds");
  ignore (Db.exec db "INSERT INTO enr VALUES (1, 20)");
  let cache = Xnf.Api.fetch_string api q in
  Alcotest.(check int) "only the link build refreshed" 3 (tr "hash_builds");
  Alcotest.(check int) "child build reused" 1 (tr "hash_build_reuses");
  Alcotest.(check int) "new enrollment delivered" 2 (conn_count cache "taking")

(* ---- frontier dedup under instance sharing ---- *)

(* diamond: d is delivered by two edges in the same round; it must enter
   the frontier (and be probed) once, while both connection sets stay
   complete *)
let test_shared_child_probed_once () =
  let db = Db.create () in
  List.iter
    (fun stmt -> ignore (Db.exec db stmt))
    [ "CREATE TABLE ta (ka INTEGER PRIMARY KEY)";
      "CREATE TABLE tb (kb INTEGER PRIMARY KEY, pa INTEGER)";
      "CREATE TABLE tc (kc INTEGER PRIMARY KEY, pa INTEGER)";
      "CREATE TABLE td (kd INTEGER PRIMARY KEY, pb INTEGER, pc INTEGER)";
      "INSERT INTO ta VALUES (1)";
      "INSERT INTO tb VALUES (5, 1)";
      "INSERT INTO tc VALUES (6, 1)";
      "INSERT INTO td VALUES (9, 5, 6)" ];
  let api = Xnf.Api.create db in
  let q =
    "OUT OF Xa AS TA, Xb AS TB, Xc AS TC, Xd AS TD, \
     ab AS (RELATE Xa, Xb WHERE Xa.ka = Xb.pa), \
     ac AS (RELATE Xa, Xc WHERE Xa.ka = Xc.pa), \
     bd AS (RELATE Xb, Xd WHERE Xb.kb = Xd.pb), \
     cd AS (RELATE Xc, Xd WHERE Xc.kc = Xd.pc) TAKE *"
  in
  mark ();
  let cache = Xnf.Api.fetch_string api q in
  Alcotest.(check int) "d delivered once" 1 (node_count cache "xd");
  Alcotest.(check int) "bd conn present" 1 (conn_count cache "bd");
  Alcotest.(check int) "cd conn present" 1 (conn_count cache "cd");
  (* round 1: a probes ab and ac (2); round 2: b probes bd, c probes cd
     (2); the shared d is pushed once and has no outgoing edge *)
  Alcotest.(check int) "no duplicate frontier pushes" 4 (tr "tuples_probed");
  Alcotest.(check int) "rounds" 3 (tr "rounds")

(* ---- EXPLAIN ANALYZE / \plans surface the strategy ---- *)

let test_explain_shows_strategy () =
  let api = mk_matrix_api () in
  let report = Xnf.Api.explain_analyze api q_matrix in
  let has needle =
    Alcotest.(check bool) ("report mentions " ^ needle) true (contains report needle)
  in
  has "strategy=indexed";
  has "strategy=hash-batch";
  has "strategy=generic"

let test_plans_describe_shows_strategy () =
  let api = mk_matrix_api () in
  Xnf.Api.set_plan_cache api 4;
  ignore (Xnf.Api.fetch_string api q_matrix);
  match Xnf.Api.plans api with
  | [] -> Alcotest.fail "plan cache is empty"
  | (_, plan) :: _ ->
    let d = Xnf.Fetch_plan.describe plan in
    Alcotest.(check bool) "describe lists per-edge strategies" true
      (contains d "ec:hash-batch" && contains d "eb:indexed" && contains d "ed:generic")

(* ---- encoded key hashing allocates nothing ---- *)

(* [Gc.allocated_bytes] only advances at minor collections on OCaml 5;
   drain the minor heap on both sides of the bracket or the delta is
   quantized by the minor-heap size. *)
let alloc_bytes f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  let after = Gc.allocated_bytes () in
  after -. before

let test_encoded_hash_zero_alloc () =
  (* Float and Str cells go through dict ids, so hashing/comparing them
     must touch only ints — the whole point of the encoded hot path *)
  let keys =
    Array.map
      (fun vs -> Array.map (fun v -> Dict.key_cell (Dict.encode v)) vs)
      [| [| Value.Str "widget"; Value.Int 7 |];
         [| Value.Float 2.5; Value.Str "" |];
         [| Value.Float 7.0; Value.Int 7 |];
         [| Value.Null; Value.Str "n\xc3\xa9" |] |]
  in
  (* cross-equality sanity: Float 7.0 normalizes onto Int 7's key id *)
  Alcotest.(check bool) "Float 7.0 key = Int 7 key" true
    (keys.(2).(0) = Dict.key_cell (Dict.encode (Value.Int 7)));
  let iters = 100_000 in
  let acc = ref 0 in
  let bytes =
    alloc_bytes (fun () ->
        for i = 1 to iters do
          let k = Array.unsafe_get keys (i land 3) in
          acc := !acc lxor Expr.Row_key.hash k;
          if Expr.Row_key.equal k (Array.unsafe_get keys ((i + 1) land 3)) then incr acc;
          if Expr.Row_key.has_null k then incr acc
        done)
  in
  Alcotest.(check bool) "hash results consumed" true (!acc <> min_int);
  (* exact zero modulo measurement noise: < 0.01 bytes per iteration *)
  Alcotest.(check bool)
    (Printf.sprintf "Row_key hash/equal/has_null allocated %.0f bytes over %d iterations" bytes
       iters)
    true (bytes < 1024.);
  (* the boxed fallback must not allocate either: decoded comparators
     still run in the naive oracle and statistics layers *)
  let boxed =
    [| Value.Str "widget"; Value.Float 2.5; Value.Float 7.0; Value.Int 7; Value.Null |]
  in
  let vbytes =
    alloc_bytes (fun () ->
        for i = 1 to iters do
          acc := !acc lxor Value.hash (Array.unsafe_get boxed (i mod 5))
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Value.hash allocated %.0f bytes over %d iterations" vbytes iters)
    true (vbytes < 1024.)

let suite =
  [ Alcotest.test_case "strategy selection matrix" `Quick test_selection_matrix;
    Alcotest.test_case "forcing and generic fallback" `Quick test_forcing_and_fallback;
    Alcotest.test_case "forced strategies agree" `Quick test_forced_strategies_agree;
    Alcotest.test_case "derived child served by hash-batch" `Quick test_derived_child_hash;
    Alcotest.test_case "derived child USING a missing table" `Quick test_derived_using_missing_link;
    Alcotest.test_case "unreached derived child not materialized" `Quick
      test_derived_unreached_lazy;
    Alcotest.test_case "generic USING scans link + matches" `Quick test_generic_using_scan;
    Alcotest.test_case "one-pass chain counters (hash)" `Quick test_one_pass_chain_counters;
    Alcotest.test_case "one-pass chain counters (indexed)" `Quick test_one_pass_indexed_counters;
    Alcotest.test_case "recursive tree counters" `Quick test_recursive_tree_counters;
    Alcotest.test_case "shared build rebuilt once after an insert" `Quick
      test_shared_build_rebuilt_once;
    Alcotest.test_case "USING chains two builds" `Quick test_using_chained_builds;
    Alcotest.test_case "build reuse via plan cache + DML staleness" `Quick
      test_build_reuse_plan_cache;
    Alcotest.test_case "build reuse via PREPARE/EXECUTE" `Quick test_build_reuse_prepared_execute;
    Alcotest.test_case "USING partial build invalidation" `Quick test_using_partial_invalidation;
    Alcotest.test_case "shared child probed once" `Quick test_shared_child_probed_once;
    Alcotest.test_case "encoded key hashing allocates nothing" `Quick test_encoded_hash_zero_alloc;
    Alcotest.test_case "EXPLAIN ANALYZE shows strategy" `Quick test_explain_shows_strategy;
    Alcotest.test_case "\\plans describe shows strategy" `Quick test_plans_describe_shows_strategy ]
