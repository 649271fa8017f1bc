(* The static plan advisor: PLAN300-305 condition-by-condition against
   hand-built schemas, the PLAN310 estimate-vs-actual drift fixture end
   to end (ANALYZE -> skewed bulk load -> drift -> re-ANALYZE clears),
   purity of EXPLAIN ADVISE (no plan-cache or result-cache perturbation),
   and the sys.advisories view including the fingerprint join with
   sys.statements. *)

open Relational

let rows db sql =
  match Db.exec db sql with
  | Db.Rows r -> r.Db.rrows
  | _ -> Alcotest.fail ("expected rows from: " ^ sql)

let one_int db sql =
  match rows db sql with
  | [ [| Value.Int n |] ] -> n
  | _ -> Alcotest.fail ("expected a single int from: " ^ sql)

let execs db stmts = List.iter (fun s -> ignore (Db.exec db s)) stmts

let values_row f lo hi =
  String.concat ", " (List.init (hi - lo + 1) (fun i -> f (lo + i)))

(* dept 1..60 and emp 1..nemp wired emp.edno = eno (one employee per
   department for the first 50); PK indexes only, nothing on edno. *)
let mk ?(nemp = 50) () =
  let db = Db.create () in
  execs db
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "INSERT INTO dept VALUES "
      ^ values_row (fun i -> Printf.sprintf "(%d, 'd%d', %d)" i i (100 * i)) 1 60;
      "INSERT INTO emp VALUES "
      ^ values_row (fun i -> Printf.sprintf "(%d, 'e%d', %d, %d)" i i (10 * i) ((i mod 60) + 1)) 1
          nemp ];
  let api = Xnf.Api.create db in
  (db, api)

let q_works = "OUT OF d AS DEPT, e AS EMP, works AS (RELATE d, e WHERE d.dno = e.edno) TAKE *"

let plan_of api text =
  Xnf.Fetch_plan.compile (Xnf.Api.db api) (Xnf.Api.registry api) (Xnf.Xnf_parser.parse_query text)

let analyze api text = Check.Plan_advisor.analyze (Xnf.Api.db api) (plan_of api text)
let codes rp = List.map (fun d -> d.Diag.code) (Check.Plan_advisor.diags rp)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let find_code rp code =
  match List.find_opt (fun d -> d.Diag.code = code) (Check.Plan_advisor.diags rp) with
  | Some d -> d
  | None -> Alcotest.fail ("expected a " ^ code ^ " advisory")

(* ---- PLAN300: missing index on a hot probe ---- *)

let test_plan300 () =
  let db, api = mk ~nemp:2000 () in
  let rp = analyze api q_works in
  let d = find_code rp "PLAN300" in
  Alcotest.(check bool) "hints the index DDL" true
    (contains ~affix:"CREATE INDEX idx_emp_edno ON emp (edno)" (Option.value ~default:"" d.Diag.hint));
  (* the advisory names the probed table and carries warning severity *)
  Alcotest.(check bool) "mentions emp" true (contains ~affix:"emp" d.Diag.message);
  Alcotest.(check bool) "warning severity" true (d.Diag.severity = Diag.Warning);
  (* creating the suggested index flips the edge to indexed and clears
     the advisory on a fresh compile *)
  execs db [ "CREATE INDEX idx_emp_edno ON emp (edno)" ];
  let rp' = analyze api q_works in
  Alcotest.(check bool) "PLAN300 cleared by CREATE INDEX" false (List.mem "PLAN300" (codes rp'));
  match rp'.Check.Plan_advisor.rp_edges with
  | [ ec ] ->
    Alcotest.(check bool) "edge now indexed" true
      (ec.Check.Plan_advisor.ec_strategy = Xnf.Translate.S_indexed)
  | _ -> Alcotest.fail "expected one edge"

(* tiny extents stay quiet: est cost below the probe threshold *)
let test_plan300_quiet_when_small () =
  let _, api = mk ~nemp:20 () in
  Alcotest.(check bool) "no PLAN300 on tiny tables" false
    (List.mem "PLAN300" (codes (analyze api q_works)))

(* a USING edge whose link binds no parent column (the parent side of
   [p0.k + 0 = l.pk] is an expression, so the conjunct stays residual)
   has no probe key: no index can make it indexed, so it must draw no
   PLAN300 — in particular no column-less CREATE INDEX hint *)
let test_plan300_using_no_parent_key () =
  let db = Db.create () in
  execs db
    [ "CREATE TABLE sp (k INTEGER PRIMARY KEY, f INTEGER)";
      "CREATE TABLE sc (k INTEGER PRIMARY KEY, fk INTEGER)";
      "CREATE TABLE slink (pk INTEGER, ck INTEGER)";
      "INSERT INTO sp VALUES " ^ values_row (fun i -> Printf.sprintf "(%d, %d)" i i) 0 9;
      "INSERT INTO sc VALUES " ^ values_row (fun i -> Printf.sprintf "(%d, %d)" i (i mod 10)) 0 99;
      "INSERT INTO slink VALUES " ^ values_row (fun i -> Printf.sprintf "(%d, %d)" (i mod 10) i) 0 99;
      "ANALYZE" ];
  let api = Xnf.Api.create db in
  let q =
    "OUT OF p0 AS (SELECT * FROM sp), c0 AS (SELECT * FROM sc), \
     e0 AS (RELATE p0, c0 USING slink l WHERE (p0.k + 0 = l.pk AND l.ck = c0.k)) TAKE *"
  in
  let rp = analyze api q in
  (match rp.Check.Plan_advisor.rp_edges with
  | [ ec ] ->
    (* the edge is costly enough that a keyed edge would be flagged *)
    Alcotest.(check bool) "above the probe threshold" true (ec.Check.Plan_advisor.ec_cost >= 1000.)
  | _ -> Alcotest.fail "expected one edge");
  Alcotest.(check bool) "no PLAN300 without a parent-side key" false
    (List.mem "PLAN300" (codes rp))

(* ---- PLAN301: ?force contradicting the estimate ---- *)

let test_plan301 () =
  let db, api = mk ~nemp:2000 () in
  execs db [ "CREATE INDEX idx_emp_edno ON emp (edno)" ];
  let q = Xnf.Xnf_parser.parse_query q_works in
  let def, restrs, take = Xnf.View_registry.compose (Xnf.Api.registry api) q in
  let forced = Xnf.Translate.compile_def ~take ~force:Xnf.Translate.S_generic db def in
  let rp = Check.Plan_advisor.analyze_compiled ~take ~restrs db forced in
  let d = find_code rp "PLAN301" in
  Alcotest.(check bool) "names the forced strategy" true (contains ~affix:"generic" d.Diag.message);
  (* the same compile without ?force raises no PLAN301 *)
  let free = Xnf.Translate.compile_def ~take db def in
  Alcotest.(check bool) "no PLAN301 without ?force" false
    (List.mem "PLAN301" (codes (Check.Plan_advisor.analyze_compiled ~take ~restrs db free)))

(* ---- PLAN302: unbounded recursive fixpoint ---- *)

let q_rec root =
  Printf.sprintf
    "OUT OF root AS (%s), x AS EMP, seed AS (RELATE root a, x b WHERE a.eno = b.eno), \
     mgr AS (RELATE x m, x r WHERE m.eno = r.edno) TAKE *"
    root

let test_plan302 () =
  let _, api = mk () in
  let unbounded = analyze api (q_rec "SELECT * FROM emp") in
  Alcotest.(check bool) "unrestricted cycle flagged" true (List.mem "PLAN302" (codes unbounded));
  let bounded = analyze api (q_rec "SELECT * FROM emp WHERE eno = 1") in
  Alcotest.(check bool) "restricted seed derivation bounds it" false
    (List.mem "PLAN302" (codes bounded))

(* ---- PLAN303: components fetched but never delivered ---- *)

let test_plan303 () =
  let _, api = mk () in
  (* e dropped by TAKE, nothing reached through it, nothing references it *)
  let dead =
    analyze api "OUT OF d AS DEPT, e AS EMP, works AS (RELATE d, e WHERE d.dno = e.edno) TAKE d(*)"
  in
  let d = find_code dead "PLAN303" in
  Alcotest.(check bool) "names e" true (contains ~affix:"e" d.Diag.message);
  (* d feeds the kept component: fetched-but-dropped is fine *)
  let feeds =
    analyze api "OUT OF d AS DEPT, e AS EMP, works AS (RELATE d, e WHERE d.dno = e.edno) TAKE e(*)"
  in
  Alcotest.(check bool) "ancestor of a kept node spared" false (List.mem "PLAN303" (codes feeds));
  (* a path restriction through the edge references e: also spared *)
  let referenced =
    analyze api
      "OUT OF d AS DEPT, e AS EMP, works AS (RELATE d, e WHERE d.dno = e.edno) \
       WHERE d dd SUCH THAT EXISTS dd->works TAKE d(*)"
  in
  Alcotest.(check bool) "restriction-referenced node spared" false
    (List.mem "PLAN303" (codes referenced));
  (* TAKE * delivers everything *)
  Alcotest.(check bool) "no PLAN303 under TAKE *" false (List.mem "PLAN303" (codes (analyze api q_works)))

(* ---- PLAN304: missing / stale statistics ---- *)

let test_plan304 () =
  let db, api = mk () in
  let missing = find_code (analyze api q_works) "PLAN304" in
  Alcotest.(check bool) "missing stats reported" true
    (contains ~affix:"no statistics" missing.Diag.message);
  Alcotest.(check bool) "hints ANALYZE" true
    (contains ~affix:"ANALYZE" (Option.value ~default:"" missing.Diag.hint));
  execs db [ "ANALYZE" ];
  Alcotest.(check bool) "fresh stats: no PLAN304" false
    (List.mem "PLAN304" (codes (analyze api q_works)));
  execs db [ "INSERT INTO emp VALUES (9001, 'x', 1, 1)" ];
  let stale = find_code (analyze api q_works) "PLAN304" in
  Alcotest.(check bool) "stale stats reported" true (contains ~affix:"stale" stale.Diag.message)

(* ---- PLAN305: build-side inversion ---- *)

let test_plan305 () =
  let _, api = mk ~nemp:2000 () in
  let rp =
    analyze api
      "OUT OF d AS (SELECT * FROM dept WHERE dno = 1), e AS EMP, \
       works AS (RELATE d, e WHERE d.dno = e.edno) TAKE *"
  in
  let d = find_code rp "PLAN305" in
  Alcotest.(check bool) "describes the inversion" true (contains ~affix:"inversion" d.Diag.message);
  (* the factor is configurable: a 33x build/frontier ratio stays quiet
     under a 100x threshold *)
  let relaxed =
    Check.Plan_advisor.analyze ~inversion_factor:100. (Xnf.Api.db api) (plan_of api q_works)
  in
  Alcotest.(check bool) "quiet under a relaxed inversion factor" false
    (List.mem "PLAN305" (codes relaxed))

(* ---- PLAN310: estimate-vs-actual drift, end to end ---- *)

let test_plan310_drift () =
  let db, api = mk () in
  Check.Plan_advisor.install api;
  execs db [ "ANALYZE" ];
  (* statistics agree with the data: a fetch logs no drift *)
  ignore (Xnf.Api.fetch_string api q_works);
  Alcotest.(check int) "no drift while stats are fresh" 0 (List.length (Xnf.Api.advisories api));
  (* skewed bulk load after ANALYZE: 2000 employees into one department *)
  execs db
    [ "INSERT INTO emp VALUES "
      ^ values_row (fun i -> Printf.sprintf "(%d, 'bulk%d', 1, 55)" i i) 1000 2999 ];
  ignore (Xnf.Api.fetch_string api q_works);
  let advs = Xnf.Api.advisories api in
  Alcotest.(check bool) "PLAN310 logged" true
    (List.exists (fun (a : Xnf.Api.advisory) -> a.Xnf.Api.adv_code = "PLAN310") advs);
  let a =
    List.find (fun (a : Xnf.Api.advisory) -> a.Xnf.Api.adv_code = "PLAN310") (List.rev advs)
  in
  Alcotest.(check string) "drift source" "drift" a.Xnf.Api.adv_source;
  Alcotest.(check bool) "hints ANALYZE" true (contains ~affix:"ANALYZE" a.Xnf.Api.adv_hint);
  (* re-ANALYZE brings the estimates back in line: no further drift *)
  execs db [ "ANALYZE" ];
  Xnf.Api.clear_advisories api;
  ignore (Xnf.Api.fetch_string api q_works);
  Alcotest.(check int) "re-ANALYZE clears the drift" 0 (List.length (Xnf.Api.advisories api))

(* drift compares against the ANALYZE snapshot even when the advisor
   runs standalone (no session hook) *)
let test_drift_direct () =
  let db, api = mk () in
  execs db [ "ANALYZE" ];
  execs db
    [ "INSERT INTO emp VALUES "
      ^ values_row (fun i -> Printf.sprintf "(%d, 'bulk%d', 1, 55)" i i) 1000 2999 ];
  let plan = plan_of api q_works in
  let cache = Xnf.Fetch_plan.execute db plan in
  let advs = Check.Plan_advisor.drift db plan cache in
  Alcotest.(check bool) "standalone drift detects the skew" true
    (List.exists (fun a -> a.Check.Plan_advisor.ad_diag.Diag.code = "PLAN310") advs)

(* ---- purity: advising perturbs no cache and no fetch ---- *)

let test_advise_purity () =
  let _, api = mk () in
  Xnf.Api.set_plan_cache api 4;
  Xnf.Api.set_result_cache api 4;
  ignore (Xnf.Api.fetch_string api q_works);
  let plans_before = List.map fst (Xnf.Api.plans api) in
  (match Check.Plan_advisor.advise_text api q_works with
  | Ok _ -> ()
  | Error ds -> Alcotest.fail (Diag.to_string (List.hd ds)));
  Alcotest.(check (list string)) "plan cache untouched by advise" plans_before
    (List.map fst (Xnf.Api.plans api));
  let h0 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
  ignore (Xnf.Api.fetch_string api q_works);
  let h1 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
  Alcotest.(check bool) "refetch still hits the result cache" true (h1 - h0 >= 1);
  (* advising logged its findings under source "advise" *)
  Alcotest.(check bool) "advise findings logged" true
    (List.exists
       (fun (a : Xnf.Api.advisory) -> a.Xnf.Api.adv_source = "advise")
       (Xnf.Api.advisories api))

let test_advise_text_errors () =
  let _, api = mk () in
  (match Check.Plan_advisor.advise_text api "OUT OF x AS NOSUCH TAKE *" with
  | Ok _ -> Alcotest.fail "expected an error for an unknown table"
  | Error ds -> Alcotest.(check bool) "error diagnostics" true (Diag.has_errors ds));
  match Check.Plan_advisor.advise_text api "SELECT 1" with
  | Ok _ -> Alcotest.fail "expected an error for a non-query statement"
  | Error ds ->
    Alcotest.(check bool) "PLAN399 for non-queries" true
      (List.exists (fun d -> d.Diag.code = "PLAN399") ds)

(* ---- rendering ---- *)

let test_render () =
  let _, api = mk ~nemp:2000 () in
  let s = Check.Plan_advisor.render (analyze api q_works) in
  List.iter
    (fun needle -> Alcotest.(check bool) ("render mentions " ^ needle) true (contains ~affix:needle s))
    [ "Cost estimates:"; "node d"; "edge works"; "est_cost="; "Advisories:"; "PLAN300" ]

(* ---- sys.advisories: scan, shape, fingerprint join ---- *)

let test_sys_advisories () =
  let db, api = mk ~nemp:2000 () in
  (match Check.Plan_advisor.advise_text api q_works with
  | Ok _ -> ()
  | Error ds -> Alcotest.fail (Diag.to_string (List.hd ds)));
  let n = one_int db "SELECT COUNT(*) FROM sys.advisories" in
  Alcotest.(check bool) "advisories scannable" true (n >= 1);
  let n300 =
    one_int db "SELECT COUNT(*) FROM sys.advisories WHERE code = 'PLAN300'"
  in
  Alcotest.(check bool) "PLAN300 row present" true (n300 >= 1);
  (* executing the canonical query text makes the fingerprints joinable
     with sys.statements *)
  let canon =
    match Xnf.Api.advisories api with
    | a :: _ -> a.Xnf.Api.adv_query
    | [] -> Alcotest.fail "no advisory logged"
  in
  ignore (Xnf.Api.exec api canon);
  let joined =
    one_int db
      "SELECT COUNT(*) FROM sys.advisories a, sys.statements s WHERE a.fingerprint = s.fingerprint"
  in
  Alcotest.(check bool) "fingerprint joins with sys.statements" true (joined >= 1);
  Xnf.Api.clear_advisories api;
  Alcotest.(check int) "clear empties the view" 0 (one_int db "SELECT COUNT(*) FROM sys.advisories")

let suite =
  [ Alcotest.test_case "plan300 missing index" `Quick test_plan300;
    Alcotest.test_case "plan300 quiet on small extents" `Quick test_plan300_quiet_when_small;
    Alcotest.test_case "plan300 quiet on a keyless USING edge" `Quick
      test_plan300_using_no_parent_key;
    Alcotest.test_case "plan301 force contradiction" `Quick test_plan301;
    Alcotest.test_case "plan302 unbounded recursion" `Quick test_plan302;
    Alcotest.test_case "plan303 dead components" `Quick test_plan303;
    Alcotest.test_case "plan304 stats health" `Quick test_plan304;
    Alcotest.test_case "plan305 build inversion" `Quick test_plan305;
    Alcotest.test_case "plan310 drift end to end" `Quick test_plan310_drift;
    Alcotest.test_case "drift standalone" `Quick test_drift_direct;
    Alcotest.test_case "advise purity" `Quick test_advise_purity;
    Alcotest.test_case "advise_text errors" `Quick test_advise_text_errors;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "sys.advisories" `Quick test_sys_advisories ]
