(* The shared-database architecture of Fig. 7, live:

     dune exec examples/shared_database.exe

   One relational database; a traditional SQL application and an XNF
   composite-object application working on it side by side. Shows: both see
   each other's changes, a cached CO result reloads when the SQL side
   writes, and optimistic validation catches a write/write conflict so the CO
   application refetches instead of clobbering. *)

open Relational

let () =
  (* the shared database *)
  let db = Db.create () in
  List.iter
    (fun s -> ignore (Db.exec db s))
    [ "CREATE TABLE dept (dno INTEGER PRIMARY KEY, dname VARCHAR, loc VARCHAR, budget INTEGER)";
      "CREATE TABLE emp (eno INTEGER PRIMARY KEY, ename VARCHAR, sal INTEGER, edno INTEGER)";
      "INSERT INTO dept VALUES (1, 'toys', 'NY', 1000), (2, 'tools', 'SF', 2000)";
      "INSERT INTO emp VALUES (10, 'alice', 1500, 1), (11, 'bob', 900, 1), (12, 'carol', 2500, 2)" ];

  (* the XNF application *)
  let api = Xnf.Api.create db in
  ignore
    (Xnf.Api.exec api
       "CREATE VIEW ORG AS OUT OF Xdept AS DEPT, Xemp AS EMP, \
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) TAKE *");
  (* fetch results are cached and served while their base tables are
     unchanged *)
  Xnf.Api.set_result_cache api 4;
  let org = "OUT OF ORG TAKE *" in
  let misses () = Obs.Metrics.counter_get "xnf.fetchcache.misses" in

  Fmt.pr "== both applications read the same data ==@.";
  let cache = Xnf.Api.fetch_string api org in
  Fmt.pr "XNF application sees %d employees@."
    (Xnf.Cache.live_count (Xnf.Cache.node cache "xemp"));
  Fmt.pr "SQL application sees  %s employees@."
    (Value.to_string (List.hd (Db.rows_of db "SELECT COUNT(*) FROM emp")).(0));

  Fmt.pr "@.== the SQL application hires someone; the cached CO notices ==@.";
  ignore (Db.exec db "INSERT INTO emp VALUES (13, 'dave', 800, 2)");
  let m0 = misses () in
  let cache = Xnf.Api.fetch_string api org in
  Fmt.pr "XNF application now sees %d employees (reloads: %d)@."
    (Xnf.Cache.live_count (Xnf.Cache.node cache "xemp"))
    (misses () - m0);

  Fmt.pr "@.== the XNF application raises alice; SQL sees it at once ==@.";
  let ses = Xnf.Api.session api cache in
  let ni = Xnf.Cache.node cache "xemp" in
  let alice =
    List.find
      (fun t -> Value.equal (Xnf.Cache.col t 1) (Value.Str "alice"))
      (Xnf.Cache.live_tuples ni)
  in
  Xnf.Udi.update ses ~node:"xemp" ~pos:alice.Xnf.Cache.t_pos [ ("sal", Value.Int 1600) ];
  Fmt.pr "SQL application reads alice's salary: %s@."
    (Value.to_string (List.hd (Db.rows_of db "SELECT sal FROM emp WHERE eno = 10")).(0));

  Fmt.pr "@.== a write/write conflict is caught, not clobbered ==@.";
  let stale_cache = Xnf.Api.fetch_string api org in
  let stale_ses = Xnf.Api.session api stale_cache in
  (* meanwhile the SQL application gives bob a raise *)
  ignore (Db.exec db "UPDATE emp SET sal = 950 WHERE eno = 11");
  (try
     Xnf.Udi.update stale_ses ~node:"xemp" ~pos:0 [ ("sal", Value.Int 1) ];
     Fmt.pr "!! conflict missed@."
   with Xnf.Udi.Udi_error msg -> Fmt.pr "XNF application told to refetch: %s@." msg);
  (* the recovery path: refetch and reapply *)
  let fresh = Xnf.Api.fetch_string api org in
  let ses2 = Xnf.Api.session api fresh in
  let bob =
    List.find
      (fun t -> Value.equal (Xnf.Cache.col t 1) (Value.Str "bob"))
      (Xnf.Cache.live_tuples (Xnf.Cache.node fresh "xemp"))
  in
  Xnf.Udi.update ses2 ~node:"xemp" ~pos:bob.Xnf.Cache.t_pos [ ("sal", Value.Int 1000) ];
  Fmt.pr "after refetch+reapply, bob earns %s@."
    (Value.to_string (List.hd (Db.rows_of db "SELECT sal FROM emp WHERE eno = 11")).(0));

  Fmt.pr "@.== CO-level DML from the prompt language ==@.";
  (match Xnf.Api.exec api "OUT OF ORG WHERE Xdept SUCH THAT loc = 'SF' UPDATE Xemp SET sal = sal + 10" with
  | Xnf.Api.Co_updated n -> Fmt.pr "CO UPDATE touched %d SF employees@." n
  | _ -> assert false);
  Fmt.pr "payroll by location (plain SQL over the shared data):@.";
  List.iter
    (fun row -> Fmt.pr "  %s@." (Row.to_string row))
    (Db.rows_of db
       "SELECT d.loc, SUM(e.sal) FROM dept d JOIN emp e ON d.dno = e.edno GROUP BY d.loc ORDER BY d.loc")
