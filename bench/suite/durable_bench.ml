(* shared_durable — SQL and CO applications on one durable database:
   company CDB1 (200 departments, 4,000 employees) in a data directory
   inside the working directory, with the engine's default flush policy
   (the WAL syncs at every commit). Per block of 20 ops: 9 SQL point
   SELECTs, 3 SQL joins with GROUP BY, 5 SQL UPDATEs (autocommit) and 3
   CO writes (EXECUTE a department CO, then Udi.update one salary with
   immediate propagation). Api.checkpoint runs inside every 5,000th op.

   After the window the directory is copied with wal.log cut to the
   WAL's durable size, and a fresh Db.create + Api.create + Api.recover
   on the copy is timed 5 times.

   Oracle: the bench tracks every salary it writes, by either path; point
   and join queries must return the tracked values, department COs must
   hold their 20 employees, and the recovered database's table digest
   must equal the live one. *)

open Relational
module H = Harness

let scale =
  { Workload.Company.n_depts = 200; emps_per_dept = 20; projs_per_dept = 5; n_skills = 100;
    skills_per_emp = 3; skills_per_proj = 2; emps_per_proj = 4 }

let n_emps = scale.n_depts * scale.emps_per_dept
let checkpoint_every = 5_000
let recover_reps = 5
let join_depts = 4

let dept_query =
  "OUT OF Xdept AS (SELECT * FROM dept WHERE dno = ?), Xemp AS EMP, employment AS (RELATE Xdept, \
   Xemp WHERE Xdept.dno = Xemp.edno) TAKE *"

let sp_select = Tracer.name "Api.exec:select"
let sp_dml = Tracer.name "Api.exec:dml"
let sp_execute = Tracer.name "Api.execute_prepared"
let sp_update = Tracer.name "Udi.update"
let sp_checkpoint = Tracer.name "Api.checkpoint"

let work_root = Filename.concat "_bench" "work"

let fresh_dir tag =
  let dir = Filename.concat work_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  H.rm_rf dir;
  H.mkdir_p work_root;
  dir

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* the data directory as a crash at the last fsync would leave it *)
let copy_durable ~src ~dst ~wal_bytes =
  H.mkdir_p dst;
  Array.iter
    (fun f ->
      let s = H.read_file (Filename.concat src f) in
      let s = if f = "wal.log" then String.sub s 0 (min wal_bytes (String.length s)) else s in
      write_file (Filename.concat dst f) s)
    (Sys.readdir src)

(* every base table's live rows with their rowids, in name order *)
let digest db =
  let cat = Db.catalog db in
  let b = Buffer.create 65536 in
  List.iter
    (fun name ->
      Printf.bprintf b "table %s\n" name;
      Table.iter
        (fun rid row -> Printf.bprintf b "%d %s\n" rid (Row.to_string row))
        (Catalog.table cat name))
    (List.sort compare (List.map String.lowercase_ascii (Catalog.table_names cat)));
  Digest.to_hex (Digest.string (Buffer.contents b))

let setup ~seed ~n_ops =
  let dir = fresh_dir "shared_durable" in
  at_exit (fun () -> H.rm_rf dir);
  let db = Db.create ~data_dir:dir () in
  Workload.Company.populate db ~seed ~scale ~repr:Workload.Company.Cdb1;
  let api = H.session db in
  Workload.Company.register_views api ~repr:Workload.Company.Cdb1;
  ignore (Xnf.Api.exec api "ANALYZE");
  H.prepare api "dept_co" dept_query;
  (* populate wrote the tables directly: a checkpoint makes them durable *)
  ignore (Xnf.Api.checkpoint api);
  let kinds =
    [| H.kind ~sql:true "point" H.Read; H.kind ~sql:true "join" H.Read;
       H.kind ~sql:true "update" H.Write; H.kind "co_write" H.Write |]
  in
  let rng = Workload.Rng.create (seed + 32_452_843) in
  let ops =
    H.mix rng ~n:n_ops (Array.concat [ Array.make 9 0; Array.make 3 1; Array.make 5 2; Array.make 3 3 ])
  in
  let arg =
    Array.map
      (function
        | 0 | 2 -> Workload.Rng.int rng n_emps
        | 1 -> Workload.Rng.int rng (scale.n_depts - join_depts + 1)
        | _ -> Workload.Rng.int rng scale.n_depts)
      ops
  in
  let pick = Array.map (fun _ -> Workload.Rng.int rng scale.emps_per_dept) ops in
  let new_sal = Array.map (fun _ -> Workload.Rng.in_range rng 500 9000) ops in
  let wal () = Txn.wal (Db.txn db) in
  (* tracked state: salary and department per employee *)
  let tracked =
    lazy
      (let sal = Array.make n_emps 0 and dept = Array.make n_emps 0 in
       List.iter
         (fun (r : Row.t) ->
           sal.(Value.as_int r.(0)) <- Value.as_int r.(1);
           dept.(Value.as_int r.(0)) <- Value.as_int r.(2))
         (Db.rows_of db "SELECT eno, sal, edno FROM emp");
       (sal, dept))
  in
  let last = ref None and last_eno = ref (-1) in
  let sql_op span sql =
    H.counts.sql_stmts <- H.counts.sql_stmts + 1;
    last := Some (Tracer.span span (fun () -> Xnf.Api.exec api sql))
  in
  let exec i =
    let wal0 = Wal.file_size (wal ()) in
    (match ops.(i) with
    | 0 -> sql_op sp_select (Printf.sprintf "SELECT eno, ename, sal FROM emp WHERE eno = %d" arg.(i))
    | 1 ->
      sql_op sp_select
        (Printf.sprintf
           "SELECT d.dno, COUNT(*), SUM(e.sal) FROM dept d, emp e WHERE d.dno = e.edno AND d.dno \
            >= %d AND d.dno < %d GROUP BY d.dno"
           arg.(i) (arg.(i) + join_depts))
    | 2 -> sql_op sp_dml (Printf.sprintf "UPDATE emp SET sal = %d WHERE eno = %d" new_sal.(i) arg.(i))
    | _ ->
      let c = Tracer.span sp_execute (fun () -> Xnf.Api.execute_prepared api "dept_co" [ Value.Int arg.(i) ]) in
      H.counts.fetches <- H.counts.fetches + 1;
      H.counts.delivered <- H.counts.delivered + Xnf.Cache.total_tuples c;
      H.counts.udi_writes <- H.counts.udi_writes + 1;
      let emps = Array.of_list (Xnf.Cache.live_tuples (Xnf.Cache.node c "xemp")) in
      if Array.length emps <> scale.emps_per_dept then
        H.mismatch "dept %d CO holds %d employees" arg.(i) (Array.length emps);
      let t = emps.(pick.(i)) in
      last_eno := Value.as_int (Xnf.Cache.col t 0);
      Tracer.span sp_update (fun () ->
          Xnf.Udi.update (Xnf.Api.session api c) ~node:"xemp" ~pos:t.Xnf.Cache.t_pos
            [ ("sal", Value.Int new_sal.(i)) ]));
    if ops.(i) >= 2 then H.counts.wal_bytes <- H.counts.wal_bytes + Wal.file_size (wal ()) - wal0;
    if (i + 1) mod checkpoint_every = 0 then begin
      let t0 = Tracer.now_ns () in
      ignore (Tracer.span sp_checkpoint (fun () -> Xnf.Api.checkpoint api));
      H.counts.checkpoint_ns <- (Tracer.now_ns () - t0) :: H.counts.checkpoint_ns
    end
  in
  let check i =
    let sal, dept = Lazy.force tracked in
    let rows () =
      match !last with
      | Some (Xnf.Api.Sql (Db.Rows r)) ->
        H.counts.selects <- H.counts.selects + 1;
        H.counts.rows <- H.counts.rows + List.length r.Db.rrows;
        r.Db.rrows
      | _ -> H.mismatch "op %d: SELECT returned no rows object" i
    in
    match ops.(i) with
    | 0 -> (
      match rows () with
      | [ r ] when Value.as_int r.(0) = arg.(i) && Value.as_int r.(2) = sal.(arg.(i)) -> ()
      | rs -> H.mismatch "point SELECT of emp %d: %d rows or a stale salary" arg.(i) (List.length rs))
    | 1 ->
      let got = List.map (fun (r : Row.t) -> (Value.as_int r.(0), Value.as_int r.(1), Value.as_float r.(2))) (rows ()) in
      let expect =
        List.init join_depts (fun k ->
            let d = arg.(i) + k in
            let n = ref 0 and s = ref 0 in
            Array.iteri
              (fun e de ->
                if de = d then begin
                  incr n;
                  s := !s + sal.(e)
                end)
              dept;
            (d, !n, float_of_int !s))
      in
      if List.sort compare got <> expect then H.mismatch "join over depts %d..: wrong groups" arg.(i)
    | 2 -> (
      match !last with
      | Some (Xnf.Api.Sql (Db.Affected 1)) -> sal.(arg.(i)) <- new_sal.(i)
      | _ -> H.mismatch "UPDATE of emp %d did not hit one row" arg.(i))
    | _ ->
      if dept.(!last_eno) <> arg.(i) then H.mismatch "emp %d is not in dept %d" !last_eno arg.(i);
      sal.(!last_eno) <- new_sal.(i)
  in
  let recover_s = ref 0. and replayed = ref 0 and ckpt_bytes = ref 0 in
  let finish () =
    let live = digest db in
    let wal_bytes = Wal.durable_size (wal ()) in
    ckpt_bytes := (Unix.stat (Filename.concat dir "checkpoint.db")).Unix.st_size;
    let times =
      List.init recover_reps (fun k ->
          let copy = fresh_dir (Printf.sprintf "recover%d" k) in
          copy_durable ~src:dir ~dst:copy ~wal_bytes;
          let t0 = Tracer.now_ns () in
          let db' = Db.create ~data_dir:copy () in
          let api' = Xnf.Api.create db' in
          let stats = Xnf.Api.recover api' in
          let dt = float_of_int (Tracer.now_ns () - t0) /. 1e9 in
          replayed := stats.Db.rs_replayed;
          let got = digest db' in
          Wal.close (Txn.wal (Db.txn db'));
          H.rm_rf copy;
          if got <> live then H.mismatch "recovered digest %s differs from live %s" got live;
          dt)
    in
    recover_s := Latency.median_float times
  in
  let layer () =
    [ ("recovery.recover_s", !recover_s); ("recovery.wal_replayed", float_of_int !replayed);
      ("checkpoint.bytes", float_of_int !ckpt_bytes) ]
  in
  { H.kinds; ops; exec; check; finish; layer }
