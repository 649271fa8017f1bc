(* design_ws — working-set extraction from the CAD design database
   (Workload.Design: 8,000 docs x 4 versions x 8 components, 2,000
   configurations of 8 docs, ~314k rows). Per block of 50 ops: 40 cold
   fetches (Api.fetch_string of a random configuration's working-set
   text), 9 hot fetches (one of 8 hot configurations) and 1 write (SQL
   UPDATE component SET weight through Api.exec).

   The 2,000 distinct texts overflow the 32-slot plan cache, so cold
   fetches parse, compose and compile. The 8 hot texts alone would fit
   the 8-slot result cache, but they share its LRU with the cold texts,
   and every write makes all cached working sets stale.

   Oracle: each working set's node sizes must equal per-configuration
   counts taken by SQL at setup (writes change weights only). *)

open Relational
module H = Harness

let scale =
  { Workload.Design.n_docs = 8_000; versions_per_doc = 4; components_per_version = 8;
    n_configs = 2_000; docs_per_config = 8 }

let n_hot = 8
let sp_fetch = Tracer.name "Api.fetch_string"
let sp_exec_dml = Tracer.name "Api.exec:dml"

(* cfgid -> (versions, components, docs) of its working set, by SQL *)
let sql_counts db =
  let versions = Array.make scale.n_configs 0 and docs = Array.make scale.n_configs 0 in
  let comps = Array.make scale.n_configs 0 in
  let int v = Value.as_int v in
  List.iter
    (fun (r : Row.t) ->
      versions.(int r.(0)) <- int r.(1);
      docs.(int r.(0)) <- int r.(2))
    (Db.rows_of db
       "SELECT cv.cvcfgid, COUNT(DISTINCT cv.cvvid), COUNT(DISTINCT v.vdocid) FROM configver cv, \
        version v WHERE cv.cvvid = v.vid GROUP BY cv.cvcfgid");
  List.iter
    (fun (r : Row.t) -> comps.(int r.(0)) <- int r.(1))
    (Db.rows_of db
       "SELECT cv.cvcfgid, COUNT(DISTINCT c.cid) FROM configver cv, component c WHERE cv.cvvid = \
        c.cvid GROUP BY cv.cvcfgid");
  (versions, comps, docs)

let setup ~seed ~n_ops =
  let db = Db.create () in
  Workload.Design.populate db ~seed ~scale;
  let api = H.session db in
  ignore (Xnf.Api.exec api "ANALYZE");
  let texts = Array.init scale.n_configs Workload.Design.working_set_query in
  let kinds =
    [| H.kind "fetch_cold" H.Read; H.kind "fetch_hot" H.Read; H.kind ~sql:true "update" H.Write |]
  in
  let rng = Workload.Rng.create (seed + 15_485_863) in
  let hot =
    let all = Array.init scale.n_configs Fun.id in
    Workload.Rng.shuffle rng all;
    Array.sub all 0 n_hot
  in
  let ops = H.mix rng ~n:n_ops (Array.concat [ Array.make 40 0; Array.make 9 1; [| 2 |] ]) in
  let n_comps = scale.n_docs * scale.versions_per_doc * scale.components_per_version in
  let arg =
    Array.map
      (function
        | 0 -> Workload.Rng.int rng scale.n_configs
        | 1 -> Workload.Rng.choice rng hot
        | _ -> Workload.Rng.int rng n_comps)
      ops
  in
  let weight = Array.map (fun _ -> Workload.Rng.in_range rng 1 500) ops in
  let expected = lazy (sql_counts db) in
  let last_cache = ref None and last_affected = ref (-1) in
  let exec i =
    match ops.(i) with
    | 0 | 1 ->
      let c = Tracer.span sp_fetch (fun () -> Xnf.Api.fetch_string api texts.(arg.(i))) in
      H.counts.fetches <- H.counts.fetches + 1;
      H.counts.delivered <- H.counts.delivered + Xnf.Cache.total_tuples c;
      last_cache := Some c
    | _ ->
      H.counts.sql_stmts <- H.counts.sql_stmts + 1;
      let sql = Printf.sprintf "UPDATE component SET weight = %d WHERE cid = %d" weight.(i) arg.(i) in
      last_affected :=
        match Tracer.span sp_exec_dml (fun () -> Xnf.Api.exec api sql) with
        | Xnf.Api.Sql (Db.Affected n) -> n
        | _ -> -1
  in
  let check i =
    match ops.(i), !last_cache with
    | (0 | 1), Some c ->
      let versions, comps, docs = Lazy.force expected in
      let cfg = arg.(i) in
      let live n = Xnf.Cache.live_count (Xnf.Cache.node c n) in
      let got = (live "xcfg", live "xver", live "xcomp", live "xdoc") in
      if got <> (1, versions.(cfg), comps.(cfg), docs.(cfg)) then begin
        let a, b, c', d = got in
        H.mismatch "config %d: working set %d/%d/%d/%d, SQL counts 1/%d/%d/%d" cfg a b c' d
          versions.(cfg) comps.(cfg) docs.(cfg)
      end
    | 2, _ -> if !last_affected <> 1 then H.mismatch "update of component %d hit %d rows" arg.(i) !last_affected
    | _ -> H.mismatch "op %d produced no CO" i
  in
  { H.kinds; ops; exec; check; finish = ignore; layer = (fun () -> []) }
