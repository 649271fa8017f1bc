(* Working-set extraction for a design database — the paper's motivating
   scenario (§1):

     dune exec examples/design_workingset.exe

   Design applications work on a well-specified subset of a much larger
   database (a configuration of documents/versions/components), extract it
   into memory close to the application, edit it there at memory speed,
   and propagate the changes back. One set-oriented XNF query replaces the
   thousands of navigational calls a per-object loader issues. *)

open Relational

let () =
  let db = Db.create () in
  (* a database ~2000x larger than the working set *)
  let scale =
    { Workload.Design.n_docs = 500; versions_per_doc = 4; components_per_version = 8;
      n_configs = 5; docs_per_config = 4 }
  in
  Workload.Design.populate db ~seed:42 ~scale;
  let total = Workload.Design.total_rows db in
  Fmt.pr "design database: %d rows@." total;

  let api = Xnf.Api.create db in

  (* extract configuration 0's working set as ONE composite object *)
  let d = Obs.Metrics.since () in
  let t0 = Sys.time () in
  let ws = Xnf.Api.fetch_string api (Workload.Design.working_set_query 0) in
  let dt = Sys.time () -. t0 in
  let ws_rows = Xnf.Cache.total_tuples ws in
  Fmt.pr "working set: %d tuples (%d connections) = selectivity %.5f, fetched in %.3f ms with %d queries@."
    ws_rows (Xnf.Cache.total_conns ws)
    (float_of_int ws_rows /. float_of_int total)
    (dt *. 1000.)
    (d "xnf.translate.queries");

  (* browse: configuration -> versions -> components *)
  let cfg = Xnf.Cursor.open_independent ws "xcfg" in
  let vers = Xnf.Cursor.open_dependent ~parent:cfg (Xnf.Cursor.via "selection") in
  let comps = Xnf.Cursor.open_dependent ~parent:vers (Xnf.Cursor.via "content") in
  let docs = Xnf.Cursor.open_dependent ~parent:vers (Xnf.Cursor.via "described_by") in
  Xnf.Cursor.iter
    (fun c ->
      Fmt.pr "configuration %s@." (Row.to_string (Xnf.Cache.row c));
      Xnf.Cursor.iter
        (fun v ->
          let doc_title =
            match Xnf.Cursor.to_list docs with
            | d :: _ -> Value.to_string (Xnf.Cache.col d 1)
            | [] -> "?"
          in
          Fmt.pr "  version %s of %s: %d components@."
            (Value.to_string (Xnf.Cache.col v 0))
            doc_title
            (List.length (Xnf.Cursor.to_list comps)))
        vers)
    cfg;

  (* edit the working set in memory, then save the batch *)
  let ses = Xnf.Api.session api ws in
  let comp_node = Xnf.Cache.node ws "xcomp" in
  let edited = ref 0 in
  Xnf.Udi.with_deferred ses (fun () ->
      List.iter
        (fun t ->
          let w = Value.as_int (Xnf.Cache.col t 3) in
          if w > 250 then begin
            Xnf.Udi.update ses ~node:"xcomp" ~pos:t.Xnf.Cache.t_pos
              [ ("weight", Value.Int (w - 10)) ];
            incr edited
          end)
        (Xnf.Cache.live_tuples comp_node));
  Fmt.pr "edited %d components in the cache; changes propagated on save@." !edited;

  (* verify through plain SQL that the base tables saw the changes *)
  let heavy =
    List.hd (Db.rows_of db "SELECT COUNT(*) FROM component WHERE weight > 490")
  in
  Fmt.pr "components with weight > 490 after save (whole database): %s@." (Row.to_string heavy)
