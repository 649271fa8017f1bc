(* The two Cattell OO1 workloads.

   oo1_nav — 20k parts, 60k connections, FK indexes kept. Per block of
   20 ops: 11 lookups (EXECUTE a point CO: one part and its outgoing
   connections), 6 traversals (EXECUTE a 7-hop part->connection->part
   DAG CO, then walk every hop with Cache.children) and 3 writes
   (Udi.with_deferred inserts 1 part and 3 connections into the full
   parts CO loaded at setup, as experiment E2 does).

   oo1_closure — 5k parts, both connection indexes dropped so the cost
   model picks hash-batch probing. Per block of 10 ops: 9 traversals
   (EXECUTE the recursive closure CO from a random part) and 1 write (SQL
   INSERT INTO connection through Api.exec, which invalidates the
   connection hash build).

   Oracle: the bench keeps the part->targets adjacency of the base rows
   (updated by every insert) and checks each CO's node sizes, and each
   walk's visit count, against a BFS over it. *)

open Relational
module H = Harness

(* part id -> connection targets, newest first; grows with inserts *)
type graph = { mutable out : int list array; mutable n_parts : int }

let graph_of_db db ~n_parts ~extra =
  let g = { out = Array.make (n_parts + extra) []; n_parts } in
  Table.iter
    (fun _ row ->
      let f = Value.as_int row.(0) in
      g.out.(f) <- Value.as_int row.(1) :: g.out.(f))
    (Catalog.table (Db.catalog db) "connection");
  g

let add_conn g f t = g.out.(f) <- t :: g.out.(f)

(* span names *)
let sp_execute = Tracer.name "Api.execute_prepared"
let sp_exec_dml = Tracer.name "Api.exec:dml"
let sp_walk = Tracer.name "Cache.walk"
let sp_deferred = Tracer.name "Udi.with_deferred"
let sp_insert = Tracer.name "Udi.insert"

let execute api name args =
  let c = Tracer.span sp_execute (fun () -> Xnf.Api.execute_prepared api name args) in
  H.counts.fetches <- H.counts.fetches + 1;
  H.counts.delivered <- H.counts.delivered + Xnf.Cache.total_tuples c;
  c

let exec_sql api sql =
  H.counts.sql_stmts <- H.counts.sql_stmts + 1;
  Tracer.span sp_exec_dml (fun () -> Xnf.Api.exec api sql)

let live cache node = Xnf.Cache.live_count (Xnf.Cache.node cache node)

(* ---- oo1_nav ---- *)

let nav_parts = 20_000
let hops = 7

let lookup_query =
  "OUT OF Xpart AS (SELECT * FROM part WHERE id = ?), Xconn AS CONNECTION, outgoing AS (RELATE \
   Xpart, Xconn WHERE Xpart.id = Xconn.from_id) TAKE *"

(* P0 -o1-> C1 -t1-> P1 -o2-> ... -t7-> P7: one part node and one
   connection node per level, so the instance is the level structure *)
let traverse_query =
  let b = Buffer.create 1024 in
  Buffer.add_string b "OUT OF P0 AS (SELECT * FROM part WHERE id = ?)";
  for i = 1 to hops do
    Printf.bprintf b ", C%d AS CONNECTION, P%d AS PART" i i
  done;
  for i = 1 to hops do
    Printf.bprintf b
      ", o%d AS (RELATE P%d, C%d WHERE P%d.id = C%d.from_id), t%d AS (RELATE C%d, P%d WHERE \
       C%d.to_id = P%d.id)"
      i (i - 1) i (i - 1) i i i i i i
  done;
  Buffer.add_string b " TAKE *";
  Buffer.contents b

let p_name = Array.init (hops + 1) (Printf.sprintf "p%d")
let c_name = Array.init (hops + 1) (Printf.sprintf "c%d")
let o_name = Array.init (hops + 1) (Printf.sprintf "o%d")
let t_name = Array.init (hops + 1) (Printf.sprintf "t%d")

(* DFS over every hop, repeats counted, like OO1's traversal *)
let walk cache =
  let o = Array.init hops (fun i -> Xnf.Cache.edge cache o_name.(i + 1)) in
  let t = Array.init hops (fun i -> Xnf.Cache.edge cache t_name.(i + 1)) in
  let visits = ref 0 in
  let rec go pos d =
    incr visits;
    if d < hops then
      List.iter
        (fun c -> List.iter (fun p -> go p (d + 1)) (Xnf.Cache.children cache t.(d) c))
        (Xnf.Cache.children cache o.(d) pos)
  in
  (match Xnf.Cache.live_tuples (Xnf.Cache.node cache p_name.(0)) with
  | [ root ] -> go root.Xnf.Cache.t_pos 0
  | l -> H.mismatch "traverse: %d root tuples" (List.length l));
  !visits

let rec expected_visits g p d =
  if d = hops then 1
  else List.fold_left (fun acc t -> acc + expected_visits g t (d + 1)) 1 g.out.(p)

(* per-level (connections, distinct parts) reached from [root] *)
let expected_levels g root =
  let levels = Array.make (hops + 1) (0, 0) in
  let frontier = ref [ root ] in
  for i = 1 to hops do
    let seen = Hashtbl.create 64 in
    let conns = ref 0 in
    List.iter
      (fun p ->
        List.iter
          (fun t ->
            incr conns;
            Hashtbl.replace seen t ())
          g.out.(p))
      !frontier;
    frontier := Hashtbl.fold (fun k () acc -> k :: acc) seen [];
    levels.(i) <- (!conns, Hashtbl.length seen)
  done;
  levels

let nav ~seed ~n_ops =
  let db = Db.create () in
  Workload.Oo1.populate db ~seed ~n_parts:nav_parts;
  let api = H.session db in
  ignore (Xnf.Api.exec api "ANALYZE");
  H.prepare api "nav_lookup" lookup_query;
  H.prepare api "nav_traverse" traverse_query;
  let parts_co = Xnf.Api.fetch_string api Workload.Oo1.parts_co_query in
  let ses = Xnf.Api.session api parts_co in
  let kinds = [| H.kind "lookup" H.Read; H.kind "traverse" H.Read; H.kind "write" H.Write |] in
  let rng = Workload.Rng.create (seed + 7919) in
  let ops = H.mix rng ~n:n_ops (Array.concat [ Array.make 11 0; Array.make 6 1; Array.make 3 2 ]) in
  (* op arguments: the part looked up / traversed from (any part existing
     by then, inserted ones included), or the write's 3 targets *)
  let writes_before = ref 0 in
  let arg = Array.make n_ops 0 and tgts = Array.make_matrix n_ops 0 0 in
  Array.iteri
    (fun i k ->
      let existing = nav_parts + !writes_before in
      match k with
      | 2 ->
        arg.(i) <- existing;
        tgts.(i) <- Array.init 3 (fun _ -> Workload.Rng.int rng existing);
        incr writes_before
      | _ -> arg.(i) <- Workload.Rng.int rng existing)
    ops;
  let g = graph_of_db db ~n_parts:nav_parts ~extra:!writes_before in
  let last = ref None and last_visits = ref 0 in
  let exec i =
    match ops.(i) with
    | 0 -> last := Some (execute api "nav_lookup" [ Value.Int arg.(i) ])
    | 1 ->
      let c = execute api "nav_traverse" [ Value.Int arg.(i) ] in
      last := Some c;
      last_visits := Tracer.span sp_walk (fun () -> walk c);
      H.counts.visits <- H.counts.visits + !last_visits
    | _ ->
      let id = arg.(i) in
      H.counts.udi_writes <- H.counts.udi_writes + 1;
      Tracer.span sp_deferred (fun () ->
          Xnf.Udi.with_deferred ses (fun () ->
              let ins node row = Tracer.span sp_insert (fun () -> Xnf.Udi.insert ses ~node row) in
              ignore
                (ins "xpart"
                   [| Value.Int id; Value.Str "part-type0"; Value.Int (id mod 100_000);
                      Value.Int (id mod 99_991); Value.Int (id mod 10_000) |]);
              Array.iter
                (fun t ->
                  ignore
                    (ins "xconn"
                       [| Value.Int id; Value.Int t; Value.Str "conn-type0"; Value.Int 1 |]))
                tgts.(i)))
  in
  let check i =
    match ops.(i), !last with
    | 0, Some c ->
      let id = arg.(i) in
      let part = Xnf.Cache.node c "xpart" in
      (match Xnf.Cache.live_tuples part with
      | [ t ] when Value.as_int (Xnf.Cache.col t 0) = id -> ()
      | l -> H.mismatch "lookup %d: %d part tuples" id (List.length l));
      let conns = live c "xconn" in
      if conns <> 3 || conns <> List.length g.out.(id) then
        H.mismatch "lookup %d: %d connections, expected 3" id conns
    | 1, Some c ->
      let root = arg.(i) in
      let levels = expected_levels g root in
      for l = 1 to hops do
        let conns, parts = levels.(l) in
        let got_c = live c c_name.(l) and got_p = live c p_name.(l) in
        if got_c <> conns || got_p <> parts then
          H.mismatch "traverse %d level %d: %d conns / %d parts, expected %d / %d" root l got_c
            got_p conns parts
      done;
      let expected = expected_visits g root 0 in
      if !last_visits <> expected then
        H.mismatch "traverse %d: walk visited %d, expected %d" root !last_visits expected
    | 2, _ ->
      let id = arg.(i) in
      g.n_parts <- g.n_parts + 1;
      Array.iter (fun t -> add_conn g id t) tgts.(i);
      let parts = live parts_co "xpart" in
      if parts <> g.n_parts then H.mismatch "write %d: parts CO holds %d parts" id parts
    | _ -> H.mismatch "op %d produced no CO" i
  in
  { H.kinds; ops; exec; check; finish = ignore; layer = (fun () -> []) }

(* ---- oo1_closure ---- *)

let closure_parts = 5_000

let closure_query =
  "OUT OF Xroot AS (SELECT * FROM part WHERE id = ?), Xpart AS PART, Xconn AS CONNECTION, r_out \
   AS (RELATE Xroot, Xconn WHERE Xroot.id = Xconn.from_id), c_to AS (RELATE Xconn, Xpart WHERE \
   Xconn.to_id = Xpart.id), p_out AS (RELATE Xpart, Xconn WHERE Xpart.id = Xconn.from_id) TAKE *"

(* (connections, parts) of the closure from [root]: parts reached in one
   or more hops, and every connection leaving the root or a reached part *)
let expected_closure g root =
  let seen = Array.make g.n_parts false in
  let stack = ref g.out.(root) in
  let conns = ref (List.length g.out.(root)) and parts = ref 0 in
  while !stack <> [] do
    match !stack with
    | p :: rest ->
      stack := rest;
      if not seen.(p) then begin
        seen.(p) <- true;
        incr parts;
        if p <> root then conns := !conns + List.length g.out.(p);
        stack := List.rev_append g.out.(p) !stack
      end
    | [] -> ()
  done;
  (!conns, !parts)

let closure ~seed ~n_ops =
  let db = Db.create () in
  Workload.Oo1.populate db ~seed ~n_parts:closure_parts;
  let api = H.session db in
  ignore (Xnf.Api.exec api "DROP INDEX conn_from");
  ignore (Xnf.Api.exec api "DROP INDEX conn_to");
  ignore (Xnf.Api.exec api "ANALYZE");
  H.prepare api "closure" closure_query;
  let kinds = [| H.kind "traverse" H.Read; H.kind ~sql:true "insert" H.Write |] in
  let rng = Workload.Rng.create (seed + 104_729) in
  let ops = H.mix rng ~n:n_ops (Array.append (Array.make 9 0) [| 1 |]) in
  let arg = Array.map (fun _ -> Workload.Rng.int rng closure_parts) ops in
  let arg2 = Array.map (fun _ -> Workload.Rng.int rng closure_parts) ops in
  let g = graph_of_db db ~n_parts:closure_parts ~extra:0 in
  let last = ref None in
  let exec i =
    match ops.(i) with
    | 0 -> last := Some (execute api "closure" [ Value.Int arg.(i) ])
    | _ ->
      ignore
        (exec_sql api
           (Printf.sprintf "INSERT INTO connection VALUES (%d, %d, 'conn-type0', 7)" arg.(i)
              arg2.(i)))
  in
  let check i =
    match ops.(i), !last with
    | 0, Some c ->
      let root = arg.(i) in
      let conns, parts = expected_closure g root in
      let got_c = live c "xconn" and got_p = live c "xpart" in
      if live c "xroot" <> 1 || got_c <> conns || got_p <> parts then
        H.mismatch "closure %d: %d conns / %d parts, expected %d / %d" root got_c got_p conns parts
    | 1, _ -> add_conn g arg.(i) arg2.(i)
    | _ -> H.mismatch "op %d produced no CO" i
  in
  { H.kinds; ops; exec; check; finish = ignore; layer = (fun () -> []) }
