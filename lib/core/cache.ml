(* The XNF cache: an in-memory composite-object instance (§4.2).

   A loaded CO holds, per node, a vector of tuples (with base-table
   provenance when the node is updatable) and, per edge, the connection
   set with adjacency in both directions — the "virtual memory pointers"
   of the paper, realized as integer positions for safety; dereference
   cost is the same O(1).

   The execution core fills a fresh cache on every fetch, so the fill
   path is kept allocation-light: connections live in struct-of-arrays
   buffers (two int arrays, a liveness byte per connection, attribute
   rows only when the edge carries attributes), the rowid index is an
   open-addressing int map, and adjacency is a CSR built lazily on first
   navigation (plus overflow lists for connections appended afterwards
   by manipulation operations). Boxed [conn] records exist only as
   on-demand views for the enumeration APIs.

   Tuples and connections are tombstoned ([live = false]) rather than
   removed, so cursor positions and adjacency stay stable under udi
   operations; [save]-time propagation and reachability maintenance live
   in {!Udi}. *)

open Relational

type tuple = {
  t_pos : int;  (** position in the node vector (stable identity) *)
  mutable t_row : Row.enc;  (** dictionary-encoded; decode via {!row}/{!col} *)
  mutable t_rowid : int;  (** provenance: base-table rowid; [-1] = none *)
  mutable t_live : bool;
  mutable t_dirty : bool;  (** modified in cache, not yet propagated *)
}

type node_inst = {
  ni_name : string;
  mutable ni_schema : Schema.t;
  ni_tuples : tuple Vec.t;
  mutable ni_upd : Semantic.node_updatability option;
  ni_by_rowid : Intmap.t;  (** base rowid -> position *)
  mutable ni_locked_cols : int list;
      (** columns used in relationship predicates: updatable only through
          connect/disconnect (§3.7) *)
}

(** Connection storage: struct-of-arrays, indexed by connection id.
    [cs_attrs] has length 0 when the edge carries no attributes. *)
type conns = {
  mutable cs_parent : int array;  (** position in the parent node *)
  mutable cs_child : int array;  (** position in the child node *)
  mutable cs_attrs : Row.enc array;
  mutable cs_live : Bytes.t;  (** ['\001'] = live *)
  mutable cs_len : int;
}

(** A materialized view of one connection (enumeration APIs only — the
    hot paths read the struct-of-arrays directly). *)
type conn = {
  cn_idx : int;  (** connection id within its edge *)
  cn_parent : int;
  cn_child : int;
  cn_attrs : Row.enc;  (** encoded; [[||]] when the edge has none *)
}

(** Adjacency: CSR over the connections present at build time, overflow
    lists for connections appended afterwards. *)
type adj = {
  aj_child_off : int array;  (** parent pos -> offset into [aj_child_idx] *)
  aj_child_idx : int array;
  aj_parent_off : int array;  (** child pos -> offset into [aj_parent_idx] *)
  aj_parent_idx : int array;
  aj_child_over : (int, int list) Hashtbl.t;
  aj_parent_over : (int, int list) Hashtbl.t;
}

type edge_inst = {
  ei_name : string;
  ei_parent : string;
  ei_child : string;
  ei_parent_node : node_inst;  (** direct reference: cursor steps are O(1) *)
  ei_child_node : node_inst;
  ei_attr_schema : Schema.t;
  ei_conns : conns;
  mutable ei_adj : adj option;  (** built lazily on first navigation *)
  mutable ei_upd : Semantic.edge_updatability;
}

type t = {
  c_def : Co_schema.t;
  c_nodes : (string * node_inst) list;  (** in definition order *)
  c_edges : (string * edge_inst) list;
  mutable c_base_versions : (string * int) list;  (** staleness detection *)
  mutable c_unsaved : bool;  (** holds deferred {!Udi} edits not yet saved *)
}

exception Cache_error of string

let err fmt = Fmt.kstr (fun s -> raise (Cache_error s)) fmt

(* navigation / lifetime counters in the process-global metrics registry:
   a hit is a traversal or key lookup that found live partners, a miss one
   that found none; evictions are tuples tombstoned by reachability *)
let m_nav_hits = Obs.Metrics.counter "xnf.cache.nav_hits"
let m_nav_misses = Obs.Metrics.counter "xnf.cache.nav_misses"
let m_key_hits = Obs.Metrics.counter "xnf.cache.key_hits"
let m_key_misses = Obs.Metrics.counter "xnf.cache.key_misses"
let m_evictions = Obs.Metrics.counter "xnf.cache.evictions"
let m_stale_checks = Obs.Metrics.counter "xnf.cache.stale_checks"

let note_nav = function
  | [] -> Obs.Metrics.incr m_nav_misses; []
  | hits -> Obs.Metrics.incr m_nav_hits; hits

let dummy_tuple = { t_pos = -1; t_row = [||]; t_rowid = -1; t_live = false; t_dirty = false }

(** [make_node name schema] is an empty node instance ([size_hint] presizes
    the rowid index). *)
let make_node ?(size_hint = 16) ~schema ~upd name =
  { ni_name = name; ni_schema = schema;
    ni_tuples = Vec.create ~capacity:size_hint ~dummy:dummy_tuple (); ni_upd = upd;
    ni_by_rowid = Intmap.create ~size:size_hint; ni_locked_cols = [] }

(** Decode boundary helpers: the cache stores dictionary-encoded rows;
    everything user-facing (TAKE, cursors, sys.* rendering, udi writes to
    base tables) decodes through these. *)

let row (t : tuple) : Row.t = Row.decode t.t_row

let col (t : tuple) i : Value.t = Dict.decode t.t_row.(i)

let conn_attrs (c : conn) : Row.t = Row.decode c.cn_attrs

(* ---- connection storage ---- *)

(** [make_conns ~attrs ~size_hint ()] is an empty connection buffer;
    [attrs] declares whether the edge carries attribute rows. *)
let make_conns ?(size_hint = 8) ~attrs () =
  let cap = max 8 size_hint in
  { cs_parent = Array.make cap 0; cs_child = Array.make cap 0;
    cs_attrs = (if attrs then Array.make cap [||] else [||]);
    cs_live = Bytes.make cap '\001'; cs_len = 0 }

let conns_grow cs n =
  let old = Array.length cs.cs_parent in
  if n > old then begin
    let cap = max n (2 * old) in
    let grow_int a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 cs.cs_len;
      a'
    in
    cs.cs_parent <- grow_int cs.cs_parent;
    cs.cs_child <- grow_int cs.cs_child;
    if Array.length cs.cs_attrs > 0 then begin
      let a' = Array.make cap [||] in
      Array.blit cs.cs_attrs 0 a' 0 cs.cs_len;
      cs.cs_attrs <- a'
    end;
    let b = Bytes.make cap '\001' in
    Bytes.blit cs.cs_live 0 b 0 cs.cs_len;
    cs.cs_live <- b
  end

(** [push_conn cs ~parent ~child ~attrs] appends a live connection to a
    buffer; returns its id. Attribute rows are dropped when the buffer
    was created without attribute storage. *)
let push_conn cs ~parent ~child ~attrs =
  let i = cs.cs_len in
  conns_grow cs (i + 1);
  cs.cs_parent.(i) <- parent;
  cs.cs_child.(i) <- child;
  if Array.length cs.cs_attrs > 0 then cs.cs_attrs.(i) <- attrs;
  Bytes.unsafe_set cs.cs_live i '\001';
  cs.cs_len <- i + 1;
  i

(** Per-connection accessors (hot paths: no boxing). *)

let conn_count ei = ei.ei_conns.cs_len

let conn_parent_at ei i = ei.ei_conns.cs_parent.(i)
let conn_child_at ei i = ei.ei_conns.cs_child.(i)
let conn_live_at ei i = Bytes.get ei.ei_conns.cs_live i = '\001'

let conn_attrs_at ei i =
  let cs = ei.ei_conns in
  if Array.length cs.cs_attrs = 0 then [||] else cs.cs_attrs.(i)

let set_conn_live ei i b =
  Bytes.set ei.ei_conns.cs_live i (if b then '\001' else '\000')

(** [conn_at ei i] is a materialized view of connection [i]. *)
let conn_at ei i =
  { cn_idx = i; cn_parent = conn_parent_at ei i; cn_child = conn_child_at ei i;
    cn_attrs = conn_attrs_at ei i }

(** [node cache name] is the node instance named [name].
    @raise Cache_error when absent. *)
let node cache name =
  let name = String.lowercase_ascii name in
  match List.assoc_opt name cache.c_nodes with
  | Some n -> n
  | None -> err "no component table %s in this composite object" name

(** [edge cache name] is the edge instance named [name].
    @raise Cache_error when absent. *)
let edge cache name =
  let name = String.lowercase_ascii name in
  match List.assoc_opt name cache.c_edges with
  | Some e -> e
  | None -> err "no relationship %s in this composite object" name

(** [node_opt cache name] / [edge_opt cache name]: option-returning
    lookups. *)
let node_opt cache name = List.assoc_opt (String.lowercase_ascii name) cache.c_nodes

let edge_opt cache name = List.assoc_opt (String.lowercase_ascii name) cache.c_edges

(** [live_tuples ni] lists the node's live tuples in position order. *)
let live_tuples ni =
  List.rev (Vec.fold (fun acc t -> if t.t_live then t :: acc else acc) [] ni.ni_tuples)

(** [live_count ni] counts live tuples. *)
let live_count ni = Vec.fold (fun acc t -> if t.t_live then acc + 1 else acc) 0 ni.ni_tuples

(** [tuple ni pos] is the tuple at [pos] (live or not).
    @raise Cache_error on bad position. *)
let tuple ni pos =
  if pos < 0 || pos >= Vec.length ni.ni_tuples then err "bad tuple position %d in %s" pos ni.ni_name;
  Vec.get ni.ni_tuples pos

(** [conns_live ei] lists views of the live connections in id order. *)
let conns_live ei =
  let acc = ref [] in
  for i = ei.ei_conns.cs_len - 1 downto 0 do
    if conn_live_at ei i then acc := conn_at ei i :: !acc
  done;
  !acc

(** [live_conn_count ei] counts live connections. *)
let live_conn_count ei =
  let n = ref 0 in
  for i = 0 to ei.ei_conns.cs_len - 1 do
    if conn_live_at ei i then incr n
  done;
  !n

(* ---- adjacency ---- *)

(* CSR over the connections present now: one counting pass sizes the
   per-position slices, a second fills them in ascending connection id
   order. Offsets are indexed by tuple position at build time; positions
   created later only ever reach new connections, which land in the
   overflow lists. *)
let build_adj ei =
  let cs = ei.ei_conns in
  let np = Vec.length ei.ei_parent_node.ni_tuples
  and nc = Vec.length ei.ei_child_node.ni_tuples in
  let coff = Array.make (np + 1) 0 and poff = Array.make (nc + 1) 0 in
  for i = 0 to cs.cs_len - 1 do
    coff.(cs.cs_parent.(i)) <- coff.(cs.cs_parent.(i)) + 1;
    poff.(cs.cs_child.(i)) <- poff.(cs.cs_child.(i)) + 1
  done;
  let prefix off n =
    let s = ref 0 in
    for p = 0 to n do
      let c = off.(p) in
      off.(p) <- !s;
      s := !s + c
    done
  in
  prefix coff np;
  prefix poff nc;
  let cidx = Array.make cs.cs_len 0 and pidx = Array.make cs.cs_len 0 in
  let ccur = Array.copy coff and pcur = Array.copy poff in
  for i = 0 to cs.cs_len - 1 do
    let p = cs.cs_parent.(i) and c = cs.cs_child.(i) in
    cidx.(ccur.(p)) <- i;
    ccur.(p) <- ccur.(p) + 1;
    pidx.(pcur.(c)) <- i;
    pcur.(c) <- pcur.(c) + 1
  done;
  let a =
    { aj_child_off = coff; aj_child_idx = cidx; aj_parent_off = poff; aj_parent_idx = pidx;
      aj_child_over = Hashtbl.create 8; aj_parent_over = Hashtbl.create 8 }
  in
  ei.ei_adj <- Some a;
  a

let ensure_adj ei = match ei.ei_adj with Some a -> a | None -> build_adj ei

(** [iter_conns_of_parent ei pos f] applies [f] to the id of every
    connection (live or not) whose parent position is [pos]. *)
let iter_conns_of_parent ei pos f =
  let a = ensure_adj ei in
  if pos < Array.length a.aj_child_off - 1 then
    for k = a.aj_child_off.(pos) to a.aj_child_off.(pos + 1) - 1 do
      f a.aj_child_idx.(k)
    done;
  match Hashtbl.find_opt a.aj_child_over pos with
  | Some l -> List.iter f (List.rev l)
  | None -> ()

(** [iter_conns_of_child ei pos f]: the reverse direction. *)
let iter_conns_of_child ei pos f =
  let a = ensure_adj ei in
  if pos < Array.length a.aj_parent_off - 1 then
    for k = a.aj_parent_off.(pos) to a.aj_parent_off.(pos + 1) - 1 do
      f a.aj_parent_idx.(k)
    done;
  match Hashtbl.find_opt a.aj_parent_over pos with
  | Some l -> List.iter f (List.rev l)
  | None -> ()

(** [children cache ei parent_pos] is the positions of live child tuples
    connected to the parent tuple at [parent_pos] (traversal
    parent->child). The [cache] argument is unused but kept for symmetry
    with call sites that traverse by name. *)
let children _cache ei parent_pos =
  let acc = ref [] in
  iter_conns_of_parent ei parent_pos (fun ci ->
      if conn_live_at ei ci then begin
        let c = conn_child_at ei ci in
        if (Vec.get ei.ei_child_node.ni_tuples c).t_live then acc := c :: !acc
      end);
  note_nav (List.rev !acc)

(** [parents cache ei child_pos] is the positions of live parent tuples
    connected to the child tuple at [child_pos] (reverse traversal, which
    XNF relationships permit). *)
let parents _cache ei child_pos =
  let acc = ref [] in
  iter_conns_of_child ei child_pos (fun ci ->
      if conn_live_at ei ci then begin
        let p = conn_parent_at ei ci in
        if (Vec.get ei.ei_parent_node.ni_tuples p).t_live then acc := p :: !acc
      end);
  note_nav (List.rev !acc)

(** [related cache ei pos ~from] traverses edge [ei] from the node [from]:
    forward when [from] is the parent side, backward when the child side.
    @raise Cache_error when [from] is neither partner. *)
let related cache ei ~from pos =
  let from = String.lowercase_ascii from in
  if String.equal from ei.ei_parent then (ei.ei_child, children cache ei pos)
  else if String.equal from ei.ei_child then (ei.ei_parent, parents cache ei pos)
  else err "relationship %s does not involve %s" ei.ei_name from

(** [add_conn ei ~parent ~child ~attrs] appends a live connection and
    updates adjacency; returns its id. *)
let add_conn ei ~parent ~child ~attrs =
  let idx = push_conn ei.ei_conns ~parent ~child ~attrs in
  (match ei.ei_adj with
  | None -> ()  (* adjacency not built yet: the next navigation covers it *)
  | Some a ->
    Hashtbl.replace a.aj_child_over parent
      (idx :: Option.value ~default:[] (Hashtbl.find_opt a.aj_child_over parent));
    Hashtbl.replace a.aj_parent_over child
      (idx :: Option.value ~default:[] (Hashtbl.find_opt a.aj_parent_over child)));
  idx

(** [add_tuple ni ~rowid row] appends a live tuple ([rowid] [-1] = no
    provenance); returns its position. *)
let add_tuple ni ~rowid row =
  let pos = Vec.length ni.ni_tuples in
  Vec.push ni.ni_tuples { t_pos = pos; t_row = row; t_rowid = rowid; t_live = true; t_dirty = false };
  if rowid >= 0 then Intmap.set ni.ni_by_rowid rowid pos;
  pos

(** [pos_of_rowid ni rowid] is the position caching base row [rowid], or
    [-1]. Allocation-free. *)
let pos_of_rowid ni rowid = Intmap.get ni.ni_by_rowid rowid

(** [recompute_reachability cache] re-applies the reachability constraint
    inside the cache: tuples of root nodes seed a traversal along live
    connections in parent->child direction; unreached tuples and the
    connections touching dead tuples are tombstoned. Called after
    restriction evaluation and after udi operations that can strand
    tuples. *)
let recompute_reachability cache =
  let reached : (string, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  let tbl name =
    match Hashtbl.find_opt reached name with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 64 in
      Hashtbl.replace reached name h;
      h
  in
  let queue = Queue.create () in
  let mark name pos =
    let h = tbl name in
    if not (Hashtbl.mem h pos) then begin
      Hashtbl.replace h pos ();
      Queue.push (name, pos) queue
    end
  in
  let root_names =
    match Co_schema.roots cache.c_def with
    | [] ->
      (* a projected instance may have no root component (evaluate-then-
         project); its tuples stand on their own *)
      List.map fst cache.c_nodes
    | roots -> List.map (fun nd -> nd.Co_schema.nd_name) roots
  in
  List.iter
    (fun name ->
      let ni = node cache name in
      Vec.iter (fun t -> if t.t_live then mark name t.t_pos) ni.ni_tuples)
    root_names;
  while not (Queue.is_empty queue) do
    let name, pos = Queue.pop queue in
    List.iter
      (fun (_, ei) ->
        if String.equal ei.ei_parent name then
          List.iter (fun child -> mark ei.ei_child child) (children cache ei pos))
      cache.c_edges
  done;
  (* tombstone unreached tuples *)
  List.iter
    (fun (name, ni) ->
      let h = tbl name in
      Vec.iter
        (fun t ->
          if t.t_live && not (Hashtbl.mem h t.t_pos) then begin
            t.t_live <- false;
            Obs.Metrics.incr m_evictions
          end)
        ni.ni_tuples)
    cache.c_nodes;
  (* tombstone connections touching dead tuples *)
  List.iter
    (fun (_, ei) ->
      let pn = node cache ei.ei_parent and cn = node cache ei.ei_child in
      for i = 0 to ei.ei_conns.cs_len - 1 do
        if
          conn_live_at ei i
          && ((not (tuple pn (conn_parent_at ei i)).t_live)
             || not (tuple cn (conn_child_at ei i)).t_live)
        then set_conn_live ei i false
      done)
    cache.c_edges

(** [stale cache db] holds when any base table changed since the cache was
    loaded (other than through this cache's own propagation — callers that
    propagate refresh the recorded versions), or when the cache holds
    unsaved deferred edits, so it no longer mirrors the base data. *)
let stale cache db =
  Obs.Metrics.incr m_stale_checks;
  cache.c_unsaved
  || List.exists
    (fun (name, v) ->
      match Catalog.table_opt (Db.catalog db) name with
      | Some t -> Table.version t <> v
      | None -> true)
    cache.c_base_versions

(** A snapshot lookup structure over one cached node: normalized key id ->
    positions of live tuples (int-keyed, so probes never box). Rebuild
    after udi operations that change the keyed column. *)
type key_index = { ki_node : string; ki_col : int; ki_map : (int, int list) Hashtbl.t }

(** [build_key_index cache ~node ~col] indexes the live tuples of [node] by
    the value of column [col] — O(1) point access into the cache, as
    OO1-style applications expect.
    @raise Cache_error on unknown node or column. *)
let build_key_index cache ~node:name ~col =
  let ni = node cache name in
  let ci =
    match Schema.find_opt ni.ni_schema col with
    | Some i -> i
    | None -> err "no column %s in component %s" col name
  in
  let map = Hashtbl.create (max 16 (live_count ni)) in
  Vec.iter
    (fun t ->
      if t.t_live then begin
        let v = Dict.key_cell t.t_row.(ci) in
        Hashtbl.replace map v (t.t_pos :: Option.value ~default:[] (Hashtbl.find_opt map v))
      end)
    ni.ni_tuples;
  { ki_node = ni.ni_name; ki_col = ci; ki_map = map }

(** [lookup_key cache ki v] is the positions of live tuples whose keyed
    column equals [v] (stale entries for tombstoned tuples are filtered). *)
let lookup_key cache ki v =
  let ni = node cache ki.ki_node in
  let hits =
    List.filter
      (fun pos -> (tuple ni pos).t_live)
      (Option.value ~default:[]
         (Hashtbl.find_opt ki.ki_map (Dict.key_cell (Dict.encode v))))
  in
  Obs.Metrics.incr (match hits with [] -> m_key_misses | _ -> m_key_hits);
  hits

(** [lookup_key_one cache ki v] is the unique position for [v], if any. *)
let lookup_key_one cache ki v =
  match lookup_key cache ki v with pos :: _ -> Some pos | [] -> None

(** [total_tuples cache] counts live tuples across all nodes. *)
let total_tuples cache = List.fold_left (fun acc (_, ni) -> acc + live_count ni) 0 cache.c_nodes

(** [total_conns cache] counts live connections across all edges. *)
let total_conns cache =
  List.fold_left (fun acc (_, ei) -> acc + live_conn_count ei) 0 cache.c_edges

(** [pp] prints a summary: per node the live tuple count, per edge the live
    connection count. *)
let pp ppf cache =
  Fmt.pf ppf "CO instance:@.";
  List.iter
    (fun (name, ni) -> Fmt.pf ppf "  %s: %d tuples@." name (live_count ni))
    cache.c_nodes;
  List.iter
    (fun (name, ei) ->
      Fmt.pf ppf "  %s (%s -> %s): %d connections@." name ei.ei_parent ei.ei_child
        (live_conn_count ei))
    cache.c_edges
