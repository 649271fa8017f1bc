(* Manipulation operations on the XNF cache (§3.7): update / delete /
   insert on component tuples, connect / disconnect on relationships —
   all propagated to the base tables through the nodes' view-updatability
   mappings and the relationships' updatability analysis:

     - FK relationships: connect sets the child's foreign key to the parent
       key, disconnect nullifies it;
     - USING (M:N) relationships: connect inserts a link tuple, disconnect
       deletes it;
     - columns mentioned in a relationship predicate can only change
       through connect/disconnect;
     - deleting a tuple disconnects the relationship instances attached to
       it (and only those — no cascading deletes), then removes the base
       row; reachability is re-established in the cache afterwards.

   Propagation runs immediately by default; [with_deferred]/[save] batch it
   — cache changes coalesce per tuple so that k updates to one tuple cost
   one base update (the cooperative-buffer idea of [KDG87], measured in
   E9).

   Concurrency control is optimistic, in the spirit of the workstation/
   server split of the paper's §1: the session records the version of every
   base table its cache was loaded from; before writing a table it
   validates that no OTHER writer has changed it since (the session's own
   writes advance the recorded versions). A conflict raises [Udi_error]
   and nothing further is written — refetch and reapply. [set_validation]
   turns this off for last-writer-wins semantics. *)

open Relational

exception Udi_error of string

let err fmt = Fmt.kstr (fun s -> raise (Udi_error s)) fmt

(* manipulation and propagation activity, in the global metrics registry *)
let m_updates = Obs.Metrics.counter "xnf.udi.updates"
let m_inserts = Obs.Metrics.counter "xnf.udi.inserts"
let m_deletes = Obs.Metrics.counter "xnf.udi.deletes"
let m_connects = Obs.Metrics.counter "xnf.udi.connects"
let m_disconnects = Obs.Metrics.counter "xnf.udi.disconnects"
let m_base_writes = Obs.Metrics.counter "xnf.udi.base_writes"
let m_saves = Obs.Metrics.counter "xnf.udi.saves"
let m_conflicts = Obs.Metrics.counter "xnf.udi.conflicts"

type pending =
  | P_delete of { table : string; rowid : int }
  | P_insert of { table : string; row : Row.t; node : string; pos : int }
  | P_link_insert of { table : string; row : Row.t }
  | P_link_delete of { table : string; match_cols : (int * Value.t) list }

type t = {
  u_db : Db.t;
  u_cache : Cache.t;
  mutable u_deferred : bool;
  mutable u_validate : bool;
  u_expected : (string, int) Hashtbl.t;  (** table -> version as of load / last own write *)
  mutable u_pending : pending list;  (** newest first; applied oldest first *)
  mutable u_dirty : (string * int) list;  (** (node, pos) with unpropagated updates *)
}

(** [session db cache] is a manipulation session with immediate propagation
    and optimistic validation against concurrent writers. *)
let session db cache =
  let expected = Hashtbl.create 8 in
  List.iter (fun (t, v) -> Hashtbl.replace expected t v) cache.Cache.c_base_versions;
  { u_db = db; u_cache = cache; u_deferred = false; u_validate = true; u_expected = expected;
    u_pending = []; u_dirty = [] }

(** [set_deferred ses flag] switches between immediate and deferred
    propagation; call {!save} to flush deferred work. *)
let set_deferred ses flag = ses.u_deferred <- flag

(** [set_validation ses flag] enables/disables optimistic conflict
    detection (default on). *)
let set_validation ses flag = ses.u_validate <- flag

(* optimistic check: the table must not have moved past what this session
   has seen; called before every base write *)
let check_conflict ses table =
  if ses.u_validate then begin
    let name = String.lowercase_ascii (Table.name table) in
    match Hashtbl.find_opt ses.u_expected name with
    | Some v when v <> Table.version table ->
      Obs.Metrics.incr m_conflicts;
      err "concurrent modification of %s since this composite object was loaded: refetch and reapply"
        (Table.name table)
    | _ -> ()
  end

(* after an own write: advance the session's and the cache's recorded
   versions so further own operations and staleness checks stay green *)
let record_write ses table =
  let name = String.lowercase_ascii (Table.name table) in
  Hashtbl.replace ses.u_expected name (Table.version table);
  ses.u_cache.Cache.c_base_versions <-
    (if List.mem_assoc name ses.u_cache.Cache.c_base_versions then
       List.map
         (fun (t, v) -> if String.equal t name then (t, Table.version table) else (t, v))
         ses.u_cache.Cache.c_base_versions
     else (name, Table.version table) :: ses.u_cache.Cache.c_base_versions)

let write_update ses table rowid row =
  check_conflict ses table;
  Obs.Metrics.incr m_base_writes;
  let r = Db.update_row ses.u_db table rowid row in
  record_write ses table;
  r

let write_insert ses table row =
  check_conflict ses table;
  Obs.Metrics.incr m_base_writes;
  let rowid = Db.insert_row ses.u_db table row in
  record_write ses table;
  rowid

let write_delete ses table rowid =
  check_conflict ses table;
  Obs.Metrics.incr m_base_writes;
  let r = Db.delete_row ses.u_db table rowid in
  record_write ses table;
  r

let node_table ses ni =
  match ni.Cache.ni_upd with
  | Some u -> Catalog.table (Db.catalog ses.u_db) u.Semantic.nu_table
  | None -> err "component %s is not updatable (derivation is not a simple view)" ni.Cache.ni_name

(* write the dirty columns of a cache tuple through to its base row *)
let propagate_update ses ni (t : Cache.tuple) =
  match ni.Cache.ni_upd with
  | Some u when t.Cache.t_rowid >= 0 -> begin
    let rowid = t.Cache.t_rowid in
    let table = Catalog.table (Db.catalog ses.u_db) u.Semantic.nu_table in
    match Table.get table rowid with
    | None -> err "base row of %s vanished (concurrent delete?)" ni.Cache.ni_name
    | Some base ->
      let base' = Array.copy base in
      Array.iteri (fun node_col base_col -> base'.(base_col) <- Cache.col t node_col)
        u.Semantic.nu_col_map;
      ignore (write_update ses table rowid base');
      t.Cache.t_dirty <- false
  end
  | _ -> err "component %s is not updatable" ni.Cache.ni_name

let mark_dirty ses ni (t : Cache.tuple) =
  if ses.u_deferred then begin
    ses.u_cache.Cache.c_unsaved <- true;
    if not t.Cache.t_dirty then begin
      t.Cache.t_dirty <- true;
      ses.u_dirty <- (ni.Cache.ni_name, t.Cache.t_pos) :: ses.u_dirty
    end
  end
  else propagate_update ses ni t

let queue ses p =
  if ses.u_deferred then begin
    ses.u_cache.Cache.c_unsaved <- true;
    ses.u_pending <- p :: ses.u_pending
  end
  else begin
    let catalog = Db.catalog ses.u_db in
    match p with
    | P_delete { table; rowid } -> ignore (write_delete ses (Catalog.table catalog table) rowid)
    | P_insert { table; row; node; pos } ->
      let rowid = write_insert ses (Catalog.table catalog table) row in
      let ni = Cache.node ses.u_cache node in
      let t = Cache.tuple ni pos in
      t.Cache.t_rowid <- rowid;
      Intmap.set ni.Cache.ni_by_rowid rowid pos
    | P_link_insert { table; row } -> ignore (write_insert ses (Catalog.table catalog table) row)
    | P_link_delete { table; match_cols } ->
      let tbl = Catalog.table catalog table in
      (* candidates from an index covering the match columns (its keys
         compare with [Value.equal], so it only narrows the filter) *)
      let candidates =
        match Access_path.first_covering tbl (fun c -> List.mem_assoc c match_cols) with
        | Some idx ->
          Access_path.lookup tbl idx (Array.map (fun c -> List.assoc c match_cols) (Index.cols idx))
        | None -> List.of_seq (Table.to_seq tbl)
      in
      let victims =
        List.filter
          (fun (_, row) ->
            List.for_all (fun (col, v) -> Value.equal row.(col) v) match_cols)
          candidates
      in
      check_conflict ses tbl;
      List.iter (fun (rowid, _) -> ignore (write_delete ses tbl rowid)) victims
  end

(* ---- tuple operations ---- *)

let live_tuple ni pos =
  let t = Cache.tuple ni pos in
  if not t.Cache.t_live then err "tuple %d of %s is not part of this composite object" pos ni.Cache.ni_name;
  t

(** [update ses ~node ~pos updates] changes columns of a cached tuple and
    propagates to the base table. Columns used by relationship predicates
    are rejected (change them with {!connect}/{!disconnect}).
    @raise Udi_error on non-updatable nodes or locked columns. *)
let update ses ~node ~pos (updates : (string * Value.t) list) =
  Obs.Metrics.incr m_updates;
  let ni = Cache.node ses.u_cache node in
  let t = live_tuple ni pos in
  ignore (node_table ses ni);
  List.iter
    (fun (col, v) ->
      match Schema.find_opt ni.Cache.ni_schema col with
      | None -> err "no column %s in %s" col node
      | Some i ->
        if List.mem i ni.Cache.ni_locked_cols then
          err "column %s of %s defines a relationship: use connect/disconnect" col node;
        t.Cache.t_row <- Array.copy t.Cache.t_row;
        t.Cache.t_row.(i) <- Dict.encode v)
    updates;
  mark_dirty ses ni t

(* the connection objects attached to a tuple, per edge, with side info *)
let incident_conns ses ~node ~pos =
  List.concat_map
    (fun (_, ei) ->
      let acc = ref [] in
      if String.equal ei.Cache.ei_parent node then
        Cache.iter_conns_of_parent ei pos (fun ci ->
            if Cache.conn_live_at ei ci then acc := (ei, `Parent, Cache.conn_at ei ci) :: !acc);
      if String.equal ei.Cache.ei_child node then
        Cache.iter_conns_of_child ei pos (fun ci ->
            if Cache.conn_live_at ei ci then acc := (ei, `Child, Cache.conn_at ei ci) :: !acc);
      List.rev !acc)
    ses.u_cache.Cache.c_edges

let do_disconnect ses ei (c : Cache.conn) ~deleting_child =
  let parent_ni = Cache.node ses.u_cache ei.Cache.ei_parent in
  let child_ni = Cache.node ses.u_cache ei.Cache.ei_child in
  (match ei.Cache.ei_upd with
  | Semantic.Upd_fk { fk_child_col; _ } ->
    (* nullify the child's FK — unless the child row itself is going away *)
    if not deleting_child then begin
      let child = live_tuple child_ni c.Cache.cn_child in
      child.Cache.t_row <- Array.copy child.Cache.t_row;
      child.Cache.t_row.(fk_child_col) <- Dict.null_id;
      mark_dirty ses child_ni child
    end
  | Semantic.Upd_link { link_table; parent_bind; child_bind; _ } ->
    let parent = live_tuple parent_ni c.Cache.cn_parent in
    let child = Cache.tuple child_ni c.Cache.cn_child in
    let table = Catalog.table (Db.catalog ses.u_db) link_table in
    let schema = Table.schema table in
    let match_cols =
      List.map
        (fun (ln, pc) -> (Schema.find schema ln, Cache.col parent pc))
        parent_bind
      @ List.map (fun (ln, cc) -> (Schema.find schema ln, Cache.col child cc)) child_bind
    in
    queue ses (P_link_delete { table = link_table; match_cols })
  | Semantic.Upd_readonly reason ->
    err "relationship %s is read-only: %s" ei.Cache.ei_name reason);
  Cache.set_conn_live ei c.Cache.cn_idx false

(** [delete ses ~node ~pos] removes a component tuple: disconnects its
    attached relationship instances, deletes the base row, and re-applies
    reachability in the cache. *)
let delete ses ~node ~pos =
  Obs.Metrics.incr m_deletes;
  let node = String.lowercase_ascii node in
  let ni = Cache.node ses.u_cache node in
  let t = live_tuple ni pos in
  (match ni.Cache.ni_upd, t.Cache.t_rowid with
  | Some u, rowid when rowid >= 0 ->
    (* disconnect attached instances; a conn where the deleted tuple is the
       FK-holding child disappears with the row itself *)
    List.iter
      (fun (ei, side, c) ->
        match ei.Cache.ei_upd, side with
        | Semantic.Upd_fk _, `Child ->
          (* the FK lives in the row being deleted *)
          Cache.set_conn_live ei c.Cache.cn_idx false
        | _, `Child -> do_disconnect ses ei c ~deleting_child:true
        | _, `Parent -> do_disconnect ses ei c ~deleting_child:false)
      (incident_conns ses ~node ~pos);
    t.Cache.t_live <- false;
    queue ses (P_delete { table = u.Semantic.nu_table; rowid })
  | _ -> err "component %s is not updatable" node);
  Cache.recompute_reachability ses.u_cache

(** [insert ses ~node row] adds a tuple to a component (and its base
    table). The new tuple is initially unconnected; connect it to make it
    reachable — until then it lives in the cache but is not part of the CO
    by the reachability constraint. Returns its cache position. *)
let insert ses ~node (row : Row.t) =
  Obs.Metrics.incr m_inserts;
  let ni = Cache.node ses.u_cache node in
  let table = node_table ses ni in
  let upd = Option.get ni.Cache.ni_upd in
  if Array.length row <> Schema.arity ni.Cache.ni_schema then
    err "insert into %s: expected %d values" node (Schema.arity ni.Cache.ni_schema);
  let base = Array.make (Schema.arity (Table.schema table)) Value.Null in
  Array.iteri (fun node_col base_col -> base.(base_col) <- row.(node_col)) upd.Semantic.nu_col_map;
  let pos = Cache.add_tuple ni ~rowid:(-1) (Row.encode row) in
  queue ses (P_insert { table = upd.Semantic.nu_table; row = base; node = ni.Cache.ni_name; pos });
  pos

(* ---- relationship operations ---- *)

(** [connect ses ~edge ~parent ~child ?attrs ()] creates a relationship
    instance between the parent tuple at [parent] and the child tuple at
    [child], propagating per the relationship's updatability (FK
    assignment or link-tuple insertion). [attrs] sets relationship
    attributes on USING relationships. *)
let connect ses ~edge ~parent ~child ?(attrs = []) () =
  Obs.Metrics.incr m_connects;
  let ei = Cache.edge ses.u_cache edge in
  let parent_ni = Cache.node ses.u_cache ei.Cache.ei_parent in
  let child_ni = Cache.node ses.u_cache ei.Cache.ei_child in
  let pt = live_tuple parent_ni parent in
  let ct = live_tuple child_ni child in
  let attr_row =
    Array.of_list
      (List.map
         (fun c ->
           match List.assoc_opt c.Schema.col_name attrs with
           | Some v -> v
           | None -> Value.Null)
         (Schema.columns ei.Cache.ei_attr_schema))
  in
  (match ei.Cache.ei_upd with
  | Semantic.Upd_fk { fk_parent_col; fk_child_col } ->
    ct.Cache.t_row <- Array.copy ct.Cache.t_row;
    (* both rows are encoded: the FK assignment copies the raw id *)
    ct.Cache.t_row.(fk_child_col) <- pt.Cache.t_row.(fk_parent_col);
    mark_dirty ses child_ni ct
  | Semantic.Upd_link { link_table; parent_bind; child_bind; attr_cols } ->
    let table = Catalog.table (Db.catalog ses.u_db) link_table in
    let schema = Table.schema table in
    let row = Array.make (Schema.arity schema) Value.Null in
    List.iter (fun (ln, pc) -> row.(Schema.find schema ln) <- Cache.col pt pc) parent_bind;
    List.iter (fun (ln, cc) -> row.(Schema.find schema ln) <- Cache.col ct cc) child_bind;
    List.iter
      (fun (ln, attr_pos) ->
        if attr_pos < Array.length attr_row then row.(Schema.find schema ln) <- attr_row.(attr_pos))
      attr_cols;
    queue ses (P_link_insert { table = link_table; row })
  | Semantic.Upd_readonly reason -> err "relationship %s is read-only: %s" edge reason);
  ignore (Cache.add_conn ei ~parent ~child ~attrs:(Row.encode attr_row))

(** [disconnect ses ~edge ~parent ~child] removes the relationship
    instance(s) between the two tuples; the child may become unreachable
    and leave the CO (reachability is re-applied). *)
let disconnect ses ~edge ~parent ~child =
  Obs.Metrics.incr m_disconnects;
  let ei = Cache.edge ses.u_cache edge in
  let found = ref false in
  for i = 0 to Cache.conn_count ei - 1 do
    if Cache.conn_live_at ei i && Cache.conn_parent_at ei i = parent
       && Cache.conn_child_at ei i = child
    then begin
      found := true;
      do_disconnect ses ei (Cache.conn_at ei i) ~deleting_child:false
    end
  done;
  if not !found then err "no %s connection between these tuples" edge;
  Cache.recompute_reachability ses.u_cache

(* ---- deferred propagation ---- *)

(** [pending_count ses] is the number of queued operations plus dirty
    tuples (the batch [save] will flush). *)
let pending_count ses = List.length ses.u_pending + List.length ses.u_dirty

(** [save ses] flushes deferred work: dirty tuples coalesce to one base
    update each; queued inserts/deletes/link operations apply in issue
    order. Refreshes the cache's staleness baseline afterwards. *)
let save ses =
  Obs.Metrics.incr m_saves;
  Obs.Trace.with_span "udi.save" @@ fun () ->
  (* coalesced updates first: a tuple updated k times writes once *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (node, pos) ->
      if not (Hashtbl.mem seen (node, pos)) then begin
        Hashtbl.replace seen (node, pos) ();
        let ni = Cache.node ses.u_cache node in
        let t = Cache.tuple ni pos in
        if t.Cache.t_live && t.Cache.t_dirty then propagate_update ses ni t
      end)
    ses.u_dirty;
  ses.u_dirty <- [];
  let ops = List.rev ses.u_pending in
  ses.u_pending <- [];
  let deferred = ses.u_deferred in
  ses.u_deferred <- false;
  List.iter (queue ses) ops;
  ses.u_deferred <- deferred;
  (* the cache is now in sync with what it wrote *)
  ses.u_cache.Cache.c_unsaved <- false;
  ses.u_cache.Cache.c_base_versions <-
    List.map
      (fun (name, v) ->
        match Catalog.table_opt (Db.catalog ses.u_db) name with
        | Some t -> (name, Table.version t)
        | None -> (name, v))
      ses.u_cache.Cache.c_base_versions

(** [with_deferred ses f] runs [f ()] with propagation deferred, then
    saves. *)
let with_deferred ses f =
  set_deferred ses true;
  Fun.protect
    ~finally:(fun () -> set_deferred ses false)
    (fun () ->
      let r = f () in
      save ses;
      r)
