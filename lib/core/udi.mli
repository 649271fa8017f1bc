(** Manipulation operations on the XNF cache (§3.7 of the paper): update /
    delete / insert on component tuples and connect / disconnect on
    relationships, propagated to the base tables through the view
    updatability analysis:

    - FK relationships: connect sets the child's foreign key to the parent
      key, disconnect nullifies it;
    - USING (M:N) relationships: connect inserts a link tuple, disconnect
      deletes it;
    - columns mentioned in a relationship predicate change only through
      connect/disconnect;
    - deleting a tuple disconnects the relationship instances attached to
      it (no cascading deletes), then removes the base row.

    Propagation is immediate by default; {!with_deferred}/{!save} batch it,
    coalescing repeated updates per tuple into a single base write. *)

open Relational

exception Udi_error of string

type t

(** [session db cache] is a manipulation session with immediate
    propagation. *)
val session : Db.t -> Cache.t -> t

(** [set_deferred ses flag] switches between immediate and deferred
    propagation; call {!save} to flush deferred work. A deferred change
    marks the cache [c_unsaved] (so {!Cache.stale} holds) until then. *)
val set_deferred : t -> bool -> unit

(** [set_validation ses flag] enables/disables optimistic conflict
    detection (default on): before every base write the session checks that
    no other writer changed the table since the composite object was
    loaded; a conflict raises {!Udi_error} without writing. The session's
    own writes do not conflict. *)
val set_validation : t -> bool -> unit

(** [update ses ~node ~pos updates] changes columns of a cached tuple and
    propagates to the base table.
    @raise Udi_error on non-updatable nodes or relationship columns. *)
val update : t -> node:string -> pos:int -> (string * Value.t) list -> unit

(** [delete ses ~node ~pos] removes a component tuple: disconnects attached
    relationship instances, deletes the base row, re-applies reachability
    in the cache.
    @raise Udi_error on non-updatable nodes. *)
val delete : t -> node:string -> pos:int -> unit

(** [insert ses ~node row] adds a tuple to a component and its base table;
    the tuple is initially unconnected. Returns its cache position.
    @raise Udi_error on non-updatable nodes. *)
val insert : t -> node:string -> Row.t -> int

(** [connect ses ~edge ~parent ~child ?attrs ()] creates a relationship
    instance between the tuples at the two cache positions, propagating per
    the relationship's updatability. [attrs] sets relationship attributes
    on USING relationships (by attribute name).
    @raise Udi_error on read-only relationships. *)
val connect :
  t -> edge:string -> parent:int -> child:int -> ?attrs:(string * Value.t) list -> unit -> unit

(** [disconnect ses ~edge ~parent ~child] removes the relationship
    instance(s) between the two tuples; reachability is re-applied (the
    child may leave the CO).
    @raise Udi_error when no such connection exists or the relationship is
    read-only. *)
val disconnect : t -> edge:string -> parent:int -> child:int -> unit

(** [pending_count ses] is the number of queued operations plus dirty
    tuples awaiting {!save}. *)
val pending_count : t -> int

(** [save ses] flushes deferred work: dirty tuples coalesce to one base
    write each; queued operations apply in issue order; the cache's
    staleness baseline is refreshed and its [c_unsaved] mark cleared. *)
val save : t -> unit

(** [with_deferred ses f] runs [f ()] with propagation deferred, then
    saves. *)
val with_deferred : t -> (unit -> 'a) -> 'a
