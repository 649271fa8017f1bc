(** Edge probers: the join layer of the XNF cache loader (§4.3 of the
    paper), one relational join per relationship, answered per parent
    tuple.

    A prober answers "children of this parent tuple" for one
    relationship. It is one key chain over one candidate source, with one
    delivery routine:

    - each relationship's predicate is analyzed once into its join key:
      FK pairs or USING link bindings, plus residual conjuncts. The key
      chains, the edge's structural shape and, through the shape, its
      servability ([Edge_cost.candidates]) all read this one analysis;
    - a key chain is one lookup keyed by parent columns (an FK edge) or
      two chained lookups, parent -> link rows -> child rows (a USING
      edge). Indexed keys an FK edge by one indexed pair, hash-batch by
      all pairs, generic by none: each generic probe scans the child's
      rows (on a USING edge, the link table, each link row keyed on to
      its children), with the parent's key conjuncts residual;
    - a candidate source is a stored base-table index, a hash build over
      a base table (cached across executions while the table's
      [Table.version] holds, shared by the edges of one plan that key the
      same table the same way), or a per-fetch build over a derived
      child's extent, made on the edge's first probe;
    - delivery applies child predicate -> concat -> residual ->
      attributes, and allocates nothing per hit when there is no
      residual, no WITH ATTRIBUTES and no probe-time child predicate.

    Key equality is [Expr.Row_key] over [Dict.key_cell]-normalized ids,
    the relational hash join's semantics, and NULL keys match nothing. *)

open Relational

(** Raised for a relationship that cannot be compiled: [XNF005] (a USING
    table that does not exist) and [XNF009] (an attribute parameter with
    no typed operand). [Translate.Translate_error] is this exception. *)
exception Translate_error of string

(** The child side of a relationship: a simple child's base table and
    its combined predicate over the base row (with [?] slots unbound), or
    a derived child's output schema. A derived child's rows are
    identified by extent index. *)
type child = Base of Table.t * Expr.t option | Derived of Schema.t

(** The hash builds of one plan. Edges compiled against the same
    [builds] share a build when they key the same table by the same
    columns under the same folded predicate, as a recursive closure's
    root and recursive edges do. *)
type builds

val builds : unit -> builds

(** One relationship's compiled probers, one per access path
    [Edge_cost.candidates] lists for its shape. *)
type edge

(** [compile db builds ed ~parent_schema ~child] analyzes [ed]'s join key
    and compiles a prober for each candidate access path. No data is
    read: builds are made when a prober is opened.
    @raise Translate_error [XNF005] or [XNF009]. *)
val compile : Db.t -> builds -> Co_schema.edge_def -> parent_schema:Schema.t -> child:child -> edge

(** [shape e] is the edge's structural join shape. Its [es_strategy] is
    [S_generic]: the planner picks among [Edge_cost.candidates (shape e)]. *)
val shape : edge -> Edge_cost.edge_shape

(** [attrs e] is the relationship-attribute schema (WITH ATTRIBUTES). *)
val attrs : edge -> Schema.t

(** A prober opened for one execution. *)
type t

(** [open_ e s params ~extent] opens [e]'s prober for strategy [s], which
    must be one of [Edge_cost.candidates (shape e)]. It substitutes
    [params] for the [?] slots once and (re)builds or reuses the
    base-table hash builds [s] reads. [extent] supplies a derived child's
    rows; it is forced on the first probe, never before. *)
val open_ : edge -> Edge_cost.strategy -> Value.t array -> extent:(unit -> Row.enc array) -> t

(** Consumer of a prober's hits: [emit id enc attrs] gets the child's
    identity (base rowid of a simple child, extent index of a derived
    one), its encoded row (a simple child's base row) and the encoded
    relationship-attribute row ([[||]] when the edge has none). *)
type emit = int -> Row.enc -> Row.enc -> unit

(** [probe p emit] binds [p] to [emit] for one batch; the result is fed
    frontier rows (encoded parent node-output rows) and emits each match. *)
val probe : t -> emit -> Row.enc -> unit

(** [scanned p] counts the candidate rows [p]'s sources handed out since
    it was opened, before residual filtering: the observable the
    adaptive check compares against the plan's scan estimate. *)
val scanned : t -> int
