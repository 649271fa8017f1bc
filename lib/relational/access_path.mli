(** Access-path selection for a restriction over one base table — the one
    rule shared by the SQL optimizer's [Select] lowering, XNF root and
    extent evaluation, and UPDATE/DELETE victim selection.

    The rule: the first index of {!Table.indexes} all of whose key
    columns are bound by a [Col = Lit] or [Col = Param] conjunct (either
    operand order; the first such conjunct per column supplies the key)
    is used; otherwise the table is scanned. *)

type t =
  | Scan
  | Index of {
      index : Index.t;
      key : Expr.t list;  (** [Lit]/[Param] key expressions, in index column order *)
      residual : Expr.t list;  (** the conjuncts the key does not consume, in input order *)
    }

(** [choose table conjuncts] picks the access path for the conjunction of
    [conjuncts] (bound over [table]'s rows). No allocation beyond two
    closures when no index qualifies. *)
val choose : Table.t -> Expr.t list -> t

(** [first_covering table covered] is the first index of [table] whose
    every key column satisfies [covered]. *)
val first_covering : Table.t -> (int -> bool) -> Index.t option

(** [subst_params params t] substitutes [params] into [t]'s key. *)
val subst_params : Value.t array -> t -> t

(** [probe_key key] evaluates parameter-free key expressions; [None] when
    a component is NULL — NULL never equals anything, so such a key
    matches no row. *)
val probe_key : Expr.t list -> Row.t option

(** [lookup table index key] is the live rows under [key] in [index], in
    ascending rowid order (the order a scan visits them), with
    {!Value.equal} key semantics; notifies the touch hook per row. *)
val lookup : Table.t -> Index.t -> Row.t -> (int * Row.t) list

(** [iter table t pred f] applies [f rowid row] to every live row of
    [table] satisfying [pred], in ascending rowid order. An index path
    only narrows the candidates: [pred] — the full predicate, not just
    the residual — is re-checked on each of them. [t]'s key must be
    parameter-free (see {!subst_params}). *)
val iter : Table.t -> t -> Expr.t option -> (int -> Row.t -> unit) -> unit

(** [rows table t pred] is {!iter}'s visits, materialized as
    [(rowid, row)]. *)
val rows : Table.t -> t -> Expr.t option -> (int * Row.t) list

(** [describe t] is ["scan"] or ["index:<name>"]. *)
val describe : t -> string
