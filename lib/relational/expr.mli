(** Bound scalar expressions.

    Column references are positional into the operator's input row (for a
    join, the concatenation of the outer and inner rows). Predicates
    evaluate under SQL three-valued logic, encoding TRUE/FALSE/UNKNOWN as
    [Bool]/[Null] values. [*_plan] nodes carry correlated subqueries as
    closures over the outer row. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type arith_op = Add | Sub | Mul | Div | Mod

type agg_fn = Count_star | Count | Sum | Avg | Min | Max

type t =
  | Col of int  (** positional reference into the input row *)
  | Param of int  (** correlation parameter, substituted before evaluation *)
  | Lit of Value.t
  | Cmp of cmp * t * t
  | Arith of arith_op * t * t
  | Neg of t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t
  | Is_not_null of t
  | Like of t * t  (** pattern with SQL wildcards [%] and [_] *)
  | In_list of t * t list
  | Case of (t * t) list * t option  (** searched CASE *)
  | Fn of string * t list  (** scalar function by name *)
  | Exists_plan of subplan
  | In_plan of t * subplan
  | Scalar_plan of subplan

and subplan = {
  sp_eval : Row.t -> Row.t Seq.t;
      (** run the subquery with the outer row as correlation context *)
  sp_descr : string;  (** for pretty-printing *)
  sp_ty : ty_hint;  (** output type of column 0, for scalar subqueries *)
}

and ty_hint = Hint_int | Hint_float | Hint_string | Hint_bool

(** Conversions between 3VL truth values and their value encoding.
    @raise Invalid_argument on non-boolean values. *)

val truth_of_value : Value.t -> Value.truth
val value_of_truth : Value.truth -> Value.t

(** [like_match ~pattern s] is SQL LIKE matching ([%] any run, [_] any
    character). *)
val like_match : pattern:string -> string -> bool

(** [apply_fn name args] applies a scalar function (abs, lower, upper,
    length, mod, coalesce). @raise Invalid_argument on unknown names. *)
val apply_fn : string -> Value.t list -> Value.t

(** [eval row e] evaluates [e] against [row].
    @raise Invalid_argument on type errors or unsubstituted parameters. *)
val eval : Row.t -> t -> Value.t

(** [eval_pred row e] evaluates [e] as a predicate. *)
val eval_pred : Row.t -> t -> Value.truth

(** [shift k e] adds [k] to every column index. *)
val shift : int -> t -> t

(** [map_cols f e] rewrites every column index through [f]; subplan nodes
    are kept as-is. *)
val map_cols : (int -> int) -> t -> t

(** [cols e] is the sorted set of column indexes read by [e] (excluding
    columns read inside subplans). *)
val cols : t -> int list

(** [has_subplan e] / [has_param e]: these block predicate movement during
    rewrite (a subplan's correlation closure captures its bind layout). *)

val has_subplan : t -> bool
val has_param : t -> bool

(** [subst_params env e] replaces every [Param i] with [Lit env.(i)]. *)
val subst_params : Value.t array -> t -> t

(** [conjuncts e] splits a conjunction; [conjoin es] rebuilds one
    ([Lit TRUE] when empty). *)

val conjuncts : t -> t list
val conjoin : t list -> t

val pp_cmp : Format.formatter -> cmp -> unit

(** [pp] prints the expression with positional columns as [$i]. *)
val pp : Format.formatter -> t -> unit

(** Hash-key view of an {e encoded} row: int-only equality and hashing
    over {!Dict} id arrays (allocation-free). Cells must be normalized
    through [Dict.key_cell] so Int/Float cross-equality holds; NULLs
    ([Dict.null_id]) hash/compare equal — callers implement SQL's
    NULL-never-joins rule by skipping keys for which [has_null] holds.
    Shared by the relational hash operators and the XNF batch edge
    probers. *)
module Row_key : sig
  type t = int array

  val equal : t -> t -> bool
  val hash : t -> int
  val has_null : t -> bool
end

(** Hash tables keyed by {!Row_key}. *)
module Row_key_tbl : Hashtbl.S with type key = Row_key.t
