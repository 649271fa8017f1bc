(* Bound scalar expressions.

   Column references are positional into the operator's input row (for a
   join, the concatenation of the outer and inner rows). Predicates evaluate
   under SQL three-valued logic; [eval] returns a value where boolean-typed
   expressions use [Value.Bool]/[Value.Null] to represent TRUE/FALSE/UNKNOWN.

   [Subplan] nodes carry correlated subqueries: a delayed plan evaluated
   with the current input row bound to its parameters. The indirection
   through a closure keeps this module independent of the planner. *)

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
  | Case of (t * t) list * t option  (** searched CASE: WHEN pred THEN expr ... ELSE *)
  | Fn of string * t list  (** scalar function by name: abs, lower, upper, length, mod, coalesce *)
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

let truth_of_value : Value.t -> Value.truth = function
  | Value.Bool true -> True
  | Value.Bool false -> False
  | Value.Null -> Unknown
  | v -> invalid_arg ("Expr: non-boolean predicate value " ^ Value.to_string v)

let value_of_truth : Value.truth -> Value.t = function
  | True -> Value.Bool true
  | False -> Value.Bool false
  | Unknown -> Value.Null

(* SQL LIKE: '%' matches any run, '_' any single char. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized recursion over (pi, si) *)
  let memo = Hashtbl.create 16 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi >= np then si >= ns
        else
          match pattern.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && Char.equal s.[si] c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

let apply_fn name (args : Value.t list) : Value.t =
  match String.lowercase_ascii name, args with
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "abs", [ Value.Null ] -> Value.Null
  | "lower", [ Value.Str s ] -> Value.Str (String.lowercase_ascii s)
  | "lower", [ Value.Null ] -> Value.Null
  | "upper", [ Value.Str s ] -> Value.Str (String.uppercase_ascii s)
  | "upper", [ Value.Null ] -> Value.Null
  | "length", [ Value.Str s ] -> Value.Int (String.length s)
  | "length", [ Value.Null ] -> Value.Null
  | "mod", [ a; b ] -> Value.arith `Mod a b
  | "coalesce", args ->
    (try List.find (fun v -> not (Value.is_null v)) args with Not_found -> Value.Null)
  | name, _ -> invalid_arg ("Expr: unknown function or arity: " ^ name)

(** [eval row e] evaluates [e] against [row]. Boolean results are encoded
    as [Bool]/[Null] per 3VL. *)
let rec eval (row : Row.t) (e : t) : Value.t =
  match e with
  | Col i -> row.(i)
  | Param i -> invalid_arg (Printf.sprintf "Expr: unsubstituted parameter $p%d" i)
  | Lit v -> v
  | Cmp (op, a, b) -> begin
    match Value.compare_sql (eval row a) (eval row b) with
    | None -> Value.Null
    | Some c ->
      let r =
        match op with
        | Eq -> c = 0
        | Ne -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
      in
      Value.Bool r
  end
  | Arith (op, a, b) ->
    let op = match op with Add -> `Add | Sub -> `Sub | Mul -> `Mul | Div -> `Div | Mod -> `Mod in
    Value.arith op (eval row a) (eval row b)
  | Neg a -> begin
    match eval row a with
    | Value.Int i -> Value.Int (-i)
    | Value.Float f -> Value.Float (-.f)
    | Value.Null -> Value.Null
    | v -> invalid_arg ("Expr: cannot negate " ^ Value.to_string v)
  end
  | And (a, b) -> value_of_truth (Value.truth_and (eval_pred row a) (eval_pred row b))
  | Or (a, b) -> value_of_truth (Value.truth_or (eval_pred row a) (eval_pred row b))
  | Not a -> value_of_truth (Value.truth_not (eval_pred row a))
  | Is_null a -> Value.Bool (Value.is_null (eval row a))
  | Is_not_null a -> Value.Bool (not (Value.is_null (eval row a)))
  | Like (a, p) -> begin
    match eval row a, eval row p with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | Value.Str s, Value.Str pattern -> Value.Bool (like_match ~pattern s)
    | _ -> invalid_arg "Expr: LIKE on non-strings"
  end
  | In_list (a, items) ->
    let v = eval row a in
    if Value.is_null v then Value.Null
    else
      let rec go unknown = function
        | [] -> if unknown then Value.Null else Value.Bool false
        | item :: rest -> begin
          match Value.compare_sql v (eval row item) with
          | Some 0 -> Value.Bool true
          | Some _ -> go unknown rest
          | None -> go true rest
        end
      in
      go false items
  | Case (branches, else_) ->
    let rec go = function
      | [] -> ( match else_ with Some e -> eval row e | None -> Value.Null)
      | (cond, result) :: rest ->
        if Value.is_true (eval_pred row cond) then eval row result else go rest
    in
    go branches
  | Fn (name, args) -> apply_fn name (List.map (eval row) args)
  | Exists_plan sp ->
    Value.Bool (not (Seq.is_empty (sp.sp_eval row)))
  | In_plan (a, sp) ->
    let v = eval row a in
    if Value.is_null v then Value.Null
    else
      let unknown = ref false in
      let found =
        Seq.exists
          (fun (r : Row.t) ->
            match Value.compare_sql v r.(0) with
            | Some 0 -> true
            | Some _ -> false
            | None ->
              unknown := true;
              false)
          (sp.sp_eval row)
      in
      if found then Value.Bool true else if !unknown then Value.Null else Value.Bool false
  | Scalar_plan sp -> begin
    match (sp.sp_eval row) () with
    | Seq.Nil -> Value.Null
    | Seq.Cons (r, rest) ->
      if not (Seq.is_empty rest) then invalid_arg "Expr: scalar subquery returned more than one row";
      if Array.length r <> 1 then invalid_arg "Expr: scalar subquery returned more than one column";
      r.(0)
  end

(** [eval_pred row e] evaluates [e] as a predicate, yielding a 3VL truth. *)
and eval_pred row e = truth_of_value (eval row e)

(** [shift k e] adds [k] to every column index — used when an expression
    built against one side of a join must read the concatenated row. *)
let rec shift k e =
  match e with
  | Col i -> Col (i + k)
  | Param _ | Lit _ -> e
  | Cmp (op, a, b) -> Cmp (op, shift k a, shift k b)
  | Arith (op, a, b) -> Arith (op, shift k a, shift k b)
  | Neg a -> Neg (shift k a)
  | And (a, b) -> And (shift k a, shift k b)
  | Or (a, b) -> Or (shift k a, shift k b)
  | Not a -> Not (shift k a)
  | Is_null a -> Is_null (shift k a)
  | Is_not_null a -> Is_not_null (shift k a)
  | Like (a, p) -> Like (shift k a, shift k p)
  | In_list (a, items) -> In_list (shift k a, List.map (shift k) items)
  | Case (branches, else_) ->
    Case (List.map (fun (c, r) -> (shift k c, shift k r)) branches, Option.map (shift k) else_)
  | Fn (name, args) -> Fn (name, List.map (shift k) args)
  | Exists_plan _ | In_plan _ | Scalar_plan _ -> e

(** [map_cols f e] rewrites every column index through [f]; raises whatever
    [f] raises (used to re-base expressions after projections). Subplan
    nodes are kept as-is (their correlation is by full input row). *)
let rec map_cols f e =
  match e with
  | Col i -> Col (f i)
  | Param _ | Lit _ -> e
  | Cmp (op, a, b) -> Cmp (op, map_cols f a, map_cols f b)
  | Arith (op, a, b) -> Arith (op, map_cols f a, map_cols f b)
  | Neg a -> Neg (map_cols f a)
  | And (a, b) -> And (map_cols f a, map_cols f b)
  | Or (a, b) -> Or (map_cols f a, map_cols f b)
  | Not a -> Not (map_cols f a)
  | Is_null a -> Is_null (map_cols f a)
  | Is_not_null a -> Is_not_null (map_cols f a)
  | Like (a, p) -> Like (map_cols f a, map_cols f p)
  | In_list (a, items) -> In_list (map_cols f a, List.map (map_cols f) items)
  | Case (branches, else_) ->
    Case
      ( List.map (fun (c, r) -> (map_cols f c, map_cols f r)) branches,
        Option.map (map_cols f) else_ )
  | Fn (name, args) -> Fn (name, List.map (map_cols f) args)
  | Exists_plan _ | In_plan _ | Scalar_plan _ -> e

(** [cols e] is the set (sorted, deduplicated) of column indexes read by
    [e], excluding columns read inside subplans. *)
let cols e =
  let acc = ref [] in
  let rec go = function
    | Col i -> acc := i :: !acc
    | Param _ | Lit _ -> ()
    | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) | Like (a, b) ->
      go a;
      go b
    | Neg a | Not a | Is_null a | Is_not_null a -> go a
    | In_list (a, items) ->
      go a;
      List.iter go items
    | Case (branches, else_) ->
      List.iter
        (fun (c, r) ->
          go c;
          go r)
        branches;
      Option.iter go else_
    | Fn (_, args) -> List.iter go args
    | Exists_plan _ | Scalar_plan _ -> ()
    | In_plan (a, _) -> go a
  in
  go e;
  List.sort_uniq compare !acc

(** [has_subplan e] detects correlated-subquery nodes (these block certain
    rewrites). *)
let rec has_subplan = function
  | Exists_plan _ | In_plan _ | Scalar_plan _ -> true
  | Col _ | Param _ | Lit _ -> false
  | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) | Like (a, b) ->
    has_subplan a || has_subplan b
  | Neg a | Not a | Is_null a | Is_not_null a -> has_subplan a
  | In_list (a, items) -> has_subplan a || List.exists has_subplan items
  | Case (branches, else_) ->
    List.exists (fun (c, r) -> has_subplan c || has_subplan r) branches
    || (match else_ with Some e -> has_subplan e | None -> false)
  | Fn (_, args) -> List.exists has_subplan args

(** [subst_params env e] replaces every [Param i] with [Lit env.(i)] —
    applied by the executor before evaluating a correlated subplan body. *)
let rec subst_params (env : Value.t array) e =
  match e with
  | Param i -> Lit env.(i)
  | Col _ | Lit _ -> e
  | Cmp (op, a, b) -> Cmp (op, subst_params env a, subst_params env b)
  | Arith (op, a, b) -> Arith (op, subst_params env a, subst_params env b)
  | Neg a -> Neg (subst_params env a)
  | And (a, b) -> And (subst_params env a, subst_params env b)
  | Or (a, b) -> Or (subst_params env a, subst_params env b)
  | Not a -> Not (subst_params env a)
  | Is_null a -> Is_null (subst_params env a)
  | Is_not_null a -> Is_not_null (subst_params env a)
  | Like (a, p) -> Like (subst_params env a, subst_params env p)
  | In_list (a, items) -> In_list (subst_params env a, List.map (subst_params env) items)
  | Case (branches, else_) ->
    Case
      ( List.map (fun (c, r) -> (subst_params env c, subst_params env r)) branches,
        Option.map (subst_params env) else_ )
  | Fn (name, args) -> Fn (name, List.map (subst_params env) args)
  | In_plan (a, sp) -> In_plan (subst_params env a, sp)
  | Exists_plan _ | Scalar_plan _ -> e

(** [has_param e] holds when [e] contains an unsubstituted parameter. *)
let rec has_param = function
  | Param _ -> true
  | Col _ | Lit _ -> false
  | Cmp (_, a, b) | Arith (_, a, b) | And (a, b) | Or (a, b) | Like (a, b) ->
    has_param a || has_param b
  | Neg a | Not a | Is_null a | Is_not_null a -> has_param a
  | In_list (a, items) -> has_param a || List.exists has_param items
  | Case (branches, else_) ->
    List.exists (fun (c, r) -> has_param c || has_param r) branches
    || (match else_ with Some e -> has_param e | None -> false)
  | Fn (_, args) -> List.exists has_param args
  | Exists_plan _ | In_plan _ | Scalar_plan _ -> false

(** [conjuncts e] splits a conjunction into its factors. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(** [conjoin es] rebuilds a conjunction ([Lit TRUE] when empty). *)
let conjoin = function
  | [] -> Lit (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc x -> And (acc, x)) e rest

let pp_cmp ppf op =
  Fmt.string ppf
    (match op with Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=")

(** [pp] prints the expression with positional columns as [$i]. *)
let rec pp ppf = function
  | Col i -> Fmt.pf ppf "$%d" i
  | Param i -> Fmt.pf ppf "$p%d" i
  | Lit v -> Value.pp ppf v
  | Cmp (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a pp_cmp op pp b
  | Arith (op, a, b) ->
    let s = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%" in
    Fmt.pf ppf "(%a %s %a)" pp a s pp b
  | Neg a -> Fmt.pf ppf "(-%a)" pp a
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp a pp b
  | Not a -> Fmt.pf ppf "(NOT %a)" pp a
  | Is_null a -> Fmt.pf ppf "(%a IS NULL)" pp a
  | Is_not_null a -> Fmt.pf ppf "(%a IS NOT NULL)" pp a
  | Like (a, p) -> Fmt.pf ppf "(%a LIKE %a)" pp a pp p
  | In_list (a, items) -> Fmt.pf ppf "(%a IN (%a))" pp a (Fmt.list ~sep:(Fmt.any ", ") pp) items
  | Case (branches, else_) ->
    Fmt.pf ppf "CASE";
    List.iter (fun (c, r) -> Fmt.pf ppf " WHEN %a THEN %a" pp c pp r) branches;
    Option.iter (fun e -> Fmt.pf ppf " ELSE %a" pp e) else_;
    Fmt.pf ppf " END"
  | Fn (name, args) -> Fmt.pf ppf "%s(%a)" name (Fmt.list ~sep:(Fmt.any ", ") pp) args
  | Exists_plan sp -> Fmt.pf ppf "EXISTS(%s)" sp.sp_descr
  | In_plan (a, sp) -> Fmt.pf ppf "(%a IN (%s))" pp a sp.sp_descr
  | Scalar_plan sp -> Fmt.pf ppf "(%s)" sp.sp_descr

(** Hash-key view of an {e encoded} row: equality and hashing over
    {!Dict} id arrays. Comparison and hashing touch only unboxed ints —
    no allocation, no polymorphic compare. Callers must normalize each
    cell through [Dict.key_cell] before building a key so SQL-engine
    semantics hold: Int/Float cross-type equality (an integral float's
    key id is the int's id) and NULL = NULL (all NULLs are [Dict.null_id],
    so a build bucket holds all NULL-keyed rows — callers enforce SQL's
    NULL-never-matches rule by skipping keys for which [has_null] holds).
    Shared by the relational hash join/group operators and the XNF batch
    edge probers so both sides of a differential test agree on key
    semantics. *)
module Row_key = struct
  type t = int array

  (* top-level recursion, not local closures or refs: these run once per
     hash probe on the encoded hot path and must not allocate *)
  let rec eq_from (a : t) (b : t) i =
    i >= Array.length a
    || ((Array.unsafe_get a i : int) = Array.unsafe_get b i && eq_from a b (i + 1))

  let equal (a : t) (b : t) = Array.length a = Array.length b && eq_from a b 0

  let rec hash_from (k : t) i acc =
    if i >= Array.length k then acc land max_int
    else hash_from k (i + 1) ((acc * 31) + Array.unsafe_get k i)

  let hash (k : t) = hash_from k 0 7

  let rec null_from (k : t) i =
    i < Array.length k && (Dict.is_null (Array.unsafe_get k i) || null_from k (i + 1))

  let has_null (k : t) = null_from k 0
end

module Row_key_tbl = Hashtbl.Make (Row_key)

(** The pre-dictionary boxed key view ([Value.equal] / [Value.hash] over
    [Value.t] arrays). Kept for the layers that still work on decoded
    values — column statistics and the naive oracles. *)
module Row_key_boxed = struct
  type t = Value.t array

  let equal (a : t) (b : t) =
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash (k : t) = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 7 k
  let has_null (k : t) = Array.exists Value.is_null k
end

module Row_key_boxed_tbl = Hashtbl.Make (Row_key_boxed)
