(* Physical plans and their execution.

   Plans are trees of iterator-style operators; [run] compiles a plan to a
   lazy row sequence. Blocking operators (hash build, sort, group) force
   their input on first demand. All expressions are positional over the
   operator's input row; join predicates see the concatenation of the left
   and right rows.

   NULL semantics for equi-joins follow SQL: a NULL key never matches. *)

type join_kind = Inner | Left | Semi | Anti

(** (function, argument, distinct): [distinct] dedupes argument values per
    group before aggregating, e.g. COUNT(DISTINCT x). *)
type agg_spec = Expr.agg_fn * Expr.t option * bool

type t =
  | Seq_scan of Table.t
  | Index_scan of { table : Table.t; index : Index.t; key : Expr.t list }
      (** point lookup with a key built from literals/parameters *)
  | Values of Row.t list
  | Filter of t * Expr.t
  | Project of t * Expr.t array
  | Nl_join of { kind : join_kind; left : t; right : t; pred : Expr.t option; right_width : int }
  | Index_nl_join of {
      kind : join_kind;
      left : t;
      table : Table.t;
      index : Index.t;
      key_of_left : Expr.t list;  (** evaluated against each left row *)
      extra : Expr.t option;  (** residual predicate over the concat row *)
      right_width : int;
    }
  | Hash_join of {
      kind : join_kind;
      left : t;
      right : t;
      left_keys : Expr.t list;
      right_keys : Expr.t list;
      extra : Expr.t option;
      right_width : int;
    }
  | Group of { input : t; keys : Expr.t list; aggs : agg_spec list }
  | Sort of { input : t; keys : (Expr.t * Sql_ast.order_dir) list }
  | Distinct of t
  | Limit of t * int
  | Union_all of t * t

(* ---- parameter substitution (correlated subplans) ---- *)

(** [subst_params env p] replaces every [Expr.Param i] with the value
    [env.(i)] throughout the plan. *)
let rec subst_params env p =
  let s = Expr.subst_params env in
  match p with
  | Seq_scan _ | Values _ -> p
  | Index_scan r -> Index_scan { r with key = List.map s r.key }
  | Filter (input, pred) -> Filter (subst_params env input, s pred)
  | Project (input, exprs) -> Project (subst_params env input, Array.map s exprs)
  | Nl_join r ->
    Nl_join
      { r with left = subst_params env r.left; right = subst_params env r.right;
        pred = Option.map s r.pred }
  | Index_nl_join r ->
    Index_nl_join
      { r with left = subst_params env r.left; key_of_left = List.map s r.key_of_left;
        extra = Option.map s r.extra }
  | Hash_join r ->
    Hash_join
      { r with left = subst_params env r.left; right = subst_params env r.right;
        left_keys = List.map s r.left_keys; right_keys = List.map s r.right_keys;
        extra = Option.map s r.extra }
  | Group r ->
    Group { input = subst_params env r.input; keys = List.map s r.keys;
            aggs = List.map (fun (f, a, d) -> (f, Option.map s a, d)) r.aggs }
  | Sort r ->
    Sort { input = subst_params env r.input; keys = List.map (fun (e, d) -> (s e, d)) r.keys }
  | Distinct input -> Distinct (subst_params env input)
  | Limit (input, n) -> Limit (subst_params env input, n)
  | Union_all (a, b) -> Union_all (subst_params env a, subst_params env b)

(** [has_params p] tests whether any expression still contains parameters
    (used to memoize uncorrelated subplans). *)
let rec has_params p =
  let h = Expr.has_param in
  let ho = function Some e -> h e | None -> false in
  match p with
  | Seq_scan _ | Values _ -> false
  | Index_scan r -> List.exists h r.key
  | Filter (input, pred) -> h pred || has_params input
  | Project (input, exprs) -> Array.exists h exprs || has_params input
  | Nl_join r -> ho r.pred || has_params r.left || has_params r.right
  | Index_nl_join r -> List.exists h r.key_of_left || ho r.extra || has_params r.left
  | Hash_join r ->
    List.exists h r.left_keys || List.exists h r.right_keys || ho r.extra || has_params r.left
    || has_params r.right
  | Group r ->
    List.exists h r.keys
    || List.exists (fun (_, a, _) -> ho a) r.aggs
    || has_params r.input
  | Sort r -> List.exists (fun (e, _) -> h e) r.keys || has_params r.input
  | Distinct input -> has_params input
  | Limit (input, _) -> has_params input
  | Union_all (a, b) -> has_params a || has_params b

(* ---- aggregation states ---- *)

type agg_state = {
  mutable count : int;
  mutable sum_i : int;
  mutable sum_f : float;
  mutable saw_float : bool;
  mutable minmax : Value.t;  (** Null until the first non-null input *)
  seen : (int, unit) Hashtbl.t option;
      (** DISTINCT deduplication, keyed by exact dictionary id *)
}

let new_agg_state (_, _, distinct) =
  { count = 0; sum_i = 0; sum_f = 0.; saw_float = false; minmax = Value.Null;
    seen = (if distinct then Some (Hashtbl.create 16) else None) }

let agg_feed (fn, arg, _) st (row : Row.t) =
  match fn, arg with
  | Expr.Count_star, _ -> st.count <- st.count + 1
  | _, None -> invalid_arg "Plan: aggregate without argument"
  | fn, Some e -> begin
    let v = Expr.eval row e in
    let fresh =
      match st.seen with
      | None -> true
      | Some tbl ->
        let key = Dict.encode v in
        if Hashtbl.mem tbl key then false
        else begin
          Hashtbl.add tbl key ();
          true
        end
    in
    if fresh && not (Value.is_null v) then begin
      st.count <- st.count + 1;
      match fn with
      | Expr.Count -> ()
      | Expr.Sum | Expr.Avg -> begin
        match v with
        | Value.Int i ->
          st.sum_i <- st.sum_i + i;
          st.sum_f <- st.sum_f +. float_of_int i
        | Value.Float f ->
          st.saw_float <- true;
          st.sum_f <- st.sum_f +. f
        | _ -> invalid_arg "Plan: SUM/AVG over non-numeric value"
      end
      | Expr.Min ->
        if Value.is_null st.minmax || Value.compare_total v st.minmax < 0 then st.minmax <- v
      | Expr.Max ->
        if Value.is_null st.minmax || Value.compare_total v st.minmax > 0 then st.minmax <- v
      | Expr.Count_star -> assert false
    end
  end

let agg_result ((fn, _, _) : agg_spec) st : Value.t =
  match fn with
  | Expr.Count_star | Expr.Count -> Value.Int st.count
  | Expr.Sum ->
    if st.count = 0 then Value.Null
    else if st.saw_float then Value.Float st.sum_f
    else Value.Int st.sum_i
  | Expr.Avg -> if st.count = 0 then Value.Null else Value.Float (st.sum_f /. float_of_int st.count)
  | Expr.Min | Expr.Max -> st.minmax

(* ---- execution ---- *)

let null_row width : Row.t = Array.make width Value.Null

(* join/group keys are dictionary-encoded and key-normalized: comparison
   and hashing in the hash operators touch only ints, with Int/Float
   cross-equality and NULL handling folded into the ids by
   [Dict.key_cell]. Key equality/hashing is shared with the XNF batch
   edge probers ([Expr.Row_key]), so both layers agree on semantics. *)
let key_values row keys : Expr.Row_key.t =
  let ks = Array.of_list keys in
  Array.map (fun e -> Dict.key_cell (Dict.encode (Expr.eval row e))) ks

let key_has_null = Expr.Row_key.has_null

module RowKeyTbl = Expr.Row_key_tbl

(** [run p] compiles [p] to a lazy row sequence. The plan must be free of
    parameters (see {!subst_params}). [exec ~recur] is the one-level
    compiler — [run] ties the knot directly; {!run_analyzed} ties it
    through per-operator row/time accounting. *)
let rec run (p : t) : Row.t Seq.t = exec ~recur:run p

and exec ~(recur : t -> Row.t Seq.t) (p : t) : Row.t Seq.t =
  let run = recur in
  match p with
  | Seq_scan table -> Seq.map snd (Table.to_seq table)
  | Index_scan { table; index; key } ->
    fun () -> begin
      match Access_path.probe_key key with
      | None -> Seq.Nil
      | Some kv -> List.to_seq (List.map snd (Table.lookup_index table index kv)) ()
    end
  | Values rows -> List.to_seq rows
  | Filter (input, pred) ->
    Seq.filter (fun row -> Value.is_true (Expr.eval_pred row pred)) (run input)
  | Project (input, exprs) ->
    Seq.map (fun row -> Array.map (fun e -> Expr.eval row e) exprs) (run input)
  | Nl_join { kind; left; right; pred; right_width } ->
    let right_rows = lazy (List.of_seq (run right)) in
    let matches l =
      List.filter
        (fun r ->
          let joined = Row.concat l r in
          match pred with None -> true | Some e -> Value.is_true (Expr.eval_pred joined e))
        (Lazy.force right_rows)
    in
    join_emit kind right_width matches (run left)
  | Index_nl_join { kind; left; table; index; key_of_left; extra; right_width } ->
    let matches l =
      let kv = Array.of_list (List.map (fun e -> Expr.eval l e) key_of_left) in
      if Array.exists Value.is_null kv then []
      else
        List.filter_map
          (fun (_, r) ->
            let joined = Row.concat l r in
            match extra with
            | None -> Some r
            | Some e -> if Value.is_true (Expr.eval_pred joined e) then Some r else None)
          (Table.lookup_index table index kv)
    in
    join_emit kind right_width matches (run left)
  | Hash_join { kind; left; right; left_keys; right_keys; extra; right_width } ->
    let build =
      lazy
        (let tbl = RowKeyTbl.create 256 in
         Seq.iter
           (fun r ->
             let kv = key_values r right_keys in
             if not (key_has_null kv) then
               RowKeyTbl.replace tbl kv (r :: (Option.value ~default:[] (RowKeyTbl.find_opt tbl kv))))
           (run right);
         tbl)
    in
    let matches l =
      let kv = key_values l left_keys in
      if key_has_null kv then []
      else
        let candidates = Option.value ~default:[] (RowKeyTbl.find_opt (Lazy.force build) kv) in
        List.filter
          (fun r ->
            match extra with
            | None -> true
            | Some e -> Value.is_true (Expr.eval_pred (Row.concat l r) e))
          candidates
    in
    join_emit kind right_width matches (run left)
  | Group { input; keys; aggs } ->
    fun () ->
      let groups = RowKeyTbl.create 64 in
      let order = ref [] in
      Seq.iter
        (fun row ->
          (* group identity is the normalized ids; the first-seen decoded
             key row is kept as the group's representative output (so
             e.g. a group reached first through Float 1. renders 1.0) *)
          let kv_vals = Array.of_list (List.map (fun e -> Expr.eval row e) keys) in
          let kv = Array.map (fun v -> Dict.key_cell (Dict.encode v)) kv_vals in
          let states =
            match RowKeyTbl.find_opt groups kv with
            | Some st -> st
            | None ->
              let st = List.map new_agg_state aggs in
              RowKeyTbl.add groups kv st;
              order := (kv, kv_vals) :: !order;
              st
          in
          List.iter2 (fun spec st -> agg_feed spec st row) aggs states)
        (run input);
      let emit (kv, kv_vals) =
        let states = RowKeyTbl.find groups kv in
        Array.append kv_vals (Array.of_list (List.map2 agg_result aggs states))
      in
      let result =
        if RowKeyTbl.length groups = 0 && keys = [] then
          (* global aggregate over an empty input: one default row *)
          [ Array.of_list (List.map (fun spec -> agg_result spec (new_agg_state spec)) aggs) ]
        else List.rev_map emit !order
      in
      List.to_seq result ()
  | Sort { input; keys } ->
    fun () ->
      let rows = List.of_seq (run input) in
      let cmp a b =
        let rec go = function
          | [] -> 0
          | (e, dir) :: rest ->
            let c = Value.compare_total (Expr.eval a e) (Expr.eval b e) in
            let c = match dir with Sql_ast.Asc -> c | Sql_ast.Desc -> -c in
            if c <> 0 then c else go rest
        in
        go keys
      in
      List.to_seq (List.stable_sort cmp rows) ()
  | Distinct input ->
    fun () ->
      (* exact (unnormalized) ids: structural distinctness, so Int 1 and
         Float 1.0 stay distinct rows, matching value-level behavior *)
      let seen = RowKeyTbl.create 256 in
      Seq.filter
        (fun row ->
          let key = Array.map Dict.encode row in
          if RowKeyTbl.mem seen key then false
          else begin
            RowKeyTbl.add seen key ();
            true
          end)
        (run input)
        ()
  | Limit (input, n) -> Seq.take n (run input)
  | Union_all (a, b) -> Seq.append (run a) (run b)

and join_emit kind right_width matches left_seq : Row.t Seq.t =
  match kind with
  | Inner -> Seq.concat_map (fun l -> List.to_seq (List.map (fun r -> Row.concat l r) (matches l))) left_seq
  | Left ->
    Seq.concat_map
      (fun l ->
        match matches l with
        | [] -> Seq.return (Row.concat l (null_row right_width))
        | rs -> List.to_seq (List.map (fun r -> Row.concat l r) rs))
      left_seq
  | Semi -> Seq.filter (fun l -> matches l <> []) left_seq
  | Anti -> Seq.filter (fun l -> matches l = []) left_seq

(** [run_with_params env p] substitutes [env] for the parameters and runs. *)
let run_with_params env p = run (subst_params env p)

let kind_name = function Inner -> "inner" | Left -> "left" | Semi -> "semi" | Anti -> "anti"

(** [children p] lists the direct operator inputs of [p] (in the order
    {!exec} recurses into them). *)
let children = function
  | Seq_scan _ | Index_scan _ | Values _ -> []
  | Filter (input, _) | Project (input, _) | Distinct input | Limit (input, _) -> [ input ]
  | Nl_join { left; right; _ } | Hash_join { left; right; _ } | Union_all (left, right) ->
    [ left; right ]
  | Index_nl_join { left; _ } -> [ left ]
  | Group { input; _ } | Sort { input; _ } -> [ input ]

(** [label p] is the one-line operator header (no children). *)
let label = function
  | Seq_scan t -> Fmt.str "SeqScan %s" (Table.name t)
  | Index_scan { table; index; key } ->
    Fmt.str "IndexScan %s.%s key=[%a]" (Table.name table) (Index.name index)
      (Fmt.list ~sep:(Fmt.any ", ") Expr.pp) key
  | Values rows -> Fmt.str "Values (%d rows)" (List.length rows)
  | Filter (_, pred) -> Fmt.str "Filter %a" Expr.pp pred
  | Project (_, exprs) -> Fmt.str "Project [%a]" (Fmt.array ~sep:(Fmt.any ", ") Expr.pp) exprs
  | Nl_join { kind; pred; _ } ->
    Fmt.str "NLJoin(%s)%a" (kind_name kind)
      (Fmt.option (fun ppf e -> Fmt.pf ppf " on %a" Expr.pp e))
      pred
  | Index_nl_join { kind; table; index; key_of_left; extra; _ } ->
    Fmt.str "IndexNLJoin(%s) %s.%s key=[%a]%a" (kind_name kind) (Table.name table)
      (Index.name index)
      (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
      key_of_left
      (Fmt.option (fun ppf e -> Fmt.pf ppf " extra %a" Expr.pp e))
      extra
  | Hash_join { kind; left_keys; right_keys; _ } ->
    Fmt.str "HashJoin(%s) [%a]=[%a]" (kind_name kind)
      (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
      left_keys
      (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
      right_keys
  | Group { keys; aggs; _ } ->
    Fmt.str "Group keys=[%a] (%d aggs)" (Fmt.list ~sep:(Fmt.any ", ") Expr.pp) keys
      (List.length aggs)
  | Sort _ -> "Sort"
  | Distinct _ -> "Distinct"
  | Limit (_, n) -> Fmt.str "Limit %d" n
  | Union_all _ -> "UnionAll"

(** [pp] prints an indented physical plan. *)
let pp ppf p =
  let rec go indent p =
    Fmt.pf ppf "%s%s@." (String.make indent ' ') (label p);
    List.iter (go (indent + 2)) (children p)
  in
  go 0 p

(** [to_string p] renders the plan for EXPLAIN-style output. *)
let to_string p = Fmt.str "%a" pp p

(* ---- analyzed execution (EXPLAIN ANALYZE) ----

   [run_analyzed] mirrors [run] but threads every operator's output
   through a counting/timing shim, so after the sequence is drained each
   operator knows how many rows it emitted and how long pulls through it
   took (inclusive of its inputs, like EXPLAIN ANALYZE "actual time").
   The shim costs one clock pair per pull, so this path is for
   diagnostics; the plain [run] stays untouched. *)

type op_stats = { mutable rows_out : int; mutable elapsed_ns : float }

type analyzed = { a_plan : t; a_stats : op_stats; a_children : analyzed list }

let rec annotate p =
  { a_plan = p; a_stats = { rows_out = 0; elapsed_ns = 0. };
    a_children = List.map annotate (children p) }

let counted st (s : Row.t Seq.t) : Row.t Seq.t =
  let rec go s () =
    let t0 = Obs.Metrics.now_ns () in
    let node = s () in
    st.elapsed_ns <- st.elapsed_ns +. (Obs.Metrics.now_ns () -. t0);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (row, rest) ->
      st.rows_out <- st.rows_out + 1;
      Seq.Cons (row, go rest)
  in
  go s

let rec analyzed_seq a : Row.t Seq.t =
  let recur q =
    (* children are matched by physical identity; a subplan synthesized
       after annotation (none today) would fall back to the plain runner *)
    let rec find = function
      | [] -> run q
      | c :: rest -> if c.a_plan == q then analyzed_seq c else find rest
    in
    find a.a_children
  in
  counted a.a_stats (exec ~recur a.a_plan)

(** [run_analyzed p] is [run p] plus per-operator accounting: returns the
    row sequence and the annotated tree; stats are final once the sequence
    is drained. *)
let run_analyzed p =
  let a = annotate p in
  (analyzed_seq a, a)

(** [pp_analyzed] prints the plan with per-operator actuals:
    [(rows=N time=T ms)], time inclusive of the operator's inputs. *)
let pp_analyzed ppf a =
  let rec go indent a =
    Fmt.pf ppf "%s%s  (rows=%d time=%.3f ms)@." (String.make indent ' ') (label a.a_plan)
      a.a_stats.rows_out
      (a.a_stats.elapsed_ns /. 1e6);
    List.iter (go (indent + 2)) a.a_children
  in
  go 0 a

let analyzed_to_string a = Fmt.str "%a" pp_analyzed a
