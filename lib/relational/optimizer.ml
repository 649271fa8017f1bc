(* Plan optimization: QGM -> physical plan.

   Responsibilities, in the spirit of the Starburst plan optimizer the
   paper reuses (§4.3):
     - access-path selection: equality predicates against literals become
       index scans when a matching index exists;
     - join-method selection: indexed nested-loop when the inner is a base
       table with a matching index on the equi-join key, hash join for other
       equi-joins, nested loop otherwise;
     - build/probe side choice for hash joins by cardinality estimate.

   Join *ordering* is inherited from the rewritten QGM (left-deep in FROM
   order with pushed-down predicates); the paper notes that handling of
   parent/child joins dominates XNF workloads, and those arrive here as
   indexed equi-joins. *)

exception Plan_error of string

(* split [pred] into (equi-join key pairs, residual) over a join with
   [lw] left columns *)
let split_equi lw pred =
  let conjuncts = Expr.conjuncts pred in
  let is_left e = List.for_all (fun i -> i < lw) (Expr.cols e) in
  let is_right e = List.for_all (fun i -> i >= lw) (Expr.cols e) in
  let no_sub e = not (Expr.has_subplan e) in
  List.fold_left
    (fun (keys, residual) c ->
      match c with
      | Expr.Cmp (Expr.Eq, a, b) when no_sub a && no_sub b ->
        if is_left a && is_right b then ((a, Expr.shift (-lw) b) :: keys, residual)
        else if is_right a && is_left b then ((b, Expr.shift (-lw) a) :: keys, residual)
        else (keys, c :: residual)
      | c -> (keys, c :: residual))
    ([], []) conjuncts

let plan_kind = function
  | Qgm.Inner -> Plan.Inner
  | Qgm.Left -> Plan.Left
  | Qgm.Semi -> Plan.Semi
  | Qgm.Anti -> Plan.Anti

(* try to see through trivial wrappers to a base-table access whose row
   layout equals the node's output (so index column positions line up) *)
let rec base_table catalog = function
  | Qgm.Access { table; _ } -> Some (Catalog.table catalog table, [])
  | Qgm.Temp { table; _ } -> Some (table, [])
  | Qgm.Select { input; pred } -> begin
    match base_table catalog input with
    | Some (t, preds) -> Some (t, pred :: preds)
    | None -> None
  end
  | _ -> None

(** [lower catalog node] translates rewritten QGM to a physical plan. *)
let rec lower catalog node : Plan.t =
  match node with
  | Qgm.Access { table; _ } -> Plan.Seq_scan (Catalog.table catalog table)
  | Qgm.Temp { table; _ } -> Plan.Seq_scan table
  | Qgm.Values { rows; _ } -> Plan.Values rows
  | Qgm.Select { input; pred } -> begin
    (* access-path selection: constant equality conjuncts -> index scan *)
    match base_table catalog input with
    | Some (table, extra_preds) -> begin
      let conjuncts = List.concat_map Expr.conjuncts (pred :: extra_preds) in
      match Access_path.choose table conjuncts with
      | Access_path.Index { index; key; residual } ->
        let scan = Plan.Index_scan { table; index; key } in
        if residual = [] then scan else Plan.Filter (scan, Expr.conjoin residual)
      | Access_path.Scan -> Plan.Filter (lower catalog input, pred)
    end
    | None -> Plan.Filter (lower catalog input, pred)
  end
  | Qgm.Project { input; cols } ->
    Plan.Project (lower catalog input, Array.of_list (List.map fst cols))
  | Qgm.Join { kind; left; right; pred } -> begin
    let lw = Schema.arity (Qgm.schema_of catalog left) in
    let rw = Schema.arity (Qgm.schema_of catalog right) in
    let kind' = plan_kind kind in
    match pred with
    | None ->
      Plan.Nl_join { kind = kind'; left = lower catalog left; right = lower catalog right;
                     pred = None; right_width = rw }
    | Some pred -> begin
      let keys, residual = split_equi lw pred in
      if keys = [] then
        Plan.Nl_join { kind = kind'; left = lower catalog left; right = lower catalog right;
                       pred = Some pred; right_width = rw }
      else begin
        let left_keys = List.map fst keys and right_keys = List.map snd keys in
        let extra = match residual with [] -> None | cs -> Some (Expr.conjoin cs) in
        (* indexed nested loop when the inner side is a bare table with an
           index on exactly the join key columns *)
        let indexed =
          match right with
          | Qgm.Access { table; _ } -> begin
            let table = Catalog.table catalog table in
            let key_cols =
              List.map (function Expr.Col j -> Some j | _ -> None) right_keys
            in
            if List.for_all Option.is_some key_cols then begin
              let key_cols = List.map Option.get key_cols in
              match Table.find_index table ~cols:(Array.of_list key_cols) with
              | Some idx -> Some (table, idx)
              | None -> None
            end
            else None
          end
          | _ -> None
        in
        match indexed with
        | Some (table, index) ->
          Plan.Index_nl_join
            { kind = kind'; left = lower catalog left; table; index; key_of_left = left_keys;
              extra; right_width = rw }
        | None ->
          Plan.Hash_join
            { kind = kind'; left = lower catalog left; right = lower catalog right;
              left_keys; right_keys; extra; right_width = rw }
      end
    end
  end
  | Qgm.Group { input; keys; aggs } ->
    Plan.Group
      { input = lower catalog input; keys = List.map fst keys;
        aggs = List.map (fun a -> (a.Qgm.agg_fn, a.Qgm.agg_arg, a.Qgm.agg_distinct)) aggs }
  | Qgm.Distinct input -> Plan.Distinct (lower catalog input)
  | Qgm.Order { input; keys } -> Plan.Sort { input = lower catalog input; keys }
  | Qgm.Limit (input, n) -> Plan.Limit (lower catalog input, n)
  | Qgm.Union_all (a, b) -> Plan.Union_all (lower catalog a, lower catalog b)

(** [optimize ?rewrite catalog node] runs query rewrite (unless disabled)
    and lowers to a physical plan. *)
let optimize ?(rewrite = true) catalog node =
  let node = if rewrite then Rewrite.rewrite catalog node else node in
  lower catalog node
