(* Access-path selection for a restriction over one base table.

   Paper §4 hands every node query to the relational optimizer; this is
   the optimizer's single-table access-path rule, factored out so that
   the SQL [Select] lowering, XNF root/extent evaluation and DML victim
   selection cannot disagree on it. Running a choice visits rows in
   ascending rowid order whichever path serves it, so cache positions,
   victim order and WAL record order do not depend on the pick. *)

type t =
  | Scan
  | Index of { index : Index.t; key : Expr.t list; residual : Expr.t list }

(* [c] binds column [col] to a literal or parameter *)
let binds col = function
  | Expr.Cmp (Expr.Eq, Expr.Col i, (Expr.Lit _ | Expr.Param _))
  | Expr.Cmp (Expr.Eq, (Expr.Lit _ | Expr.Param _), Expr.Col i) ->
    i = col
  | _ -> false

(* some conjunct binds [col]; a closure-free [List.exists (binds col)] *)
let rec bound col = function [] -> false | c :: rest -> binds col c || bound col rest

let key_expr = function
  | Expr.Cmp (Expr.Eq, Expr.Col _, v) | Expr.Cmp (Expr.Eq, v, Expr.Col _) -> v
  | _ -> assert false

let first_covering table covered =
  List.find_opt (fun idx -> Array.for_all covered (Index.cols idx)) (Table.indexes table)

let choose table conjuncts =
  match first_covering table (fun col -> bound col conjuncts) with
  | None -> Scan
  | Some index ->
    let used =
      Array.to_list (Array.map (fun col -> List.find (binds col) conjuncts) (Index.cols index))
    in
    Index
      { index; key = List.map key_expr used;
        residual = List.filter (fun c -> not (List.memq c used)) conjuncts }

let subst_params params = function
  | Scan -> Scan
  | Index r -> Index { r with key = List.map (Expr.subst_params params) r.key }

let probe_key key =
  let kv = Array.of_list (List.map (Expr.eval [||]) key) in
  if Array.exists Value.is_null kv then None else Some kv

(* index hits in ascending rowid order, each resolved to its live row *)
let iter_hits table index key f =
  List.iter
    (fun rowid -> match Table.get table rowid with Some row -> f rowid row | None -> ())
    (List.sort Int.compare (Index.lookup index key))

let lookup table index key =
  let acc = ref [] in
  iter_hits table index key (fun rowid row -> acc := (rowid, row) :: !acc);
  List.rev !acc

let iter table t pred f =
  let visit rowid row =
    match pred with
    | Some p when not (Value.is_true (Expr.eval_pred row p)) -> ()
    | _ -> f rowid row
  in
  match t with
  | Scan -> Table.iter visit table
  | Index { index; key; _ } -> begin
    match probe_key key with
    | None -> ()
    | Some kv -> iter_hits table index kv visit
  end

let rows table t pred =
  let acc = ref [] in
  iter table t pred (fun rowid row -> acc := (rowid, row) :: !acc);
  List.rev !acc

let describe = function Scan -> "scan" | Index { index; _ } -> "index:" ^ Index.name index
