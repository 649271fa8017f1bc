(* The paper's §4 rewrite of a composite object into relational queries,
   kept as a reference evaluator.

   Every node's derivation runs once through the relational engine and
   is stored as a temp table whose [__tid] column is the extent index.
   Reachability is a semi-naive round loop: per round and relationship,
   the parent tuples created in the previous round are copied into a
   temp ([__tid] = cache position) and joined to the child's extent temp
   (and the USING table) through [Db.run_qgm], the relationship
   predicate as the join predicate — so query rewrite and join-method
   selection decide how each relationship is computed, exactly as for
   user SQL. One query per round and relationship yields both the
   reached children and the connections with their attributes.

   The evaluator shares no code with [Xnf.Translate]'s probers: the
   strategy differentials (fuzz oracle, prober and cost-pick tests)
   compare every access path against it. Recursive definitions iterate
   to the fixpoint. Path restrictions, TAKE and updatability analysis
   are not applied: the result is the pre-restriction instance. *)

open Relational
module Co = Xnf.Co_schema

let tid_column = Schema.column ~nullable:false "__tid" Schema.Ty_int

(* a temp table: [__tid], then [schema]'s columns made nullable *)
let temp name schema (rows : (int * Row.t) list) : Table.t =
  let cols =
    tid_column
    :: List.map
         (fun c -> { c with Schema.col_nullable = true; col_qualifier = "" })
         (Schema.columns schema)
  in
  let t = Table.create ~name (Schema.make cols) in
  List.iter (fun (tid, row) -> ignore (Table.insert t (Array.append [| Value.Int tid |] row))) rows;
  t

type node = {
  n_rows : Row.t array;  (** the derivation's rows; the index is the tuple's identity *)
  n_temp : Table.t;  (** [n_rows] as a temp, [__tid] = index *)
  n_ni : Xnf.Cache.node_inst;
  n_pos : (int, int) Hashtbl.t;  (** extent index -> cache position *)
  mutable n_mark : int;  (** the round's parent slice of cache positions *)
  mutable n_limit : int;
}

let eval_node db params (nd : Co.node_def) : node =
  let q = Sql_ast.subst_params_select params nd.Co.nd_query in
  let qgm = Db.bind_select db q in
  let schema =
    Schema.make
      (List.map
         (fun c -> { c with Schema.col_qualifier = "" })
         (Schema.columns (Qgm.schema_of (Db.catalog db) qgm)))
  in
  let rows = Array.of_seq (Db.run_qgm db qgm) in
  { n_rows = rows;
    n_temp = temp ("__sql_route_" ^ nd.Co.nd_name) schema (List.mapi (fun i r -> (i, r)) (Array.to_list rows));
    n_ni = Xnf.Cache.make_node ~schema ~upd:None nd.Co.nd_name; n_pos = Hashtbl.create 64;
    n_mark = 0; n_limit = 0 }

(* the cache position of extent row [tid], creating the tuple on first
   reach; [true] when it was created *)
let reach n tid =
  match Hashtbl.find_opt n.n_pos tid with
  | Some pos -> (pos, false)
  | None ->
    let pos = Xnf.Cache.add_tuple n.n_ni ~rowid:(-1) (Row.encode n.n_rows.(tid)) in
    Hashtbl.replace n.n_pos tid pos;
    (pos, true)

(* one relationship's join for one round: parent slice x child extent
   (x USING table) under the relationship predicate, projected to
   (parent position, child extent index, attributes...) *)
let edge_query db (ed : Co.edge_def) ~pred ~attrs ~parent_temp ~child_temp =
  let p = Qgm.Temp { table = parent_temp; alias = ed.Co.ed_parent_alias } in
  let c = Qgm.Temp { table = child_temp; alias = ed.Co.ed_child_alias } in
  let tree = Qgm.Join { kind = Qgm.Inner; left = p; right = c; pred = None } in
  let tree =
    match ed.Co.ed_using with
    | None -> tree
    | Some (table, alias) ->
      if Catalog.table_opt (Db.catalog db) table = None then
        raise
          (Xnf.Translate.Translate_error
             (Printf.sprintf "[XNF005] relationship %s: USING table %s does not exist" ed.Co.ed_name
                table));
      Qgm.Join { kind = Qgm.Inner; left = tree; right = Qgm.Access { table; alias }; pred = None }
  in
  let env = Db.bind_env db in
  let schema = Qgm.schema_of (Db.catalog db) tree in
  let tid alias = Expr.Col (Schema.find schema ~qualifier:alias "__tid") in
  let attr_cols =
    List.map
      (fun (e, name) ->
        let bound = Binder.bind_expr env schema e in
        (bound, Schema.column name (Binder.infer_ty env schema bound)))
      attrs
  in
  let filtered = Qgm.Select { input = tree; pred = Binder.bind_expr env schema pred } in
  let cols =
    (tid ed.Co.ed_parent_alias, tid_column) :: (tid ed.Co.ed_child_alias, tid_column) :: attr_cols
  in
  (Qgm.Project { input = filtered; cols }, Schema.make (List.map snd attr_cols))

(** [fetch ?params db def] evaluates [def] by rewriting every
    relationship into one relational join per fixpoint round, [params]
    substituted for the [?] slots. *)
let fetch ?(params = [||]) db (def : Co.t) : Xnf.Cache.t =
  let nodes = List.map (fun nd -> (nd.Co.nd_name, eval_node db params nd)) def.Co.co_nodes in
  let node name = List.assoc name nodes in
  let sub = Sql_ast.subst_params_expr params in
  let parent_temp (ed : Co.edge_def) rows =
    temp ("__sql_route_" ^ ed.Co.ed_parent) (node ed.Co.ed_parent).n_ni.Xnf.Cache.ni_schema rows
  in
  let edges =
    List.map
      (fun (ed : Co.edge_def) ->
        let pred = sub ed.Co.ed_pred and attrs = List.map (fun (e, n) -> (sub e, n)) ed.Co.ed_attrs in
        (* bound once up front, over an empty slice, for the attribute schema *)
        let _, attr_schema =
          edge_query db ed ~pred ~attrs ~parent_temp:(parent_temp ed [])
            ~child_temp:(node ed.Co.ed_child).n_temp
        in
        (ed, pred, attrs, Xnf.Cache.make_conns ~attrs:(attrs <> []) (), attr_schema))
      def.Co.co_edges
  in
  List.iter
    (fun (nd : Co.node_def) ->
      let n = node nd.Co.nd_name in
      Array.iteri (fun tid _ -> ignore (reach n tid)) n.n_rows)
    (Co.roots def);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (_, n) ->
        n.n_mark <- n.n_limit;
        n.n_limit <- Vec.length n.n_ni.Xnf.Cache.ni_tuples)
      nodes;
    List.iter
      (fun ((ed : Co.edge_def), pred, attrs, conns, _) ->
        let parent = node ed.Co.ed_parent and child = node ed.Co.ed_child in
        if parent.n_limit > parent.n_mark then begin
          let slice =
            List.init (parent.n_limit - parent.n_mark) (fun i ->
                let pos = parent.n_mark + i in
                (pos, Xnf.Cache.row (Xnf.Cache.tuple parent.n_ni pos)))
          in
          let qgm, _ =
            edge_query db ed ~pred ~attrs ~parent_temp:(parent_temp ed slice) ~child_temp:child.n_temp
          in
          Seq.iter
            (fun row ->
              let cpos, created = reach child (Value.as_int row.(1)) in
              if created then changed := true;
              ignore
                (Xnf.Cache.push_conn conns ~parent:(Value.as_int row.(0)) ~child:cpos
                   ~attrs:(Row.encode (Array.sub row 2 (Array.length row - 2)))))
            (Db.run_qgm db qgm)
        end)
      edges
  done;
  { Xnf.Cache.c_def = def; c_nodes = List.map (fun (name, n) -> (name, n.n_ni)) nodes;
    c_edges =
      List.map
        (fun ((ed : Co.edge_def), _, _, conns, attr_schema) ->
          ( ed.Co.ed_name,
            { Xnf.Cache.ei_name = ed.Co.ed_name; ei_parent = ed.Co.ed_parent; ei_child = ed.Co.ed_child;
              ei_parent_node = (node ed.Co.ed_parent).n_ni; ei_child_node = (node ed.Co.ed_child).n_ni;
              ei_attr_schema = attr_schema; ei_conns = conns; ei_adj = None;
              ei_upd = Xnf.Semantic.Upd_readonly "reference instance" } ))
        edges;
    c_base_versions = []; c_unsaved = false }
