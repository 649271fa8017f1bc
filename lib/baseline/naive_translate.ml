(* Translation ablations (E5/E6).

   [extract_unshared] evaluates a (DAG) CO definition with one relational
   query per node and per edge but WITHOUT common-subexpression sharing:
   instead of reusing the materialized parent extents, every query inlines
   the full derivation of every ancestor — exactly the recomputation the
   paper's translator avoids by "using the parent tuples again to find the
   tuples of the associated children".

   The naive-fixpoint ablation for recursive COs lives in the main
   translator ({!Xnf.Api.fetch} with [~fixpoint:Naive]); this module
   covers the sharing dimension, which only type-checks on DAG schemas
   (inlining diverges on cycles). *)

open Relational

exception Unsupported of string

(* inlining ancestor derivations diverges on cycles, so only DAG schemas
   are supported; callers classify up front instead of catching *)
let supported (def : Xnf.Co_schema.t) : bool = not (Xnf.Co_schema.is_recursive def)

(* the reachable extent of a node as one self-contained SQL query:
     root:      its derivation;
     non-root:  SELECT DISTINCT c.* FROM (parent-extent) p, (derivation) c
                [, using u] WHERE pred      -- one per incoming edge *)
let rec extent_queries (def : Xnf.Co_schema.t) (name : string) : Sql_ast.select list =
  let nd = Xnf.Co_schema.node def name in
  match Xnf.Co_schema.incoming def name with
  | [] -> [ nd.Xnf.Co_schema.nd_query ]
  | edges ->
    List.concat_map
      (fun (ed : Xnf.Co_schema.edge_def) ->
        List.map
          (fun parent_extent ->
            let from =
              Sql_ast.From_select (parent_extent, ed.Xnf.Co_schema.ed_parent_alias)
              :: Sql_ast.From_select (nd.Xnf.Co_schema.nd_query, ed.Xnf.Co_schema.ed_child_alias)
              ::
              (match ed.Xnf.Co_schema.ed_using with
              | None -> []
              | Some (t, a) -> [ Sql_ast.From_table (t, Some a) ])
            in
            { (Sql_ast.simple_select ~distinct:true
                 [ Sql_ast.Sel_table_star ed.Xnf.Co_schema.ed_child_alias ]
                 from
                 (Some ed.Xnf.Co_schema.ed_pred))
              with Sql_ast.sel_distinct = true })
          (extent_queries def ed.Xnf.Co_schema.ed_parent))
      edges

type result = {
  node_rows : (string * Row.t list) list;  (** deduplicated reachable extents *)
  edge_rows : (string * Row.t list) list;  (** parent-row ++ child-row pairs *)
  queries_issued : int;
}

(** [extract_unshared db def] evaluates [def] without shared temporaries.
    @raise Unsupported on recursive schemas. *)
let extract_unshared db (def : Xnf.Co_schema.t) : result =
  if not (supported def) then
    raise (Unsupported "unshared inlining diverges on recursive composite objects");
  let queries = ref 0 in
  let run q =
    incr queries;
    (Db.query_ast db q).Db.rrows
  in
  let dedupe rows =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun r ->
        let key = (Row.hash r, Array.to_list r) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      rows
  in
  let node_rows =
    List.map
      (fun (nd : Xnf.Co_schema.node_def) ->
        let rows =
          List.concat_map run (extent_queries def nd.Xnf.Co_schema.nd_name) |> dedupe
        in
        (nd.Xnf.Co_schema.nd_name, rows))
      def.Xnf.Co_schema.co_nodes
  in
  (* each edge joins fully re-derived reachable extents of both partners *)
  let edge_rows =
    List.map
      (fun (ed : Xnf.Co_schema.edge_def) ->
        let parent_extents = extent_queries def ed.Xnf.Co_schema.ed_parent in
        let child_extents = extent_queries def ed.Xnf.Co_schema.ed_child in
        let rows =
          List.concat_map
            (fun pq ->
              List.concat_map
                (fun cq ->
                  let from =
                    Sql_ast.From_select (pq, ed.Xnf.Co_schema.ed_parent_alias)
                    :: Sql_ast.From_select (cq, ed.Xnf.Co_schema.ed_child_alias)
                    ::
                    (match ed.Xnf.Co_schema.ed_using with
                    | None -> []
                    | Some (t, a) -> [ Sql_ast.From_table (t, Some a) ])
                  in
                  run
                    (Sql_ast.simple_select ~distinct:true
                       [ Sql_ast.Sel_table_star ed.Xnf.Co_schema.ed_parent_alias;
                         Sql_ast.Sel_table_star ed.Xnf.Co_schema.ed_child_alias ]
                       from
                       (Some ed.Xnf.Co_schema.ed_pred)))
                child_extents)
            parent_extents
          |> dedupe
        in
        (ed.Xnf.Co_schema.ed_name, rows))
      def.Xnf.Co_schema.co_edges
  in
  { node_rows; edge_rows; queries_issued = !queries }
