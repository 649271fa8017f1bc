(* The XNF semantic rewrite and cache loader (§4.3).

   Translation formulates relational work per node and per relationship of
   the composed CO definition, observing reachability:

     - *root* extents are evaluated set-orientedly from their derivations;
     - reachability runs as a semi-naive delta fixpoint over the schema
       graph: per round, only the parent tuples discovered in the previous
       round probe each outgoing relationship. DAG schemas converge in one
       topological sweep; recursive schemas iterate. The naive variant
       (E6 ablation, [`Naive]) is the same loop with each round's slice
       starting at 0: it re-probes every parent and keeps only its last
       round's connections;
     - each relationship is served by a [Prober]: its join key is
       analyzed once per plan, and every access path [Edge_cost.candidates]
       lists for the resulting shape is compiled up front. The driver
       *selects* one per edge, like the plan optimizer does for
       parent/child joins ("in the plan optimizer handling of joins is
       heavily used since parent child relationships are computed by
       joins"), opens it per execution and feeds it frontier rows; key
       chains, candidate sources and builds stay inside [Prober];
     - non-root extents are therefore *lazy*: only reached tuples are ever
       materialized, which is what makes working-set extraction at 10^-4
       selectivity set-oriented AND cheap (E3);
     - connection extents are produced by the same probes that establish
       reachability, so no second join runs after the fixpoint.

   [execute_def] is a short driver over [roots], [fixpoint] (with the
   adaptive mid-fixpoint check), [connections] and [restrictions], which
   share one per-fetch runtime record. Only a derived (non-simple) node's
   derivation runs through the relational engine, once per fetch and
   only once a root evaluation or a probe needs it; the
   paper's rewrite of each relationship into a relational join survives
   as the [Baseline.Sql_route] reference. *)

open Relational
open Xnf_ast

exception Translate_error = Prober.Translate_error

let err fmt = Fmt.kstr (fun s -> raise (Translate_error s)) fmt

type fixpoint = Semi_naive | Naive

(** Edge access paths, in static selection-priority order — the
    definition lives in [Relational.Edge_cost] so the shared cost model
    and the planner speak the same type. *)
type strategy = Edge_cost.strategy = S_indexed | S_hash | S_generic

let strategy_name = Edge_cost.strategy_name

(* translation activity, in the process-global metrics registry: tests,
   benches and the shell's [\stats] read deltas of these counters *)
let m_queries = Obs.Metrics.counter "xnf.translate.queries"
let m_rounds = Obs.Metrics.counter "xnf.translate.rounds"
let m_tuples_probed = Obs.Metrics.counter "xnf.translate.tuples_probed"
let m_candidates_scanned = Obs.Metrics.counter "xnf.translate.candidates_scanned"
let m_indexed_probes = Obs.Metrics.counter "xnf.translate.indexed_probes"
let m_generic_probes = Obs.Metrics.counter "xnf.translate.generic_probes"
let m_hash_edges = Obs.Metrics.counter "xnf.translate.hash_edges"
let m_hash_probes = Obs.Metrics.counter "xnf.translate.hash_probes"
let m_cost_picks = Obs.Metrics.counter "xnf.translate.cost_picks"
let m_strategy_switches = Obs.Metrics.counter "xnf.translate.strategy_switches"

(* ---- adaptive mid-fixpoint fallback knobs ----

   Between semi-naive rounds the executor compares observed
   probe/connection/candidate-scan counters against the plan's estimates
   and switches an edge's strategy for subsequent rounds when they
   diverge beyond [adaptive_factor] (at least [adaptive_min_rows]
   observed rows, so tiny instances never flap). Process-global knobs,
   like the optimizer toggles. *)

let adaptive_factor_v = ref 8.
let adaptive_min_rows_v = ref 64

let set_adaptive_factor f = adaptive_factor_v := Float.max 0. f
let adaptive_factor () = !adaptive_factor_v
let set_adaptive_min_rows n = adaptive_min_rows_v := max 0 n
let adaptive_min_rows () = !adaptive_min_rows_v

let note_query () = Obs.Metrics.incr m_queries

let clear_quals schema =
  Schema.make (List.map (fun c -> { c with Schema.col_qualifier = "" }) (Schema.columns schema))

(* ---- simple-node analysis: direct base-table access ----

   A node derivation that is a stack of star-selects over one base-table
   select (the shape restriction folding produces) evaluates as: scan or
   index-probe the base table, filter with the combined predicate (bound
   over the base row), project the named columns. Provenance (rowid) comes
   for free, and probers can use the table's indexes. *)

type simple = {
  s_table : Table.t;
  s_proj : int array;  (** node output column -> base column *)
  s_pred : Expr.t option;  (** combined predicate over the base row *)
}

let rec analyze_simple db (q : Sql_ast.select) : (simple * Schema.t) option =
  if q.Sql_ast.sel_distinct || q.Sql_ast.sel_group_by <> [] || q.Sql_ast.sel_having <> None
     || q.Sql_ast.sel_limit <> None || q.Sql_ast.sel_order_by <> []
     || q.Sql_ast.sel_unions <> []
  then None
  else
    let env = Db.bind_env db in
    match q.Sql_ast.sel_from with
    | [ Sql_ast.From_table (table, alias) ] -> begin
      match Catalog.table_opt (Db.catalog db) table with
      | None -> None
      | Some base -> begin
        let alias = Option.value ~default:table alias in
        let scan_schema = Schema.requalify alias (Table.schema base) in
        let pred =
          try Option.map (Binder.bind_expr env scan_schema) q.Sql_ast.sel_where
          with Binder.Bind_error _ -> raise Exit
        in
        let proj =
          match q.Sql_ast.sel_items with
          | [ Sql_ast.Sel_star ] -> Some (Array.init (Schema.arity scan_schema) Fun.id)
          | items ->
            let cols =
              List.map
                (function
                  | Sql_ast.Sel_expr (Sql_ast.E_col (_, n), alias)
                    when (match alias with
                         | None -> true
                         | Some a -> String.lowercase_ascii a = String.lowercase_ascii n) ->
                    Schema.find_opt scan_schema n
                  | _ -> None)
                items
            in
            if List.for_all Option.is_some cols then
              Some (Array.of_list (List.map Option.get cols))
            else None
        in
        match proj with
        | None -> None
        | Some proj ->
          let out_schema =
            clear_quals
              (Schema.make (Array.to_list (Array.map (fun i -> Schema.col scan_schema i) proj)))
          in
          Some ({ s_table = base; s_proj = proj; s_pred = pred }, out_schema)
      end
    end
    | [ Sql_ast.From_select (inner, alias) ] when q.Sql_ast.sel_items = [ Sql_ast.Sel_star ] -> begin
      match analyze_simple db inner with
      | None -> None
      | Some (inner_simple, inner_schema) -> begin
        let wrapper_schema = Schema.requalify alias inner_schema in
        match
          try Ok (Option.map (Binder.bind_expr env wrapper_schema) q.Sql_ast.sel_where)
          with Binder.Bind_error e -> Error e
        with
        | Error _ -> None
        | Ok wpred ->
          (* rebase the wrapper predicate from projected positions to base
             positions *)
          let wpred = Option.map (Expr.map_cols (fun i -> inner_simple.s_proj.(i))) wpred in
          let pred =
            match inner_simple.s_pred, wpred with
            | None, p | p, None -> p
            | Some a, Some b -> Some (Expr.And (a, b))
          in
          Some ({ inner_simple with s_pred = pred }, inner_schema)
      end
    end
    | _ -> None

let analyze_simple db q = try analyze_simple db q with Exit -> None

(* ---- per-node runtime state ---- *)

type node_rt = {
  nr_def : Co_schema.node_def;
  nr_simple : simple option;
  nr_access : Access_path.t;  (** the simple node's base-table path, key bound *)
  nr_ni : Cache.node_inst;
  mutable nr_extent : Row.enc array option;
      (** a derived node's materialized derivation, node-output rows encoded *)
  nr_tid2pos : Intmap.t;  (** derived node: extent index -> cache position *)
  (* semi-naive frontier: every tuple is created exactly once and must be
     probed exactly once, so creation order IS the queue — a round probes
     the position slice [nr_mark, nr_limit) snapshotted at round start *)
  mutable nr_mark : int;
  mutable nr_limit : int;
}

let node_schema db (nd : Co_schema.node_def) ~simple =
  match simple with
  | Some (_, schema) -> schema
  | None ->
    let qgm = Db.bind_select db nd.Co_schema.nd_query in
    clear_quals (Qgm.schema_of (Db.catalog db) qgm)

(* a simple node's qualifying base rows through its access path, in rowid
   order: [f rowid output_row_encoded] *)
let iter_simple (s : simple) access f =
  Access_path.iter s.s_table access s.s_pred (fun rowid row ->
      f rowid (Row.encode (Row.project row s.s_proj)))

(* a derived node's extent, evaluated once per fetch through the
   relational engine. It has no base rowid: its tuples are identified by
   extent index, across its root evaluation and every edge into it *)
let ensure_extent db (rt : node_rt) : Row.enc array =
  match rt.nr_extent with
  | Some x -> x
  | None ->
    note_query ();
    let qgm = Db.bind_select db rt.nr_def.Co_schema.nd_query in
    let x = Array.of_seq (Seq.map Row.encode (Db.run_qgm db qgm)) in
    rt.nr_extent <- Some x;
    x

(* ---- structural edge shapes ----

   The join structure of each relationship — which base table the child
   resolves to, which equality columns form the join key on either side,
   whether an index serves the probe today — read off the edge's key
   analysis ([Prober.shape]). Shapes carry no closures or data, only
   names: they exist for cost-based selection, servability
   ([Edge_cost.candidates]) and post-compile analysis (the static plan
   advisor), which must reason about a plan without executing it. *)

type edge_shape = Edge_cost.edge_shape = {
  es_name : string;
  es_parent : string;  (** parent node name *)
  es_child : string;  (** child node name *)
  es_strategy : strategy;  (** access path selected for this plan *)
  es_child_table : string option;  (** child's base table when the child is simple *)
  es_parent_cols : string list;  (** parent-side equality join columns (node output names) *)
  es_child_cols : string list;
      (** child-side equality join columns (base-table names; output names of a derived child) *)
  es_using : (string * string list) option;
      (** link table and the link-side columns the parent binds, for USING edges *)
  es_indexed : bool;  (** an index chain serves the probe as compiled *)
  es_residual : bool;  (** non-key conjuncts remain after key extraction *)
}

type node_shape = Edge_cost.node_shape = {
  ns_name : string;
  ns_table : string option;  (** base table when the derivation is simple *)
  ns_pred : Expr.t option;  (** combined simple predicate over the base row *)
  ns_query : Sql_ast.select;  (** the (composed) derivation *)
}

(* base tables a SELECT depends on (for staleness tracking) *)
let rec tables_of_select catalog (q : Sql_ast.select) : string list =
  let rec of_ref = function
    | Sql_ast.From_table (t, _) ->
      if Catalog.table_opt catalog t <> None then [ String.lowercase_ascii t ]
      else begin
        match Catalog.view_opt catalog t with
        | Some v -> tables_of_select catalog v.Catalog.view_query
        | None -> []
      end
    | Sql_ast.From_select (inner, _) -> tables_of_select catalog inner
    | Sql_ast.From_join (l, _, r, _) -> of_ref l @ of_ref r
  in
  List.concat_map of_ref q.Sql_ast.sel_from

(* ---- TAKE: structural projection of the evaluated instance ----

   Projection is evaluate-then-project: the full CO (with reachability) is
   computed first, then components are dropped from the output and node
   columns projected — which is what makes a restriction on a
   projected-away component meaningful (type-(3) XNF-to-NF queries). *)

let apply_column_projection cache =
  List.iter
    (fun (name, ni) ->
      let nd = Co_schema.node cache.Cache.c_def name in
      match nd.Co_schema.nd_cols with
      | None -> ()
      | Some cols ->
        let positions =
          List.map
            (fun c ->
              match Schema.find_opt ni.Cache.ni_schema c with
              | Some i -> i
              | None -> err "[XNF007] TAKE projects unknown column %s of %s" c name)
            cols
        in
        let idx = Array.of_list positions in
        ni.Cache.ni_schema <-
          Schema.make (List.map (fun i -> Schema.col ni.Cache.ni_schema i) positions);
        Vec.iter (fun t -> t.Cache.t_row <- Row.project_enc t.Cache.t_row idx) ni.Cache.ni_tuples;
        ni.Cache.ni_upd <-
          Option.map
            (fun (u : Semantic.node_updatability) ->
              { u with Semantic.nu_col_map = Array.map (fun i -> u.Semantic.nu_col_map.(i)) idx })
            ni.Cache.ni_upd)
    cache.Cache.c_nodes

let apply_take cache (take : Xnf_ast.take) : Cache.t =
  match take with
  | Xnf_ast.Take_star -> cache
  | Xnf_ast.Take_items _ ->
    let def' = Co_schema.project cache.Cache.c_def take in
    let keep_node n = Co_schema.node_opt def' n <> None in
    let keep_edge e = Co_schema.edge_opt def' e <> None in
    { cache with
      Cache.c_def = def';
      c_nodes = List.filter (fun (n, _) -> keep_node n) cache.Cache.c_nodes;
      c_edges = List.filter (fun (e, _) -> keep_edge e) cache.Cache.c_edges }

(* ---- compiled fetch plans: compile once, execute per fetch ----

   [compile_def] performs the input-independent half of translation: node
   shape analysis (simple vs. generic), output schemas, updatability
   analysis and per-edge access-path selection. The result is immutable
   and reusable; [execute_def] instantiates fresh runtime state from it
   per fetch, substituting EXECUTE-time parameter values. *)

type node_plan = {
  np_def : Co_schema.node_def;
  np_simple : simple option;
  np_access : Access_path.t;
      (** chosen over the simple node's predicate with its [?] slots
          unbound; [Scan] for non-simple nodes *)
  np_schema : Schema.t;
  np_upd : Semantic.node_updatability option;
}

let node_shape (name, np) =
  { ns_name = name; ns_table = Option.map (fun s -> Table.name s.s_table) np.np_simple;
    ns_pred = Option.bind np.np_simple (fun s -> s.s_pred); ns_query = np.np_def.Co_schema.nd_query }

(* every access path the edge can be served by is compiled up front: the
   plan picks one, the adaptive runtime check may open an alternate
   mid-fixpoint *)
type edge_plan = {
  ep_chosen : strategy;  (** compile-time pick (cost-based or static) *)
  ep_probers : Prober.edge;
}

(** One adaptive mid-fixpoint strategy switch, recorded on the plan. *)
type switch_rec = {
  sw_edge : string;
  sw_from : strategy;
  sw_to : strategy;
  sw_round : int;  (** fixpoint round (1-based, per execution) after which it applied *)
}

(* final updatability analysis of one edge against the post-TAKE schemas —
   a pure function of the plan, so computed once at compile time *)
type edge_final = {
  ef_upd : Semantic.edge_updatability;
  ef_pcols : int list;
  ef_ccols : int list;
}

type compiled = {
  cp_def : Co_schema.t;
  cp_nodes : (string * node_plan) list;
  cp_edges : (string * edge_plan) list;
  cp_shapes : edge_shape list;  (** structural join shape per edge, definition order *)
  cp_force : strategy option;  (** the [?force] pin the plan was compiled under *)
  cp_base_tables : string list;  (** staleness-tracked base tables *)
  cp_final : (string * edge_final) list;  (** per edge surviving the plan's TAKE *)
  cp_ests : (string * Edge_cost.edge_est) list;
      (** per-edge cost inputs, nonempty iff the pick was cost-based *)
  cp_cost_based : bool;  (** selection came from the shared cost model (fresh stats) *)
  mutable cp_switches : switch_rec list;
      (** adaptive switches, latest first, at most one per edge; written by
          executions so a plan-cache hit starts from the learned strategy *)
  mutable cp_hints : (string * int) list;
      (** last observed cardinalities ("n:<node>" tuples, "e:<edge>"
          connections) — warm executions presize the cache structures so
          the hot loop allocates no growth-doubling garbage *)
}

(** [compile_def ?take ?force db def] runs the "translate" phase on a
    composed CO definition: analysis and access-path selection, no data
    access. [take] lets the final (post-projection) updatability analysis
    be precomputed too; it defaults to [TAKE *]. [force] restricts
    access-path selection to one strategy (used by the differential fuzz
    oracle and the per-strategy bench); an edge the forced strategy cannot
    serve falls back to the always-applicable generic path. *)
let compile_def ?(take = Xnf_ast.Take_star) ?force db (def : Co_schema.t) : compiled =
  let catalog = Db.catalog db in
  Obs.Trace.with_span "translate" @@ fun () ->
  let nodes =
    List.map
      (fun nd ->
        let simple = analyze_simple db nd.Co_schema.nd_query in
        let schema = node_schema db nd ~simple in
        let upd = Semantic.analyze_node_query catalog nd.Co_schema.nd_query in
        let access =
          match simple with
          | Some ({ s_pred = Some p; s_table; _ }, _) -> Access_path.choose s_table (Expr.conjuncts p)
          | _ -> Access_path.Scan
        in
        ( nd.Co_schema.nd_name,
          { np_def = nd; np_simple = Option.map fst simple; np_access = access; np_schema = schema;
            np_upd = upd } ))
      def.Co_schema.co_nodes
  in
  let node name = List.assoc name nodes in
  let base_tables =
    List.concat_map (fun nd -> tables_of_select catalog nd.Co_schema.nd_query) def.Co_schema.co_nodes
    @ List.filter_map
        (fun (ed : Co_schema.edge_def) ->
          Option.map (fun (t, _) -> String.lowercase_ascii t) ed.Co_schema.ed_using)
        def.Co_schema.co_edges
    |> List.sort_uniq compare
  in
  let builds = Prober.builds () in
  let cand_edges =
    List.map
      (fun (ed : Co_schema.edge_def) ->
        let parent_schema = (node ed.Co_schema.ed_parent).np_schema in
        let child =
          match node ed.Co_schema.ed_child with
          | { np_simple = Some s; _ } -> Prober.Base (s.s_table, s.s_pred)
          | { np_schema; _ } -> Prober.Derived np_schema
        in
        let pe = Prober.compile db builds ed ~parent_schema ~child in
        (ed, pe, Prober.shape pe))
      def.Co_schema.co_edges
  in
  (* cost-based pick: only unforced and with a fresh ANALYZE snapshot for
     every base table the plan reads — stale or missing stats fall back
     to the static priority rules, [?force] always wins *)
  let ctx = Edge_cost.mk_ctx db in
  let cost_based =
    force = None && base_tables <> []
    && List.for_all (fun t -> Edge_cost.health ctx t = `Fresh) base_tables
  in
  let ests =
    if not cost_based then []
    else begin
      let _, ests =
        Edge_cost.annotate ctx ~nodes:(List.map node_shape nodes)
          ~shapes:(List.map (fun (_, _, s) -> s) cand_edges)
      in
      List.map (fun (ee : Edge_cost.edge_est) -> (ee.Edge_cost.ee_edge, ee)) ests
    end
  in
  let edges =
    List.map
      (fun ((ed : Co_schema.edge_def), pe, shape0) ->
        let avail = Edge_cost.candidates shape0 in
        let chosen =
          match force with
          | Some f -> if List.mem f avail then f else S_generic
          | None -> begin
            match List.assoc_opt ed.Co_schema.ed_name ests with
            | Some ee ->
              Obs.Metrics.incr m_cost_picks;
              fst
                (Edge_cost.best ee ~candidates:avail ~frontier:ee.Edge_cost.ee_frontier
                   ~conns:ee.Edge_cost.ee_conns)
            | None -> List.hd avail
          end
        in
        Obs.Metrics.incr
          (match chosen with
          | S_indexed -> m_indexed_probes
          | S_hash -> m_hash_edges
          | S_generic -> m_generic_probes);
        ( (ed.Co_schema.ed_name, { ep_chosen = chosen; ep_probers = pe }),
          { shape0 with es_strategy = chosen } ))
      cand_edges
  in
  let shapes = List.map snd edges in
  let edges = List.map fst edges in
  (* final updatability analysis against the post-TAKE node schemas — the
     schemas are plan-determined, so the per-edge analysis is too *)
  let final_def =
    match take with Xnf_ast.Take_star -> def | Xnf_ast.Take_items _ -> Co_schema.project def take
  in
  let final_schema nd_name =
    let nd = Co_schema.node final_def nd_name in
    let schema = (node nd_name).np_schema in
    match nd.Co_schema.nd_cols with
    | None -> schema
    | Some cols ->
      Schema.make
        (List.map
           (fun c ->
             match Schema.find_opt schema c with
             | Some i -> Schema.col schema i
             | None -> err "[XNF007] TAKE projects unknown column %s of %s" c nd_name)
           cols)
  in
  let final =
    List.map
      (fun (ed : Co_schema.edge_def) ->
        let parent_schema = final_schema ed.Co_schema.ed_parent
        and child_schema = final_schema ed.Co_schema.ed_child in
        let upd = Semantic.analyze_edge catalog ed ~parent_schema ~child_schema in
        let pcols, ccols = Semantic.relationship_columns ed ~parent_schema ~child_schema in
        (ed.Co_schema.ed_name, { ef_upd = upd; ef_pcols = pcols; ef_ccols = ccols }))
      final_def.Co_schema.co_edges
  in
  { cp_def = def; cp_nodes = nodes; cp_edges = edges; cp_shapes = shapes; cp_force = force;
    cp_base_tables = base_tables; cp_final = final; cp_ests = ests; cp_cost_based = cost_based;
    cp_switches = []; cp_hints = [] }

(** [edge_strategies cp] lists the access path selected for each
    relationship, in definition order — surfaced by [EXPLAIN ANALYZE] and
    [\plans]. *)
let edge_strategies (cp : compiled) : (string * strategy) list =
  List.map (fun (name, ep) -> (name, ep.ep_chosen)) cp.cp_edges

(** [effective_strategies cp] is {!edge_strategies} with the adaptive
    switches recorded by the most recent execution applied — the paths
    the next execution of this plan will start from. *)
let effective_strategies (cp : compiled) : (string * strategy) list =
  List.map
    (fun (name, ep) ->
      match List.find_opt (fun sw -> sw.sw_edge = name) cp.cp_switches with
      | Some sw -> (name, sw.sw_to)
      | None -> (name, ep.ep_chosen))
    cp.cp_edges

(** [switches cp] lists the adaptive strategy switches recorded on the
    plan, oldest first (at most one per edge — latest execution wins). *)
let switches (cp : compiled) : switch_rec list = List.rev cp.cp_switches

(** [cost_based cp] is true when per-edge selection came from the shared
    cost model (fresh stats, no [?force]). *)
let cost_based (cp : compiled) : bool = cp.cp_cost_based

(** [edge_shapes cp] is the structural join shape per relationship, in
    definition order — consumed by the static plan advisor. *)
let edge_shapes (cp : compiled) : edge_shape list = cp.cp_shapes

(** [node_shapes cp] is the derivation shape per node, in definition
    order. *)
let node_shapes (cp : compiled) : node_shape list = List.map node_shape cp.cp_nodes

(** [node_access cp] is the base-table access path chosen per node. *)
let node_access (cp : compiled) : (string * Access_path.t) list =
  List.map (fun (name, np) -> (name, np.np_access)) cp.cp_nodes

(** [forced cp] is the [?force] pin the plan was compiled under. *)
let forced (cp : compiled) : strategy option = cp.cp_force

(** [compiled_def cp] is the composed definition the plan was compiled
    from. *)
let compiled_def (cp : compiled) : Co_schema.t = cp.cp_def

(** [base_tables cp] is the staleness-tracked base-table set. *)
let base_tables (cp : compiled) : string list = cp.cp_base_tables

(* ---- execution: a short driver over roots, fixpoint, connections and
   restrictions, sharing one per-fetch runtime record ---- *)

(* per-edge runtime state for one execution: the connection buffer its
   probes fill, which strategy is serving, its prober opened for this
   execution, and the observed frontier/connection counters the
   between-rounds adaptive check compares against the plan's estimates *)
type edge_rt = {
  er_def : Co_schema.edge_def;
  er_plan : edge_plan;
  er_parent : node_rt;
  er_child : node_rt;
  er_buf : Cache.conns;
  mutable er_serving : strategy;
  mutable er_probe : Prober.t;
  mutable er_probed : int;  (** frontier rows fed to this edge so far *)
  mutable er_conns : int;  (** connections produced so far *)
  mutable er_switched : bool;  (** divergence handled — at most one switch per execution *)
  mutable er_probe_ns : float;  (** wall time spent in this edge's probe batches *)
}

type run = {
  ru_db : Db.t;
  ru_cp : compiled;
  ru_params : Value.t array;
  ru_nodes : (string * node_rt) list;
  ru_edges : edge_rt list;  (** definition order *)
}

(* strategy [s]'s prober for an edge, opened for one execution *)
let open_prober db params (plan : edge_plan) child s =
  Prober.open_ plan.ep_probers s params ~extent:(fun () -> ensure_extent db child)

let set_serving run er s =
  er.er_serving <- s;
  er.er_probe <- open_prober run.ru_db run.ru_params er.er_plan er.er_child s

(* fresh per-fetch node state from the immutable plan; warm
   re-executions presize from the previous run's cardinalities so the
   hot loop pays no growth-doubling churn *)
let hint (cp : compiled) key fallback =
  match List.assoc_opt key cp.cp_hints with
  | Some n when n > 0 -> n + n / 8
  | _ -> fallback

let node_rts (cp : compiled) params =
  let sub_pred p = if Array.length params = 0 then p else Option.map (Expr.subst_params params) p in
  List.map
    (fun (name, np) ->
      let nd =
        if Array.length params = 0 then np.np_def
        else
          { np.np_def with
            Co_schema.nd_query = Sql_ast.subst_params_select params np.np_def.Co_schema.nd_query }
      in
      let simple = Option.map (fun s -> { s with s_pred = sub_pred s.s_pred }) np.np_simple in
      let access =
        if Array.length params = 0 then np.np_access else Access_path.subst_params params np.np_access
      in
      let ni =
        Cache.make_node ~size_hint:(hint cp ("n:" ^ name) 64) ~schema:np.np_schema ~upd:np.np_upd name
      in
      ( name,
        { nr_def = nd; nr_simple = simple; nr_access = access; nr_ni = ni; nr_extent = None;
          nr_tid2pos = Intmap.create ~size:16; nr_mark = 0; nr_limit = 0 } ))
    cp.cp_nodes

(* per edge: serving starts from the plan's effective strategy, so a
   plan-cache hit keeps the strategy a previous execution learned.
   Connection production fuses into the reachability pass; matches fill
   the cache's struct-of-arrays buffers directly — two int pushes per
   match, attribute rows only on edges that declare them — and the
   readout adopts the buffers wholesale *)
let edge_rts db (cp : compiled) params nodes =
  let serving = effective_strategies cp in
  List.map
    (fun (ed : Co_schema.edge_def) ->
      let name = ed.Co_schema.ed_name in
      let plan = List.assoc name cp.cp_edges and child = List.assoc ed.Co_schema.ed_child nodes in
      let s = List.assoc name serving in
      { er_def = ed; er_plan = plan; er_parent = List.assoc ed.Co_schema.ed_parent nodes;
        er_child = child;
        er_buf =
          Cache.make_conns ~size_hint:(hint cp ("e:" ^ name) 8) ~attrs:(ed.Co_schema.ed_attrs <> []) ();
        er_serving = s; er_probe = open_prober db params plan child s; er_probed = 0; er_conns = 0;
        er_switched = false; er_probe_ns = 0. })
    cp.cp_def.Co_schema.co_edges

(* roots: set-oriented evaluation of the derivations *)
let roots run =
  List.iter
    (fun (nd : Co_schema.node_def) ->
      Obs.Trace.with_span ("node:" ^ nd.Co_schema.nd_name) @@ fun () ->
      let r = List.assoc nd.Co_schema.nd_name run.ru_nodes in
      note_query ();
      (match r.nr_simple with
      | Some s ->
        Obs.Trace.add_meta "access" (Access_path.describe r.nr_access);
        iter_simple s r.nr_access (fun rowid enc -> ignore (Cache.add_tuple r.nr_ni ~rowid enc))
      | None ->
        Obs.Trace.add_meta "access" "sql";
        Array.iteri
          (fun tid row -> Intmap.set r.nr_tid2pos tid (Cache.add_tuple r.nr_ni ~rowid:(-1) row))
          (ensure_extent run.ru_db r));
      Obs.Trace.add_meta "rows" (string_of_int (Cache.live_count r.nr_ni)))
    (Co_schema.roots run.ru_cp.cp_def)

(* prober hits deliver the child's encoded BASE row; project to the
   node's output columns only when the tuple is first materialized. An
   identity projection shares the build's row array with the cache
   tuple — safe, because in-cache rows are never mutated in place
   ([Udi] copies before writing, TAKE replaces the array). *)
let child_proj child_rt =
  match child_rt.nr_simple with
  | Some s ->
    let n = Array.length s.s_proj in
    let identity =
      n = Schema.arity (Table.schema s.s_table)
      &&
      let rec all_id i = i >= n || (s.s_proj.(i) = i && all_id (i + 1)) in
      all_id 0
    in
    if identity then fun (enc : Row.enc) -> enc else fun enc -> Row.project_enc enc s.s_proj
  | None -> fun enc -> enc

(* one edge's probe of its parent slice through its prober; true when a
   child tuple was created. A simple child's tuples are identified by
   base rowid, a derived child's by extent index. *)
let probe_batch er (probe : Prober.t) =
  note_query ();
  let parent_rt = er.er_parent and child_rt = er.er_child in
  let ni = child_rt.nr_ni and derived = child_rt.nr_simple = None in
  let proj = child_proj child_rt in
  let changed = ref false in
  (* one emit closure per batch (not per frontier row): the current
     parent position threads through a mutable cell *)
  let cur = ref 0 in
  let probe_row =
    Prober.probe probe (fun id enc attrs ->
        let cpos = if derived then Intmap.get child_rt.nr_tid2pos id else Cache.pos_of_rowid ni id in
        let cpos =
          if cpos >= 0 then cpos
          else begin
            changed := true;
            if derived then begin
              let pos = Cache.add_tuple ni ~rowid:(-1) enc in
              Intmap.set child_rt.nr_tid2pos id pos;
              pos
            end
            else Cache.add_tuple ni ~rowid:id (proj enc)
          end
        in
        ignore (Cache.push_conn er.er_buf ~parent:!cur ~child:cpos ~attrs);
        er.er_conns <- er.er_conns + 1)
  in
  for pos = parent_rt.nr_mark to parent_rt.nr_limit - 1 do
    cur := pos;
    probe_row (Cache.tuple parent_rt.nr_ni pos).Cache.t_row
  done;
  !changed

(* ---- adaptive mid-fixpoint fallback ----

   After each semi-naive round with more work pending, compare the
   observed frontier / connection / candidate-scan counters per edge
   against the plan's estimates. Beyond [adaptive_factor] divergence
   (with at least [adaptive_min_rows] observed rows), re-pick through
   the planner's own [Edge_cost.best] fed observed counts — live
   cardinalities replace the evidently-unreliable snapshot extents, so
   the runtime check and the compile-time pick cannot disagree on the
   same numbers — and switch the edge's serving strategy for subsequent
   rounds. The switch is recorded on the plan (EXPLAIN ANALYZE,
   sys.plans) and reused by plan-cache hits; at most one switch per edge
   per execution, so estimates can never cause flapping. Only
   cost-picked, unforced plans are eligible. *)
let adaptive_check run round =
  let cp = run.ru_cp in
  let live_card t =
    match Catalog.table_opt (Db.catalog run.ru_db) t with
    | Some tbl -> float_of_int (Table.cardinality tbl)
    | None -> infinity
  in
  List.iter
    (fun er ->
      let name = er.er_def.Co_schema.ed_name in
      match List.assoc_opt name cp.cp_ests with
      | Some ee when not er.er_switched ->
        let fmin = float_of_int (adaptive_min_rows ()) in
        let factor = adaptive_factor () in
        let f = float_of_int er.er_probed in
        let c = float_of_int er.er_conns in
        let scan = float_of_int (Prober.scanned er.er_probe) in
        let est_scan =
          f
          *. Float.max 1.
               (match er.er_serving with
               | S_indexed -> ee.Edge_cost.ee_cand_fan
               | S_hash -> ee.Edge_cost.ee_fanout
               | S_generic -> Edge_cost.generic_scan ee)
        in
        let exceeds obs est = obs >= fmin && obs > factor *. Float.max 1. est in
        if
          exceeds f ee.Edge_cost.ee_frontier
          || exceeds c ee.Edge_cost.ee_conns
          || exceeds scan est_scan
        then begin
          er.er_switched <- true;
          let shape = List.find (fun s -> s.es_name = name) cp.cp_shapes in
          let live_child =
            match shape.es_child_table with
            | Some t -> live_card t
            | None -> float_of_int (Array.length (ensure_extent run.ru_db er.er_child))
          in
          let live_link = Option.map (fun (l, _) -> live_card l) shape.es_using in
          (* an indexed edge's observed scan replaces the
             candidate-fanout estimate *)
          let observed =
            { ee with
              Edge_cost.ee_frontier = f; ee_conns = c; ee_child = live_child;
              ee_build = live_child +. Option.value ~default:0. live_link; ee_link = live_link;
              ee_cand_fan =
                (if er.er_serving = S_indexed then scan /. Float.max 1. f
                 else ee.Edge_cost.ee_cand_fan) }
          in
          let target, _ =
            Edge_cost.best observed ~candidates:(Edge_cost.candidates shape) ~frontier:f ~conns:c
          in
          if target <> er.er_serving then begin
            let sw = { sw_edge = name; sw_from = er.er_serving; sw_to = target; sw_round = round } in
            cp.cp_switches <- sw :: List.filter (fun s -> s.sw_edge <> name) cp.cp_switches;
            Obs.Metrics.incr m_strategy_switches;
            set_serving run er target
          end
        end
      | _ -> ())
    run.ru_edges

(* reachability: a delta fixpoint over the schema graph. Every tuple is
   created exactly once, so creation order IS the queue: each round
   probes, per node, the position slice [nr_mark, nr_limit) snapshotted
   at round start, and tuples created during the round land beyond
   [nr_limit]. Semi-naive, the slice is what the previous round created;
   naive (the E6 ablation), it starts at 0 — every tuple is live during
   the fixpoint, so each round re-probes every parent from scratch, with
   the connection buffers cleared: the last round adds no tuple and
   therefore leaves the full connection set. Returns the round count. *)
let fixpoint run mode =
  let cp = run.ru_cp in
  let changed = ref true and round = ref 0 in
  while !changed do
    changed := false;
    incr round;
    Obs.Metrics.incr m_rounds;
    List.iter
      (fun (_, r) ->
        r.nr_mark <- (match mode with Semi_naive -> r.nr_limit | Naive -> 0);
        r.nr_limit <- Vec.length r.nr_ni.Cache.ni_tuples)
      run.ru_nodes;
    if mode = Naive then List.iter (fun er -> er.er_buf.Cache.cs_len <- 0) run.ru_edges;
    List.iter
      (fun er ->
        let n_probes = er.er_parent.nr_limit - er.er_parent.nr_mark in
        if n_probes > 0 then begin
          Obs.Metrics.incr ~by:n_probes m_tuples_probed;
          er.er_probed <- er.er_probed + n_probes;
          (* rounds interleave the edges, so each edge's probe time is
             accumulated here and reported on its connections span *)
          let t0 = Obs.Metrics.now_ns () and s0 = Prober.scanned er.er_probe in
          if er.er_serving = S_hash then Obs.Metrics.incr m_hash_probes;
          if probe_batch er er.er_probe then changed := true;
          Obs.Metrics.incr ~by:(Prober.scanned er.er_probe - s0) m_candidates_scanned;
          er.er_probe_ns <- er.er_probe_ns +. (Obs.Metrics.now_ns () -. t0)
        end)
      run.ru_edges;
    if mode = Semi_naive && !changed && cp.cp_force = None && cp.cp_ests <> [] then
      adaptive_check run !round
  done;
  !round

(* connection extents over the reached instance: the matches were already
   produced during reachability — this is a readout of the per-edge
   buffers, no further query runs *)
let connections run =
  List.map
    (fun er ->
      let ed = er.er_def in
      Obs.Trace.with_span ("edge:" ^ ed.Co_schema.ed_name) @@ fun () ->
      (* adopt the buffer wholesale as the edge's connection store —
         zero-copy, filled in delivery order *)
      Obs.Trace.add_meta "conns" (string_of_int er.er_buf.Cache.cs_len);
      Obs.Trace.add_meta "probe_ms" (Printf.sprintf "%.3f" (er.er_probe_ns /. 1e6));
      ( ed.Co_schema.ed_name,
        { Cache.ei_name = ed.Co_schema.ed_name; ei_parent = ed.Co_schema.ed_parent;
          ei_child = ed.Co_schema.ed_child; ei_parent_node = er.er_parent.nr_ni;
          ei_child_node = er.er_child.nr_ni; ei_attr_schema = Prober.attrs er.er_plan.ep_probers;
          ei_conns = er.er_buf;
          ei_adj = None; ei_upd = Semantic.Upd_readonly "pending analysis" } ))
    run.ru_edges

(* substitute EXECUTE-time values into the symbolic (instance-evaluated)
   restrictions *)
let subst_restrictions params restrs =
  if Array.length params = 0 then restrs
  else
    List.map
      (function
        | R_node r -> R_node { r with rn_pred = Xnf_ast.subst_params_xexpr params r.rn_pred }
        | R_edge r -> R_edge { r with re_pred = Xnf_ast.subst_params_xexpr params r.re_pred })
      restrs

(* path-based restrictions over the instance, then reachability *)
let restrictions cache path_restrs =
  List.iter
    (function
      | R_node { rn_node; rn_var; rn_pred } ->
        let ni = Cache.node cache rn_node in
        let keep = Path.eval_node_restriction cache ~node:rn_node ~var:rn_var rn_pred in
        let keep_set = Hashtbl.create 64 in
        List.iter (fun p -> Hashtbl.replace keep_set p ()) keep;
        Vec.iter
          (fun t ->
            if t.Cache.t_live && not (Hashtbl.mem keep_set t.Cache.t_pos) then t.Cache.t_live <- false)
          ni.Cache.ni_tuples
      | R_edge { re_edge; re_parent_var; re_child_var; re_pred } ->
        let ei = Cache.edge cache re_edge in
        let pvar = String.lowercase_ascii re_parent_var
        and cvar = String.lowercase_ascii re_child_var in
        for i = 0 to Cache.conn_count ei - 1 do
          if Cache.conn_live_at ei i then begin
            let env =
              [ (pvar, { Path.b_node = ei.Cache.ei_parent; b_pos = Cache.conn_parent_at ei i });
                (cvar, { Path.b_node = ei.Cache.ei_child; b_pos = Cache.conn_child_at ei i }) ]
            in
            if not (Value.is_true (Path.eval_pred cache env re_pred)) then
              Cache.set_conn_live ei i false
          end
        done)
    path_restrs;
  Cache.recompute_reachability cache

(** [execute_def ?fixpoint ?params db cp path_restrs] evaluates a compiled
    plan into a cache (before TAKE projection and final updatability
    analysis), substituting [params] for the [?] slots. *)
let execute_def ?fixpoint:(mode = Semi_naive) ?(params = [||]) db (cp : compiled)
    (path_restrs : restriction list) : Cache.t =
  let nodes = node_rts cp params in
  let edges =
    Obs.Trace.with_span "cache-fill" @@ fun () ->
    let edges = Obs.Trace.with_span "edge-builds" (fun () -> edge_rts db cp params nodes) in
    let run = { ru_db = db; ru_cp = cp; ru_params = params; ru_nodes = nodes; ru_edges = edges } in
    Obs.Trace.with_span "roots" (fun () -> roots run);
    Obs.Trace.with_span "fixpoint" (fun () ->
        Obs.Trace.add_meta "rounds" (string_of_int (fixpoint run mode)));
    Obs.Trace.with_span "connections" (fun () -> connections run)
  in
  let catalog = Db.catalog db in
  let cache =
    { Cache.c_def = cp.cp_def; c_nodes = List.map (fun (n, r) -> (n, r.nr_ni)) nodes; c_edges = edges;
      c_base_versions =
        List.filter_map
          (fun t -> Option.map (fun tbl -> (t, Table.version tbl)) (Catalog.table_opt catalog t))
          cp.cp_base_tables;
      c_unsaved = false }
  in
  (* record observed cardinalities for the next warm execution's presizing *)
  cp.cp_hints <-
    List.map (fun (n, r) -> ("n:" ^ n, Vec.length r.nr_ni.Cache.ni_tuples)) nodes
    @ List.map (fun (e, ei) -> ("e:" ^ e, ei.Cache.ei_conns.Cache.cs_len)) edges;
  let path_restrs = subst_restrictions params path_restrs in
  if path_restrs <> [] then
    Obs.Trace.with_span "restrictions" (fun () -> restrictions cache path_restrs);
  cache

(* column projection, then relationship-updatability and locked-column
   analysis against the final (projected) schemas *)
let analyze_edge_of db cache name ei =
  let catalog = Db.catalog db in
  let ed = Co_schema.edge cache.Cache.c_def name in
  let parent_schema = (Cache.node cache ei.Cache.ei_parent).Cache.ni_schema in
  let child_schema = (Cache.node cache ei.Cache.ei_child).Cache.ni_schema in
  let upd = Semantic.analyze_edge catalog ed ~parent_schema ~child_schema in
  let pcols, ccols = Semantic.relationship_columns ed ~parent_schema ~child_schema in
  { ef_upd = upd; ef_pcols = pcols; ef_ccols = ccols }

let apply_edge_final cache ei (ef : edge_final) =
  ei.Cache.ei_upd <- ef.ef_upd;
  let pn = Cache.node cache ei.Cache.ei_parent and cn = Cache.node cache ei.Cache.ei_child in
  pn.Cache.ni_locked_cols <- List.sort_uniq compare (ef.ef_pcols @ pn.Cache.ni_locked_cols);
  cn.Cache.ni_locked_cols <- List.sort_uniq compare (ef.ef_ccols @ cn.Cache.ni_locked_cols)

let finalize db cache =
  Obs.Trace.with_span "finalize" @@ fun () ->
  apply_column_projection cache;
  List.iter
    (fun (name, ei) -> apply_edge_final cache ei (analyze_edge_of db cache name ei))
    cache.Cache.c_edges;
  cache

(** [finalize_plan db cp cache] is {!finalize} with the per-edge
    updatability analysis taken from the compiled plan instead of
    re-derived per fetch. Falls back to on-the-fly analysis for an edge
    the plan did not precompute (a TAKE differing from the compiled one). *)
let finalize_plan db (cp : compiled) cache =
  Obs.Trace.with_span "finalize" @@ fun () ->
  apply_column_projection cache;
  List.iter
    (fun (name, ei) ->
      let ef =
        match List.assoc_opt name cp.cp_final with
        | Some ef -> ef
        | None -> analyze_edge_of db cache name ei
      in
      apply_edge_final cache ei ef)
    cache.Cache.c_edges;
  cache
