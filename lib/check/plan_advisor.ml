(* Static plan advisor (PLAN3xx).

   A read-only analysis pass over compiled fetch plans. The cost model
   mirrors what a cost-based planner would believe at compile time: base
   cardinalities and NDVs come from the last ANALYZE snapshot when one
   exists — even a stale one — and fall back to live table state
   otherwise. That choice is deliberate: the estimate side of the
   PLAN310 drift check must reflect the recorded statistics, so a skewed
   bulk load after ANALYZE shows up as drift and re-ANALYZE clears it.

   Estimation is coarse (uniform keys, independence, fixed default
   selectivities) — advisories are hints, and every threshold errs
   toward silence. Nothing here executes queries or writes anywhere:
   running the advisor cannot perturb a plan, a cache or a fetch
   result. *)

open Relational
open Xnf

type edge_cost = {
  ec_edge : string;
  ec_strategy : Translate.strategy;
  ec_frontier : float;
  ec_child : float;
  ec_fanout : float;
  ec_conns : float;
  ec_cost : float;
  ec_best : Translate.strategy;
  ec_best_cost : float;
}

type advisory = { ad_diag : Diag.t; ad_edge : string option; ad_table : string option }

type report = {
  rp_nodes : (string * float) list;
  rp_edges : edge_cost list;
  rp_advisories : advisory list;
}

let diags rp = List.map (fun a -> a.ad_diag) rp.rp_advisories
let entries rp = List.map (fun a -> (a.ad_diag, a.ad_edge, a.ad_table)) rp.rp_advisories

let m_runs = Obs.Metrics.counter "check.advisor.runs"
let m_findings = Obs.Metrics.counter "check.advisor.findings"
let m_drift_runs = Obs.Metrics.counter "check.advisor.drift_runs"
let m_drift_findings = Obs.Metrics.counter "check.advisor.drift_findings"

let lc = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Schema-graph reachability helpers                                  *)

let succs (def : Co_schema.t) n =
  List.filter_map
    (fun (ed : Co_schema.edge_def) -> if lc ed.ed_parent = lc n then Some ed.ed_child else None)
    def.co_edges

(* Nodes from which some member of [targets] is reachable (reverse
   closure, targets included). Lowercased. *)
let ancestors_of (def : Co_schema.t) targets =
  let preds n =
    List.filter_map
      (fun (ed : Co_schema.edge_def) -> if lc ed.ed_child = lc n then Some ed.ed_parent else None)
      def.co_edges
  in
  let seen = Hashtbl.create 8 in
  let rec go n =
    if not (Hashtbl.mem seen (lc n)) then begin
      Hashtbl.replace seen (lc n) ();
      List.iter go (preds n)
    end
  in
  List.iter go targets;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

(* [on_cycle def n]: n reaches itself through at least one edge. *)
let on_cycle (def : Co_schema.t) n =
  let seen = Hashtbl.create 8 in
  let rec go m =
    lc m = lc n
    || (not (Hashtbl.mem seen (lc m)))
       && begin
            Hashtbl.replace seen (lc m) ();
            List.exists go (succs def m)
          end
  in
  List.exists go (succs def n)

(* Node names referenced by SUCH THAT restrictions — directly (R_node,
   path starts, Step_node landings) or as endpoints of a restricted or
   traversed edge. Lowercased, deduplicated. *)
let restriction_nodes (def : Co_schema.t) (restrs : Xnf_ast.restriction list) =
  let open Xnf_ast in
  let acc = ref [] in
  let push n = acc := lc n :: !acc in
  let edge_endpoints e =
    match Co_schema.edge_opt def e with
    | Some ed ->
      push ed.Co_schema.ed_parent;
      push ed.Co_schema.ed_child
    | None -> ()
  in
  let rec xe = function
    | X_col _ | X_lit _ | X_param _ -> ()
    | X_cmp (_, a, b) | X_arith (_, a, b) | X_and (a, b) | X_or (a, b) | X_like (a, b) ->
      xe a;
      xe b
    | X_neg a | X_not a | X_is_null a | X_is_not_null a -> xe a
    | X_in_list (a, es) ->
      xe a;
      List.iter xe es
    | X_fn (_, es) -> List.iter xe es
    | X_count_path p | X_exists_path p -> path p
  and path p =
    (* p_start is a restriction variable or a node name; pushing a
       variable is harmless (it matches no component). *)
    push p.p_start;
    List.iter
      (function
        | Step_edge e -> edge_endpoints e
        | Step_node { sn_node; sn_pred; _ } ->
          push sn_node;
          Option.iter xe sn_pred)
      p.p_steps
  in
  List.iter
    (function
      | R_node { rn_node; rn_pred; _ } ->
        push rn_node;
        xe rn_pred
      | R_edge { re_edge; re_pred; _ } ->
        edge_endpoints re_edge;
        xe re_pred)
    restrs;
  List.sort_uniq compare !acc

(* A derivation is restricted when any (possibly nested) SELECT carries
   a WHERE clause. *)
let rec select_restricted (q : Sql_ast.select) =
  q.Sql_ast.sel_where <> None || List.exists table_ref_restricted q.Sql_ast.sel_from

and table_ref_restricted = function
  | Sql_ast.From_table _ -> false
  | Sql_ast.From_select (inner, _) -> select_restricted inner
  | Sql_ast.From_join (l, _, r, _) -> table_ref_restricted l || table_ref_restricted r

(* ------------------------------------------------------------------ *)
(* The cost model — shared with the planner                           *)

(* The estimation core (snapshot-first row counts, NDVs, derivation and
   fanout estimates, per-strategy costs) lives in
   [Relational.Edge_cost]: the exact same arithmetic drives the
   planner's per-edge pick at [Translate.compile_def] and the advisories
   here, so advice and decision cannot disagree. The advisor keeps only
   the report shaping and the PLAN3xx thresholds. *)

let health = Edge_cost.health

(* ------------------------------------------------------------------ *)
(* The analysis pass                                                  *)

let analyze_compiled ?(probe_threshold = 1000.) ?(force_factor = 2.) ?(inversion_factor = 4.)
    ?(take = Xnf_ast.Take_star) ?(restrs = []) db (cp : Translate.compiled) : report =
  Obs.Metrics.incr m_runs;
  let ctx = Edge_cost.mk_ctx db in
  let def = Translate.compiled_def cp in
  let nodes = Translate.node_shapes cp in
  let shapes = Translate.edge_shapes cp in
  let advs = ref [] in
  let add ?edge ?table d = advs := { ad_diag = d; ad_edge = edge; ad_table = table } :: !advs in

  (* Node reach and per-edge cost inputs from the shared estimator — the
     same numbers [Translate.compile_def] picks strategies from. *)
  let rp_nodes, ests = Edge_cost.annotate ctx ~nodes ~shapes in

  (* Cost-annotate every edge and pick the cheapest candidate strategy
     among those the compiled shape could support. *)
  let cost_edge (es : Translate.edge_shape) (ee : Edge_cost.edge_est) =
    let frontier = ee.Edge_cost.ee_frontier and conns = ee.Edge_cost.ee_conns in
    let cost s = Edge_cost.cost_of ee ~frontier ~conns s in
    let best, best_cost =
      Edge_cost.best ee ~candidates:(Edge_cost.candidates es) ~frontier ~conns
    in
    { ec_edge = es.Translate.es_name;
      ec_strategy = es.Translate.es_strategy;
      ec_frontier = frontier;
      ec_child = ee.Edge_cost.ee_child;
      ec_fanout = ee.Edge_cost.ee_fanout;
      ec_conns = conns;
      ec_cost = cost es.Translate.es_strategy;
      ec_best = best;
      ec_best_cost = best_cost }
  in
  let rp_edges = List.map2 cost_edge shapes ests in

  let catalog = Db.catalog db in
  let has_index tbl cols =
    match Catalog.table_opt catalog (lc tbl) with
    | None -> true (* not a base table: an index suggestion makes no sense *)
    | Some t ->
      let idx = List.filter_map (fun c -> Schema.find_opt (Table.schema t) (lc c)) cols in
      List.length idx = List.length cols && Table.find_index t ~cols:(Array.of_list idx) <> None
  in
  let sname = Translate.strategy_name in

  (* Per-edge advisories: PLAN300 / PLAN301 / PLAN305. *)
  List.iter2
    (fun (es : Translate.edge_shape) ec ->
      (match es.Translate.es_child_table with
      | Some ct
        when es.Translate.es_strategy <> Translate.S_indexed
             && es.Translate.es_child_cols <> []
             && (not es.Translate.es_indexed)
             && ec.ec_cost >= probe_threshold -> (
        (* Which index is missing? FK form: a single-column index on the
           first child join column unlocks the indexed chain. USING form:
           whichever of the link-side or child-side indexes is absent; a
           link binding no parent column has no probe key, so no index
           can serve the edge. *)
        let target =
          match es.Translate.es_using with
          | None -> Some (ct, [ List.hd es.Translate.es_child_cols ])
          | Some (_, []) -> None
          | Some (link, lcols) ->
            if not (has_index link lcols) then Some (link, lcols)
            else if not (has_index ct es.Translate.es_child_cols) then
              Some (ct, es.Translate.es_child_cols)
            else None
        in
        match target with
        | None -> ()
        | Some (tbl, cols) ->
          let cols_s = String.concat ", " cols in
          add ~edge:es.Translate.es_name ~table:tbl
            (Diag.warn ~code:"PLAN300"
               ~hint:
                 (Printf.sprintf "CREATE INDEX idx_%s_%s ON %s (%s)" (lc tbl)
                    (String.concat "_" (List.map lc cols))
                    tbl cols_s)
               (Printf.sprintf
                  "relationship %s probes %s without a usable index (strategy %s, est cost %.0f \
                   rows); an index on %s (%s) would serve it"
                  es.Translate.es_name tbl (sname es.Translate.es_strategy) ec.ec_cost tbl cols_s)))
      | _ -> ());
      (match Translate.forced cp with
      | Some f
        when ec.ec_best <> es.Translate.es_strategy
             && ec.ec_cost > (force_factor *. ec.ec_best_cost) +. 1. ->
        add ~edge:es.Translate.es_name ?table:es.Translate.es_child_table
          (Diag.warn ~code:"PLAN301"
             ~hint:
               (Printf.sprintf "drop ?force=%s or pin ?force=%s for this query" (sname f)
                  (sname ec.ec_best))
             (Printf.sprintf
                "relationship %s runs %s pinned by ?force=%s at est cost %.0f rows; %s is \
                 estimated at %.0f"
                es.Translate.es_name
                (sname es.Translate.es_strategy)
                (sname f) ec.ec_cost (sname ec.ec_best) ec.ec_best_cost))
      | _ -> ());
      if
        es.Translate.es_strategy = Translate.S_hash
        && ec.ec_child >= inversion_factor *. Float.max 1. ec.ec_frontier
        && ec.ec_child >= 256.
      then
        add ~edge:es.Translate.es_name ?table:es.Translate.es_child_table
          (Diag.info ~code:"PLAN305"
             ~hint:
               "an index-nested-loop probe would touch only the frontier; consider CREATE INDEX \
                on the child join column"
             (Printf.sprintf
                "relationship %s builds a hash over the child extent (est %.0f rows) to serve a \
                 much smaller frontier (est %.0f) — build-side inversion"
                es.Translate.es_name ec.ec_child ec.ec_frontier)))
    shapes rp_edges;

  (* PLAN302: unbounded recursion. A cyclic fixpoint is considered
     bounded when a restricted derivation (or a residual edge predicate)
     sits on the cycle or on an ancestor feeding it, or when a SUCH THAT
     restriction references the cycle. *)
  if Co_schema.is_recursive def then begin
    let cycle_nodes =
      List.filter_map
        (fun (nd : Co_schema.node_def) ->
          if on_cycle def nd.Co_schema.nd_name then Some nd.Co_schema.nd_name else None)
        def.co_nodes
    in
    let feeding = ancestors_of def cycle_nodes in
    let referenced = restriction_nodes def restrs in
    let der_restricted =
      List.exists
        (fun (ns : Translate.node_shape) ->
          List.mem (lc ns.Translate.ns_name) feeding
          && (ns.Translate.ns_pred <> None || select_restricted ns.Translate.ns_query))
        nodes
    in
    let cycle_edge_residual =
      List.exists
        (fun (es : Translate.edge_shape) ->
          es.Translate.es_residual
          && List.mem (lc es.Translate.es_parent) feeding
          && List.mem (lc es.Translate.es_child) feeding)
        shapes
    in
    let restr_bounded = List.exists (fun n -> List.mem n referenced) feeding in
    if cycle_nodes <> [] && (not der_restricted) && (not cycle_edge_residual) && not restr_bounded
    then
      add
        (Diag.warn ~code:"PLAN302"
           ~hint:
             "restrict a derivation feeding the cycle (e.g. a WHERE on the root component) so \
              the fixpoint seeds from a bounded set"
           (Printf.sprintf
              "recursive schema: the fixpoint over the cycle through %s has no restriction \
               bounding recursion — it can reach the entire extent"
              (String.concat ", " (List.sort compare cycle_nodes))))
  end;

  (* PLAN303: components fetched but never delivered. Only meaningful
     under a structural projection: the node is dropped by TAKE, no
     restriction mentions it, and no delivered component is reached
     through it. *)
  (match take with
  | Xnf_ast.Take_star -> ()
  | Xnf_ast.Take_items _ ->
    let final_def = try Co_schema.project def take with Co_schema.Schema_error _ -> def in
    let kept = List.map (fun (nd : Co_schema.node_def) -> lc nd.Co_schema.nd_name) final_def.co_nodes in
    let needed = ancestors_of def kept in
    let referenced = restriction_nodes def restrs in
    List.iter
      (fun (nd : Co_schema.node_def) ->
        let n = lc nd.Co_schema.nd_name in
        if (not (List.mem n kept)) && (not (List.mem n needed)) && not (List.mem n referenced)
        then
          add
            (Diag.info ~code:"PLAN303"
               ~hint:(Printf.sprintf "add %s to TAKE, or drop it from OUT OF" nd.Co_schema.nd_name)
               (Printf.sprintf
                  "component %s is fetched but never delivered: dropped by TAKE, unreferenced by \
                   restrictions, and no delivered component is reached through it"
                  nd.Co_schema.nd_name)))
      def.co_nodes);

  (* PLAN304: statistics health of every base table the estimates
     consulted. *)
  List.iter
    (fun t ->
      match health ctx t with
      | `Fresh | `Unknown -> ()
      | `Missing ->
        add ~table:t
          (Diag.info ~code:"PLAN304"
             ~hint:(Printf.sprintf "ANALYZE %s" t)
             (Printf.sprintf
                "table %s has no statistics; cost estimates fall back to live cardinalities" t))
      | `Stale (v0, v1) ->
        add ~table:t
          (Diag.info ~code:"PLAN304"
             ~hint:(Printf.sprintf "ANALYZE %s" t)
             (Printf.sprintf
                "statistics for table %s are stale (collected at version %d, table now at \
                 version %d)"
                t v0 v1)))
    (List.sort_uniq compare (List.map lc (Translate.base_tables cp)));

  let rp_advisories = List.rev !advs in
  List.iter (fun _ -> Obs.Metrics.incr m_findings) rp_advisories;
  { rp_nodes; rp_edges; rp_advisories }

let analyze ?probe_threshold ?force_factor ?inversion_factor db (plan : Fetch_plan.t) =
  analyze_compiled ?probe_threshold ?force_factor ?inversion_factor ~take:(Fetch_plan.take plan)
    ~restrs:(Fetch_plan.path_restrs plan) db (Fetch_plan.compiled plan)

(* ------------------------------------------------------------------ *)
(* Estimate-vs-actual drift (PLAN310)                                 *)

let drift ?(factor = 8.) ?(min_rows = 64) db (plan : Fetch_plan.t) (cache : Cache.t) :
    advisory list =
  Obs.Metrics.incr m_drift_runs;
  let rp = analyze db plan in
  let shapes = Translate.edge_shapes (Fetch_plan.compiled plan) in
  let nodes = Translate.node_shapes (Fetch_plan.compiled plan) in
  (* Overestimates are only meaningful on restriction-free plans: SUCH
     THAT legitimately shrinks the observed instance below any
     statistics-based estimate. *)
  let flag_over = Fetch_plan.path_restrs plan = [] in
  let fmin = float_of_int min_rows in
  let table_of_node n =
    List.find_map
      (fun (ns : Translate.node_shape) ->
        if ns.Translate.ns_name = n then ns.Translate.ns_table else None)
      nodes
  in
  let check ~what ~name ~edge ~table est actual =
    let under = actual > est *. factor && actual >= fmin in
    let over = flag_over && est > actual *. factor && est >= fmin in
    if under || over then begin
      Obs.Metrics.incr m_drift_findings;
      let ratio =
        if under then actual /. Float.max 1. est else est /. Float.max 1. actual
      in
      Some
        { ad_diag =
            Diag.warn ~code:"PLAN310"
              ~hint:
                (match table with
                | Some t -> Printf.sprintf "ANALYZE %s" t
                | None -> "ANALYZE the involved base tables")
              (Printf.sprintf
                 "%s %s: estimated %.0f rows but observed %.0f (%.1fx off) — statistics no \
                  longer match the data"
                 what name est actual ratio);
          ad_edge = edge;
          ad_table = table }
    end
    else None
  in
  let node_drift =
    List.filter_map
      (fun (name, est) ->
        match List.assoc_opt name cache.Cache.c_nodes with
        | None -> None
        | Some ni ->
          check ~what:"component" ~name ~edge:None ~table:(table_of_node name) est
            (float_of_int (Cache.live_count ni)))
      rp.rp_nodes
  in
  let edge_drift =
    List.filter_map
      (fun ec ->
        match List.assoc_opt ec.ec_edge cache.Cache.c_edges with
        | None -> None
        | Some ei ->
          let table =
            List.find_map
              (fun (es : Translate.edge_shape) ->
                if es.Translate.es_name = ec.ec_edge then es.Translate.es_child_table else None)
              shapes
          in
          check ~what:"relationship" ~name:ec.ec_edge ~edge:(Some ec.ec_edge) ~table ec.ec_conns
            (float_of_int (List.length (Cache.conns_live ei))))
      rp.rp_edges
  in
  node_drift @ edge_drift

let install ?factor ?min_rows api =
  Api.set_drift_advisor api
    (Some
       (fun db plan cache ->
         List.map
           (fun a -> (a.ad_diag, a.ad_edge, a.ad_table))
           (drift ?factor ?min_rows db plan cache)))

(* ------------------------------------------------------------------ *)
(* EXPLAIN ADVISE / \advise                                           *)

(* Compose/translate failures carry "[CODE] message" prefixes; lift the
   code into the diagnostic when present. *)
let diag_of_failure msg =
  let code, text =
    if String.length msg > 2 && msg.[0] = '[' then
      match String.index_opt msg ']' with
      | Some i when i > 1 ->
        let rest = String.sub msg (i + 1) (String.length msg - i - 1) in
        (String.sub msg 1 (i - 1), String.trim rest)
      | _ -> ("XNF000", msg)
    else ("XNF000", msg)
  in
  Diag.err ~code text

let advise_text ?probe_threshold ?force_factor ?inversion_factor api text :
    (report, Diag.t list) result =
  match Xnf_parser.parse_stmt_diag text with
  | Error d -> Error [ d ]
  | Ok (Xnf_ast.X_query q) -> (
    (* A fresh compile, never the session's plan cache: advising must not
       touch cache order, hit counters or stored plans. *)
    match Fetch_plan.compile (Api.db api) (Api.registry api) q with
    | exception Translate.Translate_error msg -> Error [ diag_of_failure msg ]
    | exception Co_schema.Schema_error msg -> Error [ diag_of_failure msg ]
    | exception View_registry.View_error msg -> Error [ diag_of_failure msg ]
    | exception Db.Exec_error msg -> Error [ diag_of_failure msg ]
    | exception Binder.Bind_error msg -> Error [ diag_of_failure msg ]
    | exception Sql_lexer.Parse_error msg -> Error [ diag_of_failure msg ]
    | exception Catalog.Unknown_table t -> Error [ diag_of_failure ("unknown table: " ^ t) ]
    | plan ->
      let rp =
        analyze ?probe_threshold ?force_factor ?inversion_factor (Api.db api) plan
      in
      Api.add_advisories api ~source:"advise" ~query:(Fetch_plan.text plan) (entries rp);
      Ok rp)
  | Ok _ ->
    Error
      [ Diag.err ~code:"PLAN399" "EXPLAIN ADVISE expects an OUT OF ... TAKE query" ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)

let render rp =
  let b = Buffer.create 256 in
  Buffer.add_string b "Cost estimates:\n";
  List.iter (fun (n, est) -> Printf.bprintf b "  node %-20s est_rows=%.0f\n" n est) rp.rp_nodes;
  List.iter
    (fun ec ->
      Printf.bprintf b
        "  edge %-20s strategy=%s est_frontier=%.0f est_child=%.0f est_fanout=%.2f \
         est_conns=%.0f est_cost=%.0f best=%s(%.0f)\n"
        ec.ec_edge
        (Translate.strategy_name ec.ec_strategy)
        ec.ec_frontier ec.ec_child ec.ec_fanout ec.ec_conns ec.ec_cost
        (Translate.strategy_name ec.ec_best)
        ec.ec_best_cost)
    rp.rp_edges;
  Buffer.add_string b "Advisories:\n";
  (match rp.rp_advisories with
  | [] -> Buffer.add_string b "  (none)\n"
  | advs -> List.iter (fun a -> Printf.bprintf b "  %s\n" (Diag.to_string a.ad_diag)) advs);
  Buffer.contents b
