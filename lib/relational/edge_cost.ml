(* Shared edge-cost estimation.

   One cost model serves two callers that must never disagree: the
   planner ([Xnf.Translate.compile_def] picks an access path per
   relationship edge from fresh ANALYZE snapshots) and the static plan
   advisor ([Check.Plan_advisor] annotates compiled plans and raises
   PLAN3xx findings against the same numbers). Everything here is pure
   read-only estimation over the catalog — no queries run, nothing is
   written.

   The model is deliberately coarse (uniform keys, independence, fixed
   default selectivities): base cardinalities and NDVs come from the
   last ANALYZE snapshot when one exists — even a stale one — and fall
   back to live table state otherwise. The planner only trusts the
   numbers when every base table's snapshot is fresh; the advisor reads
   them unconditionally so the PLAN310 drift check reflects recorded
   statistics. *)

let lc = String.lowercase_ascii

(** Edge access paths, in static selection-priority order. *)
type strategy = S_indexed | S_hash | S_generic

let strategy_name = function
  | S_indexed -> "indexed"
  | S_hash -> "hash-batch"
  | S_generic -> "generic"

(* ---- structural shapes ----

   The join structure of each relationship and the derivation shape of
   each node, as extracted by [Xnf.Translate] at compile time (which
   re-exports these types). Shapes carry no closures or data, only
   names: both the planner's pick and the advisor's analysis reason over
   them without executing anything. *)

type edge_shape = {
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

type node_shape = {
  ns_name : string;
  ns_table : string option;  (** base table when the derivation is simple *)
  ns_pred : Expr.t option;  (** combined simple predicate over the base row *)
  ns_query : Sql_ast.select;  (** the (composed) derivation *)
}

(* ---- estimation context ---- *)

type health = [ `Fresh | `Stale of int * int | `Missing | `Unknown ]

(* Per-analysis context: memoizes snapshot-health lookups so staleness
   verdicts (PLAN304, the planner's all-fresh gate) and the estimates
   agree within one pass. *)
type ctx = { cx_db : Db.t; cx_health : (string, health) Hashtbl.t }

let mk_ctx db = { cx_db = db; cx_health = Hashtbl.create 8 }

let health ctx name : health =
  let key = lc name in
  match Hashtbl.find_opt ctx.cx_health key with
  | Some h -> h
  | None ->
    let cat = Db.catalog ctx.cx_db in
    let h =
      match Catalog.table_opt cat key with
      | None -> `Unknown (* tabular view or vanished table: nothing to say *)
      | Some tbl -> (
        match Catalog.stats_opt cat key with
        | None -> `Missing
        | Some st ->
          if st.Stats.ts_version = Table.version tbl then `Fresh
          else `Stale (st.Stats.ts_version, Table.version tbl))
    in
    Hashtbl.replace ctx.cx_health key h;
    h

(* Planner-believed row count: ANALYZE snapshot first (even stale),
   live cardinality otherwise. *)
let rows_est ctx name =
  let cat = Db.catalog ctx.cx_db in
  match Catalog.stats_opt cat (lc name) with
  | Some st -> float_of_int st.Stats.ts_rowcount
  | None -> (
    match Catalog.table_opt cat (lc name) with
    | Some t -> float_of_int (Table.cardinality t)
    | None -> 0.)

(* Planner-believed NDV of one column, >= 1. *)
let ndv ctx name col =
  let cat = Db.catalog ctx.cx_db in
  let snapshot =
    match Catalog.stats_opt cat (lc name) with
    | Some st ->
      Array.fold_left
        (fun acc (cs : Stats.col_stats) -> if cs.Stats.cs_name = lc col then Some cs.Stats.cs_ndv else acc)
        None st.Stats.ts_cols
    | None -> None
  in
  let n =
    match snapshot with
    | Some n -> n
    | None -> (
      match Catalog.table_opt cat (lc name) with
      | None -> 1
      | Some t -> (
        match Schema.find_opt (Table.schema t) (lc col) with
        | Some i -> Table.distinct_estimate t i
        | None -> 1))
  in
  float_of_int (max 1 n)

(* Distinct combinations of [cols], bounded by the table's row count. *)
let key_ndv ctx name cols =
  let rows = Float.max 1. (rows_est ctx name) in
  let product = List.fold_left (fun acc c -> acc *. ndv ctx name c) 1. cols in
  Float.max 1. (Float.min rows product)

(* Estimated extent of one node's derivation. Simple nodes scale the
   base cardinality by the predicate's estimated selectivity; composed
   derivations go through the relational cost model. *)
let derivation_est ctx (ns : node_shape) =
  let cat = Db.catalog ctx.cx_db in
  match ns.ns_table with
  | Some t ->
    let base = rows_est ctx t in
    let sel =
      match ns.ns_pred with
      | None -> 1.
      | Some pred -> (
        try
          let access = Qgm.Access { table = lc t; alias = lc t } in
          let unfiltered = Float.max 1. (Cost.estimate cat access) in
          Cost.estimate cat (Qgm.Select { input = access; pred }) /. unfiltered
        with _ -> 0.1)
    in
    Float.max 0. (base *. sel)
  | None -> ( try Cost.estimate cat (Db.bind_select ctx.cx_db ns.ns_query) with _ -> 0.)

(* Estimated children per probing parent row. *)
let fanout_est ctx (es : edge_shape) ~child_est =
  match (es.es_child_table, es.es_using) with
  | Some ct, Some (link, lcols) when es.es_child_cols <> [] ->
    let link_fan = rows_est ctx link /. key_ndv ctx link lcols in
    let child_fan = child_est /. key_ndv ctx ct es.es_child_cols in
    link_fan *. child_fan
  | Some ct, None when es.es_child_cols <> [] ->
    child_est /. key_ndv ctx ct es.es_child_cols
  | _ ->
    (* No equality key extracted: default join selectivity of 10%. *)
    child_est *. 0.1

(* Candidate rows one index probe scans before residual filtering.

   The indexed FK prober keys on ONE join column — the first equality
   conjunct whose child column carries a single-column index — and
   filters the remaining key conjuncts as residuals. When the key is
   composite that per-probe bucket ([rows / ndv(probe col)]) can far
   exceed the edge's true fanout ([rows / ndv(all cols)]), which is
   exactly the case where a hash build over the full composite key
   wins. USING chains probe on the whole bound key; their scan
   approximates the fanout itself. *)
let cand_fanout ctx (es : edge_shape) ~fanout =
  match (es.es_child_table, es.es_using) with
  | Some ct, None when es.es_child_cols <> [] -> begin
    let cat = Db.catalog ctx.cx_db in
    match Catalog.table_opt cat (lc ct) with
    | None -> fanout
    | Some t -> begin
      let probe_col =
        List.find_opt
          (fun c ->
            match Schema.find_opt (Table.schema t) (lc c) with
            | Some i -> Table.find_index t ~cols:[| i |] <> None
            | None -> false)
          es.es_child_cols
      in
      match probe_col with
      | Some c -> rows_est ctx ct /. ndv ctx ct c
      | None -> fanout
    end
  end
  | _ -> fanout

(* ---- per-edge estimates and costs ---- *)

type edge_est = {
  ee_edge : string;
  ee_frontier : float;  (** est. parent rows probing this edge *)
  ee_child : float;  (** est. child derivation extent *)
  ee_fanout : float;  (** est. children per probing parent row *)
  ee_conns : float;  (** est. connections produced ([frontier * fanout]) *)
  ee_build : float;  (** est. hash build input (child + link extents) *)
  ee_cand_fan : float;  (** est. candidate rows scanned per index probe *)
  ee_link : float option;  (** est. link table rows, on a USING edge *)
}

(** [candidates es] are the strategies that can serve the edge, in
    static selection-priority order — the one servability definition the
    planner, the adaptive re-pick and the advisor share. Hash needs
    key columns on both sides (a USING edge whose link binds no parent
    column has no probe key); a derived child is hashed over its
    materialized extent. *)
let candidates (es : edge_shape) : strategy list =
  (if es.es_indexed then [ S_indexed ] else [])
  @ (if es.es_parent_cols <> [] && es.es_child_cols <> [] then [ S_hash ] else [])
  @ [ S_generic ]

(* Generic keys nothing on the parent side: every frontier row scans the
   whole child (FK edge) or the whole link table, whose rows reach their
   children through the link-to-child key (USING edge). A USING edge with
   no link-to-child equality scans link x child per probe; the estimate
   does not model that shape. *)
let generic_scan (ee : edge_est) =
  match ee.ee_link with None -> ee.ee_child | Some link -> link +. ee.ee_fanout

(** [cost_of ee ~frontier ~conns s] is the estimated row cost of serving
    the edge with [s], parameterized over the frontier/connection counts
    so the adaptive runtime check can re-cost with observed numbers.
    Generic reads the hash build's input and every frontier row scans
    [generic_scan] candidates; a hash build pays that input once per
    table version and a probe only its matches. *)
let cost_of (ee : edge_est) ~frontier ~conns = function
  | S_indexed -> frontier +. Float.max conns (frontier *. Float.max 1. ee.ee_cand_fan)
  | S_hash -> ee.ee_build +. frontier +. conns
  | S_generic -> ee.ee_build +. (frontier *. Float.max 1. (generic_scan ee))

(** [best ee ~candidates ~frontier ~conns] is the cheapest candidate and
    its cost. Ties keep the earlier candidate, i.e. the static
    priority order when [candidates] comes from {!candidates}. *)
let best (ee : edge_est) ~candidates ~frontier ~conns : strategy * float =
  match candidates with
  | [] -> (S_generic, cost_of ee ~frontier ~conns S_generic)
  | c :: cs ->
    List.fold_left
      (fun (bs, bc) s ->
        let x = cost_of ee ~frontier ~conns s in
        if x < bc then (s, x) else (bs, bc))
      (c, cost_of ee ~frontier ~conns c)
      cs

(* Kahn topological order over the shape graph (the advisor and planner
   see the same definition through its shapes). [None] on a cycle —
   recursive schemas have no topo order. *)
let topo_order ~(nodes : node_shape list) ~(shapes : edge_shape list) : string list option =
  let names = List.map (fun ns -> ns.ns_name) nodes in
  let indeg = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace indeg n 0) names;
  List.iter
    (fun es ->
      match Hashtbl.find_opt indeg es.es_child with
      | Some d -> Hashtbl.replace indeg es.es_child (d + 1)
      | None -> ())
    shapes;
  let out = ref [] in
  let remaining = ref names in
  let progress = ref true in
  while !remaining <> [] && !progress do
    let ready, rest = List.partition (fun n -> Hashtbl.find indeg n = 0) !remaining in
    progress := ready <> [];
    List.iter
      (fun n ->
        out := n :: !out;
        List.iter
          (fun es ->
            if es.es_parent = n then
              match Hashtbl.find_opt indeg es.es_child with
              | Some d -> Hashtbl.replace indeg es.es_child (d - 1)
              | None -> ())
          shapes)
      ready;
    remaining := rest
  done;
  if !remaining = [] then Some (List.rev !out) else None

(** [annotate ctx ~nodes ~shapes] estimates every node's reached extent
    and every edge's cost inputs: per-node derivation estimates, then
    reached-extent propagation in topological order (roots keep their
    derivation estimate; a child's reached extent is bounded by its
    derivation and by the connections arriving over incoming edges).
    Recursive schemas have no topo order — fall back to derivation
    estimates, which over-approximate the fixpoint's reach. *)
let annotate ctx ~(nodes : node_shape list) ~(shapes : edge_shape list) :
    (string * float) list * edge_est list =
  let der = List.map (fun ns -> (ns.ns_name, derivation_est ctx ns)) nodes in
  let der_of n = try List.assoc n der with Not_found -> 0. in
  let reached = Hashtbl.create 8 in
  let reached_of n = Option.value ~default:(der_of n) (Hashtbl.find_opt reached n) in
  (match topo_order ~nodes ~shapes with
  | None -> List.iter (fun (n, e) -> Hashtbl.replace reached n e) der
  | Some order ->
    List.iter
      (fun n ->
        let est =
          match List.filter (fun es -> es.es_child = n) shapes with
          | [] -> der_of n
          | inc ->
            let arriving =
              List.fold_left
                (fun acc es ->
                  acc +. (reached_of es.es_parent *. fanout_est ctx es ~child_est:(der_of n)))
                0. inc
            in
            Float.min (der_of n) arriving
        in
        Hashtbl.replace reached n est)
      order);
  let node_ests = List.map (fun ns -> (ns.ns_name, reached_of ns.ns_name)) nodes in
  let edge_ests =
    List.map
      (fun es ->
        let frontier = reached_of es.es_parent in
        let child = der_of es.es_child in
        let fanout = fanout_est ctx es ~child_est:child in
        let link = Option.map (fun (link, _) -> rows_est ctx link) es.es_using in
        { ee_edge = es.es_name; ee_frontier = frontier; ee_child = child; ee_fanout = fanout;
          ee_conns = frontier *. fanout; ee_build = child +. Option.value ~default:0. link;
          ee_cand_fan = cand_fanout ctx es ~fanout; ee_link = link })
      shapes
  in
  (node_ests, edge_ests)
