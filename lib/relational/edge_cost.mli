(** Shared edge-cost estimation: the one cost model both the planner
    ([Xnf.Translate.compile_def]'s per-edge access-path pick) and the
    static plan advisor ([Check.Plan_advisor]) consult, so advice and
    decision cannot disagree. Pure read-only estimation over the catalog
    and ANALYZE snapshots — no queries run, nothing is written. *)

(** Edge access paths, in static selection-priority order. *)
type strategy = S_indexed | S_hash | S_generic

(** Display names used by [EXPLAIN ANALYZE] and [\plans]: ["indexed"],
    ["hash-batch"], ["generic"]. *)
val strategy_name : strategy -> string

(** The structural join shape of one relationship as compiled — names
    only, no closures or data (re-exported by [Xnf.Translate]). *)
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

(** The derivation shape of one node (re-exported by [Xnf.Translate]). *)
type node_shape = {
  ns_name : string;
  ns_table : string option;
  ns_pred : Expr.t option;
  ns_query : Sql_ast.select;
}

(** Statistics health of one base table: the ANALYZE snapshot matches
    the live [Table.version] ([`Fresh]), lags it ([`Stale (snap, live)]),
    does not exist ([`Missing]), or the name is no base table at all
    ([`Unknown]). *)
type health = [ `Fresh | `Stale of int * int | `Missing | `Unknown ]

(** Per-analysis estimation context; memoizes health lookups so
    staleness verdicts and estimates agree within one pass. *)
type ctx

val mk_ctx : Db.t -> ctx
val health : ctx -> string -> health

(** [rows_est ctx table] is the planner-believed row count: ANALYZE
    snapshot first (even stale), live cardinality otherwise. *)
val rows_est : ctx -> string -> float

(** [ndv ctx table col] is the planner-believed NDV of one column,
    >= 1. *)
val ndv : ctx -> string -> string -> float

(** [key_ndv ctx table cols] estimates distinct combinations of [cols],
    bounded by the table's row count. *)
val key_ndv : ctx -> string -> string list -> float

(** [derivation_est ctx ns] is the estimated extent of one node's
    derivation. *)
val derivation_est : ctx -> node_shape -> float

(** [fanout_est ctx es ~child_est] estimates children per probing parent
    row. *)
val fanout_est : ctx -> edge_shape -> child_est:float -> float

(** Cost inputs of one edge, as estimated by {!annotate}. *)
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

(** [generic_scan ee] is the estimated candidate rows one generic probe
    scans: the whole child extent on an FK edge; on a USING edge the
    whole link table, each link row then reaching its children through
    the link-to-child key ([link + fanout]). *)
val generic_scan : edge_est -> float

(** [candidates es] are the strategies that can serve the edge, in
    static selection-priority order: indexed when [es_indexed], hash when
    the key has columns on both sides (over a derived child's extent
    too), generic always. The planner ([compile_def] and its adaptive re-pick) and the
    plan advisor all read servability from here. *)
val candidates : edge_shape -> strategy list

(** [cost_of ee ~frontier ~conns s] is the estimated row cost of serving
    the edge with [s]: indexed probes pay the frontier plus the larger
    of the connections produced and the candidate rows scanned; hash
    pays its build plus frontier plus connections; generic reads the
    build input and every frontier row scans {!generic_scan} candidate
    rows. [frontier]/[conns] are
    parameters so the adaptive runtime check can re-cost with observed
    counts. *)
val cost_of : edge_est -> frontier:float -> conns:float -> strategy -> float

(** [best ee ~candidates ~frontier ~conns] is the cheapest candidate and
    its cost; ties keep the earlier candidate (static priority order
    when [candidates] comes from {!candidates}). *)
val best :
  edge_est -> candidates:strategy list -> frontier:float -> conns:float -> strategy * float

(** [annotate ctx ~nodes ~shapes] estimates every node's reached extent
    and every edge's cost inputs, propagating reach along a topological
    order of the shape graph (derivation-estimate fallback on recursive
    schemas). *)
val annotate :
  ctx -> nodes:node_shape list -> shapes:edge_shape list -> (string * float) list * edge_est list
