(** The XNF semantic rewrite and cache loader (§4.3 of the paper).

    Translation produces relational work per node and per relationship of
    the composed CO definition, observing reachability:

    - root extents are evaluated set-orientedly from their derivations;
    - reachability runs as a semi-naive delta fixpoint over the schema
      graph (DAGs converge in one topological sweep, recursive schemas
      iterate); the naive variant, selectable for the E6 ablation,
      re-probes every parent each round;
    - each relationship is served by a {!Prober}: its join key is
      analyzed once per plan and a prober compiled for every access path
      the key admits (index-nested-loop, batch hash, generic scan). This
      driver picks one per edge, opens it per execution, feeds it the
      round's frontier and may switch it between rounds;
    - a derived (non-simple) node's derivation runs through the relational
      engine once per fetch, and only when a root evaluation or a probe
      first needs it; its tuples are identified by extent index;
    - non-root extents are lazy: only reached tuples materialize;
    - connection extents are produced by the reachability probes
      themselves (the naive variant keeps its last round's);
    - path-based restrictions are evaluated on the instance, then
      reachability is re-established;
    - structural projection is evaluate-then-project. *)

open Relational

(** Raised for a composed definition that cannot be translated; the same
    exception as [Prober.Translate_error]. *)
exception Translate_error of string

type fixpoint = Semi_naive | Naive

(** Edge access paths, in static selection-priority order:
    index-nested-loop probe, batch hash probe, generic scan. The
    definition lives in [Relational.Edge_cost] — the shared cost model
    the planner and the static plan advisor both consult. *)
type strategy = Edge_cost.strategy = S_indexed | S_hash | S_generic

(** [strategy_name s] is the display name used by [EXPLAIN ANALYZE] and
    [\plans]: ["indexed"], ["hash-batch"] or ["generic"]. *)
val strategy_name : strategy -> string

(** Translation activity is counted in the process-global metrics
    registry ([Obs.Metrics]) only, under [xnf.translate.*]: [queries]
    (relational passes: root evaluations, derived extents, hash builds
    and probe batches), [rounds],
    [tuples_probed] (frontier sizes fed to edge probes),
    [candidates_scanned] (candidate rows the probes' sources handed out,
    before residual filtering),
    [indexed_probes] / [hash_edges] / [generic_probes] (edges compiled
    onto each access path), [hash_builds], [hash_build_reuses],
    [hash_probes], [cost_picks] and [strategy_switches]. Readers take
    deltas ([Obs.Metrics.since]). *)

(** {2 Adaptive mid-fixpoint fallback knobs}

    Between semi-naive rounds the executor compares observed
    frontier/connection/candidate-scan counters per edge against the
    plan's cost estimates and switches the edge's access path for
    subsequent rounds when they diverge beyond [adaptive_factor] (with at
    least [adaptive_min_rows] observed rows, so tiny instances never
    flap). Applies only to cost-picked, unforced plans; at most one
    switch per edge per execution. Process-global, like the optimizer
    toggles. *)

val set_adaptive_factor : float -> unit
val adaptive_factor : unit -> float
val set_adaptive_min_rows : int -> unit
val adaptive_min_rows : unit -> int

(** A compiled fetch plan for a composed CO definition: node shape
    analysis, output schemas, updatability analysis and per-edge
    access-path selection, all resolved once. One plan serves any number
    of executions (including concurrent parameter bindings); the only
    mutable state is the adaptive switch record, which executions append
    so later plan-cache hits start from the learned strategy. *)
type compiled

(** [compile_def ?take ?force db def] runs the input-independent
    "translate" phase: no base data is accessed. Access-path selection
    consults the catalog and indexes as of now — recompile when schema or
    indexes change. When every base table the plan reads has a fresh
    [ANALYZE] snapshot, each edge's strategy is picked per plan by the
    shared cost model ([Relational.Edge_cost]); with missing or stale
    stats selection falls back to the static priority rules
    (indexed > hash > generic). A USING table that does not exist raises
    [Translate_error] ([XNF005]). Passing the query's [take] (default
    [TAKE *]) also precomputes the final post-projection updatability
    analysis for {!finalize_plan}. [force] pins selection to one strategy
    (differential testing, per-strategy benches) and always wins over the
    cost model; edges the forced strategy cannot serve (it is not among
    their [Edge_cost.candidates]) fall back to the generic path. *)
val compile_def : ?take:Xnf_ast.take -> ?force:strategy -> Db.t -> Co_schema.t -> compiled

(** [edge_strategies cp] is the access path selected per relationship at
    compile time, in definition order. *)
val edge_strategies : compiled -> (string * strategy) list

(** One adaptive mid-fixpoint strategy switch recorded on a plan. *)
type switch_rec = {
  sw_edge : string;
  sw_from : strategy;
  sw_to : strategy;
  sw_round : int;  (** fixpoint round (1-based, per execution) after which it applied *)
}

(** [effective_strategies cp] is {!edge_strategies} with the adaptive
    switches recorded by the most recent execution applied — the access
    paths the next execution of this plan will start from. *)
val effective_strategies : compiled -> (string * strategy) list

(** [switches cp] lists the adaptive switches recorded on the plan,
    oldest first; at most one per edge (the latest execution wins). *)
val switches : compiled -> switch_rec list

(** [cost_based cp] is true when per-edge selection came from the shared
    cost model (fresh stats on every base table, no [?force]). *)
val cost_based : compiled -> bool

(** The structural join shape of one relationship as compiled: which base
    table the child resolves to, the equality join columns on either
    side, USING link bindings, and whether an index chain serves the
    probe. No closures, no data — read off the edge's one join-key
    analysis; [Edge_cost.candidates] over it is the edge's servability,
    and post-compile analysis (the static plan advisor,
    [Check.Plan_advisor]) reasons over it. *)
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

(** The derivation shape of one node: its base table and combined
    predicate when simple, and the composed derivation query. *)
type node_shape = Edge_cost.node_shape = {
  ns_name : string;
  ns_table : string option;
  ns_pred : Expr.t option;
  ns_query : Sql_ast.select;
}

(** [edge_shapes cp] is the structural join shape per relationship, in
    definition order. *)
val edge_shapes : compiled -> edge_shape list

(** [node_shapes cp] is the derivation shape per node, in definition
    order. *)
val node_shapes : compiled -> node_shape list

(** [node_access cp] is the base-table access path chosen per node, in
    definition order ([Scan] for a derivation that is not a simple
    base-table select: the relational engine evaluates those). *)
val node_access : compiled -> (string * Access_path.t) list

(** [forced cp] is the [?force] pin the plan was compiled under, if any. *)
val forced : compiled -> strategy option

(** [compiled_def cp] is the composed definition the plan was compiled
    from. *)
val compiled_def : compiled -> Co_schema.t

(** [base_tables cp] is the staleness-tracked base-table set (lowercased,
    sorted). *)
val base_tables : compiled -> string list

(** [execute_def ?fixpoint ?params db cp path_restrs] evaluates a compiled
    plan into a cache (before TAKE projection and final updatability
    analysis). [params] are substituted for the [?] parameter slots in
    node derivations, relationship predicates/attributes and SUCH THAT
    restrictions.
    @raise Invalid_argument when a slot index is out of range of [params]. *)
val execute_def :
  ?fixpoint:fixpoint ->
  ?params:Value.t array ->
  Db.t ->
  compiled ->
  Xnf_ast.restriction list ->
  Cache.t

(** [finalize db cache] applies column projection and the final
    relationship-updatability / locked-column analysis. *)
val finalize : Db.t -> Cache.t -> Cache.t

(** [finalize_plan db cp cache] is {!finalize} with the per-edge analysis
    read from the compiled plan (precomputed by [compile_def ~take])
    instead of re-derived per fetch. *)
val finalize_plan : Db.t -> compiled -> Cache.t -> Cache.t

(** [apply_take cache take] drops components not named by [take]
    (evaluate-then-project). *)
val apply_take : Cache.t -> Xnf_ast.take -> Cache.t
