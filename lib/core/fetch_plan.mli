(** Prepared CO fetch plans: an XNF query compiled once — composition,
    semantic analysis and access-path selection — and executed many
    times, optionally with [?] parameter values bound per execution.

    Plans are validated, not updated: three version counters recorded at
    compile time (XNF view registry, relational catalog, global index
    epoch) are compared by {!valid} before reuse, so any DDL that could
    change composition, binding or access-path selection lazily
    invalidates dependent plans. Plain DML does not invalidate a plan —
    executions always re-read base data. *)

open Relational

type t

(** [compile db reg q] composes and compiles [q], recording the versions
    it is valid against. Counted as [xnf.plan.compiles]. *)
val compile : Db.t -> View_registry.t -> Xnf_ast.query -> t

(** [valid db reg plan] holds when the registry version, catalog version
    and index epoch still match the plan's compile-time snapshot. *)
val valid : Db.t -> View_registry.t -> t -> bool

(** [execute ?fixpoint ?params db plan] evaluates the plan into a loaded
    cache; [params] bind the [?] slots in lexical order.
    @raise Invalid_argument on a parameter-count mismatch. *)
val execute :
  ?fixpoint:Translate.fixpoint -> ?params:Value.t array -> Db.t -> t -> Cache.t

(** [text plan] is the canonical (re-parsable) query text — the plan-cache
    key for parsed queries. *)
val text : t -> string

(** [query plan] is the parsed query the plan was compiled from (used to
    recompile after invalidation). *)
val query : t -> Xnf_ast.query

(** [def plan] is the composed (pre-TAKE) CO definition. *)
val def : t -> Co_schema.t

(** [compiled plan] is the compiled form — shapes and strategies for
    post-compile analysis ([Check.Plan_advisor]). *)
val compiled : t -> Translate.compiled

(** [take plan] is the query's TAKE clause. *)
val take : t -> Xnf_ast.take

(** [path_restrs plan] is the query's residual path-based restrictions. *)
val path_restrs : t -> Xnf_ast.restriction list

(** [nparams plan] is the number of [?] parameter slots. *)
val nparams : t -> int

(** [hits plan] counts cache hits served by this plan. *)
val hits : t -> int

(** [note_hit plan] records one cache hit. *)
val note_hit : t -> unit

(** The compile-time version snapshot (for the [sys.plans] view). *)

val reg_version : t -> int
val catalog_version : t -> int
val index_epoch : t -> int

(** [strategies plan] is the access path {!Translate.compile_def} selected
    for each relationship of the plan, in definition order. *)
val strategies : t -> (string * Translate.strategy) list

(** [effective_strategies plan] is {!strategies} with adaptive
    mid-fixpoint switches from the plan's most recent execution applied —
    what the next execution will start from. *)
val effective_strategies : t -> (string * Translate.strategy) list

(** [switches plan] lists the adaptive strategy switches recorded on the
    plan, oldest first (at most one per edge, latest execution wins). *)
val switches : t -> Translate.switch_rec list

(** [cost_based plan] is true when access-path selection came from the
    shared cost model (fresh ANALYZE stats on every base table, no
    [?force]). *)
val cost_based : t -> bool

(** [strategy_text plan edge] renders [edge]'s access path for [\plans],
    [sys.plans] and [EXPLAIN ANALYZE]: the compiled pick's
    {!Translate.strategy_name}, followed by [->] and the switched-to
    strategy when the plan records an adaptive switch for the edge. An
    edge the plan does not know renders as ["generic"]. *)
val strategy_text : t -> string -> string

(** [describe plan] is a one-line summary (parameters, hits, version
    snapshot, query text) for the shell's [\plans] listing. *)
val describe : t -> string
