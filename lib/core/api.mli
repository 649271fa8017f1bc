(** The SQL/XNF application programming interface (Fig. 7 of the paper).

    One [Api.t] is a session against a shared relational database: plain
    SQL statements execute on the relational engine unchanged, XNF
    statements go through composition → semantic rewrite → relational
    execution → cache load. SQL applications and composite-object
    applications share the same data. *)

open Relational

type t

(** Result of executing one statement through {!exec}. *)
type outcome =
  | Fetched of Cache.t  (** an [OUT OF ... TAKE] query: the loaded CO *)
  | Co_deleted of int  (** [OUT OF ... DELETE]: number of base rows removed *)
  | Co_updated of int  (** [OUT OF ... UPDATE]: number of component tuples changed *)
  | View_defined of string
  | View_dropped of string
  | Prepared of string  (** [PREPARE name AS ...]: plan compiled and stored *)
  | Sql of Db.exec_result  (** a plain SQL statement's result *)

exception Api_error of string

(** [create db] opens an XNF session over [db]. *)
val create : Db.t -> t

(** [db api] is the underlying relational session. *)
val db : t -> Db.t

(** [registry api] is the XNF view registry. *)
val registry : t -> View_registry.t

(** [fetch ?fixpoint api q] evaluates a parsed XNF query into a cache
    (through the plan cache when enabled, never the result cache). *)
val fetch : ?fixpoint:Translate.fixpoint -> t -> Xnf_ast.query -> Cache.t

(** [fetch_string api text] parses and evaluates an [OUT OF ... TAKE]
    query (through the result cache and plan cache when enabled, both
    keyed by the trimmed text; [exec] of the same text shares them). *)
val fetch_string : t -> string -> Cache.t

(** [set_result_cache api n] enables an LRU cache of the last [n] fetch
    results, keyed by query text and validated before reuse: an entry whose
    base tables moved, or whose instance holds unsaved deferred {!Udi}
    edits, is dropped and refetched ({!Cache.stale}). [0] (the default)
    disables it. Hits/misses/evictions are counted as [xnf.fetchcache.*]
    in the metrics registry. *)
val set_result_cache : t -> int -> unit

(** [set_plan_cache api n] enables an LRU cache of the last [n] compiled
    fetch plans, keyed by query text and validated against the
    view-registry version, catalog version and index epoch recorded at
    compile time; [0] (the default) disables it, so every fetch compiles.
    DDL invalidates lazily on the next lookup. Activity is counted as [xnf.plancache.*] and
    compilations as [xnf.plan.compiles]. *)
val set_plan_cache : t -> int -> unit

(** [plans api] lists the cached (text, plan) pairs, most recently used
    first. *)
val plans : t -> (string * Fetch_plan.t) list

(** [prepared_plans api] lists PREPARE'd (name, plan) pairs, sorted. *)
val prepared_plans : t -> (string * Fetch_plan.t) list

(** [prepare api ~name q] compiles [q] and stores the plan under [name]
    (case-insensitive), replacing any previous plan of that name. *)
val prepare : t -> name:string -> Xnf_ast.query -> unit

(** [execute_prepared api name vals] runs a PREPARE'd plan with [vals]
    bound to its [?] parameter slots in lexical order; a plan invalidated
    by DDL since PREPARE is transparently recompiled.
    @raise Api_error on unknown names or parameter-count mismatches. *)
val execute_prepared : t -> string -> Value.t list -> Cache.t

(** [explain_analyze api text] runs [text] — an XNF [OUT OF ... TAKE]
    query or a SQL SELECT — under the instrumented executor and returns a
    report: the pipeline span tree with per-stage timings plus per-operator
    actual row counts. *)
val explain_analyze : t -> string -> string

(** [exec api text] parses and executes one statement — XNF or plain SQL. *)
val exec : t -> string -> outcome

(** {2 The session advisory log}

    Findings of the static plan advisor ([Check.Plan_advisor]) and the
    estimate-vs-actual drift detector, surfaced through the
    [sys.advisories] virtual view. Api cannot depend on the check layer,
    so the drift detector is injected as a hook. *)

(** One logged advisory: a diagnostic flattened to strings plus its
    source ("advise" or "drift"), the relationship/base table it concerns
    ("" when schema-level), and the fingerprint of the query it was
    raised for (joinable with [sys.statements]). *)
type advisory = {
  adv_seq : int;
  adv_source : string;
  adv_code : string;
  adv_severity : string;
  adv_edge : string;
  adv_table : string;
  adv_message : string;
  adv_hint : string;
  adv_fingerprint : string;
  adv_query : string;
  adv_at_ns : float;
}

(** [add_advisories api ~source ~query entries] appends [(diag, edge,
    table)] findings to the log (a ring capped at 256 entries). *)
val add_advisories :
  t -> source:string -> query:string -> (Diag.t * string option * string option) list -> unit

(** [advisories api] is the session advisory log, newest first. *)
val advisories : t -> advisory list

(** [clear_advisories api] empties the log. *)
val clear_advisories : t -> unit

(** [set_drift_advisor api f] installs (or removes, with [None]) the
    drift detector: while installed, every executed fetch runs [f db plan
    cache] afterwards and logs its findings with source ["drift"].
    Detector exceptions are swallowed — advice must never break a
    fetch. *)
val set_drift_advisor :
  t ->
  (Relational.Db.t -> Fetch_plan.t -> Cache.t -> (Diag.t * string option * string option) list)
  option ->
  unit

(** {2 Durability}

    With a data directory attached to the underlying {!Db.t}, the whole
    session — relational catalog and the XNF view registry — checkpoints
    and recovers as one unit. XNF view DDL travels as opaque [R_ext] WAL
    records and checkpoint sections; plain SQL state is handled by the
    relational layer. *)

(** [checkpoint api] snapshots the session into the data directory and
    truncates the WAL; returns the checkpoint LSN.
    @raise Relational.Db.Exec_error without a data dir or in a txn. *)
val checkpoint : t -> int

(** [recover api] rebuilds the session from the data directory: clears
    and replays the XNF view registry, drops the result cache, and runs
    relational recovery (cached fetch plans invalidate lazily via the
    bumped registry/catalog versions and index epoch).
    @raise Relational.Db.Exec_error without a data dir or in a txn. *)
val recover : t -> Relational.Db.recovery_stats

(** [session api cache] opens a manipulation session on a loaded CO. *)
val session : t -> Cache.t -> Udi.t

(** [fetch_count api] counts composite objects loaded this session. *)
val fetch_count : t -> int
