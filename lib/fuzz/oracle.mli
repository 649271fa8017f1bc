(** Differential oracles: execute a rendered scenario through the full
    pipeline and cross-check against every oracle that supports the
    composed definition — naive fixpoint, unshared per-node derivation,
    LW90 instantiation, structural invariants, lint cleanliness, and
    metamorphic properties (restriction monotonicity, TAKE commutation,
    result-cache refetch). *)

open Relational
open Xnf

(** A deliberate defect injected into the system-under-test caches after
    loading; the harness must report at least one divergence. *)
type mutation =
  | Drop_conn
  | Drop_tuple
  | Dict_swap  (** corrupt one encoded cell to a different valid dictionary id *)

val mutation_name : mutation -> string
val mutation_of_string : string -> mutation option

type divergence = { d_kind : string; d_detail : string }

(** Which schema/query features the case exercised and which oracles
    actually compared — coverage accounting for the driver. *)
type flags = {
  f_recursive : bool;
  f_sharing : bool;
  f_views : bool;
  f_using : bool;
  f_paths : bool;
  f_naive : bool;  (** unshared-derivation oracle compared *)
  f_lw90 : bool;
  f_mono : bool;  (** monotonicity property compared *)
  f_hash : bool;  (** strategy differential compared a batch-hash run *)
  f_adaptive : bool;  (** adaptive differential saw a mid-fixpoint switch fire *)
  f_advise : bool;  (** the plan-advisor purity guard ran *)
  f_dict : bool;  (** the dictionary round-trip oracle compared the instance *)
  f_noindex : bool;  (** the index-free differential compared an index-driven root *)
  f_derived : bool;  (** a relationship reached a derived (non-simple) child *)
  f_generic : bool;  (** the unforced plan served some edge generic *)
  f_mutated : bool;  (** the injected mutation found something to break *)
}

val no_flags : flags

type outcome = { o_divs : divergence list; o_flags : flags }

(** [run ?advise ?mutation ?extra_restr sc] executes [sc] on a fresh
    database and API session and returns every divergence found.
    [extra_restr] (a strengthening restriction) enables the monotonicity
    check when all of the query's path restrictions are monotone.
    [advise] additionally runs the static plan advisor over the compiled
    plan and checks it is pure: it never raises, reports the same
    advisory set for a cold-compiled plan and a plan-cache hit, and
    perturbs neither fetch results nor cache validity. *)
val run :
  ?advise:bool -> ?mutation:mutation -> ?extra_restr:Xnf_ast.restriction -> Gen.scenario -> outcome

(** {2 Comparators}

    Exposed for reuse by hand-written conformance tests. *)

(** [node_extent cache name] is the sorted live extent of a component. *)
val node_extent : Cache.t -> string -> Row.t list

(** [conn_extent ?attrs cache name] is the sorted live connection set as
    parent-row ++ child-row (++ attribute-row unless [attrs] is false). *)
val conn_extent : ?attrs:bool -> Cache.t -> string -> Row.t list

(** [compare_caches a b] is [None] when both instances have the same
    components, extents and connection sets, else a description of the
    first difference. *)
val compare_caches : Cache.t -> Cache.t -> string option

(** [subset_caches a b] checks [a] is a sub-instance of [b]. *)
val subset_caches : Cache.t -> Cache.t -> string option

(** [check_conn_liveness cache] verifies every live connection joins two
    live tuples (valid on any instance). *)
val check_conn_liveness : Cache.t -> string option

(** [check_reachability cache] verifies every live tuple of a non-root
    component has a live incoming connection. Only valid on pre-TAKE
    instances: evaluate-then-project may drop a kept tuple's justifying
    relationship. *)
val check_reachability : Cache.t -> string option

(** [monotone_restrictions rs] holds when strengthening the query cannot
    grow the instance: every path atom in [rs] appears in positive
    polarity and COUNT(path) only as a lower bound. *)
val monotone_restrictions : Xnf_ast.restriction list -> bool

(** [apply_mutation m cache] injects [m]; [false] when the cache has
    nothing to break (e.g. no live connections). *)
val apply_mutation : mutation -> Cache.t -> bool
