(** Synthetic chain/hierarchy databases for the translation ablations
    (E5: common-subexpression sharing, E6: fixpoint strategy, E7: rewrite,
    E8: blocked delivery). *)

open Relational

(** [populate db ~seed ~depth ~n_roots ~fanout] creates tables
    [t0..t<depth>]: [n_roots] tagged roots (plus as many untagged ones) and
    [fanout] children per parent at every level, linked by foreign keys.
    [indexes:false] omits the FK indexes, so the translator probes edges
    through hash builds (E12) and the SQL route's joins need the rewrite
    to become hash joins (E7). *)
val populate : ?indexes:bool -> Db.t -> seed:int -> depth:int -> n_roots:int -> fanout:int -> unit

(** [co_query ~depth] is the XNF query extracting the tagged chain CO. *)
val co_query : depth:int -> string

(** [co_query_sel ~max_root ~depth] narrows the roots to [k0 < max_root]:
    the CO stays a fixed working set while the database scales (E12). *)
val co_query_sel : max_root:int -> depth:int -> string

(** [mgmt_chain db ~chain_len] builds an employee table forming one
    [chain_len]-long management chain — the recursive-CO workload. *)
val mgmt_chain : Db.t -> chain_len:int -> unit

(** The recursive CO over the management chain: the root plus the
    transitive 'manages' closure. *)
val mgmt_query : string

(** [mgmt_tree db ?indexes ~levels ~fanout] builds a complete [fanout]-ary
    management tree of [levels] levels under one root (the scalable
    recursive workload, bench E12); [indexes:false] omits the manager-FK
    index. Returns the employee count. *)
val mgmt_tree : ?indexes:bool -> Db.t -> levels:int -> fanout:int -> int
