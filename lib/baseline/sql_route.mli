(** The paper's §4 rewrite as a reference evaluator: every node's
    derivation runs once through the relational engine into a temp
    table, and every relationship is computed per fixpoint round as one
    relational join of the round's parent tuples with the child's extent
    (and the USING table), planned by the engine — query rewrite
    included. Shares no code with [Xnf.Translate]'s probers, so the
    strategy differentials compare every access path against it.
    Supports recursive definitions. *)

open Relational

(** [fetch ?params db def] is [def]'s instance before path restrictions,
    TAKE and updatability analysis, with [params] substituted for the
    [?] slots; comparable with [Fuzz.Oracle.compare_caches].
    @raise Xnf.Translate.Translate_error ([XNF005]) when a USING table
    does not exist. *)
val fetch : ?params:Value.t array -> Db.t -> Xnf.Co_schema.t -> Xnf.Cache.t
