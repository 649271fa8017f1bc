(* Prepared CO fetch plans (§4.3, compile-once).

   A fetch plan is the reusable half of evaluating an XNF query: the
   composed CO definition, its residual path-based restrictions, the TAKE
   clause, and the [Translate.compiled] form (node shape analysis,
   per-edge access-path selection). Compiling is pure analysis — no base
   data is touched — so one plan serves any number of executions,
   including parameterized ones ([?] slots bound at EXECUTE time).

   A plan is only as durable as what it was compiled against. Three
   version counters are recorded at compile time and checked before
   reuse: the XNF view-registry version (view redefinition changes
   composition), the catalog version (base-table / tabular-view DDL
   changes binding and shapes) and the global index epoch (index
   creation/drop changes access-path selection). Validation is the
   caller's job ([valid]); the plan itself is immutable apart from its
   hit counter. *)

open Relational
open Xnf_ast

type t = {
  fp_text : string;  (** canonical query text (re-parsable) *)
  fp_query : query;
  fp_def : Co_schema.t;  (** composed, pre-TAKE definition *)
  fp_compiled : Translate.compiled;
  fp_path_restrs : restriction list;
  fp_take : take;
  fp_nparams : int;  (** number of [?] parameter slots *)
  fp_reg_version : int;
  fp_catalog_version : int;
  fp_index_epoch : int;
  mutable fp_hits : int;  (** times this plan was served from a cache *)
}

let m_compiles = Obs.Metrics.counter "xnf.plan.compiles"

(** [compile db reg q] composes and compiles [q] into a plan, recording
    the registry/catalog/index versions it is valid against. *)
let compile db reg (q : query) : t =
  Obs.Metrics.incr m_compiles;
  let def, path_restrs, take =
    Obs.Trace.with_span "semantic" (fun () -> View_registry.compose reg q)
  in
  let compiled = Translate.compile_def ~take db def in
  { fp_text = Xnf_ast.query_to_string q;
    fp_query = q;
    fp_def = def;
    fp_compiled = compiled;
    fp_path_restrs = path_restrs;
    fp_take = take;
    fp_nparams = Xnf_ast.count_params_query q;
    fp_reg_version = View_registry.version reg;
    fp_catalog_version = Catalog.version (Db.catalog db);
    fp_index_epoch = Index.epoch ();
    fp_hits = 0 }

(** [valid db reg plan] holds when nothing the plan depends on has
    changed since compilation. *)
let valid db reg (plan : t) =
  plan.fp_reg_version = View_registry.version reg
  && plan.fp_catalog_version = Catalog.version (Db.catalog db)
  && plan.fp_index_epoch = Index.epoch ()

(** [execute ?fixpoint ?params db plan] runs the plan to a loaded cache:
    fixpoint evaluation, path restrictions, TAKE projection and final
    updatability analysis.
    @raise Invalid_argument on a parameter-count mismatch. *)
let execute ?fixpoint ?(params = [||]) db (plan : t) : Cache.t =
  if Array.length params <> plan.fp_nparams then
    invalid_arg
      (Printf.sprintf "prepared plan expects %d parameter(s), got %d" plan.fp_nparams
         (Array.length params));
  Obs.Trace.with_span "xnf.fetch" @@ fun () ->
  Translate.finalize_plan db plan.fp_compiled
    (Translate.apply_take
       (Translate.execute_def ?fixpoint ~params db plan.fp_compiled plan.fp_path_restrs)
       plan.fp_take)

let text plan = plan.fp_text
let query plan = plan.fp_query
let def plan = plan.fp_def
let compiled plan = plan.fp_compiled
let take plan = plan.fp_take
let path_restrs plan = plan.fp_path_restrs
let nparams plan = plan.fp_nparams
let hits plan = plan.fp_hits
let note_hit plan = plan.fp_hits <- plan.fp_hits + 1
let reg_version plan = plan.fp_reg_version
let catalog_version plan = plan.fp_catalog_version
let index_epoch plan = plan.fp_index_epoch

(** [strategies plan] is the access path selected per relationship at
    compile time. *)
let strategies plan = Translate.edge_strategies plan.fp_compiled

(** [effective_strategies plan] is {!strategies} with adaptive
    mid-fixpoint switches from the plan's most recent execution applied. *)
let effective_strategies plan = Translate.effective_strategies plan.fp_compiled

(** [switches plan] lists the adaptive strategy switches recorded on the
    plan (at most one per edge, latest execution wins). *)
let switches plan = Translate.switches plan.fp_compiled

(** [cost_based plan] is true when access-path selection came from the
    shared cost model (fresh stats on every base table, no [?force]). *)
let cost_based plan = Translate.cost_based plan.fp_compiled

(** [strategy_text plan edge] is [edge]'s access path as [\plans],
    [sys.plans] and EXPLAIN ANALYZE print it: the compiled pick, then
    [->to] when an adaptive switch is recorded. *)
let strategy_text plan edge =
  let s =
    match List.assoc_opt edge (strategies plan) with
    | Some s -> Translate.strategy_name s
    | None -> Translate.strategy_name Translate.S_generic
  in
  match List.find_opt (fun sw -> sw.Translate.sw_edge = edge) (switches plan) with
  | Some sw -> s ^ "->" ^ Translate.strategy_name sw.Translate.sw_to
  | None -> s

(** [describe plan] is a one-line summary for [\plans], including the
    selected per-edge access paths. *)
let describe plan =
  let strats =
    match strategies plan with
    | [] -> ""
    | ss -> " edges=" ^ String.concat "," (List.map (fun (n, _) -> n ^ ":" ^ strategy_text plan n) ss)
  in
  Printf.sprintf "params=%d hits=%d reg=v%d cat=v%d idx=e%d%s%s | %s" plan.fp_nparams plan.fp_hits
    plan.fp_reg_version plan.fp_catalog_version plan.fp_index_epoch
    (if cost_based plan then " cost" else "")
    strats plan.fp_text
