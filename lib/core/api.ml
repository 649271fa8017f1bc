(* The SQL/XNF application programming interface (Fig. 7).

   One [Api.t] is a session against a shared relational database: plain
   SQL statements execute on the relational engine unchanged, XNF
   statements go through composition → semantic rewrite → relational
   execution → cache load. The same database is freely shared between SQL
   applications and XNF applications — the central architectural claim of
   the paper. *)

open Relational

(** One advisory in the session log (the [sys.advisories] view): a
    {!Diag.t} flattened to strings, stamped with its source ("advise" for
    static analysis, "drift" for estimate-vs-actual divergence), the
    relationship and base table it concerns (empty when schema-level) and
    the fingerprint of the query it was raised for — joinable with
    [sys.statements]. *)
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

type t = {
  db : Db.t;
  reg : View_registry.t;
  mutable fetch_count : int;  (** composite objects loaded this session *)
  mutable rc_cap : int;  (** fetch-result cache capacity; 0 = disabled *)
  mutable rc : (string * Cache.t) list;  (** MRU-first result cache *)
  mutable pc_cap : int;  (** fetch-plan cache capacity; 0 = disabled *)
  mutable pc : (string * Fetch_plan.t) list;  (** MRU-first plan cache *)
  prepared : (string, Fetch_plan.t) Hashtbl.t;  (** PREPARE'd plans by name *)
  mutable advisories : advisory list;  (** newest first, capped ring *)
  mutable adv_next : int;
  mutable drift_advisor :
    (Db.t -> Fetch_plan.t -> Cache.t -> (Diag.t * string option * string option) list) option;
      (** injected by the check layer ([Check.Plan_advisor.install]): Api
          cannot depend on [check], so the estimate-vs-actual drift
          detector arrives as a hook fired after every executed fetch *)
  mutable xnf_log : string list;
      (** re-parsable XNF view-DDL statements, newest first: the session's
          durable history, logged to the WAL as [R_ext] records and
          carried whole in checkpoint sections so recovery can replay
          definition-time view composition in original order *)
}

(** Result of executing one statement through [exec]. *)
type outcome =
  | Fetched of Cache.t  (** an OUT OF ... TAKE query: the loaded CO *)
  | Co_deleted of int  (** OUT OF ... DELETE: number of base rows removed *)
  | Co_updated of int  (** OUT OF ... UPDATE: number of component tuples changed *)
  | View_defined of string
  | View_dropped of string
  | Prepared of string  (** PREPARE name AS ...: plan compiled and stored *)
  | Sql of Db.exec_result  (** a plain SQL statement's result *)

exception Api_error of string

let err fmt = Fmt.kstr (fun s -> raise (Api_error s)) fmt

let m_fetches = Obs.Metrics.counter "xnf.fetches"
let m_rc_hits = Obs.Metrics.counter "xnf.fetchcache.hits"
let m_rc_misses = Obs.Metrics.counter "xnf.fetchcache.misses"
let m_rc_evictions = Obs.Metrics.counter "xnf.fetchcache.evictions"
let m_pc_hits = Obs.Metrics.counter "xnf.plancache.hits"
let m_pc_misses = Obs.Metrics.counter "xnf.plancache.misses"
let m_pc_invalidations = Obs.Metrics.counter "xnf.plancache.invalidations"
let m_pc_evictions = Obs.Metrics.counter "xnf.plancache.evictions"

(* ---- per-statement statistics ----

   Every public text entry point ([exec], [fetch_string]) and the parsed
   [fetch] run through [recording], which folds the execution into the
   {!Obs.Query_stats} aggregate keyed by the statement fingerprint
   (literals normalized to [?]) — exception-safely, so failed statements
   count as errors. Cache-hit/miss and hash-probe attribution is by
   before/after deltas of the global counters, exact in this
   single-threaded engine. *)

let snap_hits () =
  Obs.Metrics.counter_get "xnf.fetchcache.hits" + Obs.Metrics.counter_get "xnf.plancache.hits"

let snap_misses () =
  Obs.Metrics.counter_get "xnf.fetchcache.misses"
  + Obs.Metrics.counter_get "xnf.plancache.misses"

let snap_probes () = Obs.Metrics.counter_get "xnf.translate.hash_probes"

(* syntactic classification for the error path, where no outcome exists
   to inspect *)
let kind_of_text text =
  let up = String.uppercase_ascii (String.trim text) in
  let starts p = String.length up >= String.length p && String.sub up 0 (String.length p) = p in
  if starts "OUT" || starts "PREPARE" || starts "EXECUTE" || starts "CREATE XNF" then "xnf"
  else "sql"

let recording text ~kind_of ~rows_of f =
  let text = String.trim text in
  let fingerprint = Sql_lexer.fingerprint text in
  let t0 = Obs.Metrics.now_ns () in
  let h0 = snap_hits () and m0 = snap_misses () and p0 = snap_probes () in
  let finish kind rows error =
    Obs.Query_stats.record ~kind ~fingerprint ~text
      ~elapsed_ns:(Obs.Metrics.now_ns () -. t0)
      ~rows ~error ~cache_hits:(snap_hits () - h0) ~cache_misses:(snap_misses () - m0)
      ~hash_probes:(snap_probes () - p0)
  in
  match f () with
  | v ->
    finish (kind_of v) (rows_of v) false;
    v
  | exception e ->
    finish (kind_of_text text) 0 true;
    raise e

(* ---- the core-layer sys.* views ----

   [sys.plans] and [sys.fetch_cache] see session state (the plan and
   result caches) the relational layer cannot, so they are registered
   here rather than in {!Sys_catalog}. Like all virtual tables they are
   materialized per reference and never bump the catalog version. *)

let sys_make ~name cols rows =
  let t = Table.create ~name (Schema.make cols) in
  List.iter (fun r -> ignore (Table.insert t r)) rows;
  t

let sys_plans api () =
  (* prune invalidated cached plans eagerly, exactly as a lookup would —
     an invalidated plan's row disappears rather than showing stale *)
  api.pc <-
    List.filter
      (fun (_, p) ->
        let ok = Fetch_plan.valid api.db api.reg p in
        if not ok then Obs.Metrics.incr m_pc_invalidations;
        ok)
      api.pc;
  let row source name p =
    let edges =
      String.concat ","
        (List.map (fun (n, _) -> n ^ "=" ^ Fetch_plan.strategy_text p n) (Fetch_plan.strategies p))
    in
    [| Value.Str source; Value.Str name; Value.Int (Fetch_plan.nparams p);
       Value.Int (Fetch_plan.hits p); Value.Bool (Fetch_plan.valid api.db api.reg p);
       Value.Int (Fetch_plan.reg_version p); Value.Int (Fetch_plan.catalog_version p);
       Value.Int (Fetch_plan.index_epoch p); Value.Str edges;
       Value.Str (Fetch_plan.text p) |]
  in
  let cached = List.map (fun (key, p) -> row "cache" key p) api.pc in
  let prepped =
    List.map
      (fun (name, p) -> row "prepared" name p)
      (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) api.prepared []))
  in
  sys_make ~name:"sys.plans"
    [ Schema.column "source" Schema.Ty_string; Schema.column "name" Schema.Ty_string;
      Schema.column "params" Schema.Ty_int; Schema.column "hits" Schema.Ty_int;
      Schema.column "valid" Schema.Ty_bool; Schema.column "reg_version" Schema.Ty_int;
      Schema.column "catalog_version" Schema.Ty_int;
      Schema.column "index_epoch" Schema.Ty_int; Schema.column "edges" Schema.Ty_string;
      Schema.column "text" Schema.Ty_string ]
    (cached @ prepped)

let m_advisories = Obs.Metrics.counter "xnf.advisor.logged"

let advisory_cap = 256

(** [add_advisories api ~source ~query entries] appends [(diag, edge,
    table)] findings to the session advisory log (surfaced by
    [sys.advisories]), fingerprinting [query] for the join with
    [sys.statements]. The log is a ring capped at 256 entries. *)
let add_advisories api ~source ~query entries =
  if entries <> [] then begin
    let fingerprint = Sql_lexer.fingerprint query in
    let at = Obs.Metrics.now_ns () in
    List.iter
      (fun ((d : Diag.t), edge, table) ->
        api.adv_next <- api.adv_next + 1;
        Obs.Metrics.incr m_advisories;
        api.advisories <-
          { adv_seq = api.adv_next; adv_source = source; adv_code = d.Diag.code;
            adv_severity = Diag.severity_to_string d.Diag.severity;
            adv_edge = Option.value ~default:"" edge;
            adv_table = Option.value ~default:"" table; adv_message = d.Diag.message;
            adv_hint = Option.value ~default:"" d.Diag.hint; adv_fingerprint = fingerprint;
            adv_query = query; adv_at_ns = at }
          :: api.advisories)
      entries;
    if List.length api.advisories > advisory_cap then
      api.advisories <- List.filteri (fun i _ -> i < advisory_cap) api.advisories
  end

(** [advisories api] is the session advisory log, newest first. *)
let advisories api = api.advisories

(** [clear_advisories api] empties the log (sequence numbers keep
    rising). *)
let clear_advisories api = api.advisories <- []

(** [set_drift_advisor api f] installs (or, with [None], removes) the
    estimate-vs-actual drift detector. While installed, every executed
    fetch runs [f db plan cache] afterwards and logs its findings with
    source ["drift"]. Detector exceptions are swallowed — advice must
    never break a fetch. *)
let set_drift_advisor api f = api.drift_advisor <- f

let record_drift api plan cache =
  match api.drift_advisor with
  | None -> ()
  | Some f ->
    let entries = try f api.db plan cache with _ -> [] in
    add_advisories api ~source:"drift" ~query:(Fetch_plan.text plan) entries

let sys_advisories api () =
  let rows =
    List.rev_map
      (fun (a : advisory) ->
        [| Value.Int a.adv_seq; Value.Str a.adv_source; Value.Str a.adv_code;
           Value.Str a.adv_severity; Value.Str a.adv_edge; Value.Str a.adv_table;
           Value.Str a.adv_message; Value.Str a.adv_hint; Value.Str a.adv_fingerprint;
           Value.Str a.adv_query; Value.Float (a.adv_at_ns /. 1e9) |])
      api.advisories
  in
  sys_make ~name:"sys.advisories"
    [ Schema.column "seq" Schema.Ty_int; Schema.column "source" Schema.Ty_string;
      Schema.column "code" Schema.Ty_string; Schema.column "severity" Schema.Ty_string;
      Schema.column "edge" Schema.Ty_string; Schema.column "table_name" Schema.Ty_string;
      Schema.column "message" Schema.Ty_string; Schema.column "hint" Schema.Ty_string;
      Schema.column "fingerprint" Schema.Ty_string; Schema.column "query_text" Schema.Ty_string;
      Schema.column "at_s" Schema.Ty_float ]
    rows

let sys_fetch_cache api () =
  let rows =
    List.map
      (fun (key, cache) ->
        [| Value.Str key; Value.Int (Cache.total_tuples cache);
           Value.Int (Cache.total_conns cache);
           Value.Bool (Cache.stale cache api.db) |])
      api.rc
  in
  (* "cache_key", not "key": KEY is a SQL keyword (PRIMARY KEY) and
     would be unselectable *)
  sys_make ~name:"sys.fetch_cache"
    [ Schema.column "cache_key" Schema.Ty_string; Schema.column "tuples" Schema.Ty_int;
      Schema.column "conns" Schema.Ty_int; Schema.column "stale" Schema.Ty_bool ]
    rows

(* ---- XNF view durability ----

   The view registry composes imports at definition time, so the current
   registry state cannot generally be rebuilt from the surviving views'
   texts alone (a view may import another that was later dropped). The
   durable form is therefore the ordered DDL history: each CREATE/DROP of
   an XNF view is logged to the WAL as an [R_ext {tag="xnf"}] record and
   the whole history rides in one checkpoint section per statement.
   Recovery clears the registry and replays the history in order. *)

let ext_tag = "xnf"

(* apply one recovered XNF DDL statement to the registry. Damage-tolerant:
   recovery must never raise, and divergence is what the crash oracle's
   digest comparison exists to catch. *)
let apply_logged api payload =
  (try
     match Xnf_parser.parse_stmt payload with
     | Xnf_ast.X_create_view (name, q) -> View_registry.define api.reg ~name q
     | Xnf_ast.X_drop_view name ->
       if View_registry.find_opt api.reg name <> None then View_registry.drop api.reg name
     | _ -> ()
   with _ -> ());
  api.xnf_log <- payload :: api.xnf_log

(* record one live XNF DDL statement: WAL first, then the session log *)
let log_xnf api (stmt : Xnf_ast.stmt) =
  let payload = Xnf_ast.stmt_to_string stmt in
  Txn.log_meta (Db.txn api.db) (Wal.R_ext { tag = ext_tag; payload });
  api.xnf_log <- payload :: api.xnf_log

(** [create db] opens an XNF session over [db], registers the
    session-level [sys.plans] / [sys.fetch_cache] views on its catalog,
    and wires XNF view durability into [db]'s checkpoint/recovery hooks
    (any XNF view DDL recovered before this call is applied now). *)
let create db =
  let api =
    { db; reg = View_registry.create (); fetch_count = 0; rc_cap = 0; rc = []; pc_cap = 0;
      pc = []; prepared = Hashtbl.create 8; advisories = []; adv_next = 0; drift_advisor = None;
      xnf_log = [] }
  in
  Catalog.register_virtual (Db.catalog db) ~name:"sys.plans" (sys_plans api);
  Catalog.register_virtual (Db.catalog db) ~name:"sys.fetch_cache" (sys_fetch_cache api);
  Catalog.register_virtual (Db.catalog db) ~name:"sys.advisories" (sys_advisories api);
  Db.set_checkpoint_extra db
    (Some (fun () -> List.rev_map (fun s -> (ext_tag, s)) api.xnf_log));
  Db.set_ext_handler db
    (Some (fun ~tag ~payload -> if tag = ext_tag then apply_logged api payload));
  api

(** [db api] is the underlying relational session. *)
let db api = api.db

(** [registry api] is the XNF view registry. *)
let registry api = api.reg

(* ---- the plan cache ----

   Keyed by query text, validated against the (registry, catalog, index)
   version snapshot recorded at compile time. Invalidation is lazy: a
   version mismatch on lookup drops the entry, counts as an
   invalidation, and falls through to recompilation. *)

(** [set_plan_cache api n] enables an LRU cache of the last [n] compiled
    fetch plans; [0] (the default) disables it and recompiles per fetch.
    Any resize clears the cache. *)
let set_plan_cache api n =
  api.pc_cap <- max 0 n;
  api.pc <- []

let pc_lookup api key : Fetch_plan.t option =
  if api.pc_cap = 0 then None
  else begin
    match List.assoc_opt key api.pc with
    | Some plan when Fetch_plan.valid api.db api.reg plan ->
      Obs.Metrics.incr m_pc_hits;
      Fetch_plan.note_hit plan;
      api.pc <- (key, plan) :: List.remove_assoc key api.pc;
      Some plan
    | Some _ ->
      (* schema/index/view versions moved since compilation *)
      Obs.Metrics.incr m_pc_invalidations;
      api.pc <- List.remove_assoc key api.pc;
      None
    | None -> None
  end

let pc_store api key plan : Fetch_plan.t =
  if api.pc_cap > 0 then begin
    let pc = (key, plan) :: List.remove_assoc key api.pc in
    let pc =
      if List.length pc > api.pc_cap then begin
        Obs.Metrics.incr m_pc_evictions;
        List.filteri (fun i _ -> i < api.pc_cap) pc
      end
      else pc
    in
    api.pc <- pc
  end;
  plan

(** [plans api] lists the cached plans, most recently used first. *)
let plans api = api.pc

(** [prepared_plans api] lists PREPARE'd plans, sorted by name. *)
let prepared_plans api =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) api.prepared [])

(** [set_result_cache api n] enables an LRU cache of the last [n] fetch
    results, keyed by query text and validated against base-table
    versions; [0] (the default) disables it, preserving fetch-per-call
    semantics. Any resize clears the cache. *)
let set_result_cache api n =
  api.rc_cap <- max 0 n;
  api.rc <- []

(* the result cache must not serve definitions that changed under it *)
let invalidate_result_cache api = api.rc <- []

(* result-cache lookup: a hit is a cached, still-fresh cache for the same
   (trimmed) query text. A stale entry — a base table moved, or the cache
   holds unsaved deferred Udi edits — is dropped and counts as a miss. *)
let rc_lookup api key : Cache.t option =
  if api.rc_cap = 0 then None
  else begin
    match List.assoc_opt key api.rc with
    | Some cache when not (Cache.stale cache api.db) ->
      Obs.Metrics.incr m_rc_hits;
      api.rc <- (key, cache) :: List.remove_assoc key api.rc;
      Some cache
    | _ ->
      Obs.Metrics.incr m_rc_misses;
      api.rc <- List.remove_assoc key api.rc;
      None
  end

let rc_store api key cache : Cache.t =
  if api.rc_cap > 0 then begin
    let rc = (key, cache) :: List.remove_assoc key api.rc in
    let rc =
      if List.length rc > api.rc_cap then begin
        Obs.Metrics.incr m_rc_evictions;
        List.filteri (fun i _ -> i < api.rc_cap) rc
      end
      else rc
    in
    api.rc <- rc
  end;
  cache

(* ---- the fetch pipeline ----

   Every XNF fetch runs through [pipeline]: the result cache (consulted
   only when the caller passes a key), then plan resolution, then
   execution and drift detection. Entry points differ only in the
   result-cache key, the plan source and the parameters. *)

(* where a fetch's plan comes from *)
type source =
  | Text of string * Xnf_ast.query Lazy.t
      (** plan-cache key and the query, parsed only on a plan-cache miss *)
  | Named of string  (** a PREPARE'd plan *)
  | Plan of Fetch_plan.t  (** already resolved *)

(* a parsed query, plan-cached under its canonical text *)
let parsed q = Text (Xnf_ast.query_to_string q, Lazy.from_val q)

let resolve api = function
  | Text (key, q) -> begin
    match pc_lookup api key with
    | Some plan -> plan
    | None ->
      if api.pc_cap > 0 then Obs.Metrics.incr m_pc_misses;
      pc_store api key (Fetch_plan.compile api.db api.reg (Lazy.force q))
  end
  | Named name -> begin
    (* a plan invalidated by DDL since PREPARE is transparently recompiled *)
    let key = String.lowercase_ascii name in
    match Hashtbl.find_opt api.prepared key with
    | None -> err "unknown prepared statement %s" name
    | Some plan when Fetch_plan.valid api.db api.reg plan ->
      Obs.Metrics.incr m_pc_hits;
      Fetch_plan.note_hit plan;
      plan
    | Some plan ->
      Obs.Metrics.incr m_pc_invalidations;
      let p = Fetch_plan.compile api.db api.reg (Fetch_plan.query plan) in
      Hashtbl.replace api.prepared key p;
      p
  end
  | Plan plan -> plan

let count_fetch api =
  api.fetch_count <- api.fetch_count + 1;
  Obs.Metrics.incr m_fetches

let pipeline ?rc_key ?fixpoint ?params api source : Cache.t =
  match Option.bind rc_key (rc_lookup api) with
  | Some cache -> cache
  | None -> (
    let plan = resolve api source in
    count_fetch api;
    let cache =
      try Fetch_plan.execute ?fixpoint ?params api.db plan
      with Invalid_argument msg -> err "%s" msg
    in
    record_drift api plan cache;
    match rc_key with Some key -> rc_store api key cache | None -> cache)

(** [fetch ?fixpoint api q] evaluates a parsed XNF query into a cache
    through the plan cache when enabled, never the result cache (so a
    naive fetch neither reads nor writes it); the execution is folded into
    the per-statement statistics. *)
let fetch ?fixpoint api q =
  recording (Xnf_ast.query_to_string q)
    ~kind_of:(fun _ -> "xnf")
    ~rows_of:Cache.total_tuples
    (fun () -> pipeline ?fixpoint api (parsed q))

(** [fetch_string api sql] parses and evaluates an [OUT OF ... TAKE]
    query, through the result cache and the plan cache when enabled, both
    keyed by the trimmed text. A plan-cache hit skips parsing entirely. The
    execution is folded into the per-statement statistics. *)
let fetch_string api sql =
  recording sql ~kind_of:(fun _ -> "xnf") ~rows_of:Cache.total_tuples @@ fun () ->
  let key = String.trim sql in
  pipeline ~rc_key:key api (Text (key, lazy (Xnf_parser.parse_query sql)))

(* ---- prepared statements (PREPARE / EXECUTE) ---- *)

(** [prepare api ~name q] compiles [q] and stores the plan under [name]
    (case-insensitive), replacing any previous plan of that name. *)
let prepare api ~name q =
  Hashtbl.replace api.prepared (String.lowercase_ascii name)
    (Fetch_plan.compile api.db api.reg q)

(** [execute_prepared api name vals] runs a PREPARE'd plan with [vals]
    bound to its [?] slots in lexical order. A plan invalidated by DDL
    since PREPARE is transparently recompiled. Parameterized results never
    enter the text-keyed result cache. *)
let execute_prepared api name (vals : Value.t list) =
  pipeline ~params:(Array.of_list vals) api (Named name)

(* CO deletion (§3.7): all component tuples of the target CO are removed
   from their base tables. Every component must be updatable. *)
let delete_co api (q : Xnf_ast.query) =
  let cache = pipeline api (parsed q) in
  (* validate updatability up front so we fail before deleting anything *)
  List.iter
    (fun (name, ni) ->
      if Cache.live_count ni > 0 && ni.Cache.ni_upd = None then
        err "CO DELETE: component %s is not updatable" name)
    cache.Cache.c_nodes;
  let deleted = ref 0 in
  Db.with_statement api.db (fun () ->
      List.iter
        (fun (_, ni) ->
          match ni.Cache.ni_upd with
          | None -> ()
          | Some u ->
            let table = Catalog.table (Db.catalog api.db) u.Semantic.nu_table in
            List.iter
              (fun t ->
                let rowid = t.Cache.t_rowid in
                if rowid >= 0 && Db.delete_row api.db table rowid then incr deleted)
              (Cache.live_tuples ni))
        cache.Cache.c_nodes);
  !deleted

(* CO-level update (§3.7): the assignments apply to every tuple of the
   named component in the target CO, propagated through the udi layer
   (which enforces updatability and relationship-column locking). *)
let update_co api (q : Xnf_ast.query) (cu : Xnf_ast.co_update) =
  let cache = pipeline api (parsed q) in
  let ni = Cache.node cache cu.Xnf_ast.cu_node in
  let schema = ni.Cache.ni_schema in
  let env = Db.bind_env api.db in
  let sets =
    List.map (fun (col, e) -> (col, Binder.bind_expr env schema e)) cu.Xnf_ast.cu_sets
  in
  let ses = Udi.session api.db cache in
  let count = ref 0 in
  Db.with_statement api.db (fun () ->
      Udi.with_deferred ses (fun () ->
          List.iter
            (fun t ->
              let row = Cache.row t in
              let updates = List.map (fun (col, e) -> (col, Expr.eval row e)) sets in
              Udi.update ses ~node:cu.Xnf_ast.cu_node ~pos:t.Cache.t_pos updates;
              incr count)
            (Cache.live_tuples ni)));
  !count

let rows_of_outcome = function
  | Fetched c -> Cache.total_tuples c
  | Co_deleted n | Co_updated n -> n
  | View_defined _ | View_dropped _ | Prepared _ -> 0
  | Sql (Db.Rows r) -> List.length r.Db.rrows
  | Sql (Db.Affected n) -> n
  | Sql (Db.Done _) -> 0

(** [exec api text] parses and executes one statement — XNF or plain SQL.
    Every execution (including failures) is folded into the per-statement
    statistics and, when over the threshold, the slow-query log. *)
let exec api text : outcome =
  recording text
    ~kind_of:(function Sql _ -> "sql" | _ -> "xnf")
    ~rows_of:rows_of_outcome
  @@ fun () ->
  match Xnf_parser.parse_stmt text with
  | Xnf_ast.X_query q ->
    let key = String.trim text in
    Fetched (pipeline ~rc_key:key api (Text (key, Lazy.from_val q)))
  | Xnf_ast.X_create_view (name, q) ->
    View_registry.define api.reg ~name q;
    log_xnf api (Xnf_ast.X_create_view (name, q));
    invalidate_result_cache api;
    View_defined name
  | Xnf_ast.X_delete q -> Co_deleted (delete_co api q)
  | Xnf_ast.X_update (q, cu) -> Co_updated (update_co api q cu)
  | Xnf_ast.X_drop_view name -> begin
    match View_registry.find_opt api.reg name with
    | Some _ ->
      View_registry.drop api.reg name;
      log_xnf api (Xnf_ast.X_drop_view name);
      invalidate_result_cache api;
      View_dropped name
    | None -> begin
      (* fall through to tabular views, via the engine so the drop is
         WAL-logged *)
      match Catalog.view_opt (Db.catalog api.db) name with
      | Some _ ->
        ignore (Db.exec_stmt_ast api.db (Sql_ast.S_drop_view name));
        View_dropped name
      | None -> err "unknown view %s" name
    end
  end
  | Xnf_ast.X_prepare (name, q) ->
    prepare api ~name q;
    Prepared name
  | Xnf_ast.X_execute (name, vals) -> Fetched (execute_prepared api name vals)
  | Xnf_ast.X_sql stmt -> Sql (Db.exec_stmt_ast api.db stmt)

(** [explain_analyze api text] runs [text] — an XNF [OUT OF ... TAKE]
    query or a SQL SELECT — under the instrumented executor and returns a
    report: the pipeline span tree with per-stage timings plus per-operator
    actual row counts (cached nodes/edges for XNF, the physical plan for
    SQL). *)
let explain_analyze api text =
  match Xnf_parser.parse_stmt text with
  | Xnf_ast.X_query q ->
    (* resolve the plan first and execute that plan in hand, so adaptive
       mid-fixpoint switches land on it and annotate the operator lines
       below. One enclosing span keeps compile and execution under the
       same traced root. *)
    let seq0 = api.adv_next in
    let plan, cache =
      Obs.Trace.with_span "xnf.explain" @@ fun () ->
      let plan = resolve api (Text (String.trim text, Lazy.from_val q)) in
      (plan, pipeline api (Plan plan))
    in
    let b = Buffer.create 256 in
    (match Obs.Trace.last () with
    | Some sp ->
      Buffer.add_string b "Stages:\n";
      Buffer.add_string b (Obs.Trace.to_string sp)
    | None -> ());
    Buffer.add_string b "Operators:\n";
    List.iter
      (fun (name, ni) ->
        Printf.bprintf b "  node %-24s rows=%d\n" name (Cache.live_count ni))
      cache.Cache.c_nodes;
    List.iter
      (fun (name, ei) ->
        Printf.bprintf b "  edge %-24s conns=%d strategy=%s\n" name
          (List.length (Cache.conns_live ei)) (Fetch_plan.strategy_text plan name))
      cache.Cache.c_edges;
    Printf.bprintf b "(%d tuples, %d connections)\n" (Cache.total_tuples cache)
      (Cache.total_conns cache);
    (* drift advisories the instrumented fetch just raised, if any *)
    let fresh = List.filter (fun (a : advisory) -> a.adv_seq > seq0) api.advisories in
    if fresh <> [] then begin
      Buffer.add_string b "Advisories:\n";
      List.iter
        (fun a -> Printf.bprintf b "  %s[%s]: %s\n" a.adv_severity a.adv_code a.adv_message)
        (List.rev fresh)
    end;
    Buffer.contents b
  | Xnf_ast.X_sql (Sql_ast.S_select sel) -> Db.explain_analyze_ast api.db sel
  | _ -> err "EXPLAIN ANALYZE expects an XNF query or a SQL SELECT"

(** [checkpoint api] snapshots the full session state — relational
    catalog plus the XNF view history — into the data directory and
    truncates the WAL. Returns the checkpoint LSN. *)
let checkpoint api = Db.checkpoint api.db

(** [recover api] rebuilds the whole session from the data directory.
    The XNF view registry is cleared and its DDL history replayed (the
    registry version moves, so cached fetch plans invalidate lazily with
    countable [xnf.plancache.invalidations] deltas); the result cache is
    dropped outright since recovered tables may no longer back its
    entries. *)
let recover api =
  View_registry.clear api.reg;
  api.xnf_log <- [];
  invalidate_result_cache api;
  Db.recover api.db

(** [session api cache] opens a manipulation session on a loaded CO. *)
let session api cache = Udi.session api.db cache

(** [fetch_count api] counts COs loaded so far. *)
let fetch_count api = api.fetch_count
