(* The closed-loop runner shared by every workload: one client, one
   thread, the next op issued only after the previous returned. A
   workload supplies its op sequence (generated from the seed before
   timing starts), how to run op [i] through the public API, and the
   oracle that checks op [i]'s output. The harness times each op, runs
   the oracle outside the timed bracket, and turns the samples into the
   end-to-end metrics — or, in a traced run, the per-layer metrics. *)

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

type cls = Read | Write

type kind = {
  k_name : string;
  k_cls : cls;
  k_sql : bool;  (** issues one SQL statement: its engine stages count per statement *)
  k_span : int;  (** tracer name of the op span *)
}

let kind ?(sql = false) k_name k_cls =
  { k_name; k_cls; k_sql = sql; k_span = Tracer.name ("op:" ^ k_name) }

type t = {
  kinds : kind array;
  ops : int array;  (** kind index of op [i] *)
  exec : int -> unit;  (** run op [i]; keeps what {!check} needs *)
  check : int -> unit;  (** oracle for the op just run; raises {!Mismatch} *)
  finish : unit -> unit;  (** post-window oracle (recovery digest) and cleanup *)
  layer : unit -> (string * float) list;  (** per-layer values the workload measures itself *)
}

(** Bench-side counts the workloads bump while they run, read by the
    per-layer metrics; reset when the traced window starts. *)
type counts = {
  mutable fetches : int;  (** CO fetch API calls *)
  mutable delivered : int;  (** tuples in the COs those calls returned *)
  mutable visits : int;  (** cache-walk visits *)
  mutable udi_writes : int;  (** write ops that went through Udi *)
  mutable sql_stmts : int;
  mutable selects : int;
  mutable rows : int;  (** rows the SELECTs returned *)
  mutable wal_bytes : int;  (** WAL bytes appended by write ops *)
  mutable checkpoint_ns : int list;
}

let counts =
  { fetches = 0; delivered = 0; visits = 0; udi_writes = 0; sql_stmts = 0; selects = 0;
    rows = 0; wal_bytes = 0; checkpoint_ns = [] }

let reset_counts () =
  counts.fetches <- 0;
  counts.delivered <- 0;
  counts.visits <- 0;
  counts.udi_writes <- 0;
  counts.sql_stmts <- 0;
  counts.selects <- 0;
  counts.rows <- 0;
  counts.wal_bytes <- 0;
  counts.checkpoint_ns <- []

(** [mix rng ~n deck] is an op-kind sequence of length [n] cut into
    blocks of [Array.length deck], each block a fresh shuffle of [deck]:
    every block holds the exact mix, so the mix cannot drift with the
    seed. *)
let mix rng ~n deck =
  let deck = Array.copy deck in
  let b = Array.length deck in
  Array.init n (fun i ->
      if i mod b = 0 then Workload.Rng.shuffle rng deck;
      deck.(i mod b))

let now_ns = Tracer.now_ns

(* ---- shared set-up helpers ---- *)

(** [session db] is an XNF session configured as the shell configures its
    own: result cache 8, plan cache 32, engine tracing left on. *)
let session db =
  let api = Xnf.Api.create db in
  Xnf.Api.set_result_cache api 8;
  Xnf.Api.set_plan_cache api 32;
  api

let prepare api name q =
  match Xnf.Api.exec api (Printf.sprintf "PREPARE %s AS %s" name q) with
  | Xnf.Api.Prepared _ -> ()
  | _ -> failwith "PREPARE did not prepare"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ---- engine instruments read as deltas ---- *)

(* SQL ops' optimize/execute stages are read around each op, because
   XNF fetches run the same stages for their root derivations *)
let h_optimize = Obs.Metrics.histogram "span.optimize"
let h_execute = Obs.Metrics.histogram "span.execute"

let counter_names =
  [ "xnf.fetches"; "xnf.fetchcache.hits"; "xnf.fetchcache.misses"; "xnf.plancache.hits";
    "xnf.plancache.misses"; "xnf.plan.compiles"; "xnf.translate.rounds";
    "xnf.translate.tuples_probed"; "xnf.translate.hash_builds"; "xnf.translate.hash_build_reuses";
    "xnf.translate.strategy_switches"; "xnf.udi.base_writes"; "xnf.udi.conflicts"; "wal.syncs" ]

type snapshot = {
  s_counters : (string * int) list;
  s_spans : (string * (float * int)) list;  (** every span.* histogram: sum ns, count *)
  s_alloc : float;
  s_major : int;
  s_dict : int;
}

let snapshot () =
  let spans =
    List.filter_map
      (fun (n, h) ->
        if String.length n > 5 && String.sub n 0 5 = "span." then
          Some (n, (Obs.Metrics.hist_sum h, Obs.Metrics.hist_count h))
        else None)
      (Obs.Metrics.histograms_list ())
  in
  Gc.minor ();
  { s_counters = List.map (fun n -> (n, Obs.Metrics.counter_get n)) counter_names;
    s_spans = spans; s_alloc = Gc.allocated_bytes ();
    s_major = (Gc.quick_stat ()).Gc.major_collections; s_dict = Relational.Dict.size () }

(* ---- the op loop ---- *)

type window = {
  reads : Latency.samples;  (** op latencies in reference ns ({!Control}) *)
  writes : Latency.samples;
  mutable attempted : int;
  mutable busy_ns : int;  (** measured time inside the ops *)
  mutable ref_busy_ns : int;  (** the same in reference ns *)
  mutable sql_optimize_ns : float;  (** engine stages of SQL ops, per-op attributed *)
  mutable sql_execute_ns : float;
}

let new_window () =
  { reads = Latency.create_samples (); writes = Latency.create_samples (); attempted = 0;
    busy_ns = 0; ref_busy_ns = 0; sql_optimize_ns = 0.; sql_execute_ns = 0. }

(** Ops attempted and failed in this process, warm-up included: the
    result line of a run stopped by a failure reports these. *)
type tally = { mutable t_attempted : int; mutable t_failed : int }

let tally = { t_attempted = 0; t_failed = 0 }

(* an op whose call or oracle raised: it counts as failed, and any
   exception becomes a Mismatch, so the run stops with correct = false *)
let fail_op i kind e =
  tally.t_failed <- tally.t_failed + 1;
  match e with
  | Mismatch _ -> raise e
  | e -> mismatch "op %d (%s) raised %s" i kind.k_name (Printexc.to_string e)

(** [run_ops w ~first ~deadline ~limit win] runs ops [first], [first+1],
    ... until [deadline] (monotonic ns) passes, [limit] ops ran, or the
    sequence ends; returns the next op index. Each op's output is checked
    after its timed bracket closes; [win] collects the timings.
    @raise Mismatch when an op raises or its oracle fails. *)
let run_ops (w : t) ~first ~deadline ~limit (win : window) =
  let i = ref first in
  let n = Array.length w.ops in
  let stop = if limit >= n - first then n else first + limit in
  while !i < stop && now_ns () < deadline do
    Control.tick ();
    let kind = w.kinds.(w.ops.(!i)) in
    let traced_sql = !Tracer.enabled && kind.k_sql in
    let o0 = if traced_sql then Obs.Metrics.hist_sum h_optimize else 0. in
    let e0 = if traced_sql then Obs.Metrics.hist_sum h_execute else 0. in
    tally.t_attempted <- tally.t_attempted + 1;
    let t0 = now_ns () in
    (try Tracer.op !i kind.k_span (fun () -> w.exec !i) with e -> fail_op !i kind e);
    let t1 = now_ns () in
    let ref_ns = int_of_float (float_of_int (t1 - t0) *. !Control.factor) in
    win.attempted <- win.attempted + 1;
    win.busy_ns <- win.busy_ns + (t1 - t0);
    win.ref_busy_ns <- win.ref_busy_ns + ref_ns;
    Latency.add (match kind.k_cls with Read -> win.reads | Write -> win.writes) ref_ns;
    if traced_sql then begin
      win.sql_optimize_ns <- win.sql_optimize_ns +. Obs.Metrics.hist_sum h_optimize -. o0;
      win.sql_execute_ns <- win.sql_execute_ns +. Obs.Metrics.hist_sum h_execute -. e0
    end;
    (try w.check !i with e -> fail_op !i kind e);
    incr i
  done;
  !i

(* ---- metric assembly ---- *)

let ms_of_ns ns = float_of_int ns /. 1e6

let ratio a b = if b = 0. then 0. else a /. b

(** [end_to_end ~strict win ~setup_s] computes the end-to-end metrics in
    {!Spec.end_to_end} order, each over the whole window in reference
    time. A percentile whose class has too few samples is an error under
    [strict] and omitted otherwise. *)
let end_to_end ~strict (win : window) ~setup_s =
  let pct name samples p =
    match Latency.percentile samples ~pct:p with
    | Some ns -> Some (name, ms_of_ns ns)
    | None when strict ->
      failwith
        (Printf.sprintf "%s needs %d samples, got %d: lengthen --seconds" name
           (Latency.needed ~pct:p) (Latency.count samples))
    | None -> None
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  List.filter_map Fun.id
    [ Some ("setup_s", setup_s);
      Some ("ops_per_s", ratio (float_of_int win.attempted) (float_of_int win.ref_busy_ns /. 1e9));
      pct "read_p50_ms" win.reads 50; pct "read_p90_ms" win.reads 90;
      pct "write_p50_ms" win.writes 50;
      Some ("peak_heap_mb", heap_mb) ]

(** [per_layer ~before ~after win ~overhead_pct ~extra] computes the
    per-layer metrics of a traced window. *)
let per_layer ~(before : snapshot) ~(after : snapshot) (win : window) ~overhead_pct ~extra =
  let dc n = float_of_int (List.assoc n after.s_counters - List.assoc n before.s_counters) in
  let span_delta n =
    let s, c = Option.value ~default:(0., 0) (List.assoc_opt n after.s_spans) in
    let s0, c0 = Option.value ~default:(0., 0) (List.assoc_opt n before.s_spans) in
    (s -. s0, c - c0)
  in
  let dspan n = fst (span_delta ("span." ^ n)) in
  let ops = float_of_int (Latency.count win.reads + Latency.count win.writes) in
  let writes = float_of_int (Latency.count win.writes) in
  let engine_fetches = dc "xnf.fetches" in
  let per_fetch_ms n = ratio (dspan n) engine_fetches /. 1e6 in
  let fi = float_of_int in
  let api_calls, api_self_ns =
    List.fold_left
      (fun acc prefix ->
        Tracer.fold_prefix prefix
          (fun (c, s) ~calls ~ns ~engine_ns -> (c + calls, s + ns - engine_ns))
          acc)
      (0, 0) [ "Api.execute_prepared"; "Api.fetch_string" ]
  in
  let stmt_calls, stmt_ns =
    Tracer.fold_prefix "Api.exec:" (fun (c, s) ~calls ~ns ~engine_ns:_ -> (c + calls, s + ns)) (0, 0)
  in
  let sel_calls, sel_self_ns =
    Tracer.fold_prefix "Api.exec:select"
      (fun (c, s) ~calls ~ns ~engine_ns -> (c + calls, s + ns - engine_ns))
      (0, 0)
  in
  let ckpt = List.sort compare counts.checkpoint_ns in
  let ckpt_p50 = match ckpt with [] -> 0. | l -> Latency.median_float (List.map fi l) /. 1e6 in
  let ckpt_max = match List.rev ckpt with [] -> 0. | m :: _ -> fi m /. 1e6 in
  let spans_total =
    List.fold_left
      (fun acc (n, _) -> acc + snd (span_delta n))
      0 after.s_spans
  in
  let udi_ns = Tracer.total_ns "Udi.with_deferred" + Tracer.total_ns "Udi.update" in
  let builds = dc "xnf.translate.hash_builds" and reuses = dc "xnf.translate.hash_build_reuses" in
  let pc_hits = dc "xnf.plancache.hits" and pc_misses = dc "xnf.plancache.misses" in
  let rc_hits = dc "xnf.fetchcache.hits" and rc_misses = dc "xnf.fetchcache.misses" in
  let base =
    [ ("api.plancache_hit_ratio", ratio pc_hits (pc_hits +. pc_misses));
      ("api.resultcache_hit_ratio", ratio rc_hits (rc_hits +. rc_misses));
      ("api.compiles_per_fetch", ratio (dc "xnf.plan.compiles") (fi counts.fetches));
      ("api.self_ms_per_call", ratio (fi api_self_ns) (fi api_calls) /. 1e6);
      ("stage.semantic_ms_per_op", ratio (dspan "semantic") ops /. 1e6);
      ("stage.translate_ms_per_op", ratio (dspan "translate") ops /. 1e6);
      ("stage.roots_ms_per_fetch", per_fetch_ms "roots");
      ("stage.fixpoint_ms_per_fetch", per_fetch_ms "fixpoint");
      ("stage.connections_ms_per_fetch", per_fetch_ms "connections");
      ("stage.finalize_ms_per_fetch", per_fetch_ms "finalize");
      ("translate.rounds_per_fetch", ratio (dc "xnf.translate.rounds") engine_fetches);
      ("translate.tuples_probed_per_fetch", ratio (dc "xnf.translate.tuples_probed") engine_fetches);
      ("stage.edge_builds_ms_per_fetch", per_fetch_ms "edge-builds");
      ("translate.build_reuse_ratio", ratio reuses (builds +. reuses));
      ("translate.strategy_switches", dc "xnf.translate.strategy_switches");
      ("translate.delivered_per_probed",
        ratio (fi counts.delivered) (dc "xnf.translate.tuples_probed"));
      ("xnf.delivered_tuples_per_fetch", ratio (fi counts.delivered) (fi counts.fetches));
      ("cache.walk_ns_per_visit", ratio (fi (Tracer.total_ns "Cache.walk")) (fi counts.visits));
      ("cache.visits_per_traverse", ratio (fi counts.visits) (fi (Tracer.calls "Cache.walk")));
      ("udi.ms_per_write", ratio (fi udi_ns) (fi counts.udi_writes) /. 1e6);
      ("udi.base_writes_per_write", ratio (dc "xnf.udi.base_writes") (fi counts.udi_writes));
      ("udi.conflicts", dc "xnf.udi.conflicts");
      ("db.ms_per_stmt", ratio (fi stmt_ns) (fi stmt_calls) /. 1e6);
      ("stage.parse_ms_per_stmt", ratio (fi sel_self_ns) (fi sel_calls) /. 1e6);
      ("stage.optimize_ms_per_stmt", ratio win.sql_optimize_ns (fi counts.sql_stmts) /. 1e6);
      ("stage.execute_ms_per_stmt", ratio win.sql_execute_ns (fi counts.sql_stmts) /. 1e6);
      ("db.rows_per_query", ratio (fi counts.rows) (fi counts.selects));
      ("wal.syncs_per_write", ratio (dc "wal.syncs") writes);
      ("wal.bytes_per_write", ratio (fi counts.wal_bytes) writes);
      ("checkpoint.ms_p50", ckpt_p50);
      ("checkpoint.ms_max", ckpt_max);
      ("dict.entries_growth", fi (after.s_dict - before.s_dict));
      ("gc.alloc_bytes_per_op", ratio (after.s_alloc -. before.s_alloc) ops);
      ("gc.major_collections_per_kop", ratio (fi (after.s_major - before.s_major)) ops *. 1000.);
      ("obs.engine_spans_per_op", ratio (fi spans_total) ops);
      ("bench.trace_overhead_pct", overhead_pct) ]
  in
  (* the workload's own values (recovery, checkpoint size) override the
     zero defaults *)
  let values = extra @ base in
  List.map
    (fun (l : Spec.layer_metric) ->
      (l.Spec.l_name, Option.value ~default:0. (List.assoc_opt l.Spec.l_name values)))
    Spec.per_layer

(* ---- the result line ---- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let unit_of name =
  match List.find_opt (fun (e : Spec.e2e) -> e.Spec.e_name = name) Spec.end_to_end with
  | Some e -> e.Spec.e_unit
  | None -> (
    match List.find_opt (fun (l : Spec.layer_metric) -> l.Spec.l_name = name) Spec.per_layer with
    | Some l -> l.Spec.l_unit
    | None -> "")

(** [result_json ~correct ~attempted ~failed metrics] is the one-line
    result object the benchmark prints last. *)
let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spec.json_string n) (json_number v)
              (Spec.json_string (unit_of n)))
          metrics))
