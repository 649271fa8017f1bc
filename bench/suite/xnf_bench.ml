(* xnf_bench — the repository benchmark (see bench/suite/README.md).

     xnf_bench --workload W --seed N --seconds S --trace 0|1
         one workload: set-up (timed 3 times, twice in fresh child
         processes), then a closed-loop window of about S seconds; prints the
         end-to-end metrics (--trace 0) or the per-layer metrics and a
         span file (--trace 1), the last stdout line being one JSON object
     xnf_bench --workload W --seed N --seconds S --setup-only
         one set-up and its warm-up; prints its time in seconds (the child
         processes above run this)
     xnf_bench --seed N [--seconds S] [--trace 0|1] [--json FILE]
         every workload, each in its own fresh process, one after another
     xnf_bench --quick [--seed N]
         every workload at 1% of its window, untraced then traced, oracles on
     xnf_bench --compare A.json B.json
         each metric x workload pair of two --json files against its bound
     xnf_bench --describe      BENCHMARK.json, rendered from Spec *)

open Xnf_bench_suite

type budget = Seconds of float | Ops of int

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("xnf_bench: " ^ s); exit 2) fmt

let budget_args = function
  | Seconds s -> [ "--seconds"; string_of_float s ]
  | Ops k -> [ "--ops"; string_of_int k ]

let spec_of name =
  match Spec.find_workload name with
  | Some spec -> spec
  | None ->
    die "unknown workload %s (one of: %s)" name
      (String.concat ", " (List.map (fun w -> w.Spec.w_name) Spec.workloads))

let setup_of = function
  | "oo1_nav" -> Oo1_bench.nav
  | "oo1_closure" -> Oo1_bench.closure
  | "design_ws" -> Design_bench.setup
  | "shared_durable" -> Durable_bench.setup
  | w -> die "no set-up for workload %s" w

(* measured and warm-up op counts for a budget: the first 5% of the ops
   run before the window, checked but not timed *)
let sizes (spec : Spec.workload) budget =
  let window = match budget with Seconds s -> Spec.window_ops spec ~seconds:s | Ops k -> k in
  (window, window / 20)

(* setup + warm-up, in seconds: the op sequence, database, ANALYZE, views
   and PREPAREs, then the warm-up ops' own time (their checks excluded) *)
let set_up name ~seed ~budget =
  let window, warm = sizes (spec_of name) budget in
  let n_ops = warm + window in
  let t0 = Tracer.now_ns () in
  let w = setup_of name ~seed ~n_ops in
  let t1 = Tracer.now_ns () in
  let win = Harness.new_window () in
  let next = Harness.run_ops w ~first:0 ~deadline:max_int ~limit:warm win in
  (w, next, float_of_int (t1 - t0 + win.Harness.busy_ns) /. 1e9)

let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (status, out)

let last_line out =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)) with
  | l :: _ -> l
  | [] -> ""

let child_setup name ~seed ~budget =
  match run_child ([ "--setup-only"; "--workload"; name; "--seed"; string_of_int seed ] @ budget_args budget) with
  | Unix.WEXITED 0, out -> (
    match float_of_string_opt (last_line out) with
    | Some s -> s
    | None -> die "setup child printed no time")
  | _ -> die "setup child for %s failed" name

(* run [ops] ops from op [first]; returns the next op index. A window
   that takes longer than [cap_s] (a run slowed far beyond its nominal
   length) stops early rather than overrun the caller's time limit. *)
let window w ~first ~ops ~cap_s (win : Harness.window) =
  let t0 = Tracer.now_ns () in
  Control.reset ();
  let next = Harness.run_ops w ~first ~deadline:(t0 + int_of_float (cap_s *. 1e9)) ~limit:ops win in
  if next < first + ops then
    Printf.eprintf "xnf_bench: window stopped after %d of %d ops (%.0f s cap)\n%!" (next - first) ops
      cap_s;
  Printf.printf "window: %d ops in %.2f s\n" (next - first) (float_of_int (Tracer.now_ns () - t0) /. 1e9);
  Option.iter
    (fun p ->
      Printf.printf "control kernel: median %.3f ms over %d runs (reference %.3f ms)\n"
        (float_of_int p /. 1e6) (Latency.count Control.times) (Control.reference_ns /. 1e6))
    (Latency.percentile Control.times ~pct:50);
  next

(* mean op latency in reference time *)
let mean_ns (win : Harness.window) =
  let n = win.Harness.attempted in
  if n = 0 then 0. else float_of_int win.Harness.ref_busy_ns /. float_of_int n

(* one workload in this process; returns (attempted, metrics) *)
let run_one name ~seed ~budget ~trace ~setup_reps ~trace_file =
  let ops, _ = sizes (spec_of name) budget in
  let strict, cap_s = match budget with Seconds s -> (true, 5. *. s) | Ops _ -> (false, 120.) in
  let children =
    if trace then [] else List.init (setup_reps - 1) (fun _ -> child_setup name ~seed ~budget)
  in
  let w, next, own = set_up name ~seed ~budget in
  if not trace then begin
    let win = Harness.new_window () in
    ignore (window w ~first:next ~ops ~cap_s win);
    w.Harness.finish ();
    let setup_s = Latency.median_float (own :: children) in
    (win.Harness.attempted, Harness.end_to_end ~strict win ~setup_s)
  end
  else begin
    (* first half untraced, second half traced: their mean op latencies
       give the tracer's overhead *)
    let half = ops / 2 in
    let plain = Harness.new_window () in
    let next = window w ~first:next ~ops:half ~cap_s:(cap_s /. 2.) plain in
    Harness.reset_counts ();
    Tracer.start ();
    let before = Harness.snapshot () in
    let traced = Harness.new_window () in
    ignore (window w ~first:next ~ops:(ops - half) ~cap_s:(cap_s /. 2.) traced);
    Tracer.stop ();
    let after = Harness.snapshot () in
    w.Harness.finish ();
    let overhead_pct =
      if mean_ns plain = 0. then 0. else ((mean_ns traced /. mean_ns plain) -. 1.) *. 100.
    in
    let metrics =
      Harness.per_layer ~before ~after traced ~overhead_pct ~extra:(w.Harness.layer ())
    in
    let path =
      match trace_file with
      | Some p -> p
      | None -> Filename.concat "_bench" (Printf.sprintf "trace/%s-seed%d.jsonl" name seed)
    in
    Harness.mkdir_p (Filename.dirname path);
    Tracer.write path;
    Printf.printf "spans: %d written to %s (%d dropped)\n" !Tracer.len path !Tracer.dropped;
    (traced.Harness.attempted, metrics)
  end

let print_metrics name metrics =
  List.iter
    (fun (m, v) -> Printf.printf "%-16s %-34s %14.6g %s\n" name m v (Harness.unit_of m))
    metrics

let single name ~seed ~budget ~trace ~setup_reps ~trace_file =
  match run_one name ~seed ~budget ~trace ~setup_reps ~trace_file with
  | attempted, metrics ->
    print_metrics name metrics;
    print_endline (Harness.result_json ~correct:true ~attempted ~failed:0 metrics)
  | exception Harness.Mismatch msg ->
    let t = Harness.tally in
    Printf.eprintf "xnf_bench: %s: oracle mismatch: %s\n%!" name msg;
    print_endline
      (Harness.result_json ~correct:false ~attempted:(max 1 t.Harness.t_attempted)
         ~failed:t.Harness.t_failed []);
    exit 1
  | exception Failure msg -> die "%s: %s" name msg

(* ---- every workload, one fresh process each ---- *)

let all ?(echo = true) ~seed ~budget_args ~trace ~json () =
  let ok = ref true in
  let results =
    List.map
      (fun (spec : Spec.workload) ->
        let args =
          [ "--workload"; spec.Spec.w_name; "--seed"; string_of_int seed; "--trace";
            (if trace then "1" else "0") ]
          @ budget_args spec
        in
        let status, out = run_child args in
        if echo then print_string out;
        let line = last_line out in
        let correct =
          match Json.member "correct" (Json.parse line) with Some (Json.Bool b) -> b | _ -> false
          | exception Json.Error _ -> false
        in
        let passed = status = Unix.WEXITED 0 && correct in
        if not passed then ok := false;
        Printf.printf "%s --trace %d: %s\n%!" spec.Spec.w_name (Bool.to_int trace)
          (if passed then "oracles passed" else "FAILED");
        (spec.Spec.w_name, line))
      Spec.workloads
  in
  (match json with
  | None -> ()
  | Some path ->
    Out_channel.with_open_bin path (fun oc ->
        Printf.fprintf oc "{\"seed\": %d, \"trace\": %b, \"results\": {\n%s\n}}\n" seed trace
          (String.concat ",\n"
             (List.map (fun (n, line) -> Printf.sprintf "  %s: %s" (Spec.json_string n) line) results)));
    Printf.printf "results written to %s\n" path);
  if not !ok then exit 1

(* ---- --compare ---- *)

let compare_files a b =
  let load f =
    match Json.member "results" (Json.parse (Harness.read_file f)) with
    | Some r -> r
    | None -> die "%s: no results object" f
    | exception Json.Error e -> die "%s: %s" f e
  in
  let ra = load a and rb = load b in
  let value r w m =
    Option.bind (Json.member w r) (fun x ->
        Option.bind (Json.member "metrics" x) (fun ms ->
            Option.bind (Json.member m ms) (fun v -> Option.bind (Json.member "value" v) Json.to_float)))
  in
  let failures = ref 0 in
  (* a run with a failed op or oracle fails the comparison outright *)
  List.iter
    (fun (file, r) ->
      List.iter
        (fun (w : Spec.workload) ->
          let field k = Option.bind (Json.member w.Spec.w_name r) (Json.member k) in
          match field "correct", Option.bind (field "failed") Json.to_float with
          | Some (Json.Bool true), Some 0. -> ()
          | _ ->
            incr failures;
            Printf.printf "%s: %s did not run clean (correct false or failed ops)\n" file
              w.Spec.w_name)
        Spec.workloads)
    [ (a, ra); (b, rb) ];
  Printf.printf "%-16s %-14s %14s %14s %9s %7s\n" "workload" "metric" "A" "B" "diff" "bound";
  List.iter
    (fun (w : Spec.workload) ->
      List.iter
        (fun (e : Spec.e2e) ->
          match value ra w.Spec.w_name e.Spec.e_name, value rb w.Spec.w_name e.Spec.e_name with
          | Some va, Some vb ->
            let rel = if va = 0. then 0. else (vb -. va) /. va in
            let ok = Float.abs rel <= e.Spec.e_bound in
            if not ok then incr failures;
            Printf.printf "%-16s %-14s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n" w.Spec.w_name
              e.Spec.e_name va vb (rel *. 100.) (e.Spec.e_bound *. 100.)
              (if ok then "" else "OUTSIDE BOUND")
          | _ ->
            incr failures;
            Printf.printf "%-16s %-14s missing\n" w.Spec.w_name e.Spec.e_name)
        Spec.end_to_end)
    Spec.workloads;
  if !failures > 0 then begin
    Printf.printf "%d pair(s) outside their bound\n" !failures;
    exit 1
  end

(* ---- argument parsing ---- *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref (float_of_int Spec.run_seconds) in
  let ops = ref None and trace = ref false and json = ref None and trace_file = ref None in
  let setup_only = ref false and quick = ref false and compare = ref None in
  let rec parse = function
    | [] -> ()
    | "--describe" :: _ ->
      print_string (Spec.benchmark_json ());
      exit 0
    | "--compare" :: a :: b :: rest ->
      compare := Some (a, b);
      parse rest
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := (match int_of_string_opt n with Some n -> n | None -> die "bad --seed %s" n);
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s when s > 0. -> s | _ -> die "bad --seconds %s" s);
      parse rest
    | "--ops" :: k :: rest ->
      ops := (match int_of_string_opt k with Some k when k > 0 -> Some k | _ -> die "bad --ops %s" k);
      parse rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1");
      parse rest
    | "--trace-file" :: p :: rest ->
      trace_file := Some p;
      parse rest
    | "--json" :: p :: rest ->
      json := Some p;
      parse rest
    | "--setup-only" :: rest ->
      setup_only := true;
      parse rest
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | arg :: _ -> die "unknown argument %s (see the header of bench/suite/xnf_bench.ml)" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let budget = match !ops with Some k -> Ops k | None -> Seconds !seconds in
  (* 1% of each workload's window at the benchmark's run length *)
  let quick_args spec =
    [ "--ops"; string_of_int (max 2 (Spec.window_ops spec ~seconds:(float_of_int Spec.run_seconds) / 100)) ]
  in
  let setup_reps = match budget with Seconds _ -> 3 | Ops _ -> 1 in
  Option.iter (fun name -> ignore (spec_of name)) !workload;
  match !compare, !workload with
  | Some (a, b), _ -> compare_files a b
  | None, Some name when !setup_only ->
    let _, _, s = set_up name ~seed:!seed ~budget in
    Printf.printf "%.17g\n" s
  | None, Some name -> single name ~seed:!seed ~budget ~trace:!trace ~setup_reps ~trace_file:!trace_file
  | None, None when !quick ->
    all ~echo:false ~seed:!seed ~budget_args:quick_args ~trace:false ~json:None ();
    all ~echo:false ~seed:!seed ~budget_args:quick_args ~trace:true ~json:None ()
  | None, None -> all ~seed:!seed ~budget_args:(fun _ -> budget_args budget) ~trace:!trace ~json:!json ()
