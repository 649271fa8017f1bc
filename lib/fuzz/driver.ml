(* The fuzzing loop: generate → render → cross-check → shrink → corpus.

   Deterministic for a given (seed, iters, config): case [i] of stream
   [seed] is always the same scenario, so a CI failure reproduces locally
   with the same flags. *)

type failure = {
  fl_label : string;
  fl_kinds : string list;
  fl_detail : string;
  fl_file : string option;  (** corpus entry, when a directory was given *)
  fl_scenario : Gen.scenario;  (** the shrunk scenario *)
}

type report = {
  r_cases : int;
  r_failures : failure list;
  r_mutated : int;  (** mutation runs where the injection found something to break *)
  r_caught : int;  (** of those, runs where the harness reported a divergence *)
  r_coverage : (string * int) list;
  r_shrink_attempts : int;
}

let kinds_of (o : Oracle.outcome) =
  List.sort_uniq compare (List.map (fun d -> d.Oracle.d_kind) o.Oracle.o_divs)

let detail_of (o : Oracle.outcome) =
  String.concat "; "
    (List.map (fun d -> d.Oracle.d_kind ^ ": " ^ d.Oracle.d_detail) o.Oracle.o_divs)

let coverage_counts =
  [ "recursive"; "sharing"; "views"; "using"; "paths"; "naive"; "lw90"; "mono"; "hash";
    "adaptive"; "advise"; "dict"; "noindex"; "derived"; "generic" ]

let bump cov (f : Oracle.flags) =
  let on = function
    | "recursive" -> f.Oracle.f_recursive
    | "sharing" -> f.Oracle.f_sharing
    | "views" -> f.Oracle.f_views
    | "using" -> f.Oracle.f_using
    | "paths" -> f.Oracle.f_paths
    | "naive" -> f.Oracle.f_naive
    | "lw90" -> f.Oracle.f_lw90
    | "mono" -> f.Oracle.f_mono
    | "hash" -> f.Oracle.f_hash
    | "adaptive" -> f.Oracle.f_adaptive
    | "advise" -> f.Oracle.f_advise
    | "dict" -> f.Oracle.f_dict
    | "noindex" -> f.Oracle.f_noindex
    | "derived" -> f.Oracle.f_derived
    | "generic" -> f.Oracle.f_generic
    | _ -> false
  in
  List.map (fun (k, n) -> (k, if on k then n + 1 else n)) cov

let run_case ?advise ?mutation (case : Gen.case) : Gen.scenario * Oracle.outcome =
  let sc = Gen.render case in
  (sc, Oracle.run ?advise ?mutation ~extra_restr:(Gen.mono_restriction case) sc)

let run ?(config = Gen.default) ?advise ?mutation ?corpus_dir ?(shrink = true)
    ?(shrink_budget = 200) ?(log = fun _ -> ()) ~seed ~iters () : report =
  let failures = ref [] in
  let mutated = ref 0 in
  let caught = ref 0 in
  let shrink_attempts = ref 0 in
  let cov = ref (List.map (fun k -> (k, 0)) coverage_counts) in
  for index = 0 to iters - 1 do
    let case = Gen.generate ~config ~seed ~index () in
    let sc, outcome = run_case ?advise ?mutation case in
    cov := bump !cov outcome.Oracle.o_flags;
    (match mutation with
    | Some _ ->
      if outcome.Oracle.o_flags.Oracle.f_mutated then begin
        incr mutated;
        if outcome.Oracle.o_divs <> [] then incr caught
      end
    | None ->
      if outcome.Oracle.o_divs <> [] then begin
        let kinds0 = kinds_of outcome in
        log
          (Printf.sprintf "case %s diverged (%s), shrinking..." sc.Gen.sc_label
             (String.concat " " kinds0));
        let small_case, small_outcome =
          if not shrink then (case, outcome)
          else begin
            let pred c =
              let _, o = run_case ?advise c in
              List.exists (fun k -> List.mem k kinds0) (kinds_of o)
            in
            let small, attempts = Shrink.minimize ~budget:shrink_budget ~pred case in
            shrink_attempts := !shrink_attempts + attempts;
            log
              (Printf.sprintf "shrunk %s: size %d -> %d in %d attempts" sc.Gen.sc_label
                 (Shrink.case_size case) (Shrink.case_size small) attempts);
            let _, o = run_case small in
            (small, o)
          end
        in
        let small_sc = Gen.render small_case in
        let kinds = match kinds_of small_outcome with [] -> kinds0 | ks -> ks in
        let file = Option.map (fun dir -> Corpus.write ~dir ~kinds small_sc) corpus_dir in
        failures :=
          { fl_label = sc.Gen.sc_label;
            fl_kinds = kinds;
            fl_detail = detail_of (if small_outcome.Oracle.o_divs <> [] then small_outcome else outcome);
            fl_file = file;
            fl_scenario = small_sc }
          :: !failures
      end);
    if (index + 1) mod 50 = 0 then
      log (Printf.sprintf "%d/%d cases, %d divergent" (index + 1) iters (List.length !failures))
  done;
  { r_cases = iters;
    r_failures = List.rev !failures;
    r_mutated = !mutated;
    r_caught = !caught;
    r_coverage = !cov;
    r_shrink_attempts = !shrink_attempts }

let replay ?advise ?mutation (path : string) : Oracle.outcome =
  Oracle.run ?advise ?mutation (Corpus.load path)

let replay_dir ?advise ?mutation ?(log = fun _ -> ()) (dir : string) :
    (string * Oracle.outcome) list =
  List.map
    (fun path ->
      let o = replay ?advise ?mutation path in
      log
        (Printf.sprintf "%s: %s" path
           (if o.Oracle.o_divs = [] then "ok" else "DIVERGED " ^ String.concat " " (kinds_of o)));
      (path, o))
    (Corpus.files dir)
