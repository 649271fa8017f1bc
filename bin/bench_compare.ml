(* Benchmark baseline gate.

   Compares a fresh metrics snapshot (produced by `bench --json`) against
   a committed baseline (BENCH_seed.json) and exits non-zero on
   regression. Only keys prefixed "bench." are gated — the snapshot
   carries every registry metric, but experiments publish their contract
   under the bench.* namespace on purpose:

   - counters must match exactly (they encode deterministic behavior,
     e.g. "the warm loop hit the plan cache once per repetition");
   - gauges (timings and the ratios of timings) are reported with their
     drift from the baseline and never fail the gate: on a shared host
     they move by more than any useful band on unchanged code, so every
     gated claim has a counter form or an absolute limit instead;
   - bench.* keys present on only ONE side are hard failures in both
     directions: a baseline key missing from the fresh run means an
     experiment silently stopped publishing, a fresh key missing from
     the baseline means a new metric is riding ungated. `--allow-missing`
     downgrades both to warnings (for bootstrapping a new baseline —
     value mismatches still fail);
   - `--min KEY=VAL` (repeatable) additionally enforces an absolute
     floor on a fresh value, e.g. `--min bench.e4.fault_ratio=2`.
     An explicitly demanded floor whose key is absent always fails,
     even under --allow-missing;
   - `--max KEY=VAL` (repeatable) mirrors `--min` as an absolute
     ceiling, e.g. `--max bench.e12.alloc_bytes_per_probe=684` pins a
     per-probe allocation budget that must never regress upward.

   Usage: bench_compare BASELINE FRESH [--allow-missing]
                        [--min KEY=VAL]... [--max KEY=VAL]... *)

type json =
  | J_num of float
  | J_str of string
  | J_bool of bool
  | J_null
  | J_obj of (string * json) list
  | J_arr of json list

exception Parse_error of string

(* minimal recursive-descent JSON reader — the input is machine-written
   by Obs.Metrics.to_json, so no streaming or error recovery needed *)
let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' ->
          if !pos >= n then fail "unterminated escape"
          else begin
            let e = s.[!pos] in
            advance ();
            (match e with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
              (* baseline keys are ASCII; keep the escape verbatim *)
              Buffer.add_string b "\\u"
            | _ -> fail "bad escape");
            go ()
          end
        | c ->
          Buffer.add_char b c;
          go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        J_obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        J_obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        J_arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        J_arr (List.rev !items)
      end
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some ('0' .. '9' | '-') -> J_num (parse_number ())
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* numeric entries of one top-level section ("counters" / "gauges") *)
let section (j : json) name : (string * float) list =
  match j with
  | J_obj fields -> begin
    match List.assoc_opt name fields with
    | Some (J_obj entries) ->
      List.filter_map (fun (k, v) -> match v with J_num f -> Some (k, f) | _ -> None) entries
    | _ -> []
  end
  | _ -> []

let is_bench key =
  String.length key >= 6 && String.sub key 0 6 = "bench."

let () =
  let baseline_path = ref None in
  let fresh_path = ref None in
  let allow_missing = ref false in
  let mins : (string * float) list ref = ref [] in
  let maxs : (string * float) list ref = ref [] in
  let usage () =
    prerr_endline
      "usage: bench_compare BASELINE FRESH [--allow-missing] [--min KEY=VAL]... [--max KEY=VAL]...";
    exit 2
  in
  let rec parse_args = function
    | [] -> ()
    | "--allow-missing" :: rest ->
      allow_missing := true;
      parse_args rest
    | (("--min" | "--max") as flag) :: kv :: rest -> begin
      match String.index_opt kv '=' with
      | Some i -> begin
        let k = String.sub kv 0 i in
        match float_of_string_opt (String.sub kv (i + 1) (String.length kv - i - 1)) with
        | Some v ->
          let dst = if flag = "--min" then mins else maxs in
          dst := (k, v) :: !dst;
          parse_args rest
        | None -> usage ()
      end
      | None -> usage ()
    end
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest ->
      (if !baseline_path = None then baseline_path := Some a
       else if !fresh_path = None then fresh_path := Some a
       else usage ());
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let baseline_path, fresh_path =
    match (!baseline_path, !fresh_path) with Some b, Some f -> (b, f) | _ -> usage ()
  in
  let load path =
    try parse_json (read_file path) with
    | Sys_error e ->
      Printf.eprintf "bench_compare: %s\n" e;
      exit 2
    | Parse_error e ->
      Printf.eprintf "bench_compare: %s: %s\n" path e;
      exit 2
  in
  let base = load baseline_path and fresh = load fresh_path in
  let failures = ref 0 in
  let ok fmt = Printf.printf ("  ok    " ^^ fmt ^^ "\n") in
  let bad fmt =
    incr failures;
    Printf.printf ("  FAIL  " ^^ fmt ^^ "\n")
  in
  (* missing bench.* keys: hard failure unless --allow-missing *)
  let miss fmt =
    if !allow_missing then Printf.printf ("  warn  " ^^ fmt ^^ " (--allow-missing)\n")
    else bad fmt
  in
  Printf.printf "bench gate: %s vs %s (counters exact, gauges reported)\n" baseline_path fresh_path;
  (* counters: deterministic behavior, exact equality *)
  let base_counters = section base "counters" in
  let fresh_counters = section fresh "counters" in
  List.iter
    (fun (k, bv) ->
      if is_bench k then
        match List.assoc_opt k fresh_counters with
        | None -> miss "%-34s missing from fresh run" k
        | Some fv when fv = bv -> ok "%-34s %.0f = %.0f" k bv fv
        | Some fv -> bad "%-34s expected %.0f, got %.0f" k bv fv)
    base_counters;
  (* gauges: reports only *)
  let base_gauges = section base "gauges" in
  let fresh_gauges = section fresh "gauges" in
  List.iter
    (fun (k, bv) ->
      if is_bench k then
        match List.assoc_opt k fresh_gauges with
        | None -> miss "%-34s missing from fresh run" k
        | Some fv ->
          Printf.printf "  info  %-34s %.4g -> %.4g (%+.1f%%)\n" k bv fv
            (if bv = 0. then fv else (fv -. bv) /. abs_float bv *. 100.))
    base_gauges;
  (* fresh bench.* keys the baseline does not know: a new or renamed
     metric would otherwise ride ungated forever *)
  List.iter
    (fun (known, fresh_section) ->
      List.iter
        (fun (k, _) ->
          if is_bench k && not (List.mem_assoc k known) then
            miss "%-34s missing from baseline (regenerate BENCH_seed.json)" k)
        fresh_section)
    [ (base_counters, fresh_counters); (base_gauges, fresh_gauges) ];
  (* absolute floors, e.g. --min bench.e4.fault_ratio=2 *)
  List.iter
    (fun (k, floor_v) ->
      match (List.assoc_opt k fresh_gauges, List.assoc_opt k fresh_counters) with
      | Some fv, _ | None, Some fv ->
        if fv >= floor_v then ok "%-34s %.4g >= %.4g" k fv floor_v
        else bad "%-34s %.4g < %.4g" k fv floor_v
      | None, None -> bad "%-34s missing from fresh run" k)
    (List.rev !mins);
  (* absolute ceilings, e.g. --max bench.e12.alloc_bytes_per_probe=684 *)
  List.iter
    (fun (k, ceil_v) ->
      match (List.assoc_opt k fresh_gauges, List.assoc_opt k fresh_counters) with
      | Some fv, _ | None, Some fv ->
        if fv <= ceil_v then ok "%-34s %.4g <= %.4g" k fv ceil_v
        else bad "%-34s %.4g > %.4g" k fv ceil_v
      | None, None -> bad "%-34s missing from fresh run" k)
    (List.rev !maxs);
  if !failures > 0 then begin
    Printf.printf "bench gate: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "bench gate: pass"
