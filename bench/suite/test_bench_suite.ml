(* Unit tests of the benchmark's statistics and of its definition table. *)

open Xnf_bench_suite

let ints n = Array.init n (fun i -> i + 1)

let nearest_rank () =
  let a = ints 100 in
  List.iter
    (fun (pct, want) -> Alcotest.(check int) (Printf.sprintf "p%d of 1..100" pct) want (Latency.nearest_rank a ~pct))
    [ (1, 1); (50, 50); (90, 90); (99, 99); (100, 100) ];
  (* rank = ceil (pct/100 * n): p50 of 1..5 is the 3rd, p90 of 1..10 the 9th *)
  Alcotest.(check int) "p50 of 5" 3 (Latency.nearest_rank (ints 5) ~pct:50);
  Alcotest.(check int) "p90 of 10" 9 (Latency.nearest_rank (ints 10) ~pct:90);
  Alcotest.(check int) "p99 of 1" 1 (Latency.nearest_rank (ints 1) ~pct:99);
  Alcotest.(check int) "p99 of 1000" 990 (Latency.nearest_rank (ints 1000) ~pct:99);
  Alcotest.check_raises "empty" (Invalid_argument "Latency.nearest_rank: no samples") (fun () ->
      ignore (Latency.nearest_rank [||] ~pct:50))

let tail_rule () =
  Alcotest.(check int) "p99 needs 1000 samples" 1000 (Latency.needed ~pct:99);
  Alcotest.(check int) "p90 needs 100 samples" 100 (Latency.needed ~pct:90);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Latency.needed ~pct:50);
  let samples l =
    let s = Latency.create_samples () in
    List.iter (Latency.add s) l;
    s
  in
  Alcotest.(check (option int)) "99 samples support no p90" None
    (Latency.percentile (samples (List.init 99 Fun.id)) ~pct:90);
  Alcotest.(check (option int)) "100 samples support a p90" (Some 90)
    (Latency.percentile (samples (List.init 100 (fun i -> 100 - i))) ~pct:90);
  Alcotest.(check (option int)) "999 samples support no p99" None
    (Latency.percentile (samples (List.init 999 Fun.id)) ~pct:99);
  Alcotest.(check (option int)) "1000 samples support a p99" (Some 990)
    (Latency.percentile (samples (List.init 1000 (fun i -> i + 1))) ~pct:99)

(* a slow first half and a fast second half: the percentile is over every
   sample, so the slow half shows *)
let whole_window () =
  let s = Latency.create_samples () in
  for i = 0 to 799 do
    Latency.add s (if i < 400 then 2000 + (i mod 10) else 1000 + (i mod 10))
  done;
  Alcotest.(check (option int)) "p50" (Some 1009) (Latency.percentile s ~pct:50);
  Alcotest.(check (option int)) "p90" (Some 2007) (Latency.percentile s ~pct:90)

(* an op that raises stops the run as an oracle failure and counts as
   failed; it never leaves the samples quietly *)
let raising_op () =
  let w =
    { Harness.kinds = [| Harness.kind "ok" Harness.Read; Harness.kind "boom" Harness.Write |];
      ops = [| 0; 0; 1; 0 |];
      exec = (fun i -> if i = 2 then failwith "injected");
      check = ignore; finish = ignore; layer = (fun () -> []) }
  in
  let win = Harness.new_window () in
  let failed0 = Harness.tally.Harness.t_failed in
  (match Harness.run_ops w ~first:0 ~deadline:max_int ~limit:4 win with
  | _ -> Alcotest.fail "a raising op did not stop the run"
  | exception Harness.Mismatch _ -> ());
  Alcotest.(check int) "failed ops" 1 (Harness.tally.Harness.t_failed - failed0);
  Alcotest.(check int) "ops timed before the failure" 2 win.Harness.attempted;
  (* a failing oracle stops the run the same way *)
  let w = { w with exec = ignore; check = (fun i -> if i = 1 then raise Not_found) } in
  match Harness.run_ops w ~first:0 ~deadline:max_int ~limit:4 (Harness.new_window ()) with
  | _ -> Alcotest.fail "a raising oracle did not stop the run"
  | exception Harness.Mismatch _ -> ()

(* the control kernel does the same work every time, and the first tick
   runs it and sets a reference-time factor *)
let control () =
  Alcotest.(check int) "kernel hits" Control.expected_hits (Control.kernel ());
  Alcotest.(check int) "kernel hits again" Control.expected_hits (Control.kernel ());
  Control.reset ();
  Control.tick ();
  Alcotest.(check int) "one kernel run" 1 (Latency.count Control.times);
  Control.tick ();
  Alcotest.(check int) "no second run within the period" 1 (Latency.count Control.times);
  Alcotest.(check bool) "factor is reference over kernel time" true
    (Float.abs
       ((!Control.factor *. float_of_int Control.times.Latency.data.(0)) -. Control.reference_ns)
    < 1.)

let median () =
  Alcotest.(check (float 0.)) "odd" 2. (Latency.median_float [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Latency.median_float [ 4.; 1.; 3.; 2. ])

let valid_name s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let definition () =
  let names =
    List.map (fun w -> w.Spec.w_name) Spec.workloads
    @ List.map (fun e -> e.Spec.e_name) Spec.end_to_end
    @ List.map (fun l -> l.Spec.l_name) Spec.per_layer
  in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n)) names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun w -> Alcotest.(check bool) ("why fits " ^ w.Spec.w_name) true (String.length w.Spec.w_why <= 200))
    Spec.workloads;
  (* the benchmark format allows bounds up to 25% and requires set-up time
     to carry the largest one *)
  List.iter
    (fun e ->
      Alcotest.(check bool) ("bound of " ^ e.Spec.e_name) true (e.Spec.e_bound > 0. && e.Spec.e_bound <= 0.25))
    Spec.end_to_end;
  match List.find_opt (fun e -> e.Spec.e_name = "setup_s") Spec.end_to_end with
  | Some e ->
    Alcotest.(check string) "setup_s unit" "s" e.Spec.e_unit;
    Alcotest.(check bool) "setup_s has the largest bound" true
      (List.for_all (fun o -> o == e || o.Spec.e_bound < e.Spec.e_bound) Spec.end_to_end)
  | None -> Alcotest.fail "no setup_s metric"

let rendered () =
  match Json.parse (Spec.benchmark_json ()) with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "top-level keys"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "BENCHMARK.json is not an object"

let () =
  Alcotest.run "bench-suite"
    [ ( "stats",
        [ Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "tail needs 10 samples beyond" `Quick tail_rule;
          Alcotest.test_case "whole window" `Quick whole_window;
          Alcotest.test_case "control kernel" `Quick control;
          Alcotest.test_case "median" `Quick median ] );
      ("harness", [ Alcotest.test_case "a raising op fails the run" `Quick raising_op ]);
      ( "spec",
        [ Alcotest.test_case "definition limits" `Quick definition;
          Alcotest.test_case "rendered keys" `Quick rendered ] ) ]
