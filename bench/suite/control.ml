(* The host-speed control. The reference machine is a shared VM whose
   speed changes while a run is measured: the same op sequence, run again
   a minute later, can take 25% longer (README.md, "Host speed"). Every
   op is therefore timed against a control kernel, which is a fixed piece
   of hash-build and probe work over int arrays allocated once. The kernel
   runs no engine code and allocates nothing, so a change to the engine
   cannot change its time.

   The kernel runs between ops once every [period_ns]. The ops that follow
   it are reported in reference time: each op's measured time multiplied
   by [reference_ns /. kernel time], as if the host ran the kernel in
   exactly 1 ms. Every op counts, and none is dropped. *)

let period_ns = 100_000_000
let reference_ns = 1_000_000.

let slots = 65_536
let table = Array.make slots (-1)
let keys = Array.init 16_384 (fun i -> (i * 2_654_435_761) land 0x3fff_ffff)

let slot k = ((k * 0x9e37_79b1) lsr 7) land (slots - 1)

(** [kernel ()] builds an open-addressing table of {!keys} and probes it
    with 32,768 keys, half of them present, four times over; it returns
    the number of hits (always [4 * 16_384]). *)
let kernel () =
  let hits = ref 0 in
  for _ = 1 to 4 do
    Array.fill table 0 slots (-1);
    Array.iter
      (fun k ->
        let h = ref (slot k) in
        while table.(!h) >= 0 do
          h := (!h + 1) land (slots - 1)
        done;
        table.(!h) <- k)
      keys;
    for i = 0 to (2 * Array.length keys) - 1 do
      let k = if i land 1 = 0 then keys.(i lsr 1) else (i * 7) lor 0x4000_0000 in
      let h = ref (slot k) in
      while table.(!h) >= 0 && table.(!h) <> k do
        h := (!h + 1) land (slots - 1)
      done;
      if table.(!h) = k then incr hits
    done
  done;
  !hits

let expected_hits = 4 * Array.length keys
let last_ns = ref (-period_ns)

(** Reference time per measured ns since the kernel last ran. *)
let factor = ref 1.

(** Kernel times (ns) since the last {!reset}. *)
let times = Latency.create_samples ()

let reset () = times.Latency.len <- 0

(** [tick ()] runs the kernel when [period_ns] have passed since it last
    did, and updates {!factor}.
    @raise Failure when the kernel computes a wrong result. *)
let tick () =
  let t0 = Tracer.now_ns () in
  if t0 - !last_ns >= period_ns then begin
    if kernel () <> expected_hits then failwith "control kernel: wrong hit count";
    let t1 = Tracer.now_ns () in
    Latency.add times (t1 - t0);
    factor := reference_ns /. float_of_int (max 1 (t1 - t0));
    last_ns := t1
  end
