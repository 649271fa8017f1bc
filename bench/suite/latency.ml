(* Latency statistics: nearest-rank percentiles over integer-nanosecond
   samples, and the rule deciding which percentiles a sample supports. *)

(** A percentile is reported only when at least this many samples lie
    beyond it: p99 needs 1,000 samples, p90 needs 100, p50 needs 20. *)
let min_beyond = 10

(** [nearest_rank sorted ~pct] is the smallest sample with at least
    [pct]% of the samples at or below it (the nearest-rank definition:
    rank [ceil (pct/100 * n)], 1-based).
    @raise Invalid_argument on an empty array or [pct] outside 1..100. *)
let nearest_rank (sorted : int array) ~pct =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Latency.nearest_rank: no samples";
  if pct < 1 || pct > 100 then invalid_arg "Latency.nearest_rank: pct outside 1..100";
  let rank = ((pct * n) + 99) / 100 in
  sorted.(max 1 rank - 1)

(** Growable sample buffer (ints: nanoseconds). *)
type samples = { mutable data : int array; mutable len : int }

let create_samples () = { data = Array.make 1024 0; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len

(** [needed ~pct] is the sample count [pct] needs for {!min_beyond}
    samples above it. *)
let needed ~pct = ((min_beyond * 100) + (100 - pct) - 1) / (100 - pct)

(** [percentile s ~pct] is the nearest-rank [pct]-th percentile of every
    sample in [s]; [None] when [s] holds fewer than [needed ~pct]. *)
let percentile s ~pct =
  if s.len < needed ~pct then None
  else begin
    let a = Array.sub s.data 0 s.len in
    Array.sort compare a;
    Some (nearest_rank a ~pct)
  end

(** [median_float xs] is the median of a non-empty list (mean of the two
    middle values for even lengths). *)
let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Latency.median_float: empty";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
