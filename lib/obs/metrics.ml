(* Process-global metrics registry.

   Counters, gauges and fixed-bucket latency histograms, registered by
   dotted name ("bufpool.hits", "xnf.fetch.miss", "span.execute_ns").
   Instruments are memoized by name: [counter n] returns the same cell on
   every call, so hot paths resolve their instrument once at module
   initialization and pay one unboxed field update per event. The registry
   renders to JSON and to the Prometheus text exposition format; [reset]
   zeroes every value but keeps registrations, so tests and benchmark
   iterations can diff clean windows.

   The engine is single-threaded (one session per process); no locking. *)

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }

type histogram = {
  h_name : string;
  h_bounds : float array;  (** ascending upper bounds; +inf bucket implicit *)
  h_counts : int array;  (** length = |bounds| + 1, non-cumulative *)
  mutable h_count : int;
  mutable h_sum : float;
}

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

(** [now_ns ()] is a wall-clock timestamp in nanoseconds (the time source
    shared by {!Trace} and plan instrumentation). *)
let now_ns () = Unix.gettimeofday () *. 1e9

(** [counter name] registers (or finds) the counter [name]. *)
let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace counters name c;
    c

(** [incr ?by c] adds [by] (default 1) to [c]. *)
let incr ?(by = 1) c = c.c_value <- c.c_value + by

let counter_value c = c.c_value

(** [counter_get name] is the current value of [name], 0 when never
    registered (read-side convenience for tests and renderers). *)
let counter_get name =
  match Hashtbl.find_opt counters name with Some c -> c.c_value | None -> 0

(** [since ()] snapshots every counter and returns a reader of counter
    growth since the snapshot, so callers diff windows without [reset]. *)
let since () =
  let snap = Hashtbl.create 64 in
  Hashtbl.iter (fun name c -> Hashtbl.replace snap name c.c_value) counters;
  fun name -> counter_get name - Option.value ~default:0 (Hashtbl.find_opt snap name)

(** [gauge name] registers (or finds) the gauge [name]. *)
let gauge name =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0. } in
    Hashtbl.replace gauges name g;
    g

let set g v = g.g_value <- v
let gauge_value g = g.g_value

(** Default latency buckets, nanoseconds: 1us .. 10s in decades. *)
let default_buckets = [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 |]

(** [histogram ?bounds name] registers (or finds) the histogram [name].
    [bounds] (ascending upper bounds) is honored only on first
    registration.
    @raise Invalid_argument when [bounds] is not strictly ascending. *)
let histogram ?(bounds = default_buckets) name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    Array.iteri
      (fun i b -> if i > 0 && b <= bounds.(i - 1) then invalid_arg "Metrics.histogram: bounds")
      bounds;
    let h =
      { h_name = name; h_bounds = bounds; h_counts = Array.make (Array.length bounds + 1) 0;
        h_count = 0; h_sum = 0. }
    in
    Hashtbl.replace histograms name h;
    h

(** [observe h v] records one observation. *)
let observe h v =
  let n = Array.length h.h_bounds in
  let rec slot i = if i >= n || v <= h.h_bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

let hist_count h = h.h_count
let hist_sum h = h.h_sum

(** [hist_buckets h] lists the buckets as [(upper_bound, count)] pairs in
    ascending order; the overflow bucket carries [None]. *)
let hist_buckets h =
  Array.to_list
    (Array.mapi
       (fun i n ->
         ((if i < Array.length h.h_bounds then Some h.h_bounds.(i) else None), n))
       h.h_counts)

(** [hist_quantile h q] is the interpolated [q]-quantile (0..1) of the
    observations, reconstructed from the bucket counts: the target rank is
    located in its bucket and linearly interpolated between the bucket's
    bounds. Observations in the overflow bucket are attributed to its
    lower bound (no upper bound exists to interpolate toward). NaN when
    the histogram is empty. *)
let hist_quantile h q =
  if h.h_count = 0 then Float.nan
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let target = q *. float_of_int h.h_count in
    let nb = Array.length h.h_bounds in
    let rec go i cum =
      let here = float_of_int h.h_counts.(i) in
      if cum +. here >= target || i >= nb then begin
        let lo = if i = 0 then 0. else h.h_bounds.(i - 1) in
        let hi = if i < nb then h.h_bounds.(i) else lo in
        if here <= 0. then hi else lo +. ((hi -. lo) *. ((target -. cum) /. here))
      end
      else go (i + 1) (cum +. here)
    in
    go 0 0.
  end

(** [hist_sum_get name] is the sum of observations of [name], 0 when never
    registered. *)
let hist_sum_get name =
  match Hashtbl.find_opt histograms name with Some h -> h.h_sum | None -> 0.

let hist_count_get name =
  match Hashtbl.find_opt histograms name with Some h -> h.h_count | None -> 0

(** [reset ()] zeroes every instrument but keeps registrations. *)
let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.) gauges;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_count <- 0;
      h.h_sum <- 0.)
    histograms

let sorted tbl =
  List.sort (fun (a, _) (b, _) -> compare a b) (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(** Registry enumeration (name-sorted), for renderers and the sys.*
    catalog views. *)

let counters_list () = List.map (fun (n, c) -> (n, c.c_value)) (sorted counters)
let gauges_list () = List.map (fun (n, g) -> (n, g.g_value)) (sorted gauges)
let histograms_list () = sorted histograms

(* floats rendered compactly but losslessly enough for tooling *)
let jf v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

(** [to_json ()] renders the whole registry as one JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,buckets:[[le,n],..]}}}]. *)
let to_json () =
  let b = Buffer.create 1024 in
  let comma first = if !first then first := false else Buffer.add_char b ',' in
  Buffer.add_string b "{\"counters\":{";
  let first = ref true in
  List.iter
    (fun (name, c) -> comma first; Printf.bprintf b "%S:%d" name c.c_value)
    (sorted counters);
  Buffer.add_string b "},\"gauges\":{";
  let first = ref true in
  List.iter
    (fun (name, g) -> comma first; Printf.bprintf b "%S:%s" name (jf g.g_value))
    (sorted gauges);
  Buffer.add_string b "},\"histograms\":{";
  let first = ref true in
  List.iter
    (fun (name, h) ->
      comma first;
      Printf.bprintf b "%S:{\"count\":%d,\"sum\":%s,\"buckets\":[" name h.h_count (jf h.h_sum);
      let bfirst = ref true in
      Array.iteri
        (fun i n ->
          comma bfirst;
          let le = if i < Array.length h.h_bounds then jf h.h_bounds.(i) else "\"+inf\"" in
          Printf.bprintf b "[%s,%d]" le n)
        h.h_counts;
      Buffer.add_string b "]}")
    (sorted histograms);
  Buffer.add_string b "}}";
  Buffer.contents b

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]* *)
let prom_name name =
  String.map (fun ch -> match ch with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ch | _ -> '_') name

(** [to_prometheus ()] renders the registry in the Prometheus text
    exposition format (histogram buckets cumulative, with [+Inf]). *)
let to_prometheus () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, c) ->
      let n = prom_name name in
      Printf.bprintf b "# TYPE %s counter\n%s %d\n" n n c.c_value)
    (sorted counters);
  List.iter
    (fun (name, g) ->
      let n = prom_name name in
      Printf.bprintf b "# TYPE %s gauge\n%s %s\n" n n (jf g.g_value))
    (sorted gauges);
  List.iter
    (fun (name, h) ->
      let n = prom_name name in
      Printf.bprintf b "# TYPE %s histogram\n" n;
      let cum = ref 0 in
      Array.iteri
        (fun i cnt ->
          cum := !cum + cnt;
          let le =
            if i < Array.length h.h_bounds then jf h.h_bounds.(i) else "+Inf"
          in
          Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" n le !cum)
        h.h_counts;
      Printf.bprintf b "%s_sum %s\n%s_count %d\n" n (jf h.h_sum) n h.h_count)
    (sorted histograms);
  Buffer.contents b

(** [dump ?prefix ppf ()] prints a human-oriented snapshot: every nonzero
    counter and gauge, and count/mean/p50/p95/p99 per histogram (the
    shell's [\metrics]). [prefix] restricts the dump to instruments whose
    name starts with it (e.g. ["xnf.translate."]). *)
let dump ?(prefix = "") ppf () =
  let keep name = String.starts_with ~prefix name in
  List.iter
    (fun (name, c) ->
      if c.c_value <> 0 && keep name then Format.fprintf ppf "%-40s %d@." name c.c_value)
    (sorted counters);
  List.iter
    (fun (name, g) ->
      if g.g_value <> 0. && keep name then Format.fprintf ppf "%-40s %s@." name (jf g.g_value))
    (sorted gauges);
  List.iter
    (fun (name, h) ->
      if h.h_count > 0 && keep name then
        Format.fprintf ppf "%-40s count=%d mean=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus@." name
          h.h_count
          (h.h_sum /. float_of_int h.h_count /. 1e3)
          (hist_quantile h 0.5 /. 1e3) (hist_quantile h 0.95 /. 1e3)
          (hist_quantile h 0.99 /. 1e3))
    (sorted histograms)
