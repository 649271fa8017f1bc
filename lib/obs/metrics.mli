(** Process-global metrics registry: named counters, gauges and
    fixed-bucket latency histograms.

    Instruments are memoized by name — [counter n] returns the same cell
    on every call, so hot paths resolve their instrument once at module
    initialization and pay one field update per event. Renders to JSON and
    Prometheus text; [reset] zeroes values (registrations survive) so
    tests and benchmark iterations can diff clean windows.

    The engine is single-threaded; the registry does no locking. *)

type counter
type gauge
type histogram

(** [now_ns ()] is a wall-clock timestamp in nanoseconds (the time source
    shared by {!Trace} and plan instrumentation). *)
val now_ns : unit -> float

(** [counter name] registers (or finds) the counter [name]. *)
val counter : string -> counter

(** [incr ?by c] adds [by] (default 1) to [c]. *)
val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

(** [counter_get name] is the value of counter [name], 0 when never
    registered. *)
val counter_get : string -> int

(** [since ()] snapshots every counter; the returned function maps a
    counter name to its growth since the snapshot (0 for a counter that
    has not moved), so tests, benches and the shell diff windows without
    {!reset}. A {!reset} inside the window makes deltas negative. *)
val since : unit -> string -> int

(** [gauge name] registers (or finds) the gauge [name]. *)
val gauge : string -> gauge

val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** Default latency histogram buckets, nanoseconds: 1us..10s in decades. *)
val default_buckets : float array

(** [histogram ?bounds name] registers (or finds) a histogram; [bounds]
    (strictly ascending upper bounds; an overflow bucket is implicit) is
    honored only on first registration.
    @raise Invalid_argument when [bounds] is not strictly ascending. *)
val histogram : ?bounds:float array -> string -> histogram

(** [observe h v] records one observation. *)
val observe : histogram -> float -> unit

val hist_count : histogram -> int
val hist_sum : histogram -> float

(** [hist_buckets h] lists buckets as [(upper_bound, count)] pairs in
    ascending order; the overflow bucket carries [None]. *)
val hist_buckets : histogram -> (float option * int) list

(** [hist_quantile h q] is the interpolated [q]-quantile (0..1) of the
    recorded observations, reconstructed from bucket counts (overflow
    observations are attributed to the last finite bound). NaN when
    empty. *)
val hist_quantile : histogram -> float -> float

(** [hist_sum_get name] / [hist_count_get name]: read-side lookups by
    name; 0 when never registered. *)

val hist_sum_get : string -> float
val hist_count_get : string -> int

(** [reset ()] zeroes every instrument but keeps registrations. *)
val reset : unit -> unit

(** Registry enumeration (name-sorted), for renderers and the [sys.*]
    catalog views. *)

val counters_list : unit -> (string * int) list
val gauges_list : unit -> (string * float) list
val histograms_list : unit -> (string * histogram) list

(** [to_json ()] renders the registry as one JSON object. *)
val to_json : unit -> string

(** [to_prometheus ()] renders the registry in the Prometheus text
    exposition format. *)
val to_prometheus : unit -> string

(** [dump ?prefix ppf ()] prints a human-oriented snapshot of every
    nonzero instrument (the shell's [\metrics]); histograms include
    interpolated p50/p95/p99. [prefix] restricts the dump to instruments
    whose name starts with it. *)
val dump : ?prefix:string -> Format.formatter -> unit -> unit
