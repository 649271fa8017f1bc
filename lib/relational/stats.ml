(* ANALYZE-collected table and column statistics.

   One pass over a table computes, per column: the exact distinct count
   (NDV: the runs of equal values in the sorted non-null values, so
   Int/Float compare across types and NULLs never inflate the count),
   min/max under the total order, the null count, and an equi-depth
   histogram (bucket upper boundaries over the same sorted values). The
   snapshot records the table version it was collected at; consumers
   ({!Cost}, the [sys.column_stats] view) treat a version mismatch as
   staleness — flagged, never silently reused.

   Tables are in memory, so "statistics" here are exact at collection
   time; what ANALYZE buys over {!Table.distinct_estimate} is O(1) reads
   on the optimizer's hot path plus value-distribution information
   (histograms, null fractions) that no on-the-fly scan provides. *)

type col_stats = {
  cs_name : string;
  cs_ndv : int;  (** distinct non-null values (>= 1 by convention) *)
  cs_min : Value.t;  (** [Null] when the column has no non-null values *)
  cs_max : Value.t;
  cs_nulls : int;
  cs_hist : Value.t array;  (** equi-depth bucket upper boundaries, ascending *)
}

type table_stats = {
  ts_table : string;  (** catalog name, as registered *)
  ts_version : int;  (** {!Table.version} at collection time *)
  ts_collected_ns : float;  (** wall-clock collection time (epoch ns) *)
  ts_rowcount : int;
  ts_cols : col_stats array;
}

(* target number of histogram buckets; fewer when NDV is small *)
let hist_target = 8

(* [sorted] is ascending under [Value.compare_total] *)
let equi_depth (sorted : Value.t array) : Value.t array =
  let len = Array.length sorted in
  if len = 0 then [||]
  else begin
    let b = min hist_target len in
    Array.init b (fun k -> sorted.(((k + 1) * len / b) - 1))
  end

(* [Value.equal] is [compare_total = 0], so equal values are adjacent in
   [sorted]: NDV is the number of runs, each compared to its first value *)
let distinct_runs (sorted : Value.t array) =
  let n = ref 0 and head = ref Value.Null in
  Array.iter
    (fun v ->
      if !n = 0 || Value.compare_total v !head <> 0 then begin
        incr n;
        head := v
      end)
    sorted;
  !n

(** [analyze t] is a statistics snapshot of [t]'s current contents. *)
let analyze (t : Table.t) : table_stats =
  let schema = Table.schema t in
  let arity = Schema.arity schema in
  let nulls = Array.make arity 0 in
  let mins = Array.make arity Value.Null in
  let maxs = Array.make arity Value.Null in
  let non_null : Value.t list array = Array.make arity [] in
  let rowcount = ref 0 in
  Table.iter
    (fun _ row ->
      incr rowcount;
      for i = 0 to arity - 1 do
        let v = row.(i) in
        if Value.is_null v then nulls.(i) <- nulls.(i) + 1
        else begin
          (match mins.(i) with
          | Value.Null -> mins.(i) <- v
          | m -> if Value.compare_total v m < 0 then mins.(i) <- v);
          (match maxs.(i) with
          | Value.Null -> maxs.(i) <- v
          | m -> if Value.compare_total v m > 0 then maxs.(i) <- v);
          non_null.(i) <- v :: non_null.(i)
        end
      done)
    t;
  let cols =
    Array.init arity (fun i ->
        let sorted = Array.of_list non_null.(i) in
        Array.sort Value.compare_total sorted;
        { cs_name = (Schema.col schema i).Schema.col_name;
          cs_ndv = max 1 (distinct_runs sorted);
          cs_min = mins.(i);
          cs_max = maxs.(i);
          cs_nulls = nulls.(i);
          cs_hist = equi_depth sorted })
  in
  { ts_table = Table.name t; ts_version = Table.version t;
    ts_collected_ns = Obs.Metrics.now_ns (); ts_rowcount = !rowcount; ts_cols = cols }

(** [null_frac st cs] is the fraction of NULLs in the column at collection
    time (0 on empty tables). *)
let null_frac (st : table_stats) (cs : col_stats) =
  if st.ts_rowcount = 0 then 0. else float_of_int cs.cs_nulls /. float_of_int st.ts_rowcount

(** [range_fraction cs op v] estimates the fraction of the column's
    non-null values satisfying [col op v] from the equi-depth histogram:
    each bucket holds ~1/B of the values, so the satisfied fraction is the
    share of buckets whose upper boundary clears [v]. [None] without a
    histogram (empty column). *)
let range_fraction (cs : col_stats) (op : [ `Lt | `Le | `Gt | `Ge ]) (v : Value.t) :
    float option =
  let b = Array.length cs.cs_hist in
  if b = 0 then None
  else begin
    let le =
      Array.fold_left
        (fun acc bound -> if Value.compare_total bound v <= 0 then acc + 1 else acc)
        0 cs.cs_hist
    in
    let frac_le = float_of_int le /. float_of_int b in
    let frac = match op with `Lt | `Le -> frac_le | `Gt | `Ge -> 1. -. frac_le in
    Some (Float.min 1. (Float.max 0.01 frac))
  end
