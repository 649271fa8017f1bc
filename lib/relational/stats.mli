(** ANALYZE-collected table and column statistics.

    One pass over a table computes per-column NDV (the runs of equal
    values among the sorted non-null values), min/max under the total
    order, null counts and equi-depth histograms. The snapshot records
    the {!Table.version} it was collected at; consumers treat a version
    mismatch as staleness — flagged (see [sys.column_stats]), never
    silently reused. *)

type col_stats = {
  cs_name : string;
  cs_ndv : int;  (** distinct non-null values (>= 1 by convention) *)
  cs_min : Value.t;  (** [Null] when the column has no non-null values *)
  cs_max : Value.t;
  cs_nulls : int;
  cs_hist : Value.t array;  (** equi-depth bucket upper boundaries, ascending *)
}

type table_stats = {
  ts_table : string;
  ts_version : int;  (** {!Table.version} at collection time *)
  ts_collected_ns : float;  (** wall-clock collection time (epoch ns) *)
  ts_rowcount : int;
  ts_cols : col_stats array;
}

(** [analyze t] is a statistics snapshot of [t]'s current contents. *)
val analyze : Table.t -> table_stats

(** [null_frac st cs] is the column's NULL fraction at collection time. *)
val null_frac : table_stats -> col_stats -> float

(** [range_fraction cs op v] estimates the fraction of the column's
    non-null values satisfying [col op v] from the histogram; [None]
    without one. Clamped to [0.01, 1]. *)
val range_fraction : col_stats -> [ `Lt | `Le | `Gt | `Ge ] -> Value.t -> float option
