(* The XNF semantic rewrite and cache loader (§4.3).

   Translation formulates relational work per node and per relationship of
   the composed CO definition, observing reachability:

     - *root* extents are evaluated set-orientedly from their derivations;
     - reachability runs as a semi-naive delta fixpoint over the schema
       graph: per round, only the parent tuples discovered in the previous
       round probe each outgoing relationship. DAG schemas converge in one
       topological sweep; recursive schemas iterate. The naive variant
       (E6 ablation, [`Naive]) is the same loop with each round's slice
       starting at 0: it re-probes every parent and keeps only its last
       round's connections;
     - each relationship's predicate is analyzed once into its join key
       (FK pairs or USING link bindings, plus residual conjuncts), and
       each probe is *access-path selected* from it, like the plan
       optimizer does for parent/child joins ("in the plan optimizer
       handling of joins is heavily used since parent child relationships
       are computed by joins");
     - every access path is ONE prober: a key chain (an FK edge is one
       lookup keyed by parent columns, a USING edge two chained lookups
       parent -> link rows -> child rows) over a candidate source (a
       stored base-table index, a version-cached hash build over a base
       table, or a per-fetch build over a derived child's materialized
       extent), with one delivery routine (child predicate -> concat ->
       residual -> attributes, skipped entirely on the allocation-free
       fast path). Indexed keys an FK edge by one indexed pair and leaves
       the others to the residual; hash keys it by all pairs; generic
       keys nothing by the parent — each probe scans the child's rows (a
       USING edge: the link table, each link row keyed on to its
       children) and the parent's key conjuncts are residual;
     - non-root extents are therefore *lazy*: only reached tuples are ever
       materialized, which is what makes working-set extraction at 10^-4
       selectivity set-oriented AND cheap (E3);
     - connection extents are produced by the same probes that establish
       reachability, so no second join runs after the fixpoint.

   [execute_def] is a short driver over [roots], [fixpoint] (with the
   adaptive mid-fixpoint check), [connections] and [restrictions], which
   share one per-fetch runtime record. Only a derived (non-simple) node's
   derivation runs through the relational engine, once per fetch and
   only once a root evaluation or a probe needs it; the
   paper's rewrite of each relationship into a relational join survives
   as the [Baseline.Sql_route] reference. *)

open Relational
open Xnf_ast

exception Translate_error of string

let err fmt = Fmt.kstr (fun s -> raise (Translate_error s)) fmt

type fixpoint = Semi_naive | Naive

(** Edge access paths, in static selection-priority order — the
    definition lives in [Relational.Edge_cost] so the shared cost model
    and the planner speak the same type. *)
type strategy = Edge_cost.strategy = S_indexed | S_hash | S_generic

let strategy_name = Edge_cost.strategy_name

(* translation activity, in the process-global metrics registry: tests,
   benches and the shell's [\stats] read deltas of these counters *)
let m_queries = Obs.Metrics.counter "xnf.translate.queries"
let m_rounds = Obs.Metrics.counter "xnf.translate.rounds"
let m_tuples_probed = Obs.Metrics.counter "xnf.translate.tuples_probed"
let m_candidates_scanned = Obs.Metrics.counter "xnf.translate.candidates_scanned"
let m_indexed_probes = Obs.Metrics.counter "xnf.translate.indexed_probes"
let m_generic_probes = Obs.Metrics.counter "xnf.translate.generic_probes"
let m_hash_edges = Obs.Metrics.counter "xnf.translate.hash_edges"
let m_hash_builds = Obs.Metrics.counter "xnf.translate.hash_builds"
let m_hash_build_reuses = Obs.Metrics.counter "xnf.translate.hash_build_reuses"
let m_hash_probes = Obs.Metrics.counter "xnf.translate.hash_probes"
let m_cost_picks = Obs.Metrics.counter "xnf.translate.cost_picks"
let m_strategy_switches = Obs.Metrics.counter "xnf.translate.strategy_switches"

(* ---- adaptive mid-fixpoint fallback knobs ----

   Between semi-naive rounds the executor compares observed
   probe/connection/candidate-scan counters against the plan's estimates
   and switches an edge's strategy for subsequent rounds when they
   diverge beyond [adaptive_factor] (at least [adaptive_min_rows]
   observed rows, so tiny instances never flap). Process-global knobs,
   like the optimizer toggles. *)

let adaptive_factor_v = ref 8.
let adaptive_min_rows_v = ref 64

let set_adaptive_factor f = adaptive_factor_v := Float.max 0. f
let adaptive_factor () = !adaptive_factor_v
let set_adaptive_min_rows n = adaptive_min_rows_v := max 0 n
let adaptive_min_rows () = !adaptive_min_rows_v

let note_query () = Obs.Metrics.incr m_queries

let clear_quals schema =
  Schema.make (List.map (fun c -> { c with Schema.col_qualifier = "" }) (Schema.columns schema))

(* ---- simple-node analysis: direct base-table access ----

   A node derivation that is a stack of star-selects over one base-table
   select (the shape restriction folding produces) evaluates as: scan or
   index-probe the base table, filter with the combined predicate (bound
   over the base row), project the named columns. Provenance (rowid) comes
   for free, and probers can use the table's indexes. *)

type simple = {
  s_table : Table.t;
  s_proj : int array;  (** node output column -> base column *)
  s_pred : Expr.t option;  (** combined predicate over the base row *)
}

let rec analyze_simple db (q : Sql_ast.select) : (simple * Schema.t) option =
  if q.Sql_ast.sel_distinct || q.Sql_ast.sel_group_by <> [] || q.Sql_ast.sel_having <> None
     || q.Sql_ast.sel_limit <> None || q.Sql_ast.sel_order_by <> []
     || q.Sql_ast.sel_unions <> []
  then None
  else
    let env = Db.bind_env db in
    match q.Sql_ast.sel_from with
    | [ Sql_ast.From_table (table, alias) ] -> begin
      match Catalog.table_opt (Db.catalog db) table with
      | None -> None
      | Some base -> begin
        let alias = Option.value ~default:table alias in
        let scan_schema = Schema.requalify alias (Table.schema base) in
        let pred =
          try Option.map (Binder.bind_expr env scan_schema) q.Sql_ast.sel_where
          with Binder.Bind_error _ -> raise Exit
        in
        let proj =
          match q.Sql_ast.sel_items with
          | [ Sql_ast.Sel_star ] -> Some (Array.init (Schema.arity scan_schema) Fun.id)
          | items ->
            let cols =
              List.map
                (function
                  | Sql_ast.Sel_expr (Sql_ast.E_col (_, n), alias)
                    when (match alias with
                         | None -> true
                         | Some a -> String.lowercase_ascii a = String.lowercase_ascii n) ->
                    Schema.find_opt scan_schema n
                  | _ -> None)
                items
            in
            if List.for_all Option.is_some cols then
              Some (Array.of_list (List.map Option.get cols))
            else None
        in
        match proj with
        | None -> None
        | Some proj ->
          let out_schema =
            clear_quals
              (Schema.make (Array.to_list (Array.map (fun i -> Schema.col scan_schema i) proj)))
          in
          Some ({ s_table = base; s_proj = proj; s_pred = pred }, out_schema)
      end
    end
    | [ Sql_ast.From_select (inner, alias) ] when q.Sql_ast.sel_items = [ Sql_ast.Sel_star ] -> begin
      match analyze_simple db inner with
      | None -> None
      | Some (inner_simple, inner_schema) -> begin
        let wrapper_schema = Schema.requalify alias inner_schema in
        match
          try Ok (Option.map (Binder.bind_expr env wrapper_schema) q.Sql_ast.sel_where)
          with Binder.Bind_error e -> Error e
        with
        | Error _ -> None
        | Ok wpred ->
          (* rebase the wrapper predicate from projected positions to base
             positions *)
          let wpred = Option.map (Expr.map_cols (fun i -> inner_simple.s_proj.(i))) wpred in
          let pred =
            match inner_simple.s_pred, wpred with
            | None, p | p, None -> p
            | Some a, Some b -> Some (Expr.And (a, b))
          in
          Some ({ inner_simple with s_pred = pred }, inner_schema)
      end
    end
    | _ -> None

let analyze_simple db q = try analyze_simple db q with Exit -> None

(* ---- per-node runtime state ---- *)

type node_rt = {
  nr_def : Co_schema.node_def;
  nr_simple : simple option;
  nr_access : Access_path.t;  (** the simple node's base-table path, key bound *)
  nr_ni : Cache.node_inst;
  mutable nr_extent : Row.enc array option;
      (** a derived node's materialized derivation, node-output rows encoded *)
  nr_tid2pos : Intmap.t;  (** derived node: extent index -> cache position *)
  (* semi-naive frontier: every tuple is created exactly once and must be
     probed exactly once, so creation order IS the queue — a round probes
     the position slice [nr_mark, nr_limit) snapshotted at round start *)
  mutable nr_mark : int;
  mutable nr_limit : int;
}

let node_schema db (nd : Co_schema.node_def) ~simple =
  match simple with
  | Some (_, schema) -> schema
  | None ->
    let qgm = Db.bind_select db nd.Co_schema.nd_query in
    clear_quals (Qgm.schema_of (Db.catalog db) qgm)

(* a simple node's qualifying base rows through its access path, in rowid
   order: [f rowid output_row_encoded] *)
let iter_simple (s : simple) access f =
  Access_path.iter s.s_table access s.s_pred (fun rowid row ->
      f rowid (Row.encode (Row.project row s.s_proj)))

(* a derived node's extent, evaluated once per fetch through the
   relational engine. It has no base rowid: its tuples are identified by
   extent index, across its root evaluation and every edge into it *)
let ensure_extent db (rt : node_rt) : Row.enc array =
  match rt.nr_extent with
  | Some x -> x
  | None ->
    note_query ();
    let qgm = Db.bind_select db rt.nr_def.Co_schema.nd_query in
    let x = Array.of_seq (Seq.map Row.encode (Db.run_qgm db qgm)) in
    rt.nr_extent <- Some x;
    x

(* ---- probers ----

   A prober answers "children of this parent tuple" for one relationship:
   one key chain over one candidate source, with one delivery routine.
   The three strategies differ only in the chain's key and where
   candidates come from — stored base-table indexes (indexed), builds
   keyed by every key pair (hash-batch), or builds with an empty key, one
   bucket holding the child's rows (generic).

   Delivery is CPS: a prober is bound to its [emit id enc attrs]
   consumer once per batch, then fed frontier rows. Per match it emits
   the child's identity (base rowid of a simple child, extent index of a
   derived one), its ENCODED row (a simple child's base row: the consumer
   projects to node-output columns only when the tuple is first
   materialized) and the ENCODED relationship-attribute row. The fast
   path (no residual predicate, no WITH ATTRIBUTES, no probe-time child
   predicate) allocates nothing per hit over a hash build: no record, no
   list cons, no row copy, no decode. *)

type emit = int -> Row.enc -> Row.enc -> unit
type prober = emit -> Row.enc -> unit

let empty_enc : Row.enc = [||]

let qual_is alias = function
  | Some q -> String.equal (String.lowercase_ascii q) alias
  | None -> false

(* ---- join-key analysis ----

   Each relationship's predicate is split into conjuncts and classified
   once per plan, in [compile_def]: an equality between a parent column
   and a child column (base column of a simple child, output column of a
   derived one) is an FK key pair; on a USING edge an equality
   between a link column and a parent (child) column is a parent (child)
   link binding; everything else is residual. The key chains, the
   structural edge shape and — through the shape — servability
   ([Edge_cost.candidates]) all read this one result. *)

type join_key =
  | Fk of (int * int * Sql_ast.expr) list
      (** (parent column, child column, source conjunct), predicate order *)
  | Using of {
      link : Table.t;
      parent_bind : (int * int * Sql_ast.expr) list;
          (** (link column, parent column, source conjunct), predicate order *)
      child_bind : (int * int) list;  (** (link column, child column) *)
    }

type edge_keys = {
  ek_key : join_key;
  ek_key_conj : Sql_ast.expr list;  (** the key's source conjuncts, predicate order *)
  ek_residual : Sql_ast.expr list;  (** non-key conjuncts, predicate order *)
  ek_concat : Schema.t;  (** parent ++ child (++ link): residuals and attributes bind here *)
}

(* the schema an edge's residual predicate and attributes bind over:
   parent ++ child (++ USING link) rows *)
let concat_schema db (ed : Co_schema.edge_def) ~parent_schema ~child_schema =
  let base =
    Schema.concat
      (Schema.requalify ed.Co_schema.ed_parent_alias parent_schema)
      (Schema.requalify ed.Co_schema.ed_child_alias child_schema)
  in
  match ed.Co_schema.ed_using with
  | None -> base
  | Some (t, a) -> begin
    match Catalog.table_opt (Db.catalog db) t with
    | Some link -> Schema.concat base (Schema.requalify a (Table.schema link))
    | None -> base
  end

(* an arithmetic [?] operand takes its sibling's type: [Xc.g + ?] types
   as [Xc.g + Xc.g]. A slot with no typed sibling is left in place for
   [Binder.infer_ty] to reject. *)
let rec type_params = function
  | Expr.Arith (op, a, b) -> begin
    match type_params a, type_params b with
    | Expr.Param _, Expr.Param _ -> Expr.Arith (op, a, b)
    | Expr.Param _, b -> Expr.Arith (op, b, b)
    | a, Expr.Param _ -> Expr.Arith (op, a, a)
    | a, b -> Expr.Arith (op, a, b)
  end
  | Expr.Neg a -> Expr.Neg (type_params a)
  | e -> e

(* relationship-attribute output schema over an edge's concat schema *)
let attr_schema db (ed : Co_schema.edge_def) concat =
  let env = Db.bind_env db in
  Schema.make
    (List.map
       (fun (e, name) ->
         let bound = Binder.bind_expr env concat e in
         match Binder.infer_ty env concat (type_params bound) with
         | ty -> Schema.column name ty
         | exception Binder.Bind_error _ when Expr.has_param bound ->
           err "[XNF009] relationship %s: attribute %s: a parameter needs a typed operand beside it"
             ed.Co_schema.ed_name name)
       ed.Co_schema.ed_attrs)

(* [child_schema] is a simple child's base-table schema, a derived
   child's output schema *)
let analyze_keys db (ed : Co_schema.edge_def) ~(parent_schema : Schema.t) ~(child_schema : Schema.t)
    : edge_keys =
  let pa = ed.Co_schema.ed_parent_alias and ca = ed.Co_schema.ed_child_alias in
  let link =
    Option.map
      (fun (name, la) ->
        match Catalog.table_opt (Db.catalog db) name with
        | None -> err "[XNF005] relationship %s: USING table %s does not exist" ed.Co_schema.ed_name name
        | Some t -> (t, String.lowercase_ascii la))
      ed.Co_schema.ed_using
  in
  let classify (q, n) =
    if qual_is pa q then Option.map (fun i -> `Parent i) (Schema.find_opt parent_schema n)
    else if qual_is ca q then Option.map (fun i -> `Child i) (Schema.find_opt child_schema n)
    else
      match link with
      | Some (t, la) when qual_is la q ->
        Option.map (fun i -> `Link i) (Schema.find_opt (Table.schema t) n)
      | _ -> None
  in
  let fk = ref [] and parent_bind = ref [] and child_bind = ref [] in
  let key_conj = ref [] and residual = ref [] in
  let key c = key_conj := c :: !key_conj in
  let rec split = function
    | Sql_ast.E_and (a, b) -> split a; split b
    | Sql_ast.E_cmp (Expr.Eq, Sql_ast.E_col (qa, na), Sql_ast.E_col (qb, nb)) as c -> begin
      match classify (qa, na), classify (qb, nb) with
      | (Some (`Parent p), Some (`Child ch) | Some (`Child ch), Some (`Parent p)) when link = None ->
        key c;
        fk := (p, ch, c) :: !fk
      | Some (`Link l), Some (`Parent p) | Some (`Parent p), Some (`Link l) ->
        key c;
        parent_bind := (l, p, c) :: !parent_bind
      | Some (`Link l), Some (`Child ch) | Some (`Child ch), Some (`Link l) ->
        key c;
        child_bind := (l, ch) :: !child_bind
      | _ -> residual := c :: !residual
    end
    | c -> residual := c :: !residual
  in
  split ed.Co_schema.ed_pred;
  let ek_key =
    match link with
    | None -> Fk (List.rev !fk)
    | Some (link, _) ->
      Using { link; parent_bind = List.rev !parent_bind; child_bind = List.rev !child_bind }
  in
  { ek_key; ek_key_conj = List.rev !key_conj; ek_residual = List.rev !residual;
    ek_concat = concat_schema db ed ~parent_schema ~child_schema }

(* shared prelude of the probe path: residual binding over the concat
   schema and the per-EXECUTE parameter specialization. [child] is the
   simple child, [None] for a derived one. *)
let prober_ctx db (ed : Co_schema.edge_def) (keys : edge_keys) ~(child : simple option) =
  let env = Db.bind_env db in
  let bind_residual = function
    | [] -> None
    | c :: cs ->
      Some (Binder.bind_expr env keys.ek_concat (List.fold_left (fun a c -> Sql_ast.E_and (a, c)) c cs))
  in
  let attr_fns =
    List.map (fun (e, _) -> Binder.bind_expr env keys.ek_concat e) ed.Co_schema.ed_attrs
  in
  (* when the edge carries no WITH ATTRIBUTES, hits never need the
     parent++child concat row unless a residual predicate asks for it —
     delivery uses this to skip the per-hit decode and row allocation
     entirely *)
  let no_attrs = ed.Co_schema.ed_attrs = [] in
  (* bind parameter slots once per EXECUTE, not once per probed row *)
  let specialize params =
    let sub e = if Array.length params = 0 then e else Expr.subst_params params e in
    let afns = List.map sub attr_fns in
    let eval_attrs concat =
      Row.encode (Array.of_list (List.map (fun e -> Expr.eval concat e) afns))
    in
    let cpred = Option.map sub (Option.bind child (fun s -> s.s_pred)) in
    let child_ok base_row =
      match cpred with None -> true | Some p -> Value.is_true (Expr.eval_pred base_row p)
    in
    (sub, eval_attrs, child_ok)
  in
  (bind_residual, no_attrs, specialize)

(* ---- batch hash builds ----

   The set-oriented candidate source when no index serves the
   relationship: a hash table over the source table keyed by the key
   columns is built once and every probe resolves through it (a derived
   child's build is over its extent and lives for one fetch). Builds hold
   ENCODED rows keyed by [Dict.key_cell]-normalized id arrays
   (one-column keys specialize to a raw-int hash table), with the whole
   bucket stored as the hash-table VALUE — a probe is one [find]
   returning the stored list, so the hot loop allocates nothing. A
   parameter-free child predicate is folded into the build (rows failing
   it are never entered); parameterized predicates and the edge's
   residual stay at probe time, so a completed build is still held in
   the compiled plan and reused by later executions (warm EXECUTE /
   plan-cache hits) as long as the source table's DML-visible
   [Table.version] still matches; DDL invalidation needs nothing extra
   because [Fetch_plan.valid] already forces recompilation. Key equality
   and hashing are [Expr.Row_key] over normalized ids — the same
   semantics the relational hash-join operator uses (Int/Float
   cross-equality via [Dict.key_cell]) — and NULL keys never match (rows
   with a NULL key component are not entered, probes with one return
   nothing). *)

type hash_entries = (int * Row.enc) list

type hash_build = {
  hb_version : int;  (** [Table.version] of the source at build time *)
  hb_tbl : hash_tbl;
}

and hash_tbl =
  | HB_single of (int, hash_entries) Hashtbl.t  (** one key column: raw normalized ids *)
  | HB_multi of hash_entries Expr.Row_key_tbl.t

type hash_source = {
  hs_table : Table.t;
  hs_key_cols : int array;
  hs_pred : Expr.t option;  (** parameter-free child predicate, folded into the build *)
  mutable hs_build : hash_build option;  (** cached across executions of the plan *)
}

(* a plan's hash sources, one per (table, key columns, folded predicate):
   edges over the same child extent — a recursive closure's root edge and
   its recursive edge — share one build and its version check, the
   common-subexpression reuse the paper asks of the translation. Tables
   and predicates compare physically: the same node yields the same
   ones. *)
let source_memo () =
  let sources = ref [] in
  fun tbl key_cols pred ->
    match
      List.find_opt
        (fun hs ->
          hs.hs_table == tbl && hs.hs_key_cols = key_cols && Option.equal ( == ) hs.hs_pred pred)
        !sources
    with
    | Some hs -> hs
    | None ->
      let hs = { hs_table = tbl; hs_key_cols = key_cols; hs_pred = pred; hs_build = None } in
      sources := hs :: !sources;
      hs

(* one build: [iter add] feeds every candidate as [add id enc]. Pre-sized
   to [n] so no resize ever rehashes the whole build; bucket lists are
   stored as values (probe sets are frontier-sized, builds are
   extent-sized, so the build side is the one to keep lean). An empty key
   puts every row in one bucket. *)
let hash_table n (key_cols : int array) iter : hash_tbl =
  note_query ();
  Obs.Metrics.incr m_hash_builds;
  if Array.length key_cols = 1 then begin
    let kc = key_cols.(0) in
    let t : (int, hash_entries) Hashtbl.t = Hashtbl.create n in
    iter (fun id enc ->
        let k = Dict.key_cell enc.(kc) in
        if not (Dict.is_null k) then
          Hashtbl.replace t k ((id, enc) :: (match Hashtbl.find_opt t k with Some l -> l | None -> [])));
    HB_single t
  end
  else begin
    let t = Expr.Row_key_tbl.create n in
    iter (fun id enc ->
        let key = Array.map (fun i -> Dict.key_cell enc.(i)) key_cols in
        if not (Expr.Row_key.has_null key) then
          Expr.Row_key_tbl.replace t key
            ((id, enc) :: (match Expr.Row_key_tbl.find_opt t key with Some l -> l | None -> [])));
    HB_multi t
  end

let ensure_build (hs : hash_source) =
  let v = Table.version hs.hs_table in
  match hs.hs_build with
  | Some b when b.hb_version = v ->
    Obs.Metrics.incr m_hash_build_reuses;
    b.hb_tbl
  | _ ->
    let tbl =
      hash_table (max 64 (Table.cardinality hs.hs_table)) hs.hs_key_cols (fun add ->
          Access_path.iter hs.hs_table Access_path.Scan hs.hs_pred (fun rowid row ->
              add rowid (Row.encode row)))
    in
    hs.hs_build <- Some { hb_version = v; hb_tbl = tbl };
    tbl

(* buckets come out most-recently-added first, i.e. reverse table order —
   hit order within one probe is not part of the contract. [find] with
   the [Not_found] match keeps the miss path allocation-free too. *)
let probe_single (t : (int, hash_entries) Hashtbl.t) k : hash_entries =
  if Dict.is_null k then []
  else match Hashtbl.find t k with exception Not_found -> [] | l -> l

let probe_multi (t : hash_entries Expr.Row_key_tbl.t) (key : Expr.Row_key.t) : hash_entries =
  if Expr.Row_key.has_null key then []
  else match Expr.Row_key_tbl.find t key with exception Not_found -> [] | l -> l

(* key extraction from an encoded row: one-column keys probe with the
   raw normalized id, composite keys refill a per-prober scratch array
   (never retained by [Hashtbl.find]), so probing allocates nothing *)
let mk_hash_probe (tbl : hash_tbl) (cols : int array) : Row.enc -> hash_entries =
  match tbl with
  | HB_single t ->
    let c = cols.(0) in
    fun row -> probe_single t (Dict.key_cell row.(c))
  | HB_multi t ->
    let scratch = Array.make (Array.length cols) 0 in
    fun row ->
      Array.iteri (fun i ci -> scratch.(i) <- Dict.key_cell row.(ci)) cols;
      probe_multi t scratch

(* ---- candidate sources ----

   A candidate source answers "rows for this key": [src row f] calls
   [f id enc] for every candidate whose key equals [row]'s key columns,
   with the candidate's ENCODED row. A stored index looks the boxed key
   up with [Table.lookup_index] and encodes each hit; a build hands out
   its stored bucket as-is — a base table's build is version-cached
   across executions, a derived child's is made per fetch over its
   extent, identified by extent index. Here, once for all: NULL keys
   match nothing, and every candidate — before residual filtering —
   counts into the prober's [scanned] counter, the observable the
   adaptive fallback compares against the plan's scan estimate (stale
   statistics cannot show a skewed bucket, the counter does). *)

type hits = int -> Row.enc -> unit
type source = Row.enc -> hits -> unit

type source_kind =
  | Index of Table.t * Index.t  (** a stored index keyed exactly by the lookup's key columns *)
  | Build of hash_source
  | Extent of int array  (** a derived child's extent, built per fetch on these columns *)

type lookup = int array * source_kind  (** probing row's key columns, candidate source *)

let always _ = true

(* top-level loops, so a probe closes over nothing *)
let rec index_hits scanned ok (f : hits) = function
  | [] -> ()
  | (rowid, row) :: rest ->
    incr scanned;
    if ok row then f rowid (Row.encode row);
    index_hits scanned ok f rest

let rec build_hits scanned (f : hits) = function
  | [] -> ()
  | (rowid, enc) :: rest ->
    incr scanned;
    f rowid enc;
    build_hits scanned f rest

(* open a source for one execution, keyed by the probing row's [cols]: a
   base-table build is (re)built or reused here, [extent] supplies a
   derived child's rows on the first probe; a stored index filters candidates with [ok] on their
   boxed rows before encoding them (a build folds its parameter-free
   predicate in instead) *)
let open_source scanned ~ok ~extent ((cols, kind) : lookup) : source =
  match kind with
  | Index (tbl, idx) ->
    let n = Array.length cols in
    fun row f ->
      let key = Array.make n Value.Null and null = ref false in
      for i = 0 to n - 1 do
        let id = row.(cols.(i)) in
        if Dict.is_null id then null := true else key.(i) <- Dict.decode id
      done;
      if not !null then index_hits scanned ok f (Table.lookup_index tbl idx key)
  | Build hs ->
    let find = mk_hash_probe (ensure_build hs) cols in
    fun row f -> build_hits scanned f (find row)
  | Extent key_cols ->
    (* materialized on the first probe: an edge no parent reaches costs
       no derived-extent query and no build *)
    let find =
      lazy
        (let x = extent () in
         mk_hash_probe (hash_table (max 64 (Array.length x)) key_cols (fun add -> Array.iteri add x)) cols)
    in
    fun row f -> build_hits scanned f (Lazy.force find row)

(* ---- key chains ----

   The lookups one strategy probes an edge with. An FK edge is one lookup
   keyed by parent columns; a USING edge chains two: parent -> link rows
   -> child rows. The indexed chain keys an FK edge by its first pair
   with an index on the child column and leaves the other pairs to the
   residual; the hash chain keys it by all pairs; the generic chain keys
   it by none, leaving every key conjunct to the residual. *)

type key_chain = {
  kc_link : lookup option;  (** USING: parent -> link rows *)
  kc_child : lookup;  (** parent (or link) -> child rows *)
  kc_residual : Sql_ast.expr list;  (** key conjuncts the chain leaves unconsumed *)
}

(* the chain's lookups over [fk_pairs] (an FK edge) or the link bindings:
   link (probing row's columns, link table, link key columns) and child
   (probing row's columns, child key columns) *)
let lookups (keys : edge_keys) fk_pairs =
  let cols f l = Array.of_list (List.map f l) in
  match keys.ek_key with
  | Fk _ -> (None, (cols (fun (p, _, _) -> p) fk_pairs, cols (fun (_, ch, _) -> ch) fk_pairs))
  | Using { link; parent_bind; child_bind } ->
    ( Some (cols (fun (_, p, _) -> p) parent_bind, link, cols (fun (l, _, _) -> l) parent_bind),
      (cols fst child_bind, cols snd child_bind) )

let indexed_chain (keys : edge_keys) ~(child : simple) : key_chain option =
  let indexed (probe_cols, tbl, key_cols) =
    if probe_cols = [||] then None
    else Option.map (fun idx -> (probe_cols, Index (tbl, idx))) (Table.find_index tbl ~cols:key_cols)
  in
  let chain fk_pairs kc_residual =
    let link, (probe_cols, key_cols) = lookups keys fk_pairs in
    match Option.map indexed link, indexed (probe_cols, child.s_table, key_cols) with
    | None, Some kc_child -> Some { kc_link = None; kc_child; kc_residual }
    | Some (Some l), Some kc_child -> Some { kc_link = Some l; kc_child; kc_residual }
    | _ -> None
  in
  match keys.ek_key with
  | Fk pairs ->
    List.find_map
      (fun kp ->
        chain [ kp ]
          (List.filter_map (fun ((_, _, c) as kp') -> if kp' == kp then None else Some c) pairs))
      pairs
  | Using _ -> chain [] []

(* the hash chain ([keyed]) and the generic chain (not): every lookup
   resolves through a build over a base table, or over a derived child's
   extent ([child] = None). The generic chain keys nothing by the parent:
   on an FK edge the child build is one bucket of the child's qualifying
   rows that every probe scans; on a USING edge the link build is one
   bucket and each link row reaches its children through the hash
   chain's link-to-child lookup, so a probe scans the link table plus
   its matches, not link x child. *)
let build_chain ~source ~keyed (keys : edge_keys) ~(child : simple option) : key_chain =
  (* a parameter-free child predicate filters at BUILD time, so probes
     skip per-candidate predicate evaluation (and the decode it needs);
     a parameterized one stays at probe time *)
  let build_pred =
    match child with Some { s_pred = Some p; _ } when not (Expr.has_param p) -> Some p | _ -> None
  in
  let child_src key_cols =
    match child with
    | Some c -> Build (source c.s_table key_cols build_pred)
    | None -> Extent key_cols
  in
  let link, (probe_cols, key_cols) =
    lookups keys (match keys.ek_key with Fk pairs -> pairs | Using _ -> [])
  in
  match keys.ek_key with
  | _ when keyed ->
    { kc_link = Option.map (fun (pc, tbl, kc) -> (pc, Build (source tbl kc None))) link;
      kc_child = (probe_cols, child_src key_cols); kc_residual = [] }
  | Fk _ -> { kc_link = None; kc_child = ([||], child_src [||]); kc_residual = keys.ek_key_conj }
  | Using { parent_bind; _ } ->
    { kc_link = Option.map (fun (_, tbl, _) -> ([||], Build (source tbl [||] None))) link;
      kc_child = (probe_cols, child_src key_cols);
      kc_residual = List.map (fun (_, _, c) -> c) parent_bind }

(* [Row.decode] remembering its last argument: the hits of one frontier
   row share one decoded parent (and link) row *)
let decode_memo () =
  let last = ref empty_enc and dec = ref [||] in
  fun enc ->
    if enc != !last then begin
      last := enc;
      dec := Row.decode enc
    end;
    !dec

(* build the prober for [ed] over one key chain. The result is
   parameterized over EXECUTE-time values: applying it to a [params]
   array and the derived child's extent substitutes the parameter slots
   once, opens the chain's sources (building or reusing hash builds —
   once per fetch) and yields the prober. The [int ref] counts candidate
   rows scanned, cumulative over the prober's lifetime. *)
let build_prober db (ed : Co_schema.edge_def) (keys : edge_keys) ~(child : simple option)
    (chain : key_chain) : (Value.t array -> (unit -> Row.enc array) -> prober) * int ref =
  let bind_residual, no_attrs, specialize = prober_ctx db ed keys ~child in
  let residual0 = bind_residual (chain.kc_residual @ keys.ek_residual) in
  let using = chain.kc_link <> None in
  (* the child predicate no source applies: a stored index filters its
     candidates, a build folds in only a parameter-free predicate, a
     derived child has none *)
  let probe_pred =
    match snd chain.kc_child, child with
    | Build { hs_pred = None; _ }, Some { s_pred = Some _; _ } -> true
    | _ -> false
  in
  let scanned = ref 0 in
  ( (fun params extent ->
      let sub, eval_attrs, child_ok = specialize params in
      let residual = Option.map sub residual0 in
      let link_src = Option.map (open_source scanned ~ok:always ~extent) chain.kc_link in
      let child_src = open_source scanned ~ok:child_ok ~extent chain.kc_child in
      let child_ok = if probe_pred then child_ok else always in
      let fast = residual = None && no_attrs && not probe_pred in
      fun emit ->
        let parent = ref empty_enc and link = ref empty_enc in
        (* one delivery routine: the fast path emits the candidate as-is;
           the slow path applies child predicate -> concat -> residual ->
           attributes *)
        let deliver : hits =
          if fast then fun rowid enc -> emit rowid enc empty_enc
          else begin
            let parent_dec = decode_memo () and link_dec = decode_memo () in
            fun rowid enc ->
              let base = Row.decode enc in
              if child_ok base then begin
                if residual = None && no_attrs then emit rowid enc empty_enc
                else begin
                  let concat = Row.concat (parent_dec !parent) base in
                  let concat = if using then Row.concat concat (link_dec !link) else concat in
                  let keep =
                    match residual with
                    | None -> true
                    | Some p -> Value.is_true (Expr.eval_pred concat p)
                  in
                  if keep then emit rowid enc (eval_attrs concat)
                end
              end
          end
        in
        let probe =
          match link_src with
          | None -> child_src
          | Some link_src ->
            let via _ enc =
              link := enc;
              child_src enc deliver
            in
            fun row _ -> link_src row via
        in
        if fast then fun row -> probe row deliver
        else
          fun row ->
            parent := row;
            probe row deliver),
    scanned )

(* ---- structural edge shapes ----

   The join structure of each relationship — which base table the child
   resolves to, which equality columns form the join key on either side,
   whether an index serves the probe today — read off the edge's key
   analysis. Shapes carry no closures or data, only names: they exist
   for cost-based selection, servability ([Edge_cost.candidates]) and
   post-compile analysis (the static plan advisor), which must reason
   about a plan without executing it. *)

type edge_shape = Edge_cost.edge_shape = {
  es_name : string;
  es_parent : string;  (** parent node name *)
  es_child : string;  (** child node name *)
  es_strategy : strategy;  (** access path selected for this plan *)
  es_child_table : string option;  (** child's base table when the child is simple *)
  es_parent_cols : string list;  (** parent-side equality join columns (node output names) *)
  es_child_cols : string list;
      (** child-side equality join columns (base-table names; output names of a derived child) *)
  es_using : (string * string list) option;
      (** link table and the link-side columns the parent binds, for USING edges *)
  es_indexed : bool;  (** an index chain serves the probe as compiled *)
  es_residual : bool;  (** non-key conjuncts remain after key extraction *)
}

type node_shape = Edge_cost.node_shape = {
  ns_name : string;
  ns_table : string option;  (** base table when the derivation is simple *)
  ns_pred : Expr.t option;  (** combined simple predicate over the base row *)
  ns_query : Sql_ast.select;  (** the (composed) derivation *)
}

let col_name schema i = (Schema.col schema i).Schema.col_name

(* [child_table] is a simple child's base table; [child_schema] the
   schema [keys] was analyzed over; [indexed] whether the indexed key
   chain found its indexes *)
let edge_shape_of (ed : Co_schema.edge_def) ~(parent_schema : Schema.t) ~child_table ~child_schema
    (k : edge_keys) ~indexed : edge_shape =
  let base =
    { es_name = ed.Co_schema.ed_name; es_parent = ed.Co_schema.ed_parent;
      es_child = ed.Co_schema.ed_child; es_strategy = S_generic;
      es_child_table = Option.map Table.name child_table; es_parent_cols = []; es_child_cols = [];
      es_using = None; es_indexed = indexed; es_residual = k.ek_residual <> [] }
  in
  match k.ek_key with
  | Fk pairs ->
    { base with
      es_parent_cols = List.map (fun (p, _, _) -> col_name parent_schema p) pairs;
      es_child_cols = List.map (fun (_, ch, _) -> col_name child_schema ch) pairs }
  | Using { link; parent_bind; child_bind } ->
    { base with
      es_parent_cols = List.map (fun (_, p, _) -> col_name parent_schema p) parent_bind;
      es_child_cols = List.map (fun (_, ch) -> col_name child_schema ch) child_bind;
      es_using =
        Some (Table.name link, List.map (fun (l, _, _) -> col_name (Table.schema link) l) parent_bind) }

(* base tables a SELECT depends on (for staleness tracking) *)
let rec tables_of_select catalog (q : Sql_ast.select) : string list =
  let rec of_ref = function
    | Sql_ast.From_table (t, _) ->
      if Catalog.table_opt catalog t <> None then [ String.lowercase_ascii t ]
      else begin
        match Catalog.view_opt catalog t with
        | Some v -> tables_of_select catalog v.Catalog.view_query
        | None -> []
      end
    | Sql_ast.From_select (inner, _) -> tables_of_select catalog inner
    | Sql_ast.From_join (l, _, r, _) -> of_ref l @ of_ref r
  in
  List.concat_map of_ref q.Sql_ast.sel_from

(* ---- TAKE: structural projection of the evaluated instance ----

   Projection is evaluate-then-project: the full CO (with reachability) is
   computed first, then components are dropped from the output and node
   columns projected — which is what makes a restriction on a
   projected-away component meaningful (type-(3) XNF-to-NF queries). *)

let apply_column_projection cache =
  List.iter
    (fun (name, ni) ->
      let nd = Co_schema.node cache.Cache.c_def name in
      match nd.Co_schema.nd_cols with
      | None -> ()
      | Some cols ->
        let positions =
          List.map
            (fun c ->
              match Schema.find_opt ni.Cache.ni_schema c with
              | Some i -> i
              | None -> err "[XNF007] TAKE projects unknown column %s of %s" c name)
            cols
        in
        let idx = Array.of_list positions in
        ni.Cache.ni_schema <-
          Schema.make (List.map (fun i -> Schema.col ni.Cache.ni_schema i) positions);
        Vec.iter (fun t -> t.Cache.t_row <- Row.project_enc t.Cache.t_row idx) ni.Cache.ni_tuples;
        ni.Cache.ni_upd <-
          Option.map
            (fun (u : Semantic.node_updatability) ->
              { u with Semantic.nu_col_map = Array.map (fun i -> u.Semantic.nu_col_map.(i)) idx })
            ni.Cache.ni_upd)
    cache.Cache.c_nodes

let apply_take cache (take : Xnf_ast.take) : Cache.t =
  match take with
  | Xnf_ast.Take_star -> cache
  | Xnf_ast.Take_items _ ->
    let def' = Co_schema.project cache.Cache.c_def take in
    let keep_node n = Co_schema.node_opt def' n <> None in
    let keep_edge e = Co_schema.edge_opt def' e <> None in
    { cache with
      Cache.c_def = def';
      c_nodes = List.filter (fun (n, _) -> keep_node n) cache.Cache.c_nodes;
      c_edges = List.filter (fun (e, _) -> keep_edge e) cache.Cache.c_edges }

(* ---- compiled fetch plans: compile once, execute per fetch ----

   [compile_def] performs the input-independent half of translation: node
   shape analysis (simple vs. generic), output schemas, updatability
   analysis and per-edge access-path selection. The result is immutable
   and reusable; [execute_def] instantiates fresh runtime state from it
   per fetch, substituting EXECUTE-time parameter values. *)

type node_plan = {
  np_def : Co_schema.node_def;
  np_simple : simple option;
  np_access : Access_path.t;
      (** chosen over the simple node's predicate with its [?] slots
          unbound; [Scan] for non-simple nodes *)
  np_schema : Schema.t;
  np_upd : Semantic.node_updatability option;
}

let node_shape (name, np) =
  { ns_name = name; ns_table = Option.map (fun s -> Table.name s.s_table) np.np_simple;
    ns_pred = Option.bind np.np_simple (fun s -> s.s_pred); ns_query = np.np_def.Co_schema.nd_query }

(* one compiled access path: the prober parameterized over EXECUTE-time
   values and the derived child's extent (its closure owns any
   version-cached hash builds), and the cumulative candidate-rows-scanned
   counter its probes maintain *)
type built_prober = {
  bp_fn : Value.t array -> (unit -> Row.enc array) -> prober;
  bp_scanned : int ref;
}

(* every access path the edge can be served by, compiled up front: the
   plan picks one, the adaptive runtime check may instate an alternate
   mid-fixpoint. Unbuilt probers cost nothing until specialized. *)
type edge_candidates = {
  ec_attrs : Schema.t;  (** relationship-attribute schema *)
  ec_indexed : built_prober option;
  ec_hash : built_prober option;
  ec_generic : built_prober;  (** always applicable *)
}

type edge_plan = {
  ep_chosen : strategy;  (** compile-time pick (cost-based or static) *)
  ep_cands : edge_candidates;
}

(** One adaptive mid-fixpoint strategy switch, recorded on the plan. *)
type switch_rec = {
  sw_edge : string;
  sw_from : strategy;
  sw_to : strategy;
  sw_round : int;  (** fixpoint round (1-based, per execution) after which it applied *)
}

(* final updatability analysis of one edge against the post-TAKE schemas —
   a pure function of the plan, so computed once at compile time *)
type edge_final = {
  ef_upd : Semantic.edge_updatability;
  ef_pcols : int list;
  ef_ccols : int list;
}

type compiled = {
  cp_def : Co_schema.t;
  cp_nodes : (string * node_plan) list;
  cp_edges : (string * edge_plan) list;
  cp_shapes : edge_shape list;  (** structural join shape per edge, definition order *)
  cp_force : strategy option;  (** the [?force] pin the plan was compiled under *)
  cp_base_tables : string list;  (** staleness-tracked base tables *)
  cp_final : (string * edge_final) list;  (** per edge surviving the plan's TAKE *)
  cp_ests : (string * Edge_cost.edge_est) list;
      (** per-edge cost inputs, nonempty iff the pick was cost-based *)
  cp_cost_based : bool;  (** selection came from the shared cost model (fresh stats) *)
  mutable cp_switches : switch_rec list;
      (** adaptive switches, latest first, at most one per edge; written by
          executions so a plan-cache hit starts from the learned strategy *)
  mutable cp_hints : (string * int) list;
      (** last observed cardinalities ("n:<node>" tuples, "e:<edge>"
          connections) — warm executions presize the cache structures so
          the hot loop allocates no growth-doubling garbage *)
}

(** [compile_def ?take ?force db def] runs the "translate" phase on a
    composed CO definition: analysis and access-path selection, no data
    access. [take] lets the final (post-projection) updatability analysis
    be precomputed too; it defaults to [TAKE *]. [force] restricts
    access-path selection to one strategy (used by the differential fuzz
    oracle and the per-strategy bench); an edge the forced strategy cannot
    serve falls back to the always-applicable generic path. *)
let compile_def ?(take = Xnf_ast.Take_star) ?force db (def : Co_schema.t) : compiled =
  let catalog = Db.catalog db in
  Obs.Trace.with_span "translate" @@ fun () ->
  let nodes =
    List.map
      (fun nd ->
        let simple = analyze_simple db nd.Co_schema.nd_query in
        let schema = node_schema db nd ~simple in
        let upd = Semantic.analyze_node_query catalog nd.Co_schema.nd_query in
        let access =
          match simple with
          | Some ({ s_pred = Some p; s_table; _ }, _) -> Access_path.choose s_table (Expr.conjuncts p)
          | _ -> Access_path.Scan
        in
        ( nd.Co_schema.nd_name,
          { np_def = nd; np_simple = Option.map fst simple; np_access = access; np_schema = schema;
            np_upd = upd } ))
      def.Co_schema.co_nodes
  in
  let node name = List.assoc name nodes in
  let base_tables =
    List.concat_map (fun nd -> tables_of_select catalog nd.Co_schema.nd_query) def.Co_schema.co_nodes
    @ List.filter_map
        (fun (ed : Co_schema.edge_def) ->
          Option.map (fun (t, _) -> String.lowercase_ascii t) ed.Co_schema.ed_using)
        def.Co_schema.co_edges
    |> List.sort_uniq compare
  in
  (* per edge: one key analysis (over a simple child's base rows or a
     derived child's output rows), the shape read off it, and every access
     path [Edge_cost.candidates] lists for that shape, compiled up front;
     generic always applies *)
  let source = source_memo () in
  let cand_edges =
    List.map
      (fun (ed : Co_schema.edge_def) ->
        let parent = node ed.Co_schema.ed_parent and child = node ed.Co_schema.ed_child in
        let parent_schema = parent.np_schema and simple = child.np_simple in
        let child_table = Option.map (fun c -> c.s_table) simple in
        let child_schema = Option.fold ~none:child.np_schema ~some:Table.schema child_table in
        let keys = analyze_keys db ed ~parent_schema ~child_schema in
        let probe_path chain =
          let f, scanned = build_prober db ed keys ~child:simple chain in
          { bp_fn = f; bp_scanned = scanned }
        in
        let ec_indexed =
          Option.bind simple (fun c -> Option.map probe_path (indexed_chain keys ~child:c))
        in
        let shape =
          edge_shape_of ed ~parent_schema ~child_table ~child_schema keys ~indexed:(ec_indexed <> None)
        in
        let batch keyed = probe_path (build_chain ~source ~keyed keys ~child:simple) in
        let ec_hash = if List.mem S_hash (Edge_cost.candidates shape) then Some (batch true) else None in
        let ec_generic = batch false in
        let cands = { ec_attrs = attr_schema db ed keys.ek_concat; ec_indexed; ec_hash; ec_generic } in
        (ed, cands, shape))
      def.Co_schema.co_edges
  in
  (* cost-based pick: only unforced and with a fresh ANALYZE snapshot for
     every base table the plan reads — stale or missing stats fall back
     to the static priority rules, [?force] always wins *)
  let ctx = Edge_cost.mk_ctx db in
  let cost_based =
    force = None && base_tables <> []
    && List.for_all (fun t -> Edge_cost.health ctx t = `Fresh) base_tables
  in
  let ests =
    if not cost_based then []
    else begin
      let _, ests =
        Edge_cost.annotate ctx ~nodes:(List.map node_shape nodes)
          ~shapes:(List.map (fun (_, _, s) -> s) cand_edges)
      in
      List.map (fun (ee : Edge_cost.edge_est) -> (ee.Edge_cost.ee_edge, ee)) ests
    end
  in
  let edges =
    List.map
      (fun ((ed : Co_schema.edge_def), cands, shape0) ->
        let avail = Edge_cost.candidates shape0 in
        let chosen =
          match force with
          | Some f -> if List.mem f avail then f else S_generic
          | None -> begin
            match List.assoc_opt ed.Co_schema.ed_name ests with
            | Some ee ->
              Obs.Metrics.incr m_cost_picks;
              fst
                (Edge_cost.best ee ~candidates:avail ~frontier:ee.Edge_cost.ee_frontier
                   ~conns:ee.Edge_cost.ee_conns)
            | None -> List.hd avail
          end
        in
        Obs.Metrics.incr
          (match chosen with
          | S_indexed -> m_indexed_probes
          | S_hash -> m_hash_edges
          | S_generic -> m_generic_probes);
        ( (ed.Co_schema.ed_name, { ep_chosen = chosen; ep_cands = cands }),
          { shape0 with es_strategy = chosen } ))
      cand_edges
  in
  let shapes = List.map snd edges in
  let edges = List.map fst edges in
  (* final updatability analysis against the post-TAKE node schemas — the
     schemas are plan-determined, so the per-edge analysis is too *)
  let final_def =
    match take with Xnf_ast.Take_star -> def | Xnf_ast.Take_items _ -> Co_schema.project def take
  in
  let final_schema nd_name =
    let nd = Co_schema.node final_def nd_name in
    let schema = (node nd_name).np_schema in
    match nd.Co_schema.nd_cols with
    | None -> schema
    | Some cols ->
      Schema.make
        (List.map
           (fun c ->
             match Schema.find_opt schema c with
             | Some i -> Schema.col schema i
             | None -> err "[XNF007] TAKE projects unknown column %s of %s" c nd_name)
           cols)
  in
  let final =
    List.map
      (fun (ed : Co_schema.edge_def) ->
        let parent_schema = final_schema ed.Co_schema.ed_parent
        and child_schema = final_schema ed.Co_schema.ed_child in
        let upd = Semantic.analyze_edge catalog ed ~parent_schema ~child_schema in
        let pcols, ccols = Semantic.relationship_columns ed ~parent_schema ~child_schema in
        (ed.Co_schema.ed_name, { ef_upd = upd; ef_pcols = pcols; ef_ccols = ccols }))
      final_def.Co_schema.co_edges
  in
  { cp_def = def; cp_nodes = nodes; cp_edges = edges; cp_shapes = shapes; cp_force = force;
    cp_base_tables = base_tables; cp_final = final; cp_ests = ests; cp_cost_based = cost_based;
    cp_switches = []; cp_hints = [] }

(** [edge_strategies cp] lists the access path selected for each
    relationship, in definition order — surfaced by [EXPLAIN ANALYZE] and
    [\plans]. *)
let edge_strategies (cp : compiled) : (string * strategy) list =
  List.map (fun (name, ep) -> (name, ep.ep_chosen)) cp.cp_edges

(** [effective_strategies cp] is {!edge_strategies} with the adaptive
    switches recorded by the most recent execution applied — the paths
    the next execution of this plan will start from. *)
let effective_strategies (cp : compiled) : (string * strategy) list =
  List.map
    (fun (name, ep) ->
      match List.find_opt (fun sw -> sw.sw_edge = name) cp.cp_switches with
      | Some sw -> (name, sw.sw_to)
      | None -> (name, ep.ep_chosen))
    cp.cp_edges

(** [switches cp] lists the adaptive strategy switches recorded on the
    plan, oldest first (at most one per edge — latest execution wins). *)
let switches (cp : compiled) : switch_rec list = List.rev cp.cp_switches

(** [cost_based cp] is true when per-edge selection came from the shared
    cost model (fresh stats, no [?force]). *)
let cost_based (cp : compiled) : bool = cp.cp_cost_based

(** [edge_shapes cp] is the structural join shape per relationship, in
    definition order — consumed by the static plan advisor. *)
let edge_shapes (cp : compiled) : edge_shape list = cp.cp_shapes

(** [node_shapes cp] is the derivation shape per node, in definition
    order. *)
let node_shapes (cp : compiled) : node_shape list = List.map node_shape cp.cp_nodes

(** [node_access cp] is the base-table access path chosen per node. *)
let node_access (cp : compiled) : (string * Access_path.t) list =
  List.map (fun (name, np) -> (name, np.np_access)) cp.cp_nodes

(** [forced cp] is the [?force] pin the plan was compiled under. *)
let forced (cp : compiled) : strategy option = cp.cp_force

(** [compiled_def cp] is the composed definition the plan was compiled
    from. *)
let compiled_def (cp : compiled) : Co_schema.t = cp.cp_def

(** [base_tables cp] is the staleness-tracked base-table set. *)
let base_tables (cp : compiled) : string list = cp.cp_base_tables

(* ---- execution: a short driver over roots, fixpoint, connections and
   restrictions, sharing one per-fetch runtime record ---- *)

(* per-edge runtime state for one execution: the connection buffer its
   probes fill, which strategy is serving, its prober bound to this
   execution's parameters, and the observed frontier/connection/
   candidate-scan counters the between-rounds adaptive check compares
   against the plan's estimates *)
type edge_rt = {
  er_def : Co_schema.edge_def;
  er_plan : edge_plan;
  er_parent : node_rt;
  er_child : node_rt;
  er_buf : Cache.conns;
  mutable er_serving : strategy;
  mutable er_probe : prober;
  mutable er_bp : built_prober;  (** serving prober's compile-time record *)
  mutable er_scan_base : int;  (** [bp_scanned] when the serving prober was instated *)
  mutable er_probed : int;  (** frontier rows fed to this edge so far *)
  mutable er_conns : int;  (** connections produced so far *)
  mutable er_switched : bool;  (** divergence handled — at most one switch per execution *)
  mutable er_probe_ns : float;  (** wall time spent in this edge's probe batches *)
}

type run = {
  ru_db : Db.t;
  ru_cp : compiled;
  ru_params : Value.t array;
  ru_nodes : (string * node_rt) list;
  ru_edges : edge_rt list;  (** definition order *)
}

(* strategy [s]'s prober for an edge, binding the parameter slots and
   the child's extent; base-table builds are (re)built or reused here,
   once per fetch, a derived child's on the edge's first probe *)
let instate db params (cands : edge_candidates) child s =
  let bp =
    match s, cands with
    | S_indexed, { ec_indexed = Some bp; _ } | S_hash, { ec_hash = Some bp; _ } -> bp
    | _ -> cands.ec_generic
  in
  (bp, bp.bp_fn params (fun () -> ensure_extent db child))

let set_serving run er s =
  let bp, probe = instate run.ru_db run.ru_params er.er_plan.ep_cands er.er_child s in
  er.er_serving <- s;
  er.er_bp <- bp;
  er.er_probe <- probe;
  er.er_scan_base <- !(bp.bp_scanned)

(* fresh per-fetch node state from the immutable plan; warm
   re-executions presize from the previous run's cardinalities so the
   hot loop pays no growth-doubling churn *)
let hint (cp : compiled) key fallback =
  match List.assoc_opt key cp.cp_hints with
  | Some n when n > 0 -> n + n / 8
  | _ -> fallback

let node_rts (cp : compiled) params =
  let sub_pred p = if Array.length params = 0 then p else Option.map (Expr.subst_params params) p in
  List.map
    (fun (name, np) ->
      let nd =
        if Array.length params = 0 then np.np_def
        else
          { np.np_def with
            Co_schema.nd_query = Sql_ast.subst_params_select params np.np_def.Co_schema.nd_query }
      in
      let simple = Option.map (fun s -> { s with s_pred = sub_pred s.s_pred }) np.np_simple in
      let access =
        if Array.length params = 0 then np.np_access else Access_path.subst_params params np.np_access
      in
      let ni =
        Cache.make_node ~size_hint:(hint cp ("n:" ^ name) 64) ~schema:np.np_schema ~upd:np.np_upd name
      in
      ( name,
        { nr_def = nd; nr_simple = simple; nr_access = access; nr_ni = ni; nr_extent = None;
          nr_tid2pos = Intmap.create ~size:16; nr_mark = 0; nr_limit = 0 } ))
    cp.cp_nodes

(* per edge: serving starts from the plan's effective strategy, so a
   plan-cache hit keeps the strategy a previous execution learned.
   Connection production fuses into the reachability pass; matches fill
   the cache's struct-of-arrays buffers directly — two int pushes per
   match, attribute rows only on edges that declare them — and the
   readout adopts the buffers wholesale *)
let edge_rts db (cp : compiled) params nodes =
  let serving = effective_strategies cp in
  List.map
    (fun (ed : Co_schema.edge_def) ->
      let name = ed.Co_schema.ed_name in
      let plan = List.assoc name cp.cp_edges and child = List.assoc ed.Co_schema.ed_child nodes in
      let s = List.assoc name serving in
      let bp, probe = instate db params plan.ep_cands child s in
      { er_def = ed; er_plan = plan; er_parent = List.assoc ed.Co_schema.ed_parent nodes;
        er_child = child;
        er_buf =
          Cache.make_conns ~size_hint:(hint cp ("e:" ^ name) 8) ~attrs:(ed.Co_schema.ed_attrs <> []) ();
        er_serving = s; er_probe = probe; er_bp = bp; er_scan_base = !(bp.bp_scanned); er_probed = 0;
        er_conns = 0; er_switched = false; er_probe_ns = 0. })
    cp.cp_def.Co_schema.co_edges

(* roots: set-oriented evaluation of the derivations *)
let roots run =
  List.iter
    (fun (nd : Co_schema.node_def) ->
      Obs.Trace.with_span ("node:" ^ nd.Co_schema.nd_name) @@ fun () ->
      let r = List.assoc nd.Co_schema.nd_name run.ru_nodes in
      note_query ();
      (match r.nr_simple with
      | Some s ->
        Obs.Trace.add_meta "access" (Access_path.describe r.nr_access);
        iter_simple s r.nr_access (fun rowid enc -> ignore (Cache.add_tuple r.nr_ni ~rowid enc))
      | None ->
        Obs.Trace.add_meta "access" "sql";
        Array.iteri
          (fun tid row -> Intmap.set r.nr_tid2pos tid (Cache.add_tuple r.nr_ni ~rowid:(-1) row))
          (ensure_extent run.ru_db r));
      Obs.Trace.add_meta "rows" (string_of_int (Cache.live_count r.nr_ni)))
    (Co_schema.roots run.ru_cp.cp_def)

(* prober hits deliver the child's encoded BASE row; project to the
   node's output columns only when the tuple is first materialized. An
   identity projection shares the build's row array with the cache
   tuple — safe, because in-cache rows are never mutated in place
   ([Udi] copies before writing, TAKE replaces the array). *)
let child_proj child_rt =
  match child_rt.nr_simple with
  | Some s ->
    let n = Array.length s.s_proj in
    let identity =
      n = Schema.arity (Table.schema s.s_table)
      &&
      let rec all_id i = i >= n || (s.s_proj.(i) = i && all_id (i + 1)) in
      all_id 0
    in
    if identity then fun (enc : Row.enc) -> enc else fun enc -> Row.project_enc enc s.s_proj
  | None -> fun enc -> enc

(* one edge's probe of its parent slice through its prober; true when a
   child tuple was created. A simple child's tuples are identified by
   base rowid, a derived child's by extent index. *)
let probe_batch er (probe : prober) =
  note_query ();
  let parent_rt = er.er_parent and child_rt = er.er_child in
  let ni = child_rt.nr_ni and derived = child_rt.nr_simple = None in
  let proj = child_proj child_rt in
  let changed = ref false in
  (* one emit closure per batch (not per frontier row): the current
     parent position threads through a mutable cell *)
  let cur = ref 0 in
  let probe_row =
    probe (fun id enc attrs ->
        let cpos = if derived then Intmap.get child_rt.nr_tid2pos id else Cache.pos_of_rowid ni id in
        let cpos =
          if cpos >= 0 then cpos
          else begin
            changed := true;
            if derived then begin
              let pos = Cache.add_tuple ni ~rowid:(-1) enc in
              Intmap.set child_rt.nr_tid2pos id pos;
              pos
            end
            else Cache.add_tuple ni ~rowid:id (proj enc)
          end
        in
        ignore (Cache.push_conn er.er_buf ~parent:!cur ~child:cpos ~attrs);
        er.er_conns <- er.er_conns + 1)
  in
  for pos = parent_rt.nr_mark to parent_rt.nr_limit - 1 do
    cur := pos;
    probe_row (Cache.tuple parent_rt.nr_ni pos).Cache.t_row
  done;
  !changed

(* ---- adaptive mid-fixpoint fallback ----

   After each semi-naive round with more work pending, compare the
   observed frontier / connection / candidate-scan counters per edge
   against the plan's estimates. Beyond [adaptive_factor] divergence
   (with at least [adaptive_min_rows] observed rows), re-pick through
   the planner's own [Edge_cost.best] fed observed counts — live
   cardinalities replace the evidently-unreliable snapshot extents, so
   the runtime check and the compile-time pick cannot disagree on the
   same numbers — and switch the edge's serving strategy for subsequent
   rounds. The switch is recorded on the plan (EXPLAIN ANALYZE,
   sys.plans) and reused by plan-cache hits; at most one switch per edge
   per execution, so estimates can never cause flapping. Only
   cost-picked, unforced plans are eligible. *)
let adaptive_check run round =
  let cp = run.ru_cp in
  let live_card t =
    match Catalog.table_opt (Db.catalog run.ru_db) t with
    | Some tbl -> float_of_int (Table.cardinality tbl)
    | None -> infinity
  in
  List.iter
    (fun er ->
      let name = er.er_def.Co_schema.ed_name in
      match List.assoc_opt name cp.cp_ests with
      | Some ee when not er.er_switched ->
        let fmin = float_of_int (adaptive_min_rows ()) in
        let factor = adaptive_factor () in
        let f = float_of_int er.er_probed in
        let c = float_of_int er.er_conns in
        let scan = float_of_int (!(er.er_bp.bp_scanned) - er.er_scan_base) in
        let est_scan =
          f
          *. Float.max 1.
               (match er.er_serving with
               | S_indexed -> ee.Edge_cost.ee_cand_fan
               | S_hash -> ee.Edge_cost.ee_fanout
               | S_generic -> Edge_cost.generic_scan ee)
        in
        let exceeds obs est = obs >= fmin && obs > factor *. Float.max 1. est in
        if
          exceeds f ee.Edge_cost.ee_frontier
          || exceeds c ee.Edge_cost.ee_conns
          || exceeds scan est_scan
        then begin
          er.er_switched <- true;
          let shape = List.find (fun s -> s.es_name = name) cp.cp_shapes in
          let live_child =
            match shape.es_child_table with
            | Some t -> live_card t
            | None -> float_of_int (Array.length (ensure_extent run.ru_db er.er_child))
          in
          let live_link = Option.map (fun (l, _) -> live_card l) shape.es_using in
          (* an indexed edge's observed scan replaces the
             candidate-fanout estimate *)
          let observed =
            { ee with
              Edge_cost.ee_frontier = f; ee_conns = c; ee_child = live_child;
              ee_build = live_child +. Option.value ~default:0. live_link; ee_link = live_link;
              ee_cand_fan =
                (if er.er_serving = S_indexed then scan /. Float.max 1. f
                 else ee.Edge_cost.ee_cand_fan) }
          in
          let target, _ =
            Edge_cost.best observed ~candidates:(Edge_cost.candidates shape) ~frontier:f ~conns:c
          in
          if target <> er.er_serving then begin
            let sw = { sw_edge = name; sw_from = er.er_serving; sw_to = target; sw_round = round } in
            cp.cp_switches <- sw :: List.filter (fun s -> s.sw_edge <> name) cp.cp_switches;
            Obs.Metrics.incr m_strategy_switches;
            set_serving run er target
          end
        end
      | _ -> ())
    run.ru_edges

(* reachability: a delta fixpoint over the schema graph. Every tuple is
   created exactly once, so creation order IS the queue: each round
   probes, per node, the position slice [nr_mark, nr_limit) snapshotted
   at round start, and tuples created during the round land beyond
   [nr_limit]. Semi-naive, the slice is what the previous round created;
   naive (the E6 ablation), it starts at 0 — every tuple is live during
   the fixpoint, so each round re-probes every parent from scratch, with
   the connection buffers cleared: the last round adds no tuple and
   therefore leaves the full connection set. Returns the round count. *)
let fixpoint run mode =
  let cp = run.ru_cp in
  let changed = ref true and round = ref 0 in
  while !changed do
    changed := false;
    incr round;
    Obs.Metrics.incr m_rounds;
    List.iter
      (fun (_, r) ->
        r.nr_mark <- (match mode with Semi_naive -> r.nr_limit | Naive -> 0);
        r.nr_limit <- Vec.length r.nr_ni.Cache.ni_tuples)
      run.ru_nodes;
    if mode = Naive then List.iter (fun er -> er.er_buf.Cache.cs_len <- 0) run.ru_edges;
    List.iter
      (fun er ->
        let n_probes = er.er_parent.nr_limit - er.er_parent.nr_mark in
        if n_probes > 0 then begin
          Obs.Metrics.incr ~by:n_probes m_tuples_probed;
          er.er_probed <- er.er_probed + n_probes;
          (* rounds interleave the edges, so each edge's probe time is
             accumulated here and reported on its connections span *)
          let t0 = Obs.Metrics.now_ns () and s0 = !(er.er_bp.bp_scanned) in
          if er.er_serving = S_hash then Obs.Metrics.incr m_hash_probes;
          if probe_batch er er.er_probe then changed := true;
          Obs.Metrics.incr ~by:(!(er.er_bp.bp_scanned) - s0) m_candidates_scanned;
          er.er_probe_ns <- er.er_probe_ns +. (Obs.Metrics.now_ns () -. t0)
        end)
      run.ru_edges;
    if mode = Semi_naive && !changed && cp.cp_force = None && cp.cp_ests <> [] then
      adaptive_check run !round
  done;
  !round

(* connection extents over the reached instance: the matches were already
   produced during reachability — this is a readout of the per-edge
   buffers, no further query runs *)
let connections run =
  List.map
    (fun er ->
      let ed = er.er_def in
      Obs.Trace.with_span ("edge:" ^ ed.Co_schema.ed_name) @@ fun () ->
      (* adopt the buffer wholesale as the edge's connection store —
         zero-copy, filled in delivery order *)
      Obs.Trace.add_meta "conns" (string_of_int er.er_buf.Cache.cs_len);
      Obs.Trace.add_meta "probe_ms" (Printf.sprintf "%.3f" (er.er_probe_ns /. 1e6));
      ( ed.Co_schema.ed_name,
        { Cache.ei_name = ed.Co_schema.ed_name; ei_parent = ed.Co_schema.ed_parent;
          ei_child = ed.Co_schema.ed_child; ei_parent_node = er.er_parent.nr_ni;
          ei_child_node = er.er_child.nr_ni; ei_attr_schema = er.er_plan.ep_cands.ec_attrs; ei_conns = er.er_buf;
          ei_adj = None; ei_upd = Semantic.Upd_readonly "pending analysis" } ))
    run.ru_edges

(* substitute EXECUTE-time values into the symbolic (instance-evaluated)
   restrictions *)
let subst_restrictions params restrs =
  if Array.length params = 0 then restrs
  else
    List.map
      (function
        | R_node r -> R_node { r with rn_pred = Xnf_ast.subst_params_xexpr params r.rn_pred }
        | R_edge r -> R_edge { r with re_pred = Xnf_ast.subst_params_xexpr params r.re_pred })
      restrs

(* path-based restrictions over the instance, then reachability *)
let restrictions cache path_restrs =
  List.iter
    (function
      | R_node { rn_node; rn_var; rn_pred } ->
        let ni = Cache.node cache rn_node in
        let keep = Path.eval_node_restriction cache ~node:rn_node ~var:rn_var rn_pred in
        let keep_set = Hashtbl.create 64 in
        List.iter (fun p -> Hashtbl.replace keep_set p ()) keep;
        Vec.iter
          (fun t ->
            if t.Cache.t_live && not (Hashtbl.mem keep_set t.Cache.t_pos) then t.Cache.t_live <- false)
          ni.Cache.ni_tuples
      | R_edge { re_edge; re_parent_var; re_child_var; re_pred } ->
        let ei = Cache.edge cache re_edge in
        let pvar = String.lowercase_ascii re_parent_var
        and cvar = String.lowercase_ascii re_child_var in
        for i = 0 to Cache.conn_count ei - 1 do
          if Cache.conn_live_at ei i then begin
            let env =
              [ (pvar, { Path.b_node = ei.Cache.ei_parent; b_pos = Cache.conn_parent_at ei i });
                (cvar, { Path.b_node = ei.Cache.ei_child; b_pos = Cache.conn_child_at ei i }) ]
            in
            if not (Value.is_true (Path.eval_pred cache env re_pred)) then
              Cache.set_conn_live ei i false
          end
        done)
    path_restrs;
  Cache.recompute_reachability cache

(** [execute_def ?fixpoint ?params db cp path_restrs] evaluates a compiled
    plan into a cache (before TAKE projection and final updatability
    analysis), substituting [params] for the [?] slots. *)
let execute_def ?fixpoint:(mode = Semi_naive) ?(params = [||]) db (cp : compiled)
    (path_restrs : restriction list) : Cache.t =
  let nodes = node_rts cp params in
  let edges =
    Obs.Trace.with_span "cache-fill" @@ fun () ->
    let edges = Obs.Trace.with_span "edge-builds" (fun () -> edge_rts db cp params nodes) in
    let run = { ru_db = db; ru_cp = cp; ru_params = params; ru_nodes = nodes; ru_edges = edges } in
    Obs.Trace.with_span "roots" (fun () -> roots run);
    Obs.Trace.with_span "fixpoint" (fun () ->
        Obs.Trace.add_meta "rounds" (string_of_int (fixpoint run mode)));
    Obs.Trace.with_span "connections" (fun () -> connections run)
  in
  let catalog = Db.catalog db in
  let cache =
    { Cache.c_def = cp.cp_def; c_nodes = List.map (fun (n, r) -> (n, r.nr_ni)) nodes; c_edges = edges;
      c_base_versions =
        List.filter_map
          (fun t -> Option.map (fun tbl -> (t, Table.version tbl)) (Catalog.table_opt catalog t))
          cp.cp_base_tables;
      c_unsaved = false }
  in
  (* record observed cardinalities for the next warm execution's presizing *)
  cp.cp_hints <-
    List.map (fun (n, r) -> ("n:" ^ n, Vec.length r.nr_ni.Cache.ni_tuples)) nodes
    @ List.map (fun (e, ei) -> ("e:" ^ e, ei.Cache.ei_conns.Cache.cs_len)) edges;
  let path_restrs = subst_restrictions params path_restrs in
  if path_restrs <> [] then
    Obs.Trace.with_span "restrictions" (fun () -> restrictions cache path_restrs);
  cache

(* column projection, then relationship-updatability and locked-column
   analysis against the final (projected) schemas *)
let analyze_edge_of db cache name ei =
  let catalog = Db.catalog db in
  let ed = Co_schema.edge cache.Cache.c_def name in
  let parent_schema = (Cache.node cache ei.Cache.ei_parent).Cache.ni_schema in
  let child_schema = (Cache.node cache ei.Cache.ei_child).Cache.ni_schema in
  let upd = Semantic.analyze_edge catalog ed ~parent_schema ~child_schema in
  let pcols, ccols = Semantic.relationship_columns ed ~parent_schema ~child_schema in
  { ef_upd = upd; ef_pcols = pcols; ef_ccols = ccols }

let apply_edge_final cache ei (ef : edge_final) =
  ei.Cache.ei_upd <- ef.ef_upd;
  let pn = Cache.node cache ei.Cache.ei_parent and cn = Cache.node cache ei.Cache.ei_child in
  pn.Cache.ni_locked_cols <- List.sort_uniq compare (ef.ef_pcols @ pn.Cache.ni_locked_cols);
  cn.Cache.ni_locked_cols <- List.sort_uniq compare (ef.ef_ccols @ cn.Cache.ni_locked_cols)

let finalize db cache =
  Obs.Trace.with_span "finalize" @@ fun () ->
  apply_column_projection cache;
  List.iter
    (fun (name, ei) -> apply_edge_final cache ei (analyze_edge_of db cache name ei))
    cache.Cache.c_edges;
  cache

(** [finalize_plan db cp cache] is {!finalize} with the per-edge
    updatability analysis taken from the compiled plan instead of
    re-derived per fetch. Falls back to on-the-fly analysis for an edge
    the plan did not precompute (a TAKE differing from the compiled one). *)
let finalize_plan db (cp : compiled) cache =
  Obs.Trace.with_span "finalize" @@ fun () ->
  apply_column_projection cache;
  List.iter
    (fun (name, ei) ->
      let ef =
        match List.assoc_opt name cp.cp_final with
        | Some ef -> ef
        | None -> analyze_edge_of db cache name ei
      in
      apply_edge_final cache ei ef)
    cache.Cache.c_edges;
  cache
