(* Edge probers (see prober.mli for the layer): join-key analysis, hash
   builds, candidate sources, key chains and the delivery routine.

   Delivery is CPS: a prober is bound to its [emit id enc attrs]
   consumer once per batch, then fed frontier rows, so the whole per-hit
   loop — sources, chains and delivery — runs inside this module. Hits
   carry ENCODED rows: a simple child's base row (the consumer projects
   to node-output columns only when the tuple is first materialized) and
   the relationship-attribute row. The fast path (no residual predicate,
   no WITH ATTRIBUTES, no probe-time child predicate) allocates nothing
   per hit over a hash build: no record, no list cons, no row copy, no
   decode. *)

open Relational

exception Translate_error of string

let err fmt = Fmt.kstr (fun s -> raise (Translate_error s)) fmt

let m_queries = Obs.Metrics.counter "xnf.translate.queries"
let m_hash_builds = Obs.Metrics.counter "xnf.translate.hash_builds"
let m_hash_build_reuses = Obs.Metrics.counter "xnf.translate.hash_build_reuses"

type emit = int -> Row.enc -> Row.enc -> unit

type child = Base of Table.t * Expr.t option | Derived of Schema.t

let empty_enc : Row.enc = [||]

let qual_is alias = function
  | Some q -> String.equal (String.lowercase_ascii q) alias
  | None -> false

(* ---- join-key analysis ----

   Each relationship's predicate is split into conjuncts and classified
   once per plan: an equality between a parent column and a child column
   (base column of a simple child, output column of a derived one) is an
   FK key pair; on a USING edge an equality between a link column and a
   parent (child) column is a parent (child) link binding; everything
   else is residual. *)

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
type builds = hash_source list ref

let builds () : builds = ref []

let shared_source (sources : builds) tbl key_cols pred =
  match
    List.find_opt
      (fun hs -> hs.hs_table == tbl && hs.hs_key_cols = key_cols && Option.equal ( == ) hs.hs_pred pred)
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
  Obs.Metrics.incr m_queries;
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
   counts into the opening's [scanned] counter, the observable the
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
   derived child's rows on the first probe; a stored index filters
   candidates with [ok] on their boxed rows before encoding them (a build
   folds its parameter-free predicate in instead) *)
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

(* [tbl] is the simple child's base table *)
let indexed_chain (keys : edge_keys) tbl : key_chain option =
  let indexed (probe_cols, tbl, key_cols) =
    if probe_cols = [||] then None
    else Option.map (fun idx -> (probe_cols, Index (tbl, idx))) (Table.find_index tbl ~cols:key_cols)
  in
  let chain fk_pairs kc_residual =
    let link, (probe_cols, key_cols) = lookups keys fk_pairs in
    match Option.map indexed link, indexed (probe_cols, tbl, key_cols) with
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
   extent. The generic chain keys nothing by the parent: on an FK edge
   the child build is one bucket of the child's qualifying rows that
   every probe scans; on a USING edge the link build is one bucket and
   each link row reaches its children through the hash chain's
   link-to-child lookup, so a probe scans the link table plus its
   matches, not link x child. *)
let build_chain builds ~keyed (keys : edge_keys) ~(child : child) : key_chain =
  let child_src key_cols =
    match child with
    | Base (tbl, pred) ->
      (* a parameter-free child predicate filters at BUILD time, so probes
         skip per-candidate predicate evaluation (and the decode it
         needs); a parameterized one stays at probe time *)
      let pred = match pred with Some p when not (Expr.has_param p) -> pred | _ -> None in
      Build (shared_source builds tbl key_cols pred)
    | Derived _ -> Extent key_cols
  in
  let link, (probe_cols, key_cols) =
    lookups keys (match keys.ek_key with Fk pairs -> pairs | Using _ -> [])
  in
  match keys.ek_key with
  | _ when keyed ->
    { kc_link = Option.map (fun (pc, tbl, kc) -> (pc, Build (shared_source builds tbl kc None))) link;
      kc_child = (probe_cols, child_src key_cols); kc_residual = [] }
  | Fk _ -> { kc_link = None; kc_child = ([||], child_src [||]); kc_residual = keys.ek_key_conj }
  | Using { parent_bind; _ } ->
    { kc_link =
        Option.map (fun (_, tbl, _) -> ([||], Build (shared_source builds tbl [||] None))) link;
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

(* ---- probers: one chain bound to one execution ---- *)

type t = {
  scanned : int ref;  (** candidate rows this opening's sources handed out *)
  probe : emit -> Row.enc -> unit;
}

(* build the prober for [ed] over one key chain. Residuals and attributes
   bind over the concat schema once, here; applying the result to a
   [params] array and the derived child's extent substitutes the
   parameter slots once per EXECUTE, opens the chain's sources (building
   or reusing hash builds — once per fetch) and yields the prober. *)
let build_prober db (ed : Co_schema.edge_def) (keys : edge_keys) ~(child : child) (chain : key_chain)
    : Value.t array -> (unit -> Row.enc array) -> t =
  let env = Db.bind_env db in
  let bind e = Binder.bind_expr env keys.ek_concat e in
  let attr_fns = List.map (fun (e, _) -> bind e) ed.Co_schema.ed_attrs in
  let residual0 =
    match chain.kc_residual @ keys.ek_residual with
    | [] -> None
    | c :: cs -> Some (bind (List.fold_left (fun a c -> Sql_ast.E_and (a, c)) c cs))
  in
  (* when the edge carries no WITH ATTRIBUTES, hits never need the
     parent++child concat row unless a residual predicate asks for it —
     delivery uses this to skip the per-hit decode and row allocation
     entirely *)
  let no_attrs = ed.Co_schema.ed_attrs = [] in
  let using = chain.kc_link <> None in
  let child_pred = match child with Base (_, p) -> p | Derived _ -> None in
  (* the child predicate no source applies: a stored index filters its
     candidates, a build folds in only a parameter-free predicate, a
     derived child has none *)
  let probe_pred =
    match snd chain.kc_child, child_pred with
    | Build { hs_pred = None; _ }, Some _ -> true
    | _ -> false
  in
  fun params extent ->
    (* bind parameter slots once per EXECUTE, not once per probed row *)
    let sub e = if Array.length params = 0 then e else Expr.subst_params params e in
    let residual = Option.map sub residual0 in
    let afns = List.map sub attr_fns in
    let eval_attrs concat =
      Row.encode (Array.of_list (List.map (fun e -> Expr.eval concat e) afns))
    in
    let cpred = Option.map sub child_pred in
    let child_ok base_row =
      match cpred with None -> true | Some p -> Value.is_true (Expr.eval_pred base_row p)
    in
    let scanned = ref 0 in
    let link_src = Option.map (open_source scanned ~ok:always ~extent) chain.kc_link in
    let child_src = open_source scanned ~ok:child_ok ~extent chain.kc_child in
    let child_ok = if probe_pred then child_ok else always in
    let fast = residual = None && no_attrs && not probe_pred in
    { scanned;
      probe =
        (fun emit ->
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
              probe row deliver) }

let probe (p : t) = p.probe
let scanned (p : t) = !(p.scanned)

(* ---- structural edge shapes ----

   The join structure of each relationship — which base table the child
   resolves to, which equality columns form the join key on either side,
   whether an index serves the probe today — read off the edge's key
   analysis. *)

let col_name schema i = (Schema.col schema i).Schema.col_name

let edge_shape_of (ed : Co_schema.edge_def) ~(parent_schema : Schema.t) ~(child : child) ~child_schema
    (k : edge_keys) ~indexed : Edge_cost.edge_shape =
  let base =
    { Edge_cost.es_name = ed.Co_schema.ed_name; es_parent = ed.Co_schema.ed_parent;
      es_child = ed.Co_schema.ed_child; es_strategy = Edge_cost.S_generic;
      es_child_table = (match child with Base (t, _) -> Some (Table.name t) | Derived _ -> None);
      es_parent_cols = []; es_child_cols = []; es_using = None; es_indexed = indexed;
      es_residual = k.ek_residual <> [] }
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

(* ---- an edge's compiled probers ---- *)

type edge = {
  e_shape : Edge_cost.edge_shape;
  e_attrs : Schema.t;
  e_probers : (Edge_cost.strategy * (Value.t array -> (unit -> Row.enc array) -> t)) list;
      (** one per [Edge_cost.candidates e_shape], in that order *)
}

(* one key analysis (over a simple child's base rows or a derived child's
   output rows), the shape read off it, and a prober for every access
   path [Edge_cost.candidates] lists for that shape; generic always
   applies *)
let compile db builds (ed : Co_schema.edge_def) ~parent_schema ~(child : child) : edge =
  let child_schema = match child with Base (t, _) -> Table.schema t | Derived s -> s in
  let keys = analyze_keys db ed ~parent_schema ~child_schema in
  let indexed = match child with Base (t, _) -> indexed_chain keys t | Derived _ -> None in
  let shape = edge_shape_of ed ~parent_schema ~child ~child_schema keys ~indexed:(indexed <> None) in
  let chain = function
    | Edge_cost.S_indexed -> Option.get indexed
    | s -> build_chain builds ~keyed:(s = Edge_cost.S_hash) keys ~child
  in
  let e_probers =
    List.map (fun s -> (s, build_prober db ed keys ~child (chain s))) (Edge_cost.candidates shape)
  in
  { e_shape = shape; e_attrs = attr_schema db ed keys.ek_concat; e_probers }

let shape e = e.e_shape
let attrs e = e.e_attrs
let open_ e s params ~extent = (List.assq s e.e_probers) params extent
