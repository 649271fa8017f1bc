(* Differential oracles for generated scenarios.

   One [run] executes the scenario's setup through the API layer (the
   same dispatch the shell uses), then cross-checks the full pipeline
   against every oracle that supports the composed definition:

     - semi-naive vs naive reachability fixpoint (always);
     - every forced edge access path, and [Baseline.Sql_route] — the
       §4 rewrite of each relationship into a relational join — against
       the pre-TAKE instance (always);
     - the unshared per-node derivation of [Baseline.Naive_translate]
       against the pre-TAKE instance (DAG schemas; set semantics, so both
       sides are value-deduplicated);
     - the LW90 object-at-a-time instantiation against the same instance
       (DAG schemas);
     - structural invariants: live connections join live tuples, and in
       the pre-TAKE instance every live non-root tuple has a live
       incoming connection;
     - lint cleanliness of every generated XNF statement;
     - metamorphic properties: a strengthened query yields a sub-instance
       (when every path restriction is monotone), TAKE projection of a
       full fetch equals the projecting fetch, a result-cache hit
       equals the cold fetch, and a refetch after an unsaved deferred edit
       of the served instance equals a fresh fetch;
     - index-free differential, last: with every index dropped, roots,
       extents and edges all scan, and the pre-TAKE instance must not
       change — an index only ever narrows the rows a scan would find.

   [mutation] injects a deliberate defect into the system-under-test
   caches after loading — the smoke test that proves divergences are
   detectable end to end. *)

open Relational
open Xnf
open Xnf_ast

type mutation = Drop_conn | Drop_tuple | Dict_swap

let mutation_name = function
  | Drop_conn -> "drop-conn"
  | Drop_tuple -> "drop-tuple"
  | Dict_swap -> "dict-swap"

let mutation_of_string = function
  | "drop-conn" -> Some Drop_conn
  | "drop-tuple" -> Some Drop_tuple
  | "dict-swap" -> Some Dict_swap
  | _ -> None

type divergence = { d_kind : string; d_detail : string }

type flags = {
  f_recursive : bool;
  f_sharing : bool;
  f_views : bool;
  f_using : bool;
  f_paths : bool;
  f_naive : bool;  (** unshared-derivation oracle compared *)
  f_lw90 : bool;
  f_mono : bool;  (** monotonicity property compared *)
  f_hash : bool;  (** strategy differential compared a batch-hash run *)
  f_adaptive : bool;  (** adaptive differential saw a mid-fixpoint switch fire *)
  f_advise : bool;  (** the plan-advisor purity guard ran *)
  f_dict : bool;  (** the dictionary round-trip oracle compared the instance *)
  f_noindex : bool;  (** the index-free differential compared an index-driven root *)
  f_derived : bool;  (** a relationship reached a derived (non-simple) child *)
  f_generic : bool;  (** the unforced plan served some edge generic *)
  f_mutated : bool;  (** the injected mutation found something to break *)
}

let no_flags =
  { f_recursive = false; f_sharing = false; f_views = false; f_using = false; f_paths = false;
    f_naive = false; f_lw90 = false; f_mono = false; f_hash = false; f_adaptive = false;
    f_advise = false; f_dict = false; f_noindex = false; f_derived = false; f_generic = false;
    f_mutated = false }

type outcome = { o_divs : divergence list; o_flags : flags }

(* ---- comparators (also used by the conformance suite) ---- *)

let node_extent cache name =
  Cache.live_tuples (Cache.node cache name)
  |> List.map Cache.row
  |> List.sort Row.compare

let conn_extent ?(attrs = true) cache name =
  let ei = Cache.edge cache name in
  Cache.conns_live ei
  |> List.map (fun c ->
         let p = Cache.row (Cache.tuple ei.Cache.ei_parent_node c.Cache.cn_parent) in
         let ch = Cache.row (Cache.tuple ei.Cache.ei_child_node c.Cache.cn_child) in
         let base = Row.concat p ch in
         if attrs then Row.concat base (Cache.conn_attrs c) else base)
  |> List.sort Row.compare

let dedupe sorted_rows =
  let rec go = function
    | a :: (b :: _ as rest) -> if Row.equal a b then go rest else a :: go rest
    | short -> short
  in
  go sorted_rows

let rows_diff ~what a b =
  if List.length a <> List.length b then
    Some (Printf.sprintf "%s: %d vs %d rows" what (List.length a) (List.length b))
  else begin
    match List.find_opt (fun (x, y) -> not (Row.equal x y)) (List.combine a b) with
    | Some (x, y) ->
      Some (Printf.sprintf "%s: row %s vs %s" what (Row.to_string x) (Row.to_string y))
    | None -> None
  end

(* every element of (sorted) [a] consumed by (sorted) [b] *)
let rows_subset ~what a b =
  let rec go a b =
    match a, b with
    | [], _ -> None
    | x :: _, [] -> Some (Printf.sprintf "%s: extra row %s" what (Row.to_string x))
    | x :: arest, y :: brest ->
      let c = Row.compare x y in
      if c = 0 then go arest brest
      else if c > 0 then go a brest
      else Some (Printf.sprintf "%s: extra row %s" what (Row.to_string x))
  in
  go a b

let sorted_names l = List.sort compare (List.map fst l)

let first_some f l = List.fold_left (fun acc x -> match acc with Some _ -> acc | None -> f x) None l

(** [compare_caches a b] is [None] when both caches hold the same
    components with identical extents and connection sets (attributes
    included), or a description of the first difference. *)
let compare_caches (a : Cache.t) (b : Cache.t) : string option =
  if sorted_names a.Cache.c_nodes <> sorted_names b.Cache.c_nodes then
    Some
      (Printf.sprintf "components differ: [%s] vs [%s]"
         (String.concat " " (sorted_names a.Cache.c_nodes))
         (String.concat " " (sorted_names b.Cache.c_nodes)))
  else if sorted_names a.Cache.c_edges <> sorted_names b.Cache.c_edges then
    Some
      (Printf.sprintf "relationships differ: [%s] vs [%s]"
         (String.concat " " (sorted_names a.Cache.c_edges))
         (String.concat " " (sorted_names b.Cache.c_edges)))
  else begin
    match
      first_some
        (fun (n, _) -> rows_diff ~what:("extent " ^ n) (node_extent a n) (node_extent b n))
        a.Cache.c_nodes
    with
    | Some d -> Some d
    | None ->
      first_some
        (fun (e, _) -> rows_diff ~what:("connections " ^ e) (conn_extent a e) (conn_extent b e))
        a.Cache.c_edges
  end

(** [subset_caches a b] checks that [a] is a sub-instance of [b]: same
    components, every extent row and connection of [a] also in [b]. *)
let subset_caches (a : Cache.t) (b : Cache.t) : string option =
  if sorted_names a.Cache.c_nodes <> sorted_names b.Cache.c_nodes
     || sorted_names a.Cache.c_edges <> sorted_names b.Cache.c_edges
  then Some "components differ"
  else begin
    match
      first_some
        (fun (n, _) -> rows_subset ~what:("extent " ^ n) (node_extent a n) (node_extent b n))
        a.Cache.c_nodes
    with
    | Some d -> Some d
    | None ->
      first_some
        (fun (e, _) -> rows_subset ~what:("connections " ^ e) (conn_extent a e) (conn_extent b e))
        a.Cache.c_edges
  end

(** [check_conn_liveness cache] verifies that every live connection joins
    two live tuples. *)
let check_conn_liveness (cache : Cache.t) : string option =
  first_some
    (fun (name, ei) ->
      first_some
        (fun (c : Cache.conn) ->
          let pt = Cache.tuple ei.Cache.ei_parent_node c.Cache.cn_parent in
          let ct = Cache.tuple ei.Cache.ei_child_node c.Cache.cn_child in
          if not pt.Cache.t_live then
            Some (Printf.sprintf "%s: live connection from dead parent tuple %d" name c.Cache.cn_parent)
          else if not ct.Cache.t_live then
            Some (Printf.sprintf "%s: live connection to dead child tuple %d" name c.Cache.cn_child)
          else None)
        (Cache.conns_live ei))
    cache.Cache.c_edges

(** [check_reachability cache] verifies the reachability invariant on a
    pre-TAKE instance: every live tuple of a node with incoming
    relationships has at least one live incoming connection. (Post-TAKE
    instances may legitimately violate this: evaluate-then-project can
    drop the justifying relationship.) *)
let check_reachability (cache : Cache.t) : string option =
  first_some
    (fun (name, ni) ->
      let incoming = List.filter (fun (_, ei) -> String.equal ei.Cache.ei_child name) cache.Cache.c_edges in
      if incoming = [] then None
      else
        first_some
          (fun (t : Cache.tuple) ->
            if List.exists (fun (_, ei) -> Cache.parents cache ei t.Cache.t_pos <> []) incoming
            then None
            else
              Some
                (Printf.sprintf "%s: live non-root tuple %d has no live incoming connection" name
                   t.Cache.t_pos))
          (Cache.live_tuples ni))
    cache.Cache.c_nodes

(* ---- mutation injection ---- *)

let apply_mutation (m : mutation) (cache : Cache.t) : bool =
  let last = function [] -> None | l -> Some (List.nth l (List.length l - 1)) in
  match m with
  | Drop_conn ->
    List.fold_left
      (fun done_ (_, ei) ->
        if done_ then done_
        else begin
          match last (Cache.conns_live ei) with
          | Some c ->
            Cache.set_conn_live ei c.Cache.cn_idx false;
            true
          | None -> false
        end)
      false cache.Cache.c_edges
  | Drop_tuple ->
    List.fold_left
      (fun done_ (name, ni) ->
        if done_ || Co_schema.incoming cache.Cache.c_def name = [] then done_
        else begin
          match last (Cache.live_tuples ni) with
          | Some t ->
            t.Cache.t_live <- false;
            true
          | None -> false
        end)
      false cache.Cache.c_nodes
  | Dict_swap ->
    (* corrupt one encoded cell to a different (valid) dictionary id: the
       decoded comparators must see the changed value and diverge *)
    let poison = Dict.encode (Value.Str "\000fuzz-dict-swap") in
    List.fold_left
      (fun done_ (_, ni) ->
        if done_ then done_
        else begin
          match last (Cache.live_tuples ni) with
          | Some t when Array.length t.Cache.t_row > 0 ->
            t.Cache.t_row <-
              Array.mapi
                (fun i id -> if i = 0 then (if id = poison then Dict.null_id else poison) else id)
                t.Cache.t_row;
            true
          | _ -> false
        end)
      false cache.Cache.c_nodes

(* ---- unsaved in-cache edits ---- *)

(* a deferred, never-saved edit: overwrite one unlocked column of the first
   live tuple of an updatable component through a Udi session. [false]
   when the instance has no such cell. *)
let unsaved_edit db (cache : Cache.t) : bool =
  let cell (name, (ni : Cache.node_inst)) =
    match ni.Cache.ni_upd, Cache.live_tuples ni with
    | Some _, t :: _ ->
      List.find_map
        (fun (c : Schema.column) ->
          match Schema.find_opt ni.Cache.ni_schema c.Schema.col_name with
          | Some i when not (List.mem i ni.Cache.ni_locked_cols) ->
            Some (name, t.Cache.t_pos, c.Schema.col_name)
          | _ -> None)
        (Schema.columns ni.Cache.ni_schema)
    | _ -> None
  in
  match List.find_map cell cache.Cache.c_nodes with
  | None -> false
  | Some (node, pos, col) ->
    let ses = Udi.session db cache in
    Udi.set_deferred ses true;
    Udi.update ses ~node ~pos [ (col, Value.Str "\000fuzz-unsaved-edit") ];
    true

(* ---- monotonicity eligibility ---- *)

(* a restriction predicate is monotone when shrinking the instance can
   only shrink the set of qualifying tuples: every path atom must appear
   in positive polarity and COUNT(path) only as a lower bound *)
let rec monotone_pred ~pos (e : xexpr) : bool =
  match e with
  | X_and (a, b) | X_or (a, b) -> monotone_pred ~pos a && monotone_pred ~pos b
  | X_not a -> monotone_pred ~pos:(not pos) a
  | X_exists_path _ -> pos
  | X_count_path _ -> false
  | X_cmp (op, X_count_path _, rhs) ->
    pos && (not (has_path rhs)) && (op = Expr.Ge || op = Expr.Gt)
  | X_cmp (op, lhs, X_count_path _) ->
    pos && (not (has_path lhs)) && (op = Expr.Le || op = Expr.Lt)
  | X_cmp (_, a, b) | X_arith (_, a, b) | X_like (a, b) -> not (has_path a || has_path b)
  | X_neg a | X_is_null a | X_is_not_null a -> not (has_path a)
  | X_in_list (a, items) -> not (List.exists has_path (a :: items))
  | X_fn (_, args) -> not (List.exists has_path args)
  | X_col _ | X_lit _ | X_param _ -> true

let monotone_restrictions restrs =
  List.for_all
    (fun r ->
      match r with
      | R_node { rn_pred; _ } -> monotone_pred ~pos:true rn_pred
      | R_edge { re_pred; _ } -> monotone_pred ~pos:true re_pred)
    restrs

(* ---- LW90 forest flattening ---- *)

let lw90_collect (objs : Baseline.Lw90.obj list) =
  let nodes : (string, Row.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let edges : (string, Row.t list ref) Hashtbl.t = Hashtbl.create 8 in
  let push tbl key row =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := row :: !r
    | None -> Hashtbl.add tbl key (ref [ row ])
  in
  let rec walk (o : Baseline.Lw90.obj) =
    push nodes o.Baseline.Lw90.o_node o.Baseline.Lw90.o_row;
    List.iter
      (fun (ename, children) ->
        List.iter
          (fun (ch : Baseline.Lw90.obj) ->
            push edges ename (Row.concat o.Baseline.Lw90.o_row ch.Baseline.Lw90.o_row);
            walk ch)
          children)
      o.Baseline.Lw90.o_children
  in
  List.iter walk objs;
  let get tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r -> dedupe (List.sort Row.compare !r)
    | None -> []
  in
  (get nodes, get edges)

(* ---- the oracle run ---- *)

let m_cases = Obs.Metrics.counter "fuzz.cases"
let m_divergences = Obs.Metrics.counter "fuzz.divergences"

let run ?(advise = false) ?mutation ?extra_restr (sc : Gen.scenario) : outcome =
  Obs.Metrics.incr m_cases;
  let divs = ref [] in
  let add kind detail = divs := { d_kind = kind; d_detail = detail } :: !divs in
  let guard kind f = try f () with e -> add kind ("exception: " ^ Printexc.to_string e) in
  let finish flags =
    let o_divs = List.rev !divs in
    List.iter (fun _ -> Obs.Metrics.incr m_divergences) o_divs;
    { o_divs; o_flags = flags }
  in
  let db = Db.create () in
  let api = Api.create db in
  let reg = Api.registry api in
  (* setup: DDL, rows, indexes, views — XNF view definitions are linted
     before they are registered *)
  List.iter
    (fun stmt ->
      guard "setup" (fun () ->
          (match Xnf_parser.parse_stmt stmt with
          | X_create_view _ ->
            let ds = Check.Lint.lint_string db reg stmt in
            if Diag.has_errors ds then
              add "lint"
                (Printf.sprintf "view definition: %s"
                   (Diag.to_string (List.find Diag.is_error ds)))
          | _ -> ());
          ignore (Api.exec api stmt)))
    sc.sc_setup;
  if !divs <> [] then finish no_flags
  else begin
    match Xnf_parser.parse_query sc.sc_query with
    | exception e ->
      add "parse" ("exception: " ^ Printexc.to_string e);
      finish no_flags
    | q -> begin
      guard "lint" (fun () ->
          let ds = Check.Lint.lint_string db reg sc.sc_query in
          if Diag.has_errors ds then add "lint" (Diag.to_string (List.find Diag.is_error ds)));
      match View_registry.compose reg q with
      | exception e ->
        add "compose" ("exception: " ^ Printexc.to_string e);
        finish no_flags
      | def, path_restrs, _take -> begin
        let flags =
          { no_flags with
            f_recursive = Co_schema.is_recursive def;
            f_sharing = Co_schema.has_schema_sharing def;
            f_views = List.exists (function B_view _ -> true | _ -> false) q.q_out_of;
            f_using = List.exists (fun e -> e.Co_schema.ed_using <> None) def.Co_schema.co_edges;
            f_paths = path_restrs <> [] }
        in
        match Api.fetch api q with
        | exception e ->
          add "fetch" ("exception: " ^ Printexc.to_string e);
          finish flags
        | sut -> begin
          (* the injected defect goes into the delivered instance only:
             there the fixpoint, take-commute and refetch oracles always
             recompute an unmutated comparison point *)
          let flags =
            { flags with
              f_derived =
                (let derived =
                   List.filter_map
                     (fun (ns : Translate.node_shape) ->
                       if ns.Translate.ns_table = None then Some ns.Translate.ns_name else None)
                     (Translate.node_shapes (Translate.compile_def db def))
                 in
                 List.exists
                   (fun (ed : Co_schema.edge_def) -> List.mem ed.Co_schema.ed_child derived)
                   def.Co_schema.co_edges);
              f_mutated =
                (match mutation with Some m -> apply_mutation m sut | None -> false) }
          in
          (* structural invariant on the delivered instance *)
          (match check_conn_liveness sut with
          | Some d -> add "reachability" d
          | None -> ());
          (* oracle 1: naive reachability fixpoint, full pipeline *)
          guard "fixpoint" (fun () ->
              let nf = Api.fetch ~fixpoint:Translate.Naive api q in
              match compare_caches sut nf with
              | Some d -> add "fixpoint" d
              | None -> ());
          (* the pre-TAKE, pre-path-restriction instance the per-node
             derivation oracles are defined on *)
          let pre = ref None and f_generic = ref false in
          guard "pre" (fun () ->
              let cp = Translate.compile_def db def in
              pre := Some (Translate.execute_def db cp []);
              f_generic :=
                List.exists
                  (fun (_, s) -> s = Translate.S_generic)
                  (Translate.effective_strategies cp));
          let flags =
            match !pre with
            | None -> flags
            | Some pre -> begin
              (match check_conn_liveness pre with
              | Some d -> add "reachability" d
              | None -> ());
              (match check_reachability pre with
              | Some d -> add "reachability" d
              | None -> ());
              (* dictionary oracle: the encoded instance must be canonical —
                 decoding a row and re-encoding it reproduces the identical
                 id array, so the encoded hot path and a decoded oracle
                 agree on every cell (ids are stable and exact) *)
              let f_dict = ref false in
              guard "dict" (fun () ->
                  List.iter
                    (fun (name, ni) ->
                      List.iter
                        (fun (t : Cache.tuple) ->
                          f_dict := true;
                          if Row.encode (Cache.row t) <> t.Cache.t_row then
                            add "dict"
                              (Printf.sprintf "%s: tuple %d decode/encode not canonical: %s" name
                                 t.Cache.t_pos
                                 (Row.to_string (Cache.row t))))
                        (Cache.live_tuples ni))
                    pre.Cache.c_nodes;
                  List.iter
                    (fun (name, ei) ->
                      List.iter
                        (fun (c : Cache.conn) ->
                          if Row.encode (Cache.conn_attrs c) <> c.Cache.cn_attrs then
                            add "dict"
                              (Printf.sprintf "%s: connection %d attrs not canonical" name
                                 c.Cache.cn_idx))
                        (Cache.conns_live ei))
                    pre.Cache.c_edges);
              (* strategy differential: re-run the fetch forcing each edge
                 access path; indexed, batch-hash and generic executions
                 must deliver identical instances (same comparator as the
                 naive oracle), and so must the independent SQL route *)
              let reference = ref None in
              guard "sql-route" (fun () ->
                  let r = Baseline.Sql_route.fetch db def in
                  reference := Some r;
                  match compare_caches pre r with
                  | Some d -> add "sql-route" d
                  | None -> ());
              let f_hash = ref false in
              List.iter
                (fun (label, force) ->
                  let kind = "strategy-" ^ label in
                  guard kind (fun () ->
                      let alt = Translate.execute_def db (Translate.compile_def ~force db def) [] in
                      (match compare_caches pre alt with
                      | Some d -> add kind d
                      | None -> ());
                      if force = Translate.S_hash then f_hash := true))
                [ ("indexed", Translate.S_indexed); ("hash", Translate.S_hash);
                  ("generic", Translate.S_generic) ];
              (* adaptive differential: ANALYZE so compile_def cost-picks,
                 then re-run with aggressive switching thresholds so
                 mid-fixpoint switches actually fire — switched executions
                 must still deliver the identical instance. ANALYZE only
                 writes statistics (no version bumps), so the oracles
                 after this block are unaffected. *)
              let f_adaptive = ref false in
              guard "strategy-adaptive" (fun () ->
                  ignore (Db.exec db "ANALYZE");
                  let factor0 = Translate.adaptive_factor ()
                  and min0 = Translate.adaptive_min_rows () in
                  Fun.protect
                    ~finally:(fun () ->
                      Translate.set_adaptive_factor factor0;
                      Translate.set_adaptive_min_rows min0)
                    (fun () ->
                      Translate.set_adaptive_factor 0.5;
                      Translate.set_adaptive_min_rows 1;
                      let cp = Translate.compile_def db def in
                      let alt = Translate.execute_def ~fixpoint:Translate.Semi_naive db cp [] in
                      (match compare_caches pre alt with
                      | Some d -> add "strategy-adaptive" d
                      | None -> ());
                      f_adaptive := Translate.switches cp <> []));
              (* the cost-picked plan under the default switching
                 thresholds, against the same reference: on small tables
                 the cost model serves keyed edges generic, which the
                 static pick above never does *)
              Option.iter
                (fun r ->
                  guard "sql-route" (fun () ->
                      let cp = Translate.compile_def db def in
                      match compare_caches (Translate.execute_def db cp []) r with
                      | Some d -> add "sql-route" ("cost-picked: " ^ d)
                      | None -> ()))
                !reference;
              (* oracle 2: unshared per-node derivations (DAG only);
                 callers classify up front via the shared predicate *)
              let f_naive =
                if Baseline.Naive_translate.supported def then begin
                  guard "unshared" (fun () ->
                      let nres = Baseline.Naive_translate.extract_unshared db def in
                      (match
                         first_some
                           (fun (name, rows) ->
                             rows_diff ~what:("extent " ^ name)
                               (dedupe (node_extent pre name))
                               (List.sort Row.compare rows))
                           nres.Baseline.Naive_translate.node_rows
                       with
                      | Some d -> add "unshared" d
                      | None -> ());
                      match
                        first_some
                          (fun (name, rows) ->
                            rows_diff ~what:("connections " ^ name)
                              (dedupe (conn_extent ~attrs:false pre name))
                              (List.sort Row.compare rows))
                          nres.Baseline.Naive_translate.edge_rows
                      with
                      | Some d -> add "unshared" d
                      | None -> ());
                  true
                end
                else begin
                  (* the classifier and the implementation must agree *)
                  guard "unshared-classifier" (fun () ->
                      match Baseline.Naive_translate.extract_unshared db def with
                      | _ ->
                        add "unshared-classifier"
                          "extract_unshared succeeded on a schema classified unsupported"
                      | exception Baseline.Naive_translate.Unsupported _ -> ());
                  false
                end
              in
              (* oracle 3: LW90 object-at-a-time instantiation (DAG only) *)
              let f_lw90 =
                if Baseline.Lw90.supported def then begin
                  guard "lw90" (fun () ->
                      let nav = Baseline.Sql_navigator.create db in
                      let objs = Baseline.Lw90.instantiate nav def in
                      let node_rows, edge_rows = lw90_collect objs in
                      (match
                         first_some
                           (fun (nd : Co_schema.node_def) ->
                             let name = nd.Co_schema.nd_name in
                             rows_diff ~what:("extent " ^ name)
                               (dedupe (node_extent pre name))
                               (node_rows name))
                           def.Co_schema.co_nodes
                       with
                      | Some d -> add "lw90" d
                      | None -> ());
                      match
                        first_some
                          (fun (ed : Co_schema.edge_def) ->
                            let name = ed.Co_schema.ed_name in
                            rows_diff ~what:("connections " ^ name)
                              (dedupe (conn_extent ~attrs:false pre name))
                              (edge_rows name))
                          def.Co_schema.co_edges
                      with
                      | Some d -> add "lw90" d
                      | None -> ());
                  true
                end
                else false
              in
              { flags with f_naive; f_lw90; f_hash = !f_hash; f_adaptive = !f_adaptive;
                f_dict = !f_dict; f_generic = !f_generic }
            end
          in
          (* metamorphic: a strengthened query yields a sub-instance *)
          let flags =
            match extra_restr with
            | Some r when monotone_restrictions path_restrs ->
              guard "monotonic" (fun () ->
                  let plus = Api.fetch api { q with q_where = q.q_where @ [ r ] } in
                  match subset_caches plus sut with
                  | Some d -> add "monotonic" d
                  | None -> ());
              { flags with f_mono = true }
            | _ -> flags
          in
          (* metamorphic: TAKE of a full fetch equals the projecting fetch
             (evaluate-then-project; with TAKE * this is a determinism
             check) *)
          guard "take-commute" (fun () ->
              let star = Api.fetch api { q with q_take = Take_star } in
              let alt = Translate.finalize db (Translate.apply_take star q.q_take) in
              match compare_caches sut alt with
              | Some d -> add "take-commute" d
              | None -> ());
          (* metamorphic: a result-cache hit equals the cold fetch *)
          guard "refetch" (fun () ->
              Api.set_result_cache api 4;
              let h0 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
              ignore (Api.fetch_string api sc.sc_query);
              let hot = Api.fetch_string api sc.sc_query in
              let h1 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
              if h1 - h0 < 1 then add "refetch" "second fetch missed the result cache";
              (match compare_caches hot sut with
              | Some d -> add "refetch" d
              | None -> ());
              (* a deferred, unsaved edit to the served instance must not
                 reach the next fetch of the same text *)
              if unsaved_edit db hot then begin
                let again = Api.fetch_string api sc.sc_query in
                match compare_caches again (Api.fetch api q) with
                | Some d -> add "refetch" ("after an unsaved edit: " ^ d)
                | None -> ()
              end;
              Api.set_result_cache api 0);
          (* metamorphic: a warm (cached-plan) fetch equals the cold fetch *)
          guard "plancache" (fun () ->
              Api.set_plan_cache api 4;
              let h0 = Obs.Metrics.counter_get "xnf.plancache.hits" in
              ignore (Api.fetch_string api sc.sc_query);
              let warm = Api.fetch_string api sc.sc_query in
              let h1 = Obs.Metrics.counter_get "xnf.plancache.hits" in
              if h1 - h0 < 1 then add "plancache" "second fetch missed the plan cache";
              (match compare_caches warm sut with
              | Some d -> add "plancache" d
              | None -> ());
              Api.set_plan_cache api 0);
          (* observability: re-running with query statistics + slow-query
             logging enabled delivers the identical instance, and scanning
             sys.* views between the cold and warm fetch neither perturbs
             the result nor spoils result-cache validity *)
          guard "querystats" (fun () ->
              let saved = Obs.Query_stats.slowlog_ms () in
              Obs.Query_stats.set_slowlog_ms (Some 0.);
              Api.set_result_cache api 4;
              let cold = Api.fetch_string api sc.sc_query in
              (match compare_caches cold sut with
              | Some d -> add "querystats" d
              | None -> ());
              ignore (Api.exec api "SELECT name, kind, value FROM sys.metrics");
              ignore (Api.exec api "SELECT s.fingerprint, s.calls, s.mean_ms FROM sys.statements s");
              ignore (Api.exec api "SELECT t.name, t.rows FROM sys.tables t");
              let h0 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
              let warm = Api.fetch_string api sc.sc_query in
              let h1 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
              if h1 - h0 < 1 then add "querystats" "sys.* scan spoiled result-cache validity";
              (match compare_caches warm sut with
              | Some d -> add "querystats" d
              | None -> ());
              Api.set_result_cache api 0;
              Obs.Query_stats.set_slowlog_ms saved);
          (* plan-advisor purity: advising never raises, the advisory set
             is identical on a cold-compiled plan vs a plan-cache-hit
             plan, and running the advisor (including the drift detector)
             perturbs neither fetch results nor result-cache validity *)
          let flags =
            if not advise then flags
            else begin
              guard "advise" (fun () ->
                  let rendered plan =
                    List.map Diag.to_string (Check.Plan_advisor.diags (Check.Plan_advisor.analyze db plan))
                  in
                  let cold_plan = Fetch_plan.compile db reg q in
                  let cold = rendered cold_plan in
                  Api.set_plan_cache api 4;
                  ignore (Api.fetch_string api sc.sc_query);
                  ignore (Api.fetch_string api sc.sc_query);
                  let cached_plan =
                    match Api.plans api with (_, p) :: _ -> p | [] -> cold_plan
                  in
                  let warm = rendered cached_plan in
                  if cold <> warm then
                    add "advise"
                      (Printf.sprintf "advisory set differs cold vs plan-cache hit: [%s] vs [%s]"
                         (String.concat " | " cold) (String.concat " | " warm));
                  (* purity: a fetch after advising still equals the SUT
                     instance and still hits the result cache *)
                  Api.set_result_cache api 4;
                  ignore (Api.fetch_string api sc.sc_query);
                  let before_log = List.length (Api.advisories api) in
                  ignore (rendered cold_plan);
                  ignore (Check.Plan_advisor.drift db cold_plan sut);
                  if List.length (Api.advisories api) <> before_log then
                    add "advise" "bare analyze/drift wrote to the session advisory log";
                  let h0 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
                  let after = Api.fetch_string api sc.sc_query in
                  let h1 = Obs.Metrics.counter_get "xnf.fetchcache.hits" in
                  if h1 - h0 < 1 then add "advise" "advising spoiled result-cache validity";
                  (match compare_caches after sut with
                  | Some d -> add "advise" d
                  | None -> ());
                  Api.set_result_cache api 0;
                  Api.set_plan_cache api 0);
              { flags with f_advise = true }
            end
          in
          (* index-free differential: drops every index, so it runs last *)
          let flags =
            match !pre with
            | None -> flags
            | Some pre ->
              let access = Translate.node_access (Translate.compile_def db def) in
              let indexed_root =
                List.exists
                  (fun (nd : Co_schema.node_def) ->
                    match List.assoc nd.Co_schema.nd_name access with
                    | Access_path.Index _ -> true
                    | Access_path.Scan -> false)
                  (Co_schema.roots def)
              in
              guard "noindex" (fun () ->
                  List.iter
                    (fun t ->
                      List.iter
                        (fun idx -> ignore (Table.drop_index t ~name:(Index.name idx)))
                        (Table.indexes t))
                    (Catalog.tables (Db.catalog db));
                  let alt = Translate.execute_def db (Translate.compile_def db def) [] in
                  match compare_caches pre alt with
                  | Some d -> add "noindex" d
                  | None -> ());
              { flags with f_noindex = indexed_root }
          in
          finish flags
        end
      end
    end
  end
