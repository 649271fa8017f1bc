(* Random composite-object scenarios for the differential fuzzer.

   A generated case is fully structured — base tables with materialized
   rows, secondary indexes, XNF view definitions and the query under test
   as an AST — and only becomes concrete syntax in [render]. The oracle
   always consumes the rendered text, so every case exercises the real
   lexer, parser and binder, and the shrinker can transform the structure
   without re-deriving predicates.

   Schema shape: n node tables t0..t(n-1), each with the same column set
   (k INTEGER PRIMARY KEY, f, h, g INTEGER, s VARCHAR). A spanning set of
   edges keeps every node reachable from n0 (parents always have a lower
   index), then extra edges add schema sharing, M:N USING link tables,
   WITH ATTRIBUTES, back edges (cycles) and self loops. Some edges have
   no usable hash key — a computed key ([p.k + 0 = c.f]), an inequality
   ([p.g < c.g]), or a USING link that binds no parent or no child
   column — so the default pick is generic before any ANALYZE. Node
   derivations are [SELECT * FROM ti], sometimes wrapped in a WHERE
   restriction (a [g] bound, an indexed column equal to a stored value,
   or both), sometimes made derived (DISTINCT, or GROUP BY every column);
   restrictions mix SQL node/edge predicates with reduced and qualified
   path expressions; views cover prefixes of the node set (views over
   views); TAKE is * or a random structural projection. *)

open Relational
open Xnf
open Xnf_ast
module Rng = Workload.Rng

type config = {
  max_nodes : int;
  max_rows : int;
  allow_recursive : bool;
  allow_views : bool;
  allow_paths : bool;
}

let default =
  { max_nodes = 5; max_rows = 10; allow_recursive = true; allow_views = true; allow_paths = true }

type table = {
  tb_name : string;
  tb_ddl : string;
  tb_rows : Value.t array list;
}

type case = {
  cs_label : string;
  cs_tables : table list;
  cs_indexes : (string * string) list;  (* table, column *)
  cs_views : (string * query) list;  (* definition order *)
  cs_query : query;
}

type scenario = { sc_label : string; sc_setup : string list; sc_query : string }

(* internal edge bookkeeping while generating; the case itself only keeps
   the resulting AST bindings *)
type gedge = {
  g_name : string;
  g_parent : int;
  g_child : int;
  g_pvar : string option;
  g_cvar : string option;
  g_using : (string * string) option;
  g_attrs : (Sql_ast.expr * string) list;
  g_pred : Sql_ast.expr;
}

let node_name i = "n" ^ string_of_int i
let tbl_name i = "t" ^ string_of_int i
let ecol q c = Sql_ast.E_col (Some q, c)
let eint i = Sql_ast.E_lit (Value.Int i)
let eq a b = Sql_ast.E_cmp (Expr.Eq, a, b)

(* [e + 0]: the same value, but not a column, so no join key *)
let computed e = Sql_ast.E_arith (Expr.Add, e, eint 0)

let node_ddl i =
  Printf.sprintf
    "CREATE TABLE %s (k INTEGER PRIMARY KEY, f INTEGER, h INTEGER, g INTEGER, s VARCHAR(4))"
    (tbl_name i)

let link_ddl name = Printf.sprintf "CREATE TABLE %s (lp INTEGER, lc INTEGER, w INTEGER)" name

(* generate one edge's predicate over the role aliases *)
let edge_binding (e : gedge) : binding =
  B_edge
    { be_name = e.g_name; be_parent = node_name e.g_parent; be_parent_var = e.g_pvar;
      be_child = node_name e.g_child; be_child_var = e.g_cvar; be_attrs = e.g_attrs;
      be_using = e.g_using; be_pred = e.g_pred }

let generate ?(config = default) ~seed ~index () : case =
  let rng = Rng.create (((seed * 1_000_003) lxor (index * 8191)) + index + 1) in
  let n = Rng.in_range rng 2 (max 2 config.max_nodes) in
  let nrows = Array.init n (fun _ -> Rng.in_range rng 2 (max 2 config.max_rows)) in
  let maxk = Array.fold_left max 0 nrows in
  (* --- edges --- *)
  let fk_parent = Array.init n (fun i -> if i = 0 then -1 else Rng.int rng i) in
  let ecount = ref 0 in
  let links = ref [] in
  let lcount = ref 0 in
  let fresh_edge_name () =
    let name = "e" ^ string_of_int !ecount in
    incr ecount;
    name
  in
  let alias pvar cvar p c =
    (Option.value ~default:(node_name p) pvar, Option.value ~default:(node_name c) cvar)
  in
  let extra_conjunct ca pred =
    if Rng.bool rng 0.2 then Sql_ast.E_and (pred, Sql_ast.E_cmp (Expr.Le, ecol ca "g", eint (Rng.in_range rng 1 4)))
    else pred
  in
  let mk_plain_edge p c kind =
    let name = fresh_edge_name () in
    let self = p = c in
    let pvar, cvar =
      if self then (Some "sp", Some "sc")
      else if Rng.bool rng 0.2 then (Some ("a" ^ name ^ "p"), Some ("a" ^ name ^ "c"))
      else (None, None)
    in
    let pa, ca = alias pvar cvar p c in
    let pred =
      match kind with
      | `Fk -> eq (ecol pa "k") (ecol ca "f")
      | `Back -> eq (ecol pa "k") (ecol ca "h")
      | `G -> eq (ecol pa "g") (ecol ca "g")
      | `S -> eq (ecol pa "s") (ecol ca "s")
    in
    (* no usable key: the edge is served generic unless forced *)
    let pred =
      if not (Rng.bool rng 0.15) then pred
      else
        match pred with
        | Sql_ast.E_cmp (Expr.Eq, l, r) when kind <> `S && Rng.bool rng 0.5 -> eq (computed l) r
        | _ -> Sql_ast.E_cmp (Expr.Lt, ecol pa "g", ecol ca "g")
    in
    { g_name = name; g_parent = p; g_child = c; g_pvar = pvar; g_cvar = cvar; g_using = None;
      g_attrs = []; g_pred = extra_conjunct ca pred }
  in
  let mk_using_edge p c =
    let name = fresh_edge_name () in
    let link = "u" ^ string_of_int !lcount in
    incr lcount;
    let link_rows = Rng.int rng (2 * max nrows.(p) nrows.(c) + 1) in
    let rows =
      List.init link_rows (fun _ ->
          [| Value.Int (Rng.int rng (nrows.(p) + 2)); Value.Int (Rng.int rng (nrows.(c) + 2));
             Value.Int (Rng.int rng 6) |])
    in
    links := !links @ [ { tb_name = link; tb_ddl = link_ddl link; tb_rows = rows } ];
    let self = p = c in
    let pvar, cvar = if self then (Some "sp", Some "sc") else (None, None) in
    let pa, ca = alias pvar cvar p c in
    (* a computed key on either side leaves the link unbound there: no
       hash key, so the edge is served generic unless forced *)
    let parent_key, child_key =
      match Rng.int rng 10 with
      | 0 -> (computed (ecol pa "k"), ecol ca "k")
      | 1 -> (ecol pa "k", computed (ecol ca "k"))
      | _ -> (ecol pa "k", ecol ca "k")
    in
    let pred = Sql_ast.E_and (eq parent_key (ecol "u" "lp"), eq child_key (ecol "u" "lc")) in
    let attrs = if Rng.bool rng 0.5 then [ (ecol "u" "w", "w") ] else [] in
    { g_name = name; g_parent = p; g_child = c; g_pvar = pvar; g_cvar = cvar;
      g_using = Some (link, "u"); g_attrs = attrs; g_pred = pred }
  in
  (* spanning edges: every node i >= 1 hangs off a lower-indexed parent *)
  let spanning =
    List.init (n - 1) (fun j ->
        let i = j + 1 in
        let kind =
          if Rng.bool rng 0.6 then `Fk else if Rng.bool rng 0.6 then `G else `S
        in
        mk_plain_edge fk_parent.(i) i kind)
  in
  (* extra edges: sharing, M:N, back edges, self loops *)
  let extras =
    List.filter_map
      (fun _ ->
        let a = Rng.int rng n in
        let b = 1 + Rng.int rng (n - 1) in
        if a = b then
          (* never a self loop on node 0: it must stay a root (XNF010) *)
          if a > 0 && config.allow_recursive && Rng.bool rng 0.5 then
            Some (mk_plain_edge a a `Back)
          else None
        else begin
          let p, c = if a < b || config.allow_recursive then (a, b) else (b, a) in
          if Rng.bool rng 0.45 then Some (mk_using_edge p c)
          else Some (mk_plain_edge p c (if Rng.bool rng 0.55 then `Back else `G))
        end)
      (List.init (Rng.int rng 3) Fun.id)
  in
  let edges = spanning @ extras in
  (* --- base rows --- *)
  let node_tables =
    List.init n (fun i ->
        let rows =
          List.init nrows.(i) (fun k ->
              let f =
                if i = 0 then Value.Null
                else if Rng.bool rng 0.15 then Value.Null
                else if Rng.bool rng 0.1 then Value.Int (nrows.(fk_parent.(i)) + 1 + Rng.int rng 2)
                else Value.Int (Rng.int rng nrows.(fk_parent.(i)))
              in
              let h = if Rng.bool rng 0.25 then Value.Null else Value.Int (Rng.int rng (maxk + 2)) in
              [| Value.Int k; f; h; Value.Int (Rng.int rng 5);
                 Value.Str (String.make 1 (Char.chr (Char.code 'a' + Rng.int rng 3))) |])
        in
        { tb_name = tbl_name i; tb_ddl = node_ddl i; tb_rows = rows })
  in
  (* --- indexes: flip edge probes between indexed and generic --- *)
  let node_indexes =
    List.filter_map
      (fun i ->
        if Rng.bool rng 0.3 then Some (tbl_name i, Rng.choice rng [| "f"; "h"; "g"; "s" |])
        else None)
      (List.init n Fun.id)
  in
  let link_indexes =
    List.filter_map (fun t -> if Rng.bool rng 0.5 then Some (t.tb_name, "lp") else None) !links
  in
  (* --- derivations --- *)
  let node_cols = [| "k"; "f"; "h"; "g"; "s" |] in
  (* an indexed column of table [i] (its primary key or a secondary
     index) equal to a value one of its rows holds: the root reads it
     through the index *)
  let indexed_eq i =
    let cols =
      "k" :: List.filter_map (fun (t, c) -> if t = tbl_name i then Some c else None) node_indexes
    in
    let col = Rng.choice rng (Array.of_list cols) in
    let row = List.nth (List.nth node_tables i).tb_rows (Rng.int rng nrows.(i)) in
    let pos = Option.get (Array.find_index (String.equal col) node_cols) in
    eq (Sql_ast.E_col (None, col)) (Sql_ast.E_lit row.(pos))
  in
  let derivation i =
    let where =
      if Rng.bool rng 0.25 then begin
        let g_le = Sql_ast.E_cmp (Expr.Le, Sql_ast.E_col (None, "g"), eint (Rng.in_range rng 1 4)) in
        match Rng.int rng 3 with
        | 0 -> Some g_le
        | 1 -> Some (indexed_eq i)
        | _ -> Some (Sql_ast.E_and (indexed_eq i, g_le))
      end
      else None
    in
    let q = Sql_ast.simple_select [ Sql_ast.Sel_star ] [ Sql_ast.From_table (tbl_name i, None) ] where in
    (* a derived node: same columns, but not a base-table select, so its
       extent is materialized and edges into it probe that extent *)
    match Rng.int rng 16 with
    | 0 -> { q with Sql_ast.sel_distinct = true }
    | 1 ->
      let cols = Array.to_list (Array.map (fun c -> Sql_ast.E_col (None, c)) node_cols) in
      { q with
        Sql_ast.sel_items = List.map (fun c -> Sql_ast.Sel_expr (c, None)) cols;
        sel_group_by = cols }
    | _ -> q
  in
  let derivations = Array.init n derivation in
  let node_binding i = B_node { bn_name = node_name i; bn_query = derivations.(i) } in
  (* --- restriction generators --- *)
  let ucount = ref 0 in
  let fresh u = incr ucount; u ^ string_of_int !ucount in
  let gen_node_sql_restr ~node_pool =
    let i = Rng.choice rng node_pool in
    let var = if Rng.bool rng 0.5 then Some (fresh "x") else None in
    let q = Option.value ~default:(node_name i) var in
    let pred =
      match Rng.int rng 4 with
      | 0 -> X_cmp (Expr.Ge, X_col (Some q, "g"), X_lit (Value.Int (Rng.int rng 4)))
      | 1 -> X_cmp (Expr.Le, X_col (Some q, "g"), X_lit (Value.Int (Rng.in_range rng 1 4)))
      | 2 -> X_cmp (Expr.Eq, X_col (Some q, "s"), X_lit (Value.Str (String.make 1 (Char.chr (Char.code 'a' + Rng.int rng 3)))))
      | _ -> X_is_not_null (X_col (Some q, "h"))
    in
    R_node { rn_node = node_name i; rn_var = var; rn_pred = pred }
  in
  let gen_edge_sql_restr ~edge_pool =
    let e = Rng.choice rng edge_pool in
    let pred =
      if Rng.bool rng 0.6 then
        X_cmp (Expr.Le, X_col (Some "rp", "g"),
               X_arith (Expr.Add, X_col (Some "rc", "g"), X_lit (Value.Int (Rng.int rng 4))))
      else X_cmp (Expr.Ne, X_col (Some "rp", "k"), X_col (Some "rc", "k"))
    in
    R_edge { re_edge = e.g_name; re_parent_var = "rp"; re_child_var = "rc"; re_pred = pred }
  in
  let gen_path_restr ~path_pool ~all_edges =
    let e = Rng.choice rng path_pool in
    let pn = node_name e.g_parent and cn = node_name e.g_child in
    let var = fresh "w" in
    let set_rooted = Rng.bool rng 0.15 in
    let start = if set_rooted then pn else var in
    let qual_step () =
      let z = fresh "z" in
      Step_node
        { sn_node = cn; sn_var = Some z;
          sn_pred = Some (X_cmp (Expr.Gt, X_col (Some z, "g"), X_lit (Value.Int (Rng.int rng 4)))) }
    in
    let two_hop =
      List.filter (fun e2 -> e2.g_parent = e.g_child && e2.g_parent <> e2.g_child) all_edges
    in
    let steps =
      match Rng.int rng (if two_hop = [] then 3 else 4) with
      | 0 -> [ Step_edge e.g_name ]  (* reduced *)
      | 1 -> [ Step_edge e.g_name; qual_step () ]  (* qualified *)
      | 2 -> [ Step_edge e.g_name; Step_node { sn_node = cn; sn_var = None; sn_pred = None } ]
      | _ ->
        let e2 = Rng.choice rng (Array.of_list two_hop) in
        [ Step_edge e.g_name; Step_node { sn_node = cn; sn_var = None; sn_pred = None };
          Step_edge e2.g_name ]
    in
    let p = { p_start = start; p_steps = steps } in
    let pred =
      match Rng.int rng 3 with
      | 0 -> X_cmp (Expr.Ge, X_count_path p, X_lit (Value.Int (1 + Rng.int rng 2)))
      | 1 -> X_exists_path p
      | _ -> X_not (X_exists_path p)
    in
    R_node { rn_node = pn; rn_var = Some var; rn_pred = pred }
  in
  (* --- views over prefixes of the node set (views over views) --- *)
  let bounds =
    if config.allow_views && n >= 3 && Rng.bool rng 0.4 then begin
      let m1 = Rng.in_range rng 2 (n - 1) in
      if m1 < n - 1 && Rng.bool rng 0.35 then [ m1; Rng.in_range rng (m1 + 1) (n - 1) ]
      else [ m1 ]
    end
    else []
  in
  let layer_of e =
    (* index of the first bound covering both endpoints; length bounds = main query *)
    let m = 1 + max e.g_parent e.g_child in
    let rec go i = function
      | [] -> List.length bounds
      | b :: rest -> if m <= b then i else go (i + 1) rest
    in
    go 0 bounds
  in
  let view_name i = "fzv" ^ string_of_int i in
  let views =
    List.mapi
      (fun li m ->
        let lo = if li = 0 then 0 else List.nth bounds (li - 1) in
        let nodes = List.init (m - lo) (fun j -> node_binding (lo + j)) in
        let es = List.filter (fun e -> layer_of e = li) edges in
        let out_of =
          (if li = 0 then [] else [ B_view (view_name (li - 1)) ])
          @ nodes @ List.map edge_binding es
        in
        let where =
          if Rng.bool rng 0.35 then begin
            let node_pool = Array.init m Fun.id in
            let path_pool =
              Array.of_list
                (List.filter
                   (fun e -> e.g_parent <> e.g_child && layer_of e <= li)
                   edges)
            in
            if config.allow_paths && Array.length path_pool > 0 && Rng.bool rng 0.3 then
              (* only edges already visible in this layer may extend paths *)
              [ gen_path_restr ~path_pool
                  ~all_edges:(List.filter (fun e -> layer_of e <= li) edges) ]
            else [ gen_node_sql_restr ~node_pool ]
          end
          else []
        in
        (view_name li, { q_out_of = out_of; q_where = where; q_take = Take_star }))
      bounds
  in
  let covered = match List.rev bounds with [] -> 0 | m :: _ -> m in
  (* --- the query under test --- *)
  let main_nodes = List.init (n - covered) (fun j -> node_binding (covered + j)) in
  let main_edges = List.filter (fun e -> layer_of e = List.length bounds) edges in
  let out_of =
    (if covered = 0 then [] else [ B_view (view_name (List.length bounds - 1)) ])
    @ main_nodes @ List.map edge_binding main_edges
  in
  let node_pool = Array.init n Fun.id in
  let edge_pool = Array.of_list edges in
  let path_pool = Array.of_list (List.filter (fun e -> e.g_parent <> e.g_child) edges) in
  let where =
    List.filter_map
      (fun _ ->
        match Rng.int rng 3 with
        | 0 -> Some (gen_node_sql_restr ~node_pool)
        | 1 when Array.length edge_pool > 0 -> Some (gen_edge_sql_restr ~edge_pool)
        | _ when config.allow_paths && Array.length path_pool > 0 ->
          Some (gen_path_restr ~path_pool ~all_edges:edges)
        | _ -> Some (gen_node_sql_restr ~node_pool))
      (List.init (Rng.int rng 3) Fun.id)
  in
  let take =
    if Rng.bool rng 0.65 then Take_star
    else begin
      let kept = List.filter (fun _ -> Rng.bool rng 0.7) (List.init n Fun.id) in
      let kept = if kept = [] then [ Rng.int rng n ] else kept in
      let node_items =
        List.map
          (fun i ->
            let cols =
              if Rng.bool rng 0.3 then begin
                let cs = List.filter (fun _ -> Rng.bool rng 0.5) [ "k"; "f"; "h"; "g"; "s" ] in
                Take_cols (if cs = [] then [ "k" ] else cs)
              end
              else Take_all_cols
            in
            Take_node (node_name i, cols))
          kept
      in
      let edge_items =
        List.filter_map
          (fun e ->
            if List.mem e.g_parent kept && List.mem e.g_child kept && Rng.bool rng 0.75 then
              Some (Take_edge e.g_name)
            else None)
          edges
      in
      Take_items (node_items @ edge_items)
    end
  in
  { cs_label = Printf.sprintf "%d-%d" seed index;
    cs_tables = node_tables @ !links;
    cs_indexes = node_indexes @ link_indexes;
    cs_views = views;
    cs_query = { q_out_of = out_of; q_where = where; q_take = take } }

(* a strengthening restriction for the monotonicity check: node n0 always
   exists in the composed definition and every generated table has g *)
let mono_restriction (case : case) : restriction =
  let threshold = 1 + (String.length case.cs_label mod 3) in
  R_node
    { rn_node = "n0"; rn_var = Some "mzz";
      rn_pred = X_cmp (Expr.Ge, X_col (Some "mzz", "g"), X_lit (Value.Int threshold)) }

let insert_stmt tb (row : Value.t array) =
  Printf.sprintf "INSERT INTO %s VALUES (%s)" tb
    (String.concat ", " (List.map Value.to_sql_literal (Array.to_list row)))

let render (case : case) : scenario =
  let ddls = List.map (fun t -> t.tb_ddl) case.cs_tables in
  let idxs =
    List.mapi
      (fun i (t, c) -> Printf.sprintf "CREATE INDEX fzix%d ON %s (%s)" i t c)
      case.cs_indexes
  in
  let inserts =
    List.concat_map (fun t -> List.map (insert_stmt t.tb_name) t.tb_rows) case.cs_tables
  in
  let views =
    List.map (fun (name, q) -> stmt_to_string (X_create_view (name, q))) case.cs_views
  in
  { sc_label = case.cs_label;
    sc_setup = ddls @ idxs @ inserts @ views;
    sc_query = query_to_string case.cs_query }
