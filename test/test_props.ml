(* Property-based tests (qcheck, registered as alcotest cases). *)

open Relational

let gen_truth = QCheck.Gen.oneofl [ Value.True; Value.False; Value.Unknown ]

let arb_truth = QCheck.make ~print:(function
  | Value.True -> "T" | Value.False -> "F" | Value.Unknown -> "U")
  gen_truth

let gen_value =
  QCheck.Gen.(
    frequency
      [ (1, return Value.Null);
        (4, map (fun i -> Value.Int i) (int_range (-50) 50));
        (2, map (fun f -> Value.Float (Float.of_int f /. 4.)) (int_range (-50) 50));
        (3, map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'e') (int_range 0 4)));
        (1, map (fun b -> Value.Bool b) bool) ])

let arb_value = QCheck.make ~print:Value.to_string gen_value

let gen_row = QCheck.Gen.(map Array.of_list (list_size (int_range 1 5) gen_value))

let arb_row = QCheck.make ~print:Row.to_string gen_row

(* ---- 3VL laws ---- *)

let prop_and_commutative =
  QCheck.Test.make ~name:"3VL AND commutative" ~count:200 (QCheck.pair arb_truth arb_truth)
    (fun (a, b) -> Value.truth_and a b = Value.truth_and b a)

let prop_de_morgan =
  QCheck.Test.make ~name:"3VL De Morgan" ~count:200 (QCheck.pair arb_truth arb_truth)
    (fun (a, b) ->
      Value.truth_not (Value.truth_and a b)
      = Value.truth_or (Value.truth_not a) (Value.truth_not b))

let prop_or_associative =
  QCheck.Test.make ~name:"3VL OR associative" ~count:200
    (QCheck.triple arb_truth arb_truth arb_truth)
    (fun (a, b, c) ->
      Value.truth_or a (Value.truth_or b c) = Value.truth_or (Value.truth_or a b) c)

(* ---- value ordering ---- *)

let prop_total_order_antisymmetric =
  QCheck.Test.make ~name:"compare_total antisymmetric" ~count:500 (QCheck.pair arb_value arb_value)
    (fun (a, b) -> compare (Value.compare_total a b) 0 = compare 0 (Value.compare_total b a))

let prop_total_order_transitive =
  QCheck.Test.make ~name:"compare_total transitive" ~count:500
    (QCheck.triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      if Value.compare_total a b <= 0 && Value.compare_total b c <= 0 then
        Value.compare_total a c <= 0
      else true)

let prop_hash_equal =
  QCheck.Test.make ~name:"equal values hash equal" ~count:500 (QCheck.pair arb_value arb_value)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_sql_compare_null =
  QCheck.Test.make ~name:"compare_sql None iff NULL operand" ~count:500
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      Value.compare_sql a b = None = (Value.is_null a || Value.is_null b))

(* ---- rows ---- *)

let prop_row_project_concat =
  QCheck.Test.make ~name:"project of concat reads the right side" ~count:300
    (QCheck.pair arb_row arb_row) (fun (a, b) ->
      let c = Row.concat a b in
      let idx = Array.init (Array.length b) (fun i -> Array.length a + i) in
      Row.equal (Row.project c idx) b)

(* ---- LIKE ---- *)

let prop_like_literal =
  QCheck.Test.make ~name:"LIKE without wildcards is equality" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 6)) (string_of_size (QCheck.Gen.int_range 0 6)))
    (fun (s, p) ->
      let wildcard_free = not (String.exists (fun c -> c = '%' || c = '_') p) in
      QCheck.assume wildcard_free;
      Expr.like_match ~pattern:p s = String.equal s p)

let prop_like_percent_prefix =
  QCheck.Test.make ~name:"'prefix%' matches exactly prefixes" ~count:300
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 0 4)) (string_of_size (QCheck.Gen.int_range 0 4)))
    (fun (prefix, rest) ->
      QCheck.assume (not (String.exists (fun c -> c = '%' || c = '_') prefix));
      Expr.like_match ~pattern:(prefix ^ "%") (prefix ^ rest))

(* ---- index vs scan agreement under random DML ---- *)

type dml = Ins of int * int | Del of int | Upd of int * int

let gen_dml =
  QCheck.Gen.(
    frequency
      [ (5, map2 (fun k v -> Ins (k, v)) (int_range 0 20) (int_range 0 5));
        (2, map (fun k -> Del k) (int_range 0 40));
        (2, map2 (fun k v -> Upd (k, v)) (int_range 0 40) (int_range 0 5)) ])

let arb_dml_list =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Ins (k, v) -> Printf.sprintf "I(%d,%d)" k v
             | Del k -> Printf.sprintf "D%d" k
             | Upd (k, v) -> Printf.sprintf "U(%d,%d)" k v)
           ops))
    QCheck.Gen.(list_size (int_range 0 60) gen_dml)

let prop_index_scan_agree =
  QCheck.Test.make ~name:"index lookups agree with scans under DML" ~count:100 arb_dml_list
    (fun ops ->
      let t =
        Table.create ~name:"p"
          (Schema.make [ Schema.column "k" Schema.Ty_int; Schema.column "v" Schema.Ty_int ])
      in
      let idx = Table.add_index t ~name:"by_v" ~cols:[| 1 |] Index.Hash in
      List.iter
        (fun op ->
          match op with
          | Ins (k, v) -> ignore (Table.insert t [| Value.Int k; Value.Int v |])
          | Del rowid -> ignore (Table.delete t rowid)
          | Upd (rowid, v) -> begin
            match Table.get t rowid with
            | Some row -> ignore (Table.update t rowid [| row.(0); Value.Int v |])
            | None -> ()
          end)
        ops;
      (* for every v, index hits = scan hits *)
      List.for_all
        (fun v ->
          let via_idx =
            List.sort compare (List.map fst (Table.lookup_index t idx [| Value.Int v |]))
          in
          let via_scan =
            List.of_seq (Table.to_seq t)
            |> List.filter (fun (_, row) -> Value.equal row.(1) (Value.Int v))
            |> List.map fst |> List.sort compare
          in
          via_idx = via_scan)
        [ 0; 1; 2; 3; 4; 5 ])

(* ---- WAL rollback restores state ---- *)

let prop_rollback_restores =
  QCheck.Test.make ~name:"rollback restores table state" ~count:60 arb_dml_list (fun ops ->
      let db = Db.create () in
      ignore (Db.exec db "CREATE TABLE t (k INTEGER, v INTEGER)");
      for i = 0 to 9 do
        ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 2)))
      done;
      let before = List.sort Row.compare (Db.rows_of db "SELECT * FROM t") in
      ignore (Db.exec db "BEGIN");
      let table = Catalog.table (Db.catalog db) "t" in
      List.iter
        (fun op ->
          match op with
          | Ins (k, v) -> ignore (Db.insert_row db table [| Value.Int k; Value.Int v |])
          | Del rowid -> ignore (Db.delete_row db table rowid)
          | Upd (rowid, v) -> begin
            match Table.get table rowid with
            | Some row -> ignore (Db.update_row db table rowid [| row.(0); Value.Int v |])
            | None -> ()
          end)
        ops;
      ignore (Db.exec db "ROLLBACK");
      let after = List.sort Row.compare (Db.rows_of db "SELECT * FROM t") in
      List.length before = List.length after && List.for_all2 Row.equal before after)

(* ---- XNF reachability invariants on random instances ---- *)

let arb_co_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10000)

let build_random_db seed =
  let rng = Workload.Rng.create seed in
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE p (pid INTEGER PRIMARY KEY, tag INTEGER)");
  ignore (Db.exec db "CREATE TABLE c (cid INTEGER PRIMARY KEY, cpid INTEGER, w INTEGER)");
  ignore (Db.exec db "CREATE TABLE g (gid INTEGER PRIMARY KEY, gcid INTEGER)");
  let np = 2 + Workload.Rng.int rng 6 in
  let nc = 2 + Workload.Rng.int rng 12 in
  let ng = 2 + Workload.Rng.int rng 12 in
  for i = 0 to np - 1 do
    ignore
      (Db.exec db (Printf.sprintf "INSERT INTO p VALUES (%d, %d)" i (Workload.Rng.int rng 2)))
  done;
  for i = 0 to nc - 1 do
    let parent =
      if Workload.Rng.bool rng 0.8 then string_of_int (Workload.Rng.int rng (np + 2)) else "NULL"
    in
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO c VALUES (%d, %s, %d)" i parent (Workload.Rng.int rng 10)))
  done;
  for i = 0 to ng - 1 do
    ignore
      (Db.exec db (Printf.sprintf "INSERT INTO g VALUES (%d, %d)" i (Workload.Rng.int rng (nc + 2))))
  done;
  db

let random_co_query =
  "OUT OF Xp AS (SELECT * FROM p WHERE tag = 0), Xc AS C, Xg AS G, \
   pc AS (RELATE Xp, Xc WHERE Xp.pid = Xc.cpid), \
   cg AS (RELATE Xc, Xg WHERE Xc.cid = Xg.gcid) TAKE *"

let prop_reachability_subset =
  QCheck.Test.make ~name:"reachable extents are subsets of derivations" ~count:40 arb_co_seed
    (fun seed ->
      let db = build_random_db seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api random_co_query in
      (* every xc tuple's parent key appears among the xp keys *)
      let p_keys =
        Xnf.Cache.live_tuples (Xnf.Cache.node cache "xp")
        |> List.map (fun t -> (Xnf.Cache.col t 0))
      in
      Xnf.Cache.live_tuples (Xnf.Cache.node cache "xc")
      |> List.for_all (fun t ->
             List.exists (fun k -> Value.equal k (Xnf.Cache.col t 1)) p_keys))

let prop_every_tuple_reachable =
  QCheck.Test.make ~name:"every non-root tuple has an incoming connection" ~count:40 arb_co_seed
    (fun seed ->
      let db = build_random_db seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api random_co_query in
      List.for_all
        (fun (node, edge) ->
          let ei = Xnf.Cache.edge cache edge in
          Xnf.Cache.live_tuples (Xnf.Cache.node cache node)
          |> List.for_all (fun t -> Xnf.Cache.parents cache ei t.Xnf.Cache.t_pos <> []))
        [ ("xc", "pc"); ("xg", "cg") ])

let prop_shared_equals_unshared =
  QCheck.Test.make ~name:"shared and unshared translation agree" ~count:25 arb_co_seed
    (fun seed ->
      let db = build_random_db seed in
      let api = Xnf.Api.create db in
      let q = Xnf.Xnf_parser.parse_query random_co_query in
      let def, _, _ = Xnf.View_registry.compose (Xnf.Api.registry api) q in
      (* classify up front: the oracle is only defined on DAG schemas *)
      QCheck.assume (Baseline.Naive_translate.supported def);
      let shared = Xnf.Api.fetch api q in
      let naive = Baseline.Naive_translate.extract_unshared db def in
      List.for_all
        (fun (name, rows) ->
          let ni = Xnf.Cache.node shared name in
          let a =
            List.sort Row.compare (List.map (fun t -> (Xnf.Cache.row t)) (Xnf.Cache.live_tuples ni))
          in
          let b = List.sort Row.compare rows in
          List.length a = List.length b && List.for_all2 Row.equal a b)
        naive.Baseline.Naive_translate.node_rows)

let prop_fixpoints_agree =
  QCheck.Test.make ~name:"semi-naive and naive fixpoints agree" ~count:25 arb_co_seed
    (fun seed ->
      let db = build_random_db seed in
      let api = Xnf.Api.create db in
      let q = Xnf.Xnf_parser.parse_query random_co_query in
      let a = Xnf.Api.fetch ~fixpoint:Xnf.Translate.Semi_naive api q in
      let b = Xnf.Api.fetch ~fixpoint:Xnf.Translate.Naive api q in
      match Fuzz.Oracle.compare_caches a b with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "naive and semi-naive instances differ: %s" d)

(* ---- udi connect/disconnect round-trips ----

   One parent and one child component joined by BOTH an FK relationship
   and an M:N USING relationship, so disconnecting either keeps the child
   reachable through the other (disconnect re-applies reachability). *)

let build_two_edge_db seed =
  let rng = Workload.Rng.create (seed + 17) in
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE a (aid INTEGER PRIMARY KEY, tag INTEGER)");
  ignore (Db.exec db "CREATE TABLE b (bid INTEGER PRIMARY KEY, fa INTEGER, v INTEGER)");
  ignore (Db.exec db "CREATE TABLE ab (la INTEGER, lb INTEGER, w INTEGER)");
  let na = 2 + Workload.Rng.int rng 4 in
  let nb = 2 + Workload.Rng.int rng 8 in
  for i = 0 to na - 1 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO a VALUES (%d, %d)" i (Workload.Rng.int rng 3)))
  done;
  for i = 0 to nb - 1 do
    (* every child has a valid FK parent and exactly one link row, so both
       relationships connect it and (la, lb) pairs stay unique *)
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO b VALUES (%d, %d, %d)" i (Workload.Rng.int rng na)
            (Workload.Rng.int rng 10)));
    ignore
      (Db.exec db
         (Printf.sprintf "INSERT INTO ab VALUES (%d, %d, %d)" (Workload.Rng.int rng na) i
            (Workload.Rng.int rng 5)))
  done;
  db

let two_edge_query =
  "OUT OF xa AS A, xb AS B, fk AS (RELATE xa, xb WHERE xa.aid = xb.fa), mn AS (RELATE xa, xb \
   WITH ATTRIBUTES l.w AS w USING ab l WHERE xa.aid = l.la AND xb.bid = l.lb) TAKE *"

let conn_sig cache edge =
  Xnf.Cache.conns_live (Xnf.Cache.edge cache edge)
  |> List.map (fun c ->
         (c.Xnf.Cache.cn_parent, c.Xnf.Cache.cn_child, Array.to_list (Xnf.Cache.conn_attrs c)))
  |> List.sort compare

let int_query db sql = (List.hd (Db.rows_of db sql)).(0)

let prop_udi_fk_roundtrip =
  QCheck.Test.make ~name:"udi FK disconnect/reconnect restores connections" ~count:30 arb_co_seed
    (fun seed ->
      let db = build_two_edge_db seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api two_edge_query in
      let ses = Xnf.Api.session api cache in
      let before = conn_sig cache "fk" in
      match Xnf.Cache.conns_live (Xnf.Cache.edge cache "fk") with
      | [] -> QCheck.assume_fail ()
      | c :: _ ->
        let parent = c.Xnf.Cache.cn_parent and child = c.Xnf.Cache.cn_child in
        let aid = Xnf.Cache.col (Xnf.Cache.tuple (Xnf.Cache.node cache "xa") parent) 0 in
        let bid = Xnf.Cache.col (Xnf.Cache.tuple (Xnf.Cache.node cache "xb") child) 0 in
        let fa_sql =
          Printf.sprintf "SELECT fa FROM b WHERE bid = %s" (Value.to_sql_literal bid)
        in
        Xnf.Udi.disconnect ses ~edge:"fk" ~parent ~child;
        (* propagation: the base foreign key is nullified... *)
        let nullified = Value.is_null (int_query db fa_sql) in
        (* ...and the child survived through the mn relationship *)
        let survived = (Xnf.Cache.tuple (Xnf.Cache.node cache "xb") child).Xnf.Cache.t_live in
        Xnf.Udi.connect ses ~edge:"fk" ~parent ~child ();
        let restored = Value.equal (int_query db fa_sql) aid in
        nullified && survived && restored && conn_sig cache "fk" = before)

let prop_udi_mn_roundtrip =
  QCheck.Test.make ~name:"udi M:N disconnect/reconnect restores connections" ~count:30 arb_co_seed
    (fun seed ->
      let db = build_two_edge_db seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api two_edge_query in
      let ses = Xnf.Api.session api cache in
      let before = conn_sig cache "mn" in
      match Xnf.Cache.conns_live (Xnf.Cache.edge cache "mn") with
      | [] -> QCheck.assume_fail ()
      | c :: _ ->
        let parent = c.Xnf.Cache.cn_parent and child = c.Xnf.Cache.cn_child in
        let w = (Xnf.Cache.conn_attrs c).(0) in
        let aid = Xnf.Cache.col (Xnf.Cache.tuple (Xnf.Cache.node cache "xa") parent) 0 in
        let bid = Xnf.Cache.col (Xnf.Cache.tuple (Xnf.Cache.node cache "xb") child) 0 in
        let link_sql =
          Printf.sprintf "SELECT COUNT(*) FROM ab WHERE la = %s AND lb = %s"
            (Value.to_sql_literal aid) (Value.to_sql_literal bid)
        in
        Xnf.Udi.disconnect ses ~edge:"mn" ~parent ~child;
        (* propagation: the link row is gone... *)
        let deleted = Value.equal (int_query db link_sql) (Value.Int 0) in
        (* ...and the child survived through the fk relationship *)
        let survived = (Xnf.Cache.tuple (Xnf.Cache.node cache "xb") child).Xnf.Cache.t_live in
        Xnf.Udi.connect ses ~edge:"mn" ~parent ~child ~attrs:[ ("w", w) ] ();
        let restored = Value.equal (int_query db link_sql) (Value.Int 1) in
        deleted && survived && restored && conn_sig cache "mn" = before)

(* the qcheck random state is derived from one session seed (printed by
   the runner, settable via QCHECK_SEED) plus the test's position, so any
   failure reproduces from CI logs *)
let suite seed =
  List.mapi
    (fun i t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed; i |]) t)
    [ prop_and_commutative; prop_de_morgan; prop_or_associative; prop_total_order_antisymmetric;
      prop_total_order_transitive; prop_hash_equal; prop_sql_compare_null; prop_row_project_concat;
      prop_like_literal; prop_like_percent_prefix; prop_index_scan_agree; prop_rollback_restores;
      prop_reachability_subset; prop_every_tuple_reachable; prop_shared_equals_unshared;
      prop_fixpoints_agree; prop_udi_fk_roundtrip; prop_udi_mn_roundtrip ]
