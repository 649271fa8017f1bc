(* Property-based tests, part 2: cross-strategy equivalences and
   round-trips on randomized databases. *)

open Relational

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100000)

(* a random 3-level FK database, optionally indexed *)
let build ~indexes seed =
  let rng = Workload.Rng.create seed in
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE p (pid INTEGER PRIMARY KEY, tag INTEGER)");
  ignore (Db.exec db "CREATE TABLE c (cid INTEGER PRIMARY KEY, cpid INTEGER, w INTEGER)");
  ignore (Db.exec db "CREATE TABLE g (gid INTEGER PRIMARY KEY, gcid INTEGER)");
  if indexes then begin
    ignore (Db.exec db "CREATE INDEX c_parent ON c (cpid)");
    ignore (Db.exec db "CREATE INDEX g_parent ON g (gcid)")
  end;
  let np = 2 + Workload.Rng.int rng 6 in
  let nc = 2 + Workload.Rng.int rng 15 in
  let ng = 2 + Workload.Rng.int rng 15 in
  for i = 0 to np - 1 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO p VALUES (%d, %d)" i (Workload.Rng.int rng 2)))
  done;
  for i = 0 to nc - 1 do
    let parent =
      if Workload.Rng.bool rng 0.8 then string_of_int (Workload.Rng.int rng (np + 2)) else "NULL"
    in
    ignore
      (Db.exec db (Printf.sprintf "INSERT INTO c VALUES (%d, %s, %d)" i parent (Workload.Rng.int rng 10)))
  done;
  for i = 0 to ng - 1 do
    ignore
      (Db.exec db (Printf.sprintf "INSERT INTO g VALUES (%d, %d)" i (Workload.Rng.int rng (nc + 2))))
  done;
  db

let co_query =
  "OUT OF Xp AS (SELECT * FROM p WHERE tag = 0), Xc AS C, Xg AS G, \
   pc AS (RELATE Xp, Xc WHERE Xp.pid = Xc.cpid), \
   cg AS (RELATE Xc, Xg WHERE Xc.cid = Xg.gcid) TAKE *"

let node_keys cache node =
  Xnf.Cache.live_tuples (Xnf.Cache.node cache node)
  |> List.map (fun t -> Value.as_int (Xnf.Cache.col t 0))
  |> List.sort compare

(* the translator must compute the same CO through indexed probes, through
   hash-batch probes (no indexes) and as the SQL route's engine-planned
   joins *)
let prop_indexed_equals_generic =
  QCheck.Test.make ~name:"indexed and generic probe paths agree" ~count:40 arb_seed (fun seed ->
      let with_idx = Xnf.Api.fetch_string (Xnf.Api.create (build ~indexes:true seed)) co_query in
      let db = build ~indexes:false seed in
      let api = Xnf.Api.create db in
      let without = Xnf.Api.fetch_string api co_query in
      let def, _, _ =
        Xnf.View_registry.compose (Xnf.Api.registry api) (Xnf.Xnf_parser.parse_query co_query)
      in
      let sql_route = Baseline.Sql_route.fetch db def in
      List.for_all
        (fun node ->
          node_keys with_idx node = node_keys without node
          && node_keys with_idx node = node_keys sql_route node)
        [ "xp"; "xc"; "xg" ]
      && Xnf.Cache.total_conns with_idx = Xnf.Cache.total_conns without
      && Xnf.Cache.total_conns with_idx = Xnf.Cache.total_conns sql_route)

(* rewrite on/off agree on random select-join-aggregate queries *)
let queries =
  [| "SELECT * FROM c WHERE w > 5";
     "SELECT p.pid, c.cid FROM p, c WHERE p.pid = c.cpid AND c.w < 8";
     "SELECT c.w, COUNT(*) FROM c GROUP BY c.w HAVING COUNT(*) >= 1";
     "SELECT p.tag FROM p LEFT JOIN c ON p.pid = c.cpid WHERE p.tag = 0";
     "SELECT DISTINCT cpid FROM c WHERE cpid IS NOT NULL ORDER BY cpid DESC";
     "SELECT pid FROM p WHERE EXISTS (SELECT * FROM c WHERE c.cpid = p.pid AND c.w > 2)";
     "SELECT cid FROM c WHERE cpid IN (SELECT pid FROM p WHERE tag = 1)";
     "SELECT g.gid FROM g JOIN c ON g.gcid = c.cid JOIN p ON c.cpid = p.pid WHERE p.tag = 0" |]

let prop_rewrite_equivalence =
  QCheck.Test.make ~name:"rewrite preserves query results" ~count:60
    (QCheck.pair arb_seed (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 7)))
    (fun (seed, qi) ->
      let db = build ~indexes:true seed in
      let sql = queries.(qi) in
      Db.set_rewrite db true;
      let a = List.sort Row.compare (Db.rows_of db sql) in
      Db.set_rewrite db false;
      let b = List.sort Row.compare (Db.rows_of db sql) in
      List.length a = List.length b && List.for_all2 Row.equal a b)

(* ORDER BY really sorts, under the total order with NULLs first *)
let prop_order_by_sorts =
  QCheck.Test.make ~name:"ORDER BY sorts by the total order" ~count:40 arb_seed (fun seed ->
      let db = build ~indexes:false seed in
      let rows = Db.rows_of db "SELECT cpid FROM c ORDER BY cpid" in
      let rec sorted = function
        | a :: (b :: _ as rest) -> Value.compare_total a.(0) b.(0) <= 0 && sorted rest
        | _ -> true
      in
      sorted rows)

(* udi update round-trip: cache -> base -> fresh fetch sees the value *)
let prop_udi_roundtrip =
  QCheck.Test.make ~name:"udi updates round-trip through the base" ~count:30
    (QCheck.pair arb_seed (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000)))
    (fun (seed, v) ->
      let db = build ~indexes:true seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api co_query in
      let ni = Xnf.Cache.node cache "xc" in
      match Xnf.Cache.live_tuples ni with
      | [] -> true
      | t :: _ ->
        let ses = Xnf.Api.session api cache in
        Xnf.Udi.update ses ~node:"xc" ~pos:t.Xnf.Cache.t_pos [ ("w", Value.Int v) ];
        let cache2 = Xnf.Api.fetch_string api co_query in
        let ni2 = Xnf.Cache.node cache2 "xc" in
        let key = (Xnf.Cache.col t 0) in
        List.exists
          (fun t2 ->
            Value.equal (Xnf.Cache.col t2 0) key && Value.equal (Xnf.Cache.col t2 2) (Value.Int v))
          (Xnf.Cache.live_tuples ni2))

(* deleting a cached tuple removes it from subsequent fetches *)
let prop_udi_delete_roundtrip =
  QCheck.Test.make ~name:"udi deletes round-trip through the base" ~count:30 arb_seed (fun seed ->
      let db = build ~indexes:true seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api co_query in
      let ni = Xnf.Cache.node cache "xg" in
      match Xnf.Cache.live_tuples ni with
      | [] -> true
      | t :: _ ->
        let key = (Xnf.Cache.col t 0) in
        let ses = Xnf.Api.session api cache in
        Xnf.Udi.delete ses ~node:"xg" ~pos:t.Xnf.Cache.t_pos;
        let cache2 = Xnf.Api.fetch_string api co_query in
        not
          (List.exists
             (fun t2 -> Value.equal (Xnf.Cache.col t2 0) key)
             (Xnf.Cache.live_tuples (Xnf.Cache.node cache2 "xg"))))

(* connections always join live tuples of the right nodes *)
let prop_conns_well_formed =
  QCheck.Test.make ~name:"connections reference live partner tuples" ~count:40 arb_seed
    (fun seed ->
      let db = build ~indexes:true seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api co_query in
      List.for_all
        (fun (_, ei) ->
          let pn = Xnf.Cache.node cache ei.Xnf.Cache.ei_parent in
          let cn = Xnf.Cache.node cache ei.Xnf.Cache.ei_child in
          List.for_all
            (fun c ->
              (Xnf.Cache.tuple pn c.Xnf.Cache.cn_parent).Xnf.Cache.t_live
              && (Xnf.Cache.tuple cn c.Xnf.Cache.cn_child).Xnf.Cache.t_live)
            (Xnf.Cache.conns_live ei))
        cache.Xnf.Cache.c_edges)

(* xnf pretty-printer round-trips on composed random queries *)
let prop_xnf_roundtrip =
  QCheck.Test.make ~name:"XNF pretty-print round-trips" ~count:60 arb_seed (fun seed ->
      let rng = Workload.Rng.create seed in
      let maybe s = if Workload.Rng.bool rng 0.5 then s else "" in
      let text =
        Printf.sprintf
          "OUT OF xp AS (SELECT * FROM p WHERE tag = %d), xc AS C, pc AS (RELATE xp, xc WHERE \
           xp.pid = xc.cpid)%s TAKE %s"
          (Workload.Rng.int rng 2)
          (maybe " WHERE xc v SUCH THAT v.w > 3")
          (if Workload.Rng.bool rng 0.5 then "*" else "xp(*), xc(cid, w), pc")
      in
      let ast1 = Xnf.Xnf_parser.parse_stmt text in
      let ast2 = Xnf.Xnf_parser.parse_stmt (Xnf.Xnf_ast.stmt_to_string ast1) in
      ast1 = ast2)

(* reachability over a recursive CO equals an independently computed
   transitive closure of the FK graph *)
let prop_recursive_closure =
  QCheck.Test.make ~name:"recursive reachability equals transitive closure" ~count:30 arb_seed
    (fun seed ->
      let rng = Workload.Rng.create seed in
      let db = Db.create () in
      ignore (Db.exec db "CREATE TABLE memp (eno INTEGER PRIMARY KEY, mgrno INTEGER, tag INTEGER)");
      ignore (Db.exec db "CREATE INDEX memp_mgr ON memp (mgrno)");
      let n = 5 + Workload.Rng.int rng 40 in
      let mgr = Array.make n (-1) in
      let tag = Array.make n 0 in
      for i = 0 to n - 1 do
        (* parent pointer to an earlier employee, or none *)
        mgr.(i) <- (if i > 0 && Workload.Rng.bool rng 0.8 then Workload.Rng.int rng i else -1);
        tag.(i) <- (if mgr.(i) = -1 && Workload.Rng.bool rng 0.6 then 1 else 0);
        ignore
          (Db.exec db
             (Printf.sprintf "INSERT INTO memp VALUES (%d, %s, %d)" i
                (if mgr.(i) = -1 then "NULL" else string_of_int mgr.(i))
                tag.(i)))
      done;
      (* expected: transitive closure from tagged roots along mgr edges *)
      let reachable = Array.make n false in
      let children = Array.make n [] in
      for i = 0 to n - 1 do
        if mgr.(i) >= 0 then children.(mgr.(i)) <- i :: children.(mgr.(i))
      done;
      let rec visit i =
        if not reachable.(i) then begin
          reachable.(i) <- true;
          List.iter visit children.(i)
        end
      in
      for i = 0 to n - 1 do
        if tag.(i) = 1 then visit i
      done;
      let expected =
        List.filter (fun i -> reachable.(i)) (List.init n Fun.id) |> List.sort compare
      in
      (* actual: the recursive CO *)
      let api = Xnf.Api.create db in
      let cache =
        Xnf.Api.fetch_string api
          "OUT OF Xroot AS (SELECT * FROM memp WHERE tag = 1), Xemp AS MEMP, \
           top AS (RELATE Xroot r, Xemp e WHERE r.eno = e.mgrno), \
           manages AS (RELATE Xemp m, Xemp r WHERE m.eno = r.mgrno) TAKE *"
      in
      let actual =
        (node_keys cache "xroot" @ node_keys cache "xemp") |> List.sort_uniq compare
      in
      actual = expected)

(* a dependent cursor enumerates exactly the adjacency of the cache *)
let prop_dependent_cursor_matches_adjacency =
  QCheck.Test.make ~name:"dependent cursor equals cache adjacency" ~count:30 arb_seed (fun seed ->
      let db = build ~indexes:true seed in
      let api = Xnf.Api.create db in
      let cache = Xnf.Api.fetch_string api co_query in
      let ei = Xnf.Cache.edge cache "pc" in
      let parents = Xnf.Cursor.open_independent cache "xp" in
      let kids = Xnf.Cursor.open_dependent ~parent:parents (Xnf.Cursor.via "pc") in
      let ok = ref true in
      Xnf.Cursor.iter
        (fun p ->
          let via_cursor =
            List.sort compare
              (List.map (fun t -> t.Xnf.Cache.t_pos) (Xnf.Cursor.to_list kids))
          in
          let via_adjacency =
            List.sort compare (Xnf.Cache.children cache ei p.Xnf.Cache.t_pos)
          in
          if via_cursor <> via_adjacency then ok := false)
        parents;
      !ok)

(* COUNT(path) agrees with the equivalent SQL aggregate *)
let prop_count_path_equals_sql =
  QCheck.Test.make ~name:"COUNT(path) equals the SQL count" ~count:30 arb_seed (fun seed ->
      let db = build ~indexes:true seed in
      let api = Xnf.Api.create db in
      let cache =
        Xnf.Api.fetch_string api
          "OUT OF Xp AS P, Xc AS C, pc AS (RELATE Xp, Xc WHERE Xp.pid = Xc.cpid) TAKE *"
      in
      Xnf.Cache.live_tuples (Xnf.Cache.node cache "xp")
      |> List.for_all (fun t ->
             let pid = Value.as_int (Xnf.Cache.col t 0) in
             let env = [ ("v", { Xnf.Path.b_node = "xp"; b_pos = t.Xnf.Cache.t_pos }) ] in
             let count =
               match
                 Xnf.Path.eval_xexpr cache env
                   (Xnf.Xnf_ast.X_count_path
                      { Xnf.Xnf_ast.p_start = "v"; p_steps = [ Xnf.Xnf_ast.Step_edge "pc" ] })
               with
               | Value.Int n -> n
               | _ -> -1
             in
             let sql =
               Value.as_int
                 (List.hd
                    (Db.rows_of db
                       (Printf.sprintf "SELECT COUNT(*) FROM c WHERE cpid = %d" pid)))
                   .(0)
             in
             count = sql))

let suite seed =
  (* offset the per-test indexes so the two property suites draw distinct
     random states from the same session seed *)
  List.mapi
    (fun i t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed; 100 + i |]) t)
    [ prop_indexed_equals_generic; prop_rewrite_equivalence; prop_order_by_sorts;
      prop_udi_roundtrip; prop_udi_delete_roundtrip; prop_conns_well_formed; prop_xnf_roundtrip;
      prop_recursive_closure; prop_dependent_cursor_matches_adjacency; prop_count_path_equals_sql ]
