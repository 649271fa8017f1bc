(* Prober parameter binding: every relationship kind the OCaml probe
   paths deliver (plain key, residual conjuncts, WITH ATTRIBUTES, a
   parameter-free child predicate, a [?] child predicate, [?] in the
   residual and in a comparison attribute, [?] in attribute arithmetic),
   over both key shapes (FK and USING), plus a recursive 3-edge CO. Each
   case runs under forced indexed, forced hash, the unforced pick and the
   naive fixpoint, with two different parameter bindings, and must load
   the instance [Baseline.Sql_route] loads with the same binding. The
   SQL route binds the substituted AST per fetch, so a prober that skips
   the slot substitution anywhere diverges or raises here. *)

open Relational

let compose api q =
  let def, restrs, _take =
    Xnf.View_registry.compose (Xnf.Api.registry api) (Xnf.Xnf_parser.parse_query q)
  in
  (def, restrs)

(* the parent carries a NULL-free key, the child a NULL FK row and the
   link NULLs on either side, so the NULL-key rule is exercised too *)
let mk_api () =
  let db = Db.create () in
  List.iter
    (fun stmt -> ignore (Db.exec db stmt))
    [ "CREATE TABLE p (k INTEGER PRIMARY KEY, lo INTEGER)";
      "CREATE TABLE c (k INTEGER PRIMARY KEY, pf INTEGER, g INTEGER, h INTEGER)";
      "CREATE INDEX c_pf ON c (pf)";
      "CREATE TABLE l (lp INTEGER, lc INTEGER, w INTEGER)";
      "CREATE INDEX l_lp ON l (lp)";
      "CREATE TABLE n (k INTEGER PRIMARY KEY, nxt INTEGER, w INTEGER)";
      "CREATE INDEX n_nxt ON n (nxt)";
      "INSERT INTO p VALUES (1, 0), (2, 5), (3, 10)";
      "INSERT INTO c VALUES "
      ^ String.concat ", "
          (List.init 12 (fun i ->
               let k = i + 1 in
               Printf.sprintf "(%d, %d, %d, %d)" k ((k mod 3) + 1) k (12 - k)))
      ^ ", (13, NULL, 13, 0)";
      "INSERT INTO l VALUES (1, 1, 4), (1, 2, 9), (2, 3, 1), (2, 4, 7), (3, 5, 3), \
       (NULL, 6, 2), (3, NULL, 5), (1, 7, 8), (2, 8, 6), (3, 12, 0)";
      "INSERT INTO n VALUES (0, NULL, 0), "
      ^ String.concat ", "
          (List.init 20 (fun i ->
               let k = i + 1 in
               Printf.sprintf "(%d, %d, %d)" k ((k - 1) / 2) (k mod 5))) ];
  Xnf.Api.create db

let fk_key = "Xp.k = Xc.pf"
let using_key = "USING l L WHERE Xp.k = L.lp AND L.lc = Xc.k"

(* one relationship [e] from the root Xp over p to Xc (derivation
   [child]), keyed by [key]; [attrs] and [residual] are spliced in *)
let q_edge ~child ~key ?(attrs = "") ?(residual = "") () =
  let attrs = if attrs = "" then "" else " WITH ATTRIBUTES " ^ attrs in
  let where, using =
    if key = fk_key then ("WHERE " ^ key, "") else ("", " " ^ key)
  in
  let residual = if residual = "" then "" else " AND " ^ residual in
  Printf.sprintf "OUT OF Xp AS P, Xc AS %s, e AS (RELATE Xp, Xc%s%s %s%s) TAKE *" child attrs
    using where residual

type case = { name : string; query : string; nparams : int }

let kinds key =
  let tag = if key = fk_key then "fk" else "using" in
  [ { name = tag ^ " plain"; query = q_edge ~child:"C" ~key (); nparams = 0 };
    { name = tag ^ " residual"; query = q_edge ~child:"C" ~key ~residual:"Xc.g > Xp.lo" ();
      nparams = 0 };
    { name = tag ^ " attributes"; query = q_edge ~child:"C" ~key ~attrs:"Xc.g - Xp.lo AS x" ();
      nparams = 0 };
    { name = tag ^ " static child predicate";
      query = q_edge ~child:"(SELECT * FROM c WHERE g > 3)" ~key (); nparams = 0 };
    { name = tag ^ " ? child predicate";
      query = q_edge ~child:"(SELECT * FROM c WHERE g > ?)" ~key (); nparams = 1 };
    { name = tag ^ " ? residual and comparison attribute";
      query = q_edge ~child:"C" ~key ~attrs:"Xc.h > ? AS x" ~residual:"Xc.g < ?" ();
      nparams = 2 };
    { name = tag ^ " ? attribute arithmetic";
      query = q_edge ~child:"C" ~key ~attrs:"Xc.g + ? AS x, ? * Xc.h AS y" (); nparams = 2 } ]

(* a recursive CO: the root's children, then an a <-> b cycle over one
   table, with [?] in a residual and in a comparison attribute *)
let recursive =
  { name = "recursive 3-edge";
    query =
      "OUT OF Xr AS (SELECT * FROM n WHERE nxt IS NULL), Xa AS N, Xb AS N, \
       top AS (RELATE Xr, Xa WHERE Xr.k = Xa.nxt), \
       ab AS (RELATE Xa, Xb WHERE Xa.k = Xb.nxt AND Xb.w < ?), \
       ba AS (RELATE Xb, Xa WITH ATTRIBUTES Xa.w > ? AS x WHERE Xb.k = Xa.nxt) TAKE *";
    nparams = 2 }

let cases = kinds fk_key @ kinds using_key @ [ recursive ]

let bindings nparams =
  List.map
    (fun b -> Array.sub b 0 nparams)
    [ [| Value.Int 3; Value.Int 8 |]; [| Value.Int 7; Value.Int 4 |] ]

let run_case c () =
  let api = mk_api () in
  let db = Xnf.Api.db api in
  let def, restrs = compose api c.query in
  let runs =
    [ ("forced indexed", Some Xnf.Translate.S_indexed, Xnf.Translate.Semi_naive);
      ("forced hash", Some Xnf.Translate.S_hash, Xnf.Translate.Semi_naive);
      ("forced generic", Some Xnf.Translate.S_generic, Xnf.Translate.Semi_naive);
      ("unforced", None, Xnf.Translate.Semi_naive);
      ("naive", None, Xnf.Translate.Naive) ]
  in
  let references =
    List.map (fun params -> Baseline.Sql_route.fetch ~params db def) (bindings c.nparams)
  in
  (* the fixture must reach every edge, and the bindings must matter *)
  List.iter
    (fun (e, ei) ->
      if Xnf.Cache.conns_live ei = [] then Alcotest.failf "edge %s delivers nothing" e)
    (List.hd references).Xnf.Cache.c_edges;
  (match references with
  | [ a; b ] when c.nparams > 0 && Fuzz.Oracle.compare_caches a b = None ->
    Alcotest.fail "both bindings load the same instance"
  | _ -> ());
  List.iter2
    (fun params reference ->
      List.iter
        (fun (label, force, fixpoint) ->
          let cp = Xnf.Translate.compile_def ?force db def in
          (* the forced strategy must really serve every edge, or the
             case would only re-test a fallback *)
          Option.iter
            (fun f ->
              List.iter
                (fun (e, s) ->
                  if s <> f then
                    Alcotest.failf "%s: edge %s not served %s" label e
                      (Xnf.Translate.strategy_name f))
                (Xnf.Translate.edge_strategies cp))
            force;
          let got = Xnf.Translate.execute_def ~fixpoint ~params db cp restrs in
          match Fuzz.Oracle.compare_caches reference got with
          | None -> ()
          | Some d -> Alcotest.failf "%s diverged from the SQL route: %s" label d)
        runs)
    (bindings c.nparams) references

(* [?] in WITH ATTRIBUTES arithmetic types from its sibling operand and
   yields the bound value on each EXECUTE *)
let test_prepared_attribute_arithmetic () =
  let api = mk_api () in
  let prepared =
    Xnf.Api.exec api
      "PREPARE a AS OUT OF Xp AS P, Xc AS C, \
       e AS (RELATE Xp, Xc WITH ATTRIBUTES Xc.g + ? AS x WHERE Xp.k = Xc.pf) TAKE *"
  in
  (match prepared with
  | Xnf.Api.Prepared _ -> ()
  | _ -> Alcotest.fail "expected Prepared outcome");
  let attrs v =
    match Xnf.Api.exec api (Printf.sprintf "EXECUTE a (%d)" v) with
    | Xnf.Api.Fetched cache ->
      let ei = Xnf.Cache.edge cache "e" in
      Alcotest.(check bool) "attribute typed int" true
        ((Schema.col ei.Xnf.Cache.ei_attr_schema 0).Schema.col_ty = Schema.Ty_int);
      List.sort compare
        (List.map
           (fun (cn : Xnf.Cache.conn) ->
             match cn.Xnf.Cache.cn_attrs with
             | [| x |] -> Value.as_int (Dict.decode x)
             | _ -> Alcotest.fail "one attribute per connection")
           (Xnf.Cache.conns_live ei))
    | _ -> Alcotest.fail "expected Fetched outcome"
  in
  (* children g = 1..12 reach parents 1..3; g = 13 has a NULL FK *)
  let expect v = List.init 12 (fun i -> i + 1 + v) in
  Alcotest.(check (list int)) "EXECUTE (100)" (expect 100) (attrs 100);
  Alcotest.(check (list int)) "EXECUTE (-5)" (expect (-5)) (attrs (-5))

(* a slot with no typed operand fails PREPARE with a coded error that
   names the relationship *)
let test_untyped_attribute_parameter () =
  let api = mk_api () in
  match
    Xnf.Api.exec api
      "PREPARE b AS OUT OF Xp AS P, Xc AS C, \
       owns AS (RELATE Xp, Xc WITH ATTRIBUTES ? + ? AS x WHERE Xp.k = Xc.pf) TAKE *"
  with
  | exception Xnf.Translate.Translate_error msg ->
    let has needle =
      let n = String.length needle in
      let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("coded: " ^ msg) true (has "[XNF009]");
    Alcotest.(check bool) ("names the relationship: " ^ msg) true (has "owns")
  | _ -> Alcotest.fail "expected a Translate_error"

let suite =
  List.map (fun c -> Alcotest.test_case c.name `Quick (run_case c)) cases
  @ [ Alcotest.test_case "prepared ? attribute arithmetic" `Quick
        test_prepared_attribute_arithmetic;
      Alcotest.test_case "untyped ? attribute is a coded error" `Quick
        test_untyped_attribute_parameter ]
