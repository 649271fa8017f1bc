(* Synthetic chain/hierarchy databases for the translation ablations
   (E5: common-subexpression sharing, E7: rewrite, E8: blocked delivery).

   A chain of depth d is a set of tables t0 .. td where every t(i+1) row
   points to a t(i) parent by FK; the CO relates each level to the next.
   Roots are restricted by a tag column so extraction is selective. *)

open Relational

(** [populate db ~seed ~depth ~n_roots ~fanout] creates tables
    [t0..t<depth>]: [n_roots] tagged roots (plus as many untagged ones) and
    [fanout] children per parent at every level. [indexes:false] omits the
    FK indexes, so the translator probes edges through hash builds — the
    E12 deep chain, and E7's rewrite ablation over the SQL route. *)
let populate ?(indexes = true) db ~seed ~depth ~n_roots ~fanout =
  let rng = Rng.create seed in
  ignore (Db.exec db "CREATE TABLE t0 (k0 INTEGER PRIMARY KEY, tag INTEGER, payload INTEGER)");
  for level = 1 to depth do
    ignore
      (Db.exec db
         (Printf.sprintf "CREATE TABLE t%d (k%d INTEGER PRIMARY KEY, parent%d INTEGER, payload INTEGER)"
            level level level));
    if indexes then
      ignore
        (Db.exec db (Printf.sprintf "CREATE INDEX t%d_parent ON t%d (parent%d)" level level level))
  done;
  let t0 = Catalog.table (Db.catalog db) "t0" in
  for i = 0 to (2 * n_roots) - 1 do
    ignore
      (Table.insert t0
         [| Value.Int i; Value.Int (if i < n_roots then 1 else 0); Value.Int (Rng.int rng 1000) |])
  done;
  let prev_count = ref (2 * n_roots) in
  for level = 1 to depth do
    let t = Catalog.table (Db.catalog db) (Printf.sprintf "t%d" level) in
    let n = !prev_count * fanout in
    for i = 0 to n - 1 do
      ignore
        (Table.insert t [| Value.Int i; Value.Int (i / fanout); Value.Int (Rng.int rng 1000) |])
    done;
    prev_count := n
  done

(** [co_query ~depth] is the XNF query extracting the tagged chain CO;
    [co_query_sel ~max_root ~depth] further narrows the roots to
    [k0 < max_root] — working-set extraction whose CO size is independent
    of the database size (bench E12). *)
let co_query_root root ~depth =
  let buf = Buffer.create 256 in
  Buffer.add_string buf root;
  for level = 1 to depth do
    Buffer.add_string buf (Printf.sprintf ", x%d AS T%d" level level)
  done;
  for level = 1 to depth do
    Buffer.add_string buf
      (Printf.sprintf ", link%d AS (RELATE x%d, x%d WHERE x%d.k%d = x%d.parent%d)" level (level - 1)
         level (level - 1) (level - 1) level level)
  done;
  Buffer.add_string buf " TAKE *";
  Buffer.contents buf

let co_query ~depth = co_query_root "OUT OF x0 AS (SELECT * FROM t0 WHERE tag = 1)" ~depth

let co_query_sel ~max_root ~depth =
  co_query_root
    (Printf.sprintf "OUT OF x0 AS (SELECT * FROM t0 WHERE tag = 1 AND k0 < %d)" max_root)
    ~depth

(** [mgmt_chain db ~chain_len] builds an employee table forming [chain_len]-
    long management chains under a single root — the recursive-CO workload
    for the fixpoint ablation (E6). *)
let mgmt_chain db ~chain_len =
  ignore (Db.exec db "CREATE TABLE memp (eno INTEGER PRIMARY KEY, mgrno INTEGER, payload INTEGER)");
  ignore (Db.exec db "CREATE INDEX memp_mgr ON memp (mgrno)");
  let t = Catalog.table (Db.catalog db) "memp" in
  ignore (Table.insert t [| Value.Int 0; Value.Null; Value.Int 0 |]);
  for i = 1 to chain_len - 1 do
    ignore (Table.insert t [| Value.Int i; Value.Int (i - 1); Value.Int i |])
  done

(** [mgmt_query] is the recursive CO over [memp]: the root plus the
    transitive 'manages' closure. *)
let mgmt_query =
  "OUT OF Xroot AS (SELECT * FROM memp WHERE mgrno IS NULL), Xemp AS MEMP, \
   top AS (RELATE Xroot r, Xemp e WHERE r.eno = e.mgrno), \
   manages AS (RELATE Xemp m, Xemp r WHERE m.eno = r.mgrno) TAKE *"

(** [mgmt_tree db ?indexes ~levels ~fanout] builds an employee table
    forming a complete [fanout]-ary management tree of [levels] levels
    under one root — a recursive CO whose fixpoint converges in [levels]
    rounds (unlike [mgmt_chain], node count grows without making the round
    count pathological, so it scales to the E12 bench sizes).
    [indexes:false] omits the manager-FK index so access-path selection
    falls back to batch hash (or generic) probes. Returns the number of
    employees inserted. *)
let mgmt_tree ?(indexes = true) db ~levels ~fanout =
  ignore (Db.exec db "CREATE TABLE memp (eno INTEGER PRIMARY KEY, mgrno INTEGER, payload INTEGER)");
  if indexes then ignore (Db.exec db "CREATE INDEX memp_mgr ON memp (mgrno)");
  let t = Catalog.table (Db.catalog db) "memp" in
  ignore (Table.insert t [| Value.Int 0; Value.Null; Value.Int 0 |]);
  let next = ref 1 in
  let prev_level = ref [ 0 ] in
  for _ = 2 to levels do
    let this_level = ref [] in
    List.iter
      (fun mgr ->
        for _ = 1 to fanout do
          let eno = !next in
          incr next;
          ignore (Table.insert t [| Value.Int eno; Value.Int mgr; Value.Int (eno mod 1000) |]);
          this_level := eno :: !this_level
        done)
      !prev_level;
    prev_level := List.rev !this_level
  done;
  !next
