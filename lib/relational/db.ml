(* The engine facade: a database session.

   [exec] takes SQL text through the full pipeline of Fig. 8 — parse, bind
   (semantic checking), query rewrite, plan optimization, execution — and
   is also the entry point the XNF layer and the "regular SQL interface"
   baseline call into. Rewrite can be disabled per session for the E7
   ablation; [stmt_count]/[rows_touched] feed the benchmark harness. *)

type t = {
  catalog : Catalog.t;
  txn : Txn.t;
  mutable rewrite_enabled : bool;
  mutable stmt_count : int;  (** statements executed through [exec]/[query] *)
  mutable data_dir : string option;  (** durable home: wal.log + checkpoint.db *)
  mutable ckpt_extra : (unit -> (string * string) list) option;
      (** upper-layer checkpoint sections (the XNF view registry) *)
  mutable ext_handler : (tag:string -> payload:string -> unit) option;
      (** upper-layer consumer of recovered R_ext records / sections *)
  mutable pending_ext : (string * string) list;
      (** recovered ext payloads awaiting a handler, oldest first *)
}

type result = { rschema : Schema.t; rrows : Row.t list }

type exec_result =
  | Rows of result
  | Affected of int
  | Done of string  (** DDL / transaction-control acknowledgement *)

exception Exec_error of string

let err fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

let m_stmts = Obs.Metrics.counter "db.stmts"
let m_rows_returned = Obs.Metrics.counter "db.rows_returned"
let m_recoveries = Obs.Metrics.counter "recovery.recoveries"
let m_replayed = Obs.Metrics.counter "recovery.wal_replayed"
let g_ckpt_lsn = Obs.Metrics.gauge "recovery.checkpoint_lsn"

(* ---- durability: checkpoint + recovery ---- *)

let wal_file dir = Filename.concat dir "wal.log"
let ckpt_file dir = Filename.concat dir "checkpoint.db"

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type recovery_stats = {
  rs_checkpoint_lsn : int;
  rs_replayed : int;
  rs_truncated_bytes : int;
}

let set_checkpoint_extra db f = db.ckpt_extra <- f

(* ---- dictionary persistence ----

   The value dictionary travels in its own checkpoint section: caches and
   materialized results hold dictionary-encoded rows, so a recovered
   process must re-intern the same entries in the same slot order before
   anything re-encodes. [Dict.restore] is idempotent and append-only, so
   re-recovering a warm session never relocates an id. *)

let dict_section_tag = "xnf.dict"

let dict_section_payload () =
  let entries = Dict.snapshot () in
  let b = Buffer.create (64 + (8 * Array.length entries)) in
  Bincode.put_int b (Array.length entries);
  Array.iter (Bincode.put_value b) entries;
  Buffer.contents b

let restore_dict_section payload =
  let r = Bincode.reader payload in
  let n = Bincode.get_int r in
  Dict.restore (Array.init n (fun _ -> Bincode.get_value r))

(* Recovered ext payloads are delivered in original order; when no handler
   is installed yet (the XNF layer attaches after [create]) they queue in
   [pending_ext] and flush when the handler arrives. *)
let deliver_ext db items =
  match db.ext_handler with
  | Some h -> List.iter (fun (tag, payload) -> h ~tag ~payload) items
  | None -> db.pending_ext <- db.pending_ext @ items

let set_ext_handler db h =
  db.ext_handler <- h;
  match h with
  | Some f when db.pending_ext <> [] ->
    let items = db.pending_ext in
    db.pending_ext <- [];
    List.iter (fun (tag, payload) -> f ~tag ~payload) items
  | _ -> ()

(** [recover db] rebuilds the logical state from the data directory: load
    the last checkpoint, truncate the WAL's torn tail, replay records past
    the checkpoint LSN to the last committed transaction, re-attach the
    log, and floor every schema/table version strictly above its
    pre-recovery value so cached plans and results invalidate. *)
let recover db =
  match db.data_dir with
  | None -> err "no data directory attached (open the session with a data dir)"
  | Some dir ->
    if Txn.in_txn db.txn then err "cannot recover inside a transaction";
    let prev_tables =
      List.map
        (fun t -> (String.lowercase_ascii (Table.name t), Table.version t))
        (Catalog.tables db.catalog)
    in
    let prev_cat = Catalog.version db.catalog in
    Wal.close (Txn.wal db.txn);
    Catalog.reset_storage db.catalog;
    db.pending_ext <- [];
    let ck_lsn, sections =
      match Checkpoint.read ~path:(ckpt_file dir) with
      | None -> (0, [])
      | Some im ->
        Checkpoint.apply im db.catalog;
        (im.Checkpoint.im_lsn, im.Checkpoint.im_sections)
    in
    (* re-intern the dictionary before any replay/re-encode can mint ids *)
    let dict_sections, sections =
      List.partition (fun (tag, _) -> String.equal tag dict_section_tag) sections
    in
    List.iter (fun (_, payload) -> restore_dict_section payload) dict_sections;
    let loaded = Wal.load ~path:(wal_file dir) in
    if loaded.Wal.ld_total > loaded.Wal.ld_valid then
      Wal.truncate_path ~path:(wal_file dir) loaded.Wal.ld_valid;
    let exts = ref [] in
    let replayable =
      List.filter (fun (lsn, _) -> lsn > ck_lsn) loaded.Wal.ld_records
    in
    Wal.replay_records
      ~on_ext:(fun ~tag ~payload -> exts := (tag, payload) :: !exts)
      db.catalog (List.map snd replayable);
    let max_lsn =
      List.fold_left (fun acc (lsn, _) -> max acc lsn) ck_lsn loaded.Wal.ld_records
    in
    Txn.swap_wal db.txn (Wal.open_file ~path:(wal_file dir) ~lsn:max_lsn);
    List.iter
      (fun t ->
        match List.assoc_opt (String.lowercase_ascii (Table.name t)) prev_tables with
        | Some prev when Table.version t <= prev -> Table.set_version t (prev + 1)
        | _ -> ())
      (Catalog.tables db.catalog);
    if Catalog.version db.catalog <= prev_cat then
      Catalog.set_version db.catalog (prev_cat + 1);
    Index.bump_epoch ();
    deliver_ext db (sections @ List.rev !exts);
    Obs.Metrics.incr m_recoveries;
    Obs.Metrics.incr ~by:(List.length replayable) m_replayed;
    Obs.Metrics.set g_ckpt_lsn (float_of_int ck_lsn);
    { rs_checkpoint_lsn = ck_lsn;
      rs_replayed = List.length replayable;
      rs_truncated_bytes = loaded.Wal.ld_total - loaded.Wal.ld_valid }

(** [checkpoint db] snapshots the whole logical state to
    [checkpoint.db] (atomic tmp+rename) and truncates the WAL, whose
    history the snapshot absorbs. Returns the checkpoint LSN. *)
let checkpoint db =
  match db.data_dir with
  | None -> err "no data directory attached (open the session with a data dir)"
  | Some dir ->
    if Txn.in_txn db.txn then err "cannot checkpoint inside a transaction";
    let wal = Txn.wal db.txn in
    Wal.sync wal;
    let sections =
      (dict_section_tag, dict_section_payload ())
      :: (match db.ckpt_extra with None -> [] | Some f -> f ())
    in
    let image = Checkpoint.of_catalog db.catalog ~lsn:(Wal.lsn wal) ~sections in
    Checkpoint.write ~path:(ckpt_file dir) image;
    Wal.truncate_file wal;
    Obs.Metrics.set g_ckpt_lsn (float_of_int image.Checkpoint.im_lsn);
    image.Checkpoint.im_lsn

(** [create ?data_dir ()] is a fresh database session. With [data_dir]
    the session is durable: the directory is created if needed, an
    existing checkpoint/WAL pair is recovered, and all further changes
    are logged to [data_dir]/wal.log. *)
let create ?data_dir () =
  let catalog = Catalog.create () in
  Sys_catalog.install catalog;
  let db =
    { catalog; txn = Txn.create catalog; rewrite_enabled = true; stmt_count = 0;
      data_dir; ckpt_extra = None; ext_handler = None; pending_ext = [] }
  in
  (match data_dir with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    if Sys.file_exists (ckpt_file dir) || Sys.file_exists (wal_file dir) then
      ignore (recover db)
    else Txn.swap_wal db.txn (Wal.open_file ~path:(wal_file dir) ~lsn:0));
  db

(** [data_dir db] is the attached durable directory, if any. *)
let data_dir db = db.data_dir

(** [with_statement db f] runs [f] under the implicit statement-commit
    envelope (see {!Txn.statement}) — multi-record callers outside
    [exec] (the XNF udi layer) use it to keep frame boundaries
    statement-consistent. *)
let with_statement db f = Txn.statement db.txn f

(** [catalog db] exposes the catalog (for the XNF layer and tests). *)
let catalog db = db.catalog

(** [txn db] exposes the transaction manager. *)
let txn db = db.txn

(** [set_rewrite db flag] enables/disables the QGM rewrite phase. *)
let set_rewrite db flag = db.rewrite_enabled <- flag

(** [stmt_count db] counts statements executed so far (the per-call cost
    the XNF cache avoids — measured in E1/E2). *)
let stmt_count db = db.stmt_count

(* the binder's subquery-compile callback: optimize lazily, memoize
   uncorrelated results *)
let rec compile_qgm db qgm =
  let plan = lazy (Optimizer.optimize ~rewrite:db.rewrite_enabled db.catalog qgm) in
  let memo = ref None in
  fun (outer : Row.t) ->
    let plan = Lazy.force plan in
    if Plan.has_params plan then Plan.run (Plan.subst_params outer plan)
    else begin
      match !memo with
      | Some rows -> List.to_seq rows
      | None ->
        let rows = List.of_seq (Plan.run plan) in
        memo := Some rows;
        List.to_seq rows
    end

(** [bind_env db] is a binder environment for this session. *)
and bind_env db = Binder.make_env db.catalog ~compile:(compile_qgm db)

(** [bind_select db q] binds a parsed SELECT to QGM and runs the post-bind
    validation hook on the result. *)
let bind_select db q =
  let qgm = Binder.bind (bind_env db) q in
  !Hooks.post_bind db.catalog qgm;
  qgm

(* rewrite + lower, each under its pipeline span, with the stage-boundary
   validation hooks run on each stage's output *)
let plan_of_qgm db qgm =
  let qgm =
    if db.rewrite_enabled then
      Obs.Trace.with_span "rewrite" (fun () -> Rewrite.rewrite db.catalog qgm)
    else qgm
  in
  !Hooks.post_rewrite db.catalog qgm;
  let plan = Obs.Trace.with_span "optimize" (fun () -> Optimizer.lower db.catalog qgm) in
  !Hooks.post_optimize db.catalog plan;
  plan

(** [run_qgm db qgm] optimizes and runs a QGM tree (the XNF translator's
    entry point). The result is materialized inside the "execute" span so
    per-stage timings are attributed correctly; every current caller
    consumes the sequence eagerly anyway. *)
let run_qgm db qgm =
  let plan = plan_of_qgm db qgm in
  Obs.Trace.with_span "execute" (fun () ->
      let rows = List.of_seq (Plan.run plan) in
      Obs.Trace.add_meta "rows" (string_of_int (List.length rows));
      Obs.Metrics.incr ~by:(List.length rows) m_rows_returned;
      List.to_seq rows)

(** [query_ast db q] executes a parsed SELECT. *)
let query_ast db q =
  db.stmt_count <- db.stmt_count + 1;
  Obs.Metrics.incr m_stmts;
  Obs.Trace.with_span "sql.query" (fun () ->
      let qgm = Obs.Trace.with_span "semantic" (fun () -> bind_select db q) in
      let schema = Qgm.schema_of db.catalog qgm in
      { rschema = schema; rrows = List.of_seq (run_qgm db qgm) })

(** [query db sql] parses and executes a SELECT, returning all rows. *)
let query db sql =
  query_ast db (Obs.Trace.with_span "parse" (fun () -> Sql_parser.parse_select sql))

(** [explain_ast db q] returns the rewritten QGM and physical plan of a
    parsed SELECT as text. *)
let explain_ast db q =
  let qgm = bind_select db q in
  let rewritten =
    if db.rewrite_enabled then Rewrite.rewrite db.catalog qgm else qgm
  in
  !Hooks.post_rewrite db.catalog rewritten;
  let plan = Optimizer.lower db.catalog rewritten in
  !Hooks.post_optimize db.catalog plan;
  Fmt.str "QGM:@.%sPlan:@.%s" (Qgm.to_string rewritten) (Plan.to_string plan)

(** [explain db sql] parses a SELECT and returns its plans as text. *)
let explain db sql = explain_ast db (Sql_parser.parse_select sql)

(** [explain_analyze_ast db q] executes a parsed SELECT under the analyzed
    executor and reports per-operator actual rows/time plus the pipeline
    span tree. *)
let explain_analyze_ast db q =
  db.stmt_count <- db.stmt_count + 1;
  Obs.Metrics.incr m_stmts;
  let rows, analyzed =
    Obs.Trace.with_span "sql.query" (fun () ->
        let qgm = Obs.Trace.with_span "semantic" (fun () -> bind_select db q) in
        let plan = plan_of_qgm db qgm in
        let seq, analyzed = Plan.run_analyzed plan in
        let rows =
          Obs.Trace.with_span "execute" (fun () ->
              let rows = List.of_seq seq in
              Obs.Trace.add_meta "rows" (string_of_int (List.length rows));
              rows)
        in
        (rows, analyzed))
  in
  let b = Buffer.create 256 in
  Buffer.add_string b "Plan (actual):\n";
  Buffer.add_string b (Plan.analyzed_to_string analyzed);
  (match Obs.Trace.last () with
  | Some sp ->
    Buffer.add_string b "Stages:\n";
    Buffer.add_string b (Obs.Trace.to_string sp)
  | None -> ());
  Buffer.add_string b (Printf.sprintf "(%d rows)\n" (List.length rows));
  Buffer.contents b

(** [explain_analyze db sql] parses a SELECT, runs it instrumented, and
    returns the report. *)
let explain_analyze db sql =
  explain_analyze_ast db
    (Obs.Trace.with_span "parse" (fun () -> Sql_parser.parse_select sql))

(* ---- DML helpers ---- *)

let eval_const db (e : Sql_ast.expr) : Value.t =
  let bound = Binder.bind_expr (bind_env db) (Schema.make []) e in
  Expr.eval [||] bound

let check_pk_unique table row ~except =
  match Table.primary_key table with
  | None -> ()
  | Some cols -> begin
    let key = Row.project row cols in
    if Array.exists Value.is_null key then
      err "NULL in primary key of %s" (Table.name table);
    match Table.find_index table ~cols with
    | None -> ()
    | Some idx ->
      let hits = Index.lookup idx key in
      let hits = match except with None -> hits | Some rid -> List.filter (fun i -> i <> rid) hits in
      if hits <> [] then
        err "duplicate primary key %s in %s" (Row.to_string key) (Table.name table)
  end

(** [insert_row db table row] inserts with PK enforcement and WAL logging;
    returns the new rowid. Used by the executor and by the XNF udi layer. *)
let insert_row db table row =
  check_pk_unique table row ~except:None;
  let rowid = Table.insert table row in
  Txn.log_dml db.txn (Wal.R_insert { table = Table.name table; rowid; row });
  rowid

(** [delete_row db table rowid] deletes with WAL logging; returns whether a
    live row was removed. *)
let delete_row db table rowid =
  match Table.delete table rowid with
  | None -> false
  | Some row ->
    Txn.log_dml db.txn (Wal.R_delete { table = Table.name table; rowid; row });
    true

(** [update_row db table rowid row] updates with PK enforcement and WAL
    logging; returns whether the row existed. *)
let update_row db table rowid row =
  check_pk_unique table row ~except:(Some rowid);
  match Table.update table rowid row with
  | None -> false
  | Some before ->
    Txn.log_dml db.txn (Wal.R_update { table = Table.name table; rowid; before; after = row });
    true

(* rows matching a WHERE clause on a single table, as (rowid, row) in
   rowid order, materialized before the caller's first write *)
let matching_rows db table where =
  let schema = Schema.requalify (Table.name table) (Table.schema table) in
  let pred = Option.map (Binder.bind_expr (bind_env db) schema) where in
  let path =
    match pred with
    | Some p -> Access_path.choose table (Expr.conjuncts p)
    | None -> Access_path.Scan
  in
  Access_path.rows table path pred

(* ---- statement execution ---- *)

let exec_create_table db (name, col_defs) =
  let cols =
    List.map
      (fun cd ->
        Schema.column ~nullable:cd.Sql_ast.cd_nullable cd.Sql_ast.cd_name cd.Sql_ast.cd_ty)
      col_defs
  in
  let table = Catalog.create_table db.catalog ~name (Schema.make cols) in
  let pk_cols =
    List.filteri (fun _ cd -> cd.Sql_ast.cd_primary) col_defs
    |> List.map (fun cd -> Schema.find (Table.schema table) cd.Sql_ast.cd_name)
  in
  if pk_cols <> [] then begin
    let cols = Array.of_list pk_cols in
    Table.set_primary_key table cols;
    ignore (Table.add_index table ~name:(name ^ "_pk") ~cols Index.Hash)
  end;
  Txn.log_meta db.txn
    (Wal.R_create_table { name; schema = Table.schema table; pk = Table.primary_key table });
  Done (Printf.sprintf "created table %s" name)

let exec_stmt_ast db (stmt : Sql_ast.stmt) : exec_result =
  db.stmt_count <- db.stmt_count + 1;
  match stmt with
  | Sql_ast.S_select q ->
    db.stmt_count <- db.stmt_count - 1;
    (* query_ast counts it *)
    Rows (query_ast db q)
  | Sql_ast.S_insert { ins_table; ins_cols; ins_values } ->
    Txn.statement db.txn (fun () ->
        let table = Catalog.table db.catalog ins_table in
        let schema = Table.schema table in
        let positions =
          match ins_cols with
          | None -> List.init (Schema.arity schema) Fun.id
          | Some cols -> List.map (fun c -> Schema.find schema c) cols
        in
        let count = ref 0 in
        List.iter
          (fun exprs ->
            if List.length exprs <> List.length positions then
              err "INSERT arity mismatch on %s" ins_table;
            let row = Array.make (Schema.arity schema) Value.Null in
            List.iter2 (fun pos e -> row.(pos) <- eval_const db e) positions exprs;
            ignore (insert_row db table row);
            incr count)
          ins_values;
        Affected !count)
  | Sql_ast.S_update { upd_table; upd_sets; upd_where } ->
    Txn.statement db.txn (fun () ->
        let table = Catalog.table db.catalog upd_table in
        let schema = Schema.requalify (Table.name table) (Table.schema table) in
        let env = bind_env db in
        let sets =
          List.map (fun (c, e) -> (Schema.find schema c, Binder.bind_expr env schema e)) upd_sets
        in
        let victims = matching_rows db table upd_where in
        List.iter
          (fun (rowid, row) ->
            let row' = Array.copy row in
            List.iter (fun (pos, e) -> row'.(pos) <- Expr.eval row e) sets;
            ignore (update_row db table rowid row'))
          victims;
        Affected (List.length victims))
  | Sql_ast.S_delete { del_table; del_where } ->
    Txn.statement db.txn (fun () ->
        let table = Catalog.table db.catalog del_table in
        let victims = matching_rows db table del_where in
        List.iter (fun (rowid, _) -> ignore (delete_row db table rowid)) victims;
        Affected (List.length victims))
  | Sql_ast.S_create_table { ct_name; ct_cols } -> exec_create_table db (ct_name, ct_cols)
  | Sql_ast.S_create_index { ci_name; ci_table; ci_cols; ci_ordered } ->
    let table = Catalog.table db.catalog ci_table in
    let schema = Table.schema table in
    let cols = Array.of_list (List.map (fun c -> Schema.find schema c) ci_cols) in
    let kind = if ci_ordered then Index.Ordered else Index.Hash in
    ignore (Table.add_index table ~name:ci_name ~cols kind);
    Txn.log_meta db.txn
      (Wal.R_create_index { table = ci_table; index = ci_name; cols; ordered = ci_ordered });
    Done (Printf.sprintf "created index %s" ci_name)
  | Sql_ast.S_create_view { cv_name; cv_query } ->
    (* validate eagerly so errors surface at definition time *)
    ignore (bind_select db cv_query);
    Catalog.add_view db.catalog ~name:cv_name cv_query;
    Txn.log_meta db.txn
      (Wal.R_create_view { name = cv_name; sql = Fmt.str "%a" Sql_ast.pp_select cv_query });
    Done (Printf.sprintf "created view %s" cv_name)
  | Sql_ast.S_drop_table name ->
    Catalog.drop_table db.catalog name;
    Txn.log_meta db.txn (Wal.R_drop_table name);
    Done (Printf.sprintf "dropped table %s" name)
  | Sql_ast.S_drop_view name ->
    Catalog.drop_view db.catalog name;
    Txn.log_meta db.txn (Wal.R_drop_view name);
    Done (Printf.sprintf "dropped view %s" name)
  | Sql_ast.S_drop_index name ->
    let dropped =
      List.exists (fun table -> Table.drop_index table ~name) (Catalog.tables db.catalog)
    in
    if not dropped then err "unknown index %s" name;
    Txn.log_meta db.txn (Wal.R_drop_index name);
    Done (Printf.sprintf "dropped index %s" name)
  | Sql_ast.S_explain q -> Done (explain_ast db q)
  | Sql_ast.S_analyze target ->
    let targets =
      match target with
      | Some name -> [ Catalog.table db.catalog name ]
      | None -> Catalog.tables db.catalog
    in
    List.iter (fun t -> Catalog.set_stats db.catalog (Stats.analyze t)) targets;
    Done (Printf.sprintf "analyzed %d table(s)" (List.length targets))
  | Sql_ast.S_begin ->
    Txn.begin_txn db.txn;
    Done "transaction started"
  | Sql_ast.S_commit ->
    Txn.commit db.txn;
    Done "committed"
  | Sql_ast.S_rollback ->
    Txn.rollback db.txn;
    Done "rolled back"

(** [exec db sql] parses and executes one statement. *)
let exec db sql = exec_stmt_ast db (Sql_parser.parse_stmt sql)

(** [exec_script db sql] executes a ';'-separated script, returning the
    last result. *)
let exec_script db sql =
  let stmts =
    String.split_on_char ';' sql
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match stmts with
  | [] -> Done "empty script"
  | _ -> List.fold_left (fun _ s -> exec db s) (Done "") stmts

(** [rows_of db sql] runs a SELECT and returns only the rows (test
    convenience). *)
let rows_of db sql = (query db sql).rrows
