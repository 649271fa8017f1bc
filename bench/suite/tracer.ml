(* The benchmark's own tracer: spans around every public call the bench
   makes (the op, Api.*, the Cache walk, Udi.*, checkpoint, recover),
   kept in a preallocated in-memory buffer and written as JSON lines at
   exit. No tracing is added inside the engine; instead each span also
   records how much of its interval the engine's own root spans
   ([Obs.Trace.recent]) cover, so a layer's self time is its span minus
   the engine stages that ran inside it.

   Off (the default) a span is one branch and a direct call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled = ref false

(* ---- span names ---- *)

let name_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let name_list : string list ref = ref []  (* newest first *)

(** [name s] registers (or finds) the span name [s]. *)
let name s =
  match Hashtbl.find_opt name_ids s with
  | Some id -> id
  | None ->
    let id = Hashtbl.length name_ids in
    Hashtbl.add name_ids s id;
    name_list := s :: !name_list;
    id

let max_names = 64

(* per-name aggregates over the traced window: calls, inclusive time,
   engine root-span time inside *)
let agg_calls = Array.make max_names 0
let agg_ns = Array.make max_names 0
let agg_engine_ns = Array.make max_names 0

(* ---- the span buffer ---- *)

let capacity = 1 lsl 19
let sp_op = ref [||]
let sp_name = ref [||]
let sp_parent = ref [||]
let sp_start = ref [||]
let sp_end = ref [||]
let len = ref 0
let dropped = ref 0
let current = ref (-1)  (* innermost open span index; -1 = none *)
let current_op = ref (-1)
let origin = ref 0

(** [start ()] allocates the buffer (once), clears spans and aggregates,
    and turns recording on. *)
let start () =
  if Array.length !sp_op = 0 then begin
    sp_op := Array.make capacity 0;
    sp_name := Array.make capacity 0;
    sp_parent := Array.make capacity 0;
    sp_start := Array.make capacity 0;
    sp_end := Array.make capacity 0
  end;
  Array.fill agg_calls 0 max_names 0;
  Array.fill agg_ns 0 max_names 0;
  Array.fill agg_engine_ns 0 max_names 0;
  len := 0;
  dropped := 0;
  current := -1;
  origin := now_ns ();
  enabled := true

let stop () = enabled := false

(* engine root spans completed since [head] was the newest *)
let engine_ns_since head =
  let is_head sp = match head with Some h -> sp == h | None -> false in
  let rec go acc = function
    | sp :: rest when not (is_head sp) -> go (acc +. sp.Obs.Trace.sp_elapsed_ns) rest
    | _ -> acc
  in
  int_of_float (go 0. (Obs.Trace.recent ()))

let newest () = match Obs.Trace.recent () with sp :: _ -> Some sp | [] -> None

(** [span id f] runs [f] inside a bench span named [id]. *)
let span id f =
  if not !enabled then f ()
  else begin
    let idx = !len in
    let recorded = idx < capacity in
    if recorded then begin
      len := idx + 1;
      !sp_op.(idx) <- !current_op;
      !sp_name.(idx) <- id;
      !sp_parent.(idx) <- !current
    end
    else incr dropped;
    let parent = !current in
    if recorded then current := idx;
    let head = newest () in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      current := parent;
      if recorded then begin
        !sp_start.(idx) <- t0;
        !sp_end.(idx) <- t1
      end;
      agg_calls.(id) <- agg_calls.(id) + 1;
      agg_ns.(id) <- agg_ns.(id) + (t1 - t0);
      agg_engine_ns.(id) <- agg_engine_ns.(id) + engine_ns_since head
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(** [op i id f] is {!span} for the op with index [i]: its spans and all
    spans nested in it carry [i] as their op id. *)
let op i id f =
  current_op := i;
  span id f

let calls s = match Hashtbl.find_opt name_ids s with Some id -> agg_calls.(id) | None -> 0
let total_ns s = match Hashtbl.find_opt name_ids s with Some id -> agg_ns.(id) | None -> 0

(** [fold_prefix prefix f init] folds [f acc ~calls ~ns ~engine_ns] over
    the names starting with [prefix]. *)
let fold_prefix prefix f init =
  let pl = String.length prefix in
  List.fold_left
    (fun acc s ->
      if String.length s >= pl && String.sub s 0 pl = prefix then begin
        let id = Hashtbl.find name_ids s in
        f acc ~calls:agg_calls.(id) ~ns:agg_ns.(id) ~engine_ns:agg_engine_ns.(id)
      end
      else acc)
    init !name_list

(** [write path] writes the recorded spans as JSON lines: span id, op id,
    name, parent span id (-1 at the top), start and end in ns since the
    traced window began. *)
let write path =
  let names = Array.make (Hashtbl.length name_ids) "" in
  Hashtbl.iter (fun s id -> names.(id) <- s) name_ids;
  let oc = open_out path in
  for i = 0 to !len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"op\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n" i
      !sp_op.(i) names.(!sp_name.(i)) !sp_parent.(i) (!sp_start.(i) - !origin)
      (!sp_end.(i) - !origin)
  done;
  close_out oc
