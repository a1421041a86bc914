(* Spans and work counters recorded at the layer boundaries the benchmark
   calls into.

   Counters (work done, as counts) accumulate in every run: they are cheap
   and several are deterministic, which is what the repeat check compares.
   Spans are recorded only in a traced run; they are kept in memory and
   written out when the run ends.  A span's self time is its duration
   minus the part of it its children cover. *)

module Clock = Imageeye_util.Clock

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id; spans of one request share it *)
}

let enabled = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0

(* The open spans of the single thread that uses [with_span]. *)
let stack : int list ref = ref []

(* Time spent inside the recording itself, so a traced run can report
   its own bookkeeping cost next to the throughput difference. *)
let record_s = ref 0.0

let add_span ~name ~start ~stop ~parent ~req =
  let t0 = Clock.now () in
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  spans := { id; name; start; stop; parent; req } :: !spans;
  Mutex.unlock lock;
  record_s := !record_s +. (Clock.now () -. t0);
  id

(* Ids must exist before the span closes so children can name their
   parent; the span itself is pushed when it closes. *)
let reserve_id () =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock lock;
  id

let with_span ?(req = 0) name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let id = reserve_id () in
    stack := id :: !stack;
    let start = Clock.now () in
    let finish () =
      let stop = Clock.now () in
      stack := List.tl !stack;
      let t0 = Clock.now () in
      Mutex.lock lock;
      spans := { id; name; start; stop; parent; req } :: !spans;
      Mutex.unlock lock;
      record_s := !record_s +. (Clock.now () -. t0)
    in
    Fun.protect ~finally:finish f
  end

(* ---------- counters ---------- *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace counters name (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let add_int name n = add name (float_of_int n)

let set_max name v =
  match Hashtbl.find_opt counters name with
  | Some old when old >= v -> ()
  | _ -> Hashtbl.replace counters name v

let get name = Option.value (Hashtbl.find_opt counters name) ~default:0.0

(* Words allocated by the calling domain (minor + major − promoted, so a
   promoted word is not counted twice).  The minor collection first makes
   the count exact: OCaml 5.1's estimate of the words allocated in the
   current minor-heap cycle can be off by up to a minor heap, so without
   it the count does not repeat from run to run.  Only traced runs count,
   so untraced runs keep their collection schedule. *)
let alloc_words () =
  if not !enabled then 0.0
  else begin
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  end

(* ---------- per-operation counter lines ---------- *)

(* One line per finished operation (session, stream unit, image) with the
   change in the named counters since the previous line.  These counts
   are deterministic, so two runs of one seed must write the same lines
   for the operations both reached; [steady.py --repeat-check] compares
   them. *)
let op_lines : string list ref = ref []
let last_seen : (string, float) Hashtbl.t = Hashtbl.create 16

let op_line label names =
  let field name =
    let v = get name in
    let d = v -. Option.value (Hashtbl.find_opt last_seen name) ~default:0.0 in
    Hashtbl.replace last_seen name v;
    Printf.sprintf "%s=%.0f" name d
  in
  op_lines := String.concat " " (label :: List.map field names) :: !op_lines

let write_op_lines path =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !op_lines);
  close_out oc

(* ---------- span aggregation ---------- *)

let all_spans () = List.rev !spans

(* Total and self time per span name.  Children of one span never
   overlap (each is a nested call on the same thread), so the covered
   part is the sum of their durations, clipped to the parent. *)
let by_name () =
  let all = all_spans () in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    all;
  let agg = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let covered = Float.min d (Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0) in
      let n, total, self =
        Option.value (Hashtbl.find_opt agg s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace agg s.name (n + 1, total +. d, self +. (d -. covered)))
    all;
  agg

let total_s name =
  match Hashtbl.find_opt (by_name ()) name with Some (_, t, _) -> t | None -> 0.0

let self_s name =
  match Hashtbl.find_opt (by_name ()) name with Some (_, _, s) -> s | None -> 0.0

let write_file path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"req\":%d}\n" s.id
        s.name s.start s.stop s.parent s.req)
    (all_spans ());
  close_out oc
