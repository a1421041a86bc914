(* Open-loop, pipelined request generator.

   Requests are sent at their scheduled (due) times whatever the server
   is doing, on at most a few connections, each carrying an id; a reader
   thread per connection matches responses back by id, so responses may
   come back in any order.  Every request is timed from its due time, so
   a stall charges the wait it imposes on the requests behind it.  The
   generator also reports how late its own sends ran and the largest
   number of requests outstanding at once.

   A session is a chain: [session-open] is scheduled like any request;
   each following [session-round] (and the final [session-close]) is due
   the moment the previous response arrives. *)

module Clock = Imageeye_util.Clock
module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin

type kind =
  | Single of { op : string; fields : string; key : int }
      (** one request; [fields] is its body, encoded once by {!fields};
          [key] lets the caller find its payload again *)
  | Session of { task : int; images : int; seed : int; key : int }

type sample = {
  op : string;
  key : int;
  step : int;
  due : float;
  sent : float;
  recv : float;  (** [nan] when no response arrived *)
  line : string option;  (** the raw response, parsed after the run *)
}

type item = { at : float;  (** offset from the step start, seconds *) kind : kind }

type pending = { p_op : string; p_key : int; p_step : int; p_due : float; p_sent : float }

let sample p ~recv ~line =
  { op = p.p_op; key = p.p_key; step = p.p_step; due = p.p_due; sent = p.p_sent; recv; line }

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  wlock : Mutex.t;
}

type t = {
  conns : conn array;
  lock : Mutex.t;
  pending : (int, pending) Hashtbl.t;
  mutable next_id : int;
  mutable samples : sample list;
  mutable lateness : float list;
  mutable backlog_max : int;
  mutable metrics_reply : J.t option;
  readers : Thread.t list ref;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; wlock = Mutex.create () }

let write_line conn line =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      let s = line ^ "\n" in
      let len = String.length s in
      let rec go off = if off < len then go (off + Unix.write_substring conn.fd s off (len - off)) in
      go 0)

(* A request body's fields as a JSON fragment, encoded ahead of time so
   a send only splices in the id. *)
let fields body =
  let s = J.to_line (J.Obj body) in
  String.sub s 1 (String.length s - 2)

(* Register and send one request; the caller holds no lock. *)
let send t ~conn ~op ~key ~step ~due fields =
  Mutex.lock t.lock;
  let id = t.next_id in
  t.next_id <- id + 1;
  let sent = Clock.now () in
  Hashtbl.replace t.pending id { p_op = op; p_key = key; p_step = step; p_due = due; p_sent = sent };
  t.backlog_max <- max t.backlog_max (Hashtbl.length t.pending);
  Mutex.unlock t.lock;
  write_line t.conns.(conn) (Printf.sprintf {|{"id":%d,"op":"%s",%s}|} id op fields)

let str key r = Option.bind (Jsonin.member key r) Jsonin.to_string_opt
let int key r = Option.bind (Jsonin.member key r) Jsonin.to_int_opt

(* A session's next request, due now, on the connection its reply came in on. *)
let follow_up t ~conn ~step (p : pending) ~session r =
  let now = Clock.now () in
  match (p.p_op, session, str "status" r) with
  | ("session-open" | "session-round"), Some s, Some "awaiting-round" ->
      send t ~conn ~op:"session-round" ~key:p.p_key ~step ~due:now (fields [ ("session", J.Int s) ])
  | ("session-open" | "session-round"), Some s, Some _ ->
      send t ~conn ~op:"session-close" ~key:p.p_key ~step ~due:now (fields [ ("session", J.Int s) ])
  | _ -> ()

(* Every response line starts with its id ({"id":N,...}).  Reading the id
   without parsing the rest keeps the reader threads' hold on the runtime
   lock short, so the sender threads wake on time. *)
let id_of_line line =
  let prefix = {|{"id":|} in
  let n = String.length prefix and len = String.length line in
  if len > n && String.sub line 0 n = prefix then begin
    let j = ref n in
    while !j < len && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9')) do incr j done;
    int_of_string_opt (String.sub line n (!j - n))
  end
  else None

let parse line = Result.to_option (Jsonin.parse line)

let reader t conn_index () =
  let conn = t.conns.(conn_index) in
  let sessions = Hashtbl.create 16 in
  try
    while true do
      let line = input_line conn.ic in
      let recv = Clock.now () in
      match id_of_line line with
      | Some -1 ->
          let snapshot = Option.bind (parse line) (Jsonin.member "metrics") in
          Mutex.lock t.lock;
          t.metrics_reply <- snapshot;
          Mutex.unlock t.lock
      | Some id -> (
          Mutex.lock t.lock;
          let p = Hashtbl.find_opt t.pending id in
          Hashtbl.remove t.pending id;
          Option.iter (fun p -> t.samples <- sample p ~recv ~line:(Some line) :: t.samples) p;
          Mutex.unlock t.lock;
          let session_reply p = if String.starts_with ~prefix:"session-" p.p_op then parse line else None in
          match (p, Option.bind p session_reply) with
          | Some p, Some r ->
              (* Only the open response names the session; later ones are
                 matched to it through the key. *)
              let session =
                match int "session" r with
                | Some s ->
                    Hashtbl.replace sessions p.p_key s;
                    Some s
                | None -> Hashtbl.find_opt sessions p.p_key
              in
              follow_up t ~conn:conn_index ~step:p.p_step p ~session r
          | _ -> ())
      | None -> ()
    done
  with End_of_file | Sys_error _ | Unix.Unix_error _ -> ()

let create ~socket ~connections =
  let t =
    {
      conns = Array.init connections (fun _ -> connect socket);
      lock = Mutex.create ();
      pending = Hashtbl.create 256;
      next_id = 0;
      samples = [];
      lateness = [];
      backlog_max = 0;
      metrics_reply = None;
      readers = ref [];
    }
  in
  t.readers := List.init connections (fun i -> Thread.create (reader t i) ());
  t

(* Poll [f] under the lock every 2 ms until it answers or [deadline]
   (absolute) passes. *)
let poll t ~deadline f =
  let rec go () =
    Mutex.lock t.lock;
    let r = f () in
    Mutex.unlock t.lock;
    match r with
    | Some _ -> r
    | None when Clock.now () >= deadline -> None
    | None ->
        Thread.delay 0.002;
        go ()
  in
  go ()

(* Wait until nothing is outstanding or [deadline] passes; returns
   whether everything drained. *)
let drain t ~deadline =
  Option.is_some (poll t ~deadline (fun () -> if Hashtbl.length t.pending = 0 then Some () else None))

(* Run one step of the schedule: items are sent open loop at their due
   times, round-robin over the connections, by one sender thread per
   connection.  Returns the time the last scheduled send was due. *)
let run_step t ~step items =
  let start = Clock.now () +. 0.01 in
  let n = Array.length t.conns in
  let per_conn = Array.make n [] in
  List.iteri (fun i it -> per_conn.(i mod n) <- it :: per_conn.(i mod n)) items;
  let sender conn () =
    List.iter
      (fun it ->
        let due = start +. it.at in
        let wait = due -. Clock.now () in
        if wait > 0.0 then Thread.delay wait;
        let late = Clock.now () -. due in
        Mutex.lock t.lock;
        t.lateness <- late :: t.lateness;
        Mutex.unlock t.lock;
        match it.kind with
        | Single { op; fields; key } -> send t ~conn ~op ~key ~step ~due fields
        | Session { task; images; seed; key } ->
            send t ~conn ~op:"session-open" ~key ~step ~due
              (fields [ ("task", J.Int task); ("images", J.Int images); ("seed", J.Int seed) ]))
      (List.rev per_conn.(conn))
  in
  let threads = List.init n (fun c -> Thread.create (sender c) ()) in
  List.iter Thread.join threads;
  start +. List.fold_left (fun acc it -> Float.max acc it.at) 0.0 items

(* The server's metrics snapshot, read inline on the first connection. *)
let metrics t =
  Mutex.lock t.lock;
  t.metrics_reply <- None;
  Mutex.unlock t.lock;
  write_line t.conns.(0) {|{"id":-1,"op":"metrics"}|};
  poll t ~deadline:(Clock.now () +. 10.0) (fun () -> t.metrics_reply)

(* Requests still outstanding become samples without a response. *)
let close t =
  Mutex.lock t.lock;
  Hashtbl.iter (fun _ p -> t.samples <- sample p ~recv:Float.nan ~line:None :: t.samples) t.pending;
  Hashtbl.reset t.pending;
  Mutex.unlock t.lock;
  Array.iter (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()) t.conns;
  List.iter Thread.join !(t.readers);
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns
