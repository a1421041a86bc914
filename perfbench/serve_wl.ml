(* Workload [serve]: an [imageeye serve] daemon (one worker) on a Unix
   socket, driven open loop by {!Loadgen} on two connections at Poisson
   arrivals over a fixed ladder of rates.

   The mix: [synthesize] keys (task, batch seed, demo count) with skewed
   popularity — a fixed share goes to a few hot keys, which read warm
   value banks, the rest to fresh keys, which are cold and write them;
   [apply] over 8–40-scene batches; and a minority of
   [session-open/round/close] chains.  It stresses framing and JSON,
   admission and queueing, and bank reuse with reads beside writes.

   The first rung is the nominal rate: latency, and the share within the
   limit, are reported there.  [sustained_rate_per_s] is the highest rung
   whose tail meets the limit and whose backlog drains within
   [drain_limit_s] of the rung's last send. *)

module Clock = Imageeye_util.Clock
module J = Imageeye_util.Jsonout
module Jsonin = Imageeye_util.Jsonin
module Dataset = Imageeye_scene.Dataset
module Scene = Imageeye_scene.Scene
module Batch = Imageeye_vision.Batch
module Universe = Imageeye_symbolic.Universe
module Edit = Imageeye_core.Edit
module Cost = Imageeye_core.Cost
module Synthesizer = Imageeye_core.Synthesizer
module Lang = Imageeye_core.Lang
module Session = Imageeye_interact.Session
module Demo_io = Imageeye_interact.Demo_io
module Wire = Imageeye_serve.Wire
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task

(* Requests come in cycles of 20 slots whose order the seed shuffles, so
   every run sees the same mix: 12 [synthesize] on two hot keys (11 on the
   most popular), 4 on fresh cold keys, 3 [apply] and 1 session chain,
   which adds about three follow-up requests.  The latency classes are
   narrow and apart: session steps and [apply] take under a millisecond,
   the popular key (the same payload every time) about 20 ms, and a cold
   one-demonstration Receipts key about 50 ms.  The shares put the
   nominal p50 inside the popular key's class and the p90 inside the cold
   class, not on the edge between two classes, where it would jump from
   run to run; cold requests keep under a tenth of the server busy at the
   nominal rate, so few others queue behind them.  The hot keys, the
   apply batches and the sequence of cold keys are the same in every run
   (a cold key is used once per run, and each run starts a fresh daemon,
   so it is still cold); the seed draws the arrival times, the slot order
   and the sessions.  Cold keys drawn from the seed made the nominal
   tail, which sits in the cold class, differ from seed to seed. *)
let cycle =
  List.concat
    [
      List.init 11 (fun _ -> `Hot 0);
      [ `Hot 1 ];
      List.init 4 (fun _ -> `Cold);
      List.init 3 (fun _ -> `Apply);
      [ `Session ];
    ]

(* (task, demonstrations) of the hot keys; the cold keys' tasks, each
   with one demonstration. *)
let hot_keys = [| (5, 2); (9, 1) |]
let cold_tasks = [| 17; 18; 19; 21 |]
let session_tasks = [| 30; 34; 38 |]
let batch_images = 8
let apply_batches = 6

(* Requests per second on each rung, and the share of the run each rung
   gets.  The first is nominal (about a fifth busy) and long enough for
   a p90 tail; the second is three times as busy; the third is overload,
   long enough (1.5 s in a 25 s run) that its backlog cannot drain in
   time, and no longer, because draining it adds to the run. *)
let ladder = [ (10.0, 0.79); (30.0, 0.15); (120.0, 0.06) ]
let latency_limit_s = 0.5

(* A rung's backlog counts as growing when it has not drained this long
   after the rung's last send. *)
let drain_limit_s = 1.0
let request_timeout_s = 10.0

type key = { task : int; bseed : int; demos : int }

type synth_payload = { scenes : Scene.t list; demo_list : Demo_io.demo list }

(* The paper's opening demonstration (the ground-truth edit on the
   sparsest useful images) over a generated batch. *)
let synth_payload k =
  let task = Benchmarks.by_id k.task in
  let ds = Dataset.generate ~n_images:batch_images ~seed:k.bseed task.Task.domain in
  (* Programs act within one image, so each image's edit comes from its
     own universe, which is much cheaper to build than the batch's; images
     are tried sparsest first and only until enough are useful. *)
  let demo_of (s : Scene.t) =
    let u = Batch.universe_of_scenes [ s ] in
    let gt = Edit.induced_by_program u task.ground_truth in
    {
      Demo_io.image_id = s.image_id;
      edits =
        List.concat
          (List.mapi
             (fun pos id -> List.map (fun a -> (pos, a)) (Edit.actions_of gt id))
             (Universe.objects_of_image u s.image_id));
    }
  in
  let rec pick acc = function
    | _ when List.length acc = k.demos -> List.rev acc
    | [] -> List.rev acc
    | s :: rest ->
        let d = demo_of s in
        pick (if d.edits = [] then acc else d :: acc) rest
  in
  let sparsest =
    List.stable_sort (fun a b -> compare (Scene.item_count a) (Scene.item_count b)) ds.scenes
  in
  match pick [] sparsest with
  | [] -> None
  | demo_list -> Some { scenes = ds.scenes; demo_list }

(* The first usable batch seed at or after [bseed]. *)
let rec usable k =
  match synth_payload k with Some p -> (k, p) | None -> usable { k with bseed = k.bseed + 1 }

type synth_req = { key : key; payload : synth_payload; body : string }
type apply_req = { program : Lang.program; scenes : Scene.t list; abody : string }

type plan = {
  rungs : Loadgen.item list list;
  synth : (int, synth_req) Hashtbl.t;  (** request key -> payload *)
  apply : (int, apply_req) Hashtbl.t;
}

(* Bodies are encoded once per distinct payload; repeated keys share them. *)
let synth_req (key, payload) =
  {
    key;
    payload;
    body =
      Loadgen.fields
        [
          ("scenes", Wire.scenes_to_json payload.scenes);
          ("demos", Wire.demos_to_json payload.demo_list);
          ("timeout_s", J.Float request_timeout_s);
        ];
  }

(* The whole schedule and every payload, drawn from the seed. *)
let make_plan ~seed ~seconds =
  let st = Random.State.make [| seed; 7 |] in
  let hot =
    Array.mapi
      (fun j (task, demos) -> synth_req (usable { task; bseed = 1000 + (j * 10); demos }))
      hot_keys
  in
  let applies =
    Array.init apply_batches (fun j ->
        let task = Benchmarks.by_id session_tasks.(j mod Array.length session_tasks) in
        let n = 8 + (j * 32 / max 1 (apply_batches - 1)) in
        let ds = Dataset.generate ~n_images:n ~seed:(1500 + j) task.Task.domain in
        let program = task.ground_truth in
        {
          program;
          scenes = ds.scenes;
          abody =
            Loadgen.fields
              [ ("program", Wire.program_to_json program); ("scenes", Wire.scenes_to_json ds.scenes) ];
        })
  in
  let synth = Hashtbl.create 256 and apply = Hashtbl.create 256 in
  let next_key = ref 0 and cold = ref 0 and applied = ref 0 and sessions = ref 0 in
  let cold_req () =
    incr cold;
    let task = cold_tasks.(!cold mod Array.length cold_tasks) in
    synth_req (usable { task; bseed = 100000 + (!cold * 10); demos = 1 })
  in
  let item slot =
    let key = !next_key in
    incr next_key;
    let synthesize req =
      Hashtbl.replace synth key req;
      Loadgen.Single { op = "synthesize"; fields = req.body; key }
    in
    match slot with
    | `Hot j -> synthesize hot.(j)
    | `Cold -> synthesize (cold_req ())
    | `Apply ->
        let req = applies.(!applied mod apply_batches) in
        incr applied;
        Hashtbl.replace apply key req;
        Loadgen.Single { op = "apply"; fields = req.abody; key }
    | `Session ->
        incr sessions;
        Loadgen.Session
          {
            task = session_tasks.(!sessions mod Array.length session_tasks);
            images = batch_images;
            seed = (seed * 1000) + !sessions;
            key;
          }
  in
  let slots = ref [] in
  let next_slot () =
    if !slots = [] then slots := Measure.shuffle st cycle;
    match !slots with
    | s :: rest ->
        slots := rest;
        s
    | [] -> assert false
  in
  let rungs =
    List.map
      (fun (rate, part) ->
        let n = max 1 (int_of_float (rate *. part *. seconds)) in
        let at = ref 0.0 in
        List.init n (fun _ ->
            let gap = -.Float.log (1.0 -. Random.State.float st 1.0) /. rate in
            let it = { Loadgen.at = !at; kind = item (next_slot ()) } in
            at := !at +. gap;
            it))
      ladder
  in
  { rungs; synth; apply }

(* ---------- the daemon ---------- *)

let work_dir = ".perfbench"

let ensure_dir () = try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let daemon_exe = "_build/default/bin/imageeye.exe"

type daemon = { pid : int; socket : string }

let started = ref 0

let start_daemon () =
  ensure_dir ();
  incr started;
  let socket = Printf.sprintf "%s/serve-%d-%d.sock" work_dir (Unix.getpid ()) !started in
  let log =
    Unix.openfile (work_dir ^ "/serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process daemon_exe
      [| daemon_exe; "serve"; "--socket"; socket; "--jobs"; "1"; "--quiet"; "--timeout"; "30" |]
      Unix.stdin log log
  in
  Unix.close log;
  let d = { pid; socket } in
  let deadline = Clock.now () +. 20.0 in
  let rec wait () =
    match Loadgen.connect socket with
    | c ->
        Loadgen.write_line c {|{"id":0,"op":"ping"}|};
        ignore (input_line c.ic);
        Unix.close c.fd
    | exception Unix.Unix_error _ when Clock.now () < deadline ->
        Thread.delay 0.005;
        wait ()
  in
  wait ();
  d

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  try Sys.remove d.socket with Sys_error _ -> ()

(* ---------- checks ---------- *)

let member k r = Jsonin.member k r
let str k r = Option.bind (member k r) Jsonin.to_string_opt

(* A synthesized program must induce every demonstrated edit; checked
   once per distinct (key, program). *)
let synth_checked = Hashtbl.create 64

let synth_ok req program =
  let check () =
    let p = req.payload in
    match (Wire.program_of_json (J.Str program), Wire.spec_of ~scenes:p.scenes p.demo_list) with
    | Ok prog, Ok spec ->
        let induced = Edit.induced_by_program spec.Edit.Spec.universe prog in
        List.for_all
          (fun (img, e) -> Session.edits_agree_on_image spec.universe induced e img)
          spec.demos
    | _ -> false
  in
  match Hashtbl.find_opt synth_checked (req.key, program) with
  | Some v -> v
  | None ->
      let v = check () in
      Hashtbl.replace synth_checked (req.key, program) v;
      v

(* An apply response must equal the in-process edit, computed once per
   distinct batch. *)
let expected_edits = ref []

let apply_ok req edits =
  let expected =
    match List.assq_opt req !expected_edits with
    | Some e -> e
    | None ->
        let u = Batch.universe_of_scenes req.scenes in
        let e =
          J.to_line
            (Wire.edit_to_json u
               ~image_ids:(List.map (fun (s : Scene.t) -> s.image_id) req.scenes)
               (Edit.induced_by_program u req.program))
        in
        expected_edits := (req, e) :: !expected_edits;
        e
  in
  expected = J.to_line edits

type verdict = { ok : bool; solved : bool option; demos : int; program : string option }

let judge plan (s : Loadgen.sample) response =
  match response with
  | None -> { ok = false; solved = None; demos = 0; program = None }
  | Some r when Jsonin.member "ok" r <> Some (J.Bool true) ->
      { ok = false; solved = None; demos = 0; program = None }
  | Some r -> (
      match s.op with
      | "synthesize" -> (
          let payload = Hashtbl.find plan.synth s.key in
          match (str "outcome" r, str "program" r) with
          | Some "success", Some prog ->
              {
                ok = synth_ok payload prog;
                solved = Some true;
                demos = payload.key.demos;
                program = Some prog;
              }
          | _ -> { ok = false; solved = Some false; demos = 0; program = None })
      | "apply" ->
          let ok =
            match member "edits" r with
            | Some e -> apply_ok (Hashtbl.find plan.apply s.key) e
            | None -> false
          in
          { ok; solved = None; demos = 0; program = None }
      | "session-round" -> (
          match str "status" r with
          | Some "solved" ->
              {
                ok = true;
                solved = Some true;
                demos = Option.value ~default:0 (Loadgen.int "round" r);
                program = str "program" r;
              }
          | Some "failed" -> { ok = true; solved = Some false; demos = 0; program = None }
          | _ -> { ok = str "outcome" r = Some "round"; solved = None; demos = 0; program = None })
      | _ -> { ok = true; solved = None; demos = 0; program = None })

(* ---------- the run ---------- *)

let latency (s : Loadgen.sample) = s.recv -. s.due

(* The nominal p50: the median of the medians of [p50_blocks] equal
   stretches of the rung, by due time.  The host's speed changes for
   seconds at a time; a slow stretch then moves one block's median, not
   the figure.  The blocks have the same mix, as every cycle of 20 does. *)
let p50_blocks = 5

let block_median (samples : Loadgen.sample list) =
  let dues = List.map (fun (s : Loadgen.sample) -> s.due) samples in
  let first = List.fold_left Float.min Float.infinity dues
  and last = List.fold_left Float.max Float.neg_infinity dues in
  let width = (last -. first) /. float_of_int p50_blocks in
  let blocks = Array.make p50_blocks [] in
  List.iter
    (fun (s : Loadgen.sample) ->
      let b = if width > 0.0 then int_of_float ((s.due -. first) /. width) else 0 in
      let b = min (p50_blocks - 1) b in
      blocks.(b) <- latency s :: blocks.(b))
    samples;
  Measure.median
    (List.filter_map
       (fun l -> if l = [] then None else Some (Measure.median l))
       (Array.to_list blocks))

let num path r =
  let rec go r = function
    | [] -> Jsonin.to_float_opt r
    | k :: rest -> Option.bind (member k r) (fun v -> go v rest)
  in
  Option.value ~default:0.0 (go r path)

(* The server's view and the per-layer counters of a traced run: spans
   for every request (from its due time) and its RPC (from its send),
   per-op client times at the nominal rate, the server's metrics
   snapshots, and synthesis as the responses report it. *)
let record_layers ~lg ~rungs ~nominal samples =
  List.iteri
    (fun i ((s : Loadgen.sample), _) ->
      if Float.is_finite s.recv then begin
        let req = Trace.add_span ~name:"serve.request" ~start:s.due ~stop:s.recv ~parent:(-1) ~req:i in
        ignore (Trace.add_span ~name:"serve.rpc" ~start:s.sent ~stop:s.recv ~parent:req ~req:i)
      end)
    samples;
  let rpc_times op =
    List.filter_map
      (fun ((s : Loadgen.sample), _) ->
        if (op = None || op = Some s.op) && Float.is_finite s.recv then Some (s.recv -. s.sent)
        else None)
      nominal
  in
  List.iter
    (fun op -> Trace.add ("serve.rpc_s." ^ op) (Measure.median (rpc_times (Some op))))
    Layers.serve_ops;
  (match rungs with
  | (_, _, Some snap) :: _ ->
      let p50 = num [ "latency"; "p50_s" ] snap in
      Trace.add "serve.server_latency_p50_s" p50;
      Trace.add "serve.server_latency_p99_s" (num [ "latency"; "p99_s" ] snap);
      Trace.add "serve.transport_s" (Measure.median (rpc_times None) -. p50)
  | _ -> ());
  (match List.rev rungs with
  | (_, _, Some snap) :: _ ->
      Trace.add "serve.queue_depth_max" (num [ "max_queue_depth" ] snap);
      Trace.add "serve.bank_hit_share" (num [ "value_bank"; "hit_rate" ] snap);
      Trace.add "serve.dropped_responses" (num [ "dropped_responses" ] snap);
      (match member "faults" snap with
      | Some (J.Obj l) -> List.iter (fun (_, v) -> Trace.add "serve.faults" (num [] v)) l
      | _ -> ())
  | _ -> ());
  Trace.add "loadgen.lateness_p99_s" (Measure.quantile (Measure.sorted_of lg.Loadgen.lateness) 0.99);
  Trace.add "loadgen.backlog_max" (float_of_int lg.backlog_max);
  List.iter
    (fun (_, r) ->
      match Option.bind r (member "stats") with
      | Some st ->
          let count k = int_of_float (num [ k ] st) in
          Trace.add "core.synth_remote_s" (num [ "elapsed_s" ] st);
          Layers.add_stats
            {
              Synthesizer.empty_stats with
              popped = count "popped";
              enqueued = count "enqueued";
              nodes = count "nodes";
              prune_counts =
                (match member "prune_counts" st with
                | Some (J.Obj l) -> List.map (fun (label, v) -> (label, int_of_float (num [] v))) l
                | _ -> []);
            }
      | None -> ())
    samples

let run ~seed ~seconds ~setups ~trace =
  ensure_dir ();
  let setup () =
    let plan = make_plan ~seed ~seconds in
    (plan, start_daemon ())
  in
  let daemons = ref [] in
  let setup_s, (plan, daemon) =
    Measure.repeated_setup setups (fun () ->
        let v = setup () in
        daemons := snd v :: !daemons;
        v)
  in
  (* Only the last daemon serves the run. *)
  List.iter (fun d -> if d.pid <> daemon.pid then stop_daemon d) !daemons;
  Fun.protect
    ~finally:(fun () -> stop_daemon daemon)
    (fun () ->
      let lg = Loadgen.create ~socket:daemon.socket ~connections:2 in
      let t0 = Clock.now () in
      let rungs =
        List.mapi
          (fun step items ->
            let last_due = Loadgen.run_step lg ~step items in
            let drained = Loadgen.drain lg ~deadline:(last_due +. 30.0) in
            let drain_s = Clock.now () -. last_due in
            let snapshot = Loadgen.metrics lg in
            (step, drained && drain_s <= drain_limit_s, snapshot))
          plan.rungs
      in
      let wall = Clock.now () -. t0 in
      let hwm = Measure.vm_hwm_mb (string_of_int daemon.pid) in
      Loadgen.close lg;
      let samples =
        List.map (fun (s : Loadgen.sample) -> (s, Option.bind s.line Loadgen.parse)) (List.rev lg.samples)
      in
      let judged = List.map (fun (s, r) -> (s, judge plan s r)) samples in
      let attempted = List.length judged in
      let failed = List.length (List.filter (fun (_, v) -> not v.ok) judged) in
      let on_step k = List.filter (fun ((s : Loadgen.sample), _) -> s.step = k) judged in
      let within k =
        let l = on_step k in
        List.length (List.filter (fun (s, v) -> v.ok && latency s <= latency_limit_s) l), List.length l
      in
      let nominal = on_step 0 in
      let nominal_lat = List.map (fun (s, _) -> latency s) nominal in
      let q, tail, n = Measure.tail nominal_lat in
      let p50 = block_median (List.map fst nominal) in
      let rung_tail k = Measure.tail (List.map (fun (s, _) -> latency s) (on_step k)) in
      let sustained =
        List.fold_left
          (fun acc ((k, drained, _), rate) ->
            let _, tail_k, _ = rung_tail k in
            if drained && tail_k <= latency_limit_s then Float.max acc rate else acc)
          0.0
          (List.combine rungs (List.map fst ladder))
      in
      let solved_flags = List.filter_map (fun (_, v) -> v.solved) judged in
      let solved = List.filter (fun (_, v) -> v.solved = Some true) judged in
      let costs =
        List.filter_map
          (fun (_, v) ->
            Option.bind v.program (fun p ->
                match Wire.program_of_json (J.Str p) with
                | Ok prog -> Some (float_of_int (Cost.total (Cost.of_program prog)))
                | Error _ -> None))
          solved
      in
      Printf.printf "serve: %d requests, %d failed, %.2f s; nominal tail p%g over %d requests\n"
        attempted failed wall (q *. 100.0) n;
      List.iter2
        (fun (k, drained, _) rate ->
          let w, total = within k in
          let _, tail_k, _ = rung_tail k in
          Printf.printf "  rung %d: %.0f/s, %d requests, %d within %.2f s, tail %.4f s, drained %b\n"
            k rate total w latency_limit_s tail_k drained)
        rungs (List.map fst ladder);
      List.iter
        (fun ((s : Loadgen.sample), v) ->
          if not v.ok then Printf.printf "  FAILED: %s request (key %d, rung %d)\n" s.op s.key s.step)
        judged;
      if trace then record_layers ~lg ~rungs ~nominal samples;
      let ok_total = attempted - failed in
      let w0, n0 = within 0 in
      let m = Measure.m in
      {
        Measure.correct = failed = 0;
        attempted;
        failed;
        metrics =
          [
            m "setup_s" "s" setup_s;
            m "throughput_ops_per_s" "1/s" (float_of_int ok_total /. wall);
            m "latency_p50_s" "s" p50;
            m "latency_tail_s" "s" tail;
            m "peak_rss_mb" "MB" hwm;
            m "ok_share" "share" (Measure.share ok_total attempted);
            m "within_limit_share" "share" (Measure.share w0 n0);
            m "sustained_rate_per_s" "1/s" sustained;
            m "solved_share" "share"
              (Measure.share
                 (List.length (List.filter Fun.id solved_flags))
                 (List.length solved_flags));
            m "demos_per_task" "count"
              (Measure.mean (List.map (fun (_, v) -> float_of_int v.demos) solved));
            m "program_cost_mean" "cost" (Measure.mean costs);
          ];
      })
