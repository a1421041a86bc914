(* Workload [stream]: [Stream.run] over drifting corpora, one task per
   domain in turn, so object density spans a few to dozens of objects per
   frame.  Every unit bootstraps a program from the corpus prefix.  The
   Wedding and Objects units also take at least one warm mid-stream
   repair: the recorded pool keeps only corpus seeds where they do.
   Receipts corpora rarely contradict a prefix-synthesized program (about
   one seed in five), and a Receipts repair costs about a second of
   synthesis, so Receipts units are not required to repair.  Nearly all
   time is corpus generation, universe build and eviction, and
   evaluation.  A search change should show no move here; a window cache
   or evaluator change shows only here.

   A unit is one [Stream.run]; its wall time is the latency sample.  Frame
   counts per task keep the three kinds of unit within a factor of three
   of each other.  Cold-compare is off except in a traced run, which also
   reports the cold-restart nodes.

   A run is whole passes over the same units: the first [per_task] corpus
   seeds of each task's recorded pool, in an order the workload seed
   shuffles for each pass.  Bootstrap demonstrations and repairs differ
   from one corpus seed to the next, so a run that drew its corpus seeds
   from the seed would report a different [demos_per_task] for each seed;
   whole passes over one set keep it a property of the program.  The
   rates are medians over the passes, so a burst of host noise in one
   pass does not set them. *)

module Clock = Imageeye_util.Clock
module Stream = Imageeye_corpus.Stream
module Corpus = Imageeye_corpus.Corpus
module Cost = Imageeye_core.Cost
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task

type stream_task = { id : int; frames : int; must_repair : bool }

(* Wedding, Receipts, Objects. *)
let tasks =
  [
    { id = 5; frames = 4096; must_repair = true };
    { id = 17; frames = 512; must_repair = false };
    { id = 35; frames = 8192; must_repair = true };
  ]

(* Corpus seeds per task in every pass: 12 units, about 4 s, so a run
   has several passes to take the median over. *)
let per_task = 4

let warmup_frames = 256

(* A unit slower than this misses the limit. *)
let unit_limit_s = 1.0

let config ~cold =
  { Stream.default_config with window = 64; bootstrap_frames = 6; cold_compare = cold }

let stream_unit ~cold ~frames task_id cseed =
  let task = Benchmarks.by_id task_id in
  let corpus = Corpus.make ~domain:task.Task.domain ~seed:cseed ~frames in
  Trace.with_span "corpus.stream" (fun () ->
      let a0 = Trace.alloc_words () in
      let r = Stream.run ~config:(config ~cold) ~corpus task in
      Trace.add "corpus.alloc_words" (Trace.alloc_words () -. a0);
      r)

let unit_ok t (r : Stream.report) =
  (r.repairs <> [] || not t.must_repair) && (not r.repair_failed) && r.frames_done = r.frames_requested

let digest_hex (r : Stream.report) = Digest.to_hex r.edit_digest

let run ~seed ~seconds ~setups ~trace =
  let expected = Expected.load () in
  let pool task = Option.value (Hashtbl.find_opt expected.Expected.stream_pool task) ~default:[] in
  let units =
    List.concat_map
      (fun t -> List.map (fun c -> (t, c)) (List.filteri (fun i _ -> i < per_task) (pool t.id)))
      tasks
  in
  if List.length units <> per_task * List.length tasks then failwith "stream reference pool too small";
  (* Set-up: one short unit, so lazy initialization and first-use costs
     land here rather than in the first timed unit.  It is the same unit
     for every seed: units differ in bootstrap and repair work. *)
  let setup_s, () =
    Measure.repeated_setup setups (fun () ->
        let t = List.hd tasks in
        ignore (stream_unit ~cold:false ~frames:warmup_frames t.id (List.hd (pool t.id))))
  in
  let st = Random.State.make [| seed; 11 |] in
  let t0 = Clock.counter () in
  let lat = ref [] and frames = ref 0 and failed = ref 0 and attempted = ref 0 in
  let solved = ref 0 and demos = ref [] and costs = ref [] in
  let frame_rates = ref [] and unit_rates = ref [] in
  while Clock.elapsed_s t0 < seconds do
    let p0 = Clock.counter () and pass_frames = ref 0 in
    List.iter
      (fun (t, cseed) ->
        let task = t.id in
        let u0 = Clock.counter () in
        let r = stream_unit ~cold:trace ~frames:t.frames task cseed in
        let dt = Clock.elapsed_s u0 in
        incr attempted;
        match r with
        | Error msg ->
            incr failed;
            Printf.printf "  FAILED: task %d corpus %d: %s\n" task cseed msg
        | Ok r ->
            lat := dt :: !lat;
            pass_frames := !pass_frames + r.frames_done;
            Trace.add_int "corpus.frames" r.frames_done;
            Trace.add_int "corpus.universes_built" r.universes_built;
            Trace.set_max "corpus.peak_live_universes" (float_of_int r.peak_live_universes);
            List.iter
              (fun (rep : Stream.repair) ->
                Trace.add_int "corpus.repair_nodes_warm" rep.nodes_warm;
                Trace.add_int "corpus.repair_nodes_cold" (Option.value rep.nodes_cold ~default:0))
              r.repairs;
            Trace.op_line (Printf.sprintf "unit task=%d corpus=%d" task cseed)
              [
                "corpus.frames";
                "corpus.universes_built";
                "corpus.repair_nodes_warm";
                "corpus.alloc_words";
              ];
            if unit_ok t r then incr solved;
            let boot = match r.bootstrap_info with Some b -> List.length b.demo_trajectory | None -> 0 in
            demos := float_of_int (boot + List.length r.repairs) :: !demos;
            costs := float_of_int (Cost.total (Cost.of_program r.program)) :: !costs;
            let ok =
              match Hashtbl.find_opt expected.stream (task, cseed) with
              | Some (digest, edits, repairs) ->
                  digest = digest_hex r && edits = r.edits && repairs = List.length r.repairs
              | None -> false
            in
            if not ok then begin
              incr failed;
              Printf.printf "  FAILED CHECK: task %d corpus %d: digest %s edits %d\n" task cseed
                (digest_hex r) r.edits
            end)
      (Measure.shuffle st units);
    let pass_s = Clock.elapsed_s p0 in
    frames := !frames + !pass_frames;
    frame_rates := (float_of_int !pass_frames /. pass_s) :: !frame_rates;
    unit_rates := (float_of_int (List.length units) /. pass_s) :: !unit_rates
  done;
  let wall = Clock.elapsed_s t0 in
  let q, tail, n = Measure.tail !lat in
  Printf.printf "stream: %d units in %d passes, %d frames, %.2f s; tail p%g over %d units\n"
    !attempted (List.length !frame_rates) !frames wall (q *. 100.0) n;
  let m = Measure.m in
  {
    Measure.correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "throughput_ops_per_s" "1/s" (Measure.median !frame_rates);
        m "latency_p50_s" "s" (Measure.median !lat);
        m "latency_tail_s" "s" tail;
        m "peak_rss_mb" "MB" (Measure.self_hwm_mb ());
        m "ok_share" "share" (Measure.share (!attempted - !failed) !attempted);
        m "within_limit_share" "share"
          (Measure.share (List.length (List.filter (fun d -> d <= unit_limit_s) !lat)) !attempted);
        m "sustained_rate_per_s" "1/s" (Measure.median !unit_rates);
        m "solved_share" "share" (Measure.share !solved !attempted);
        m "demos_per_task" "count" (Measure.mean !demos);
        m "program_cost_mean" "cost" (Measure.mean !costs);
      ];
  }

(* Pool entries: units that bootstrap, finish every frame, and repair
   where the task must. *)
let record ~pool_size emit =
  List.iter
    (fun t ->
      let found = ref 0 and cseed = ref 0 in
      while !found < pool_size do
        incr cseed;
        match stream_unit ~cold:false ~frames:t.frames t.id !cseed with
        | Ok r when unit_ok t r ->
            incr found;
            emit
              (Printf.sprintf "stream %d %d %d %s %d %d" t.id !cseed t.frames (digest_hex r)
                 r.edits (List.length r.repairs))
        | _ -> if !cseed > 50 * pool_size then failwith "too few corpus seeds repair"
      done)
    tasks
