(* Workload [sweep]: the paper's Section 7.1 simulated-user protocol over
   the Appendix B tasks at paper dataset sizes, in one cold process on
   one domain.  Synthesis is nearly all of the time and its node counts
   repeat exactly, so search changes show here.

   Tasks 14, 16 and 29 are left out (16 runs into the 120 s timeout, 14
   and 29 would add about 75 s per run); the table-2 sweep still covers
   them.  Task 15 stays: it fails deterministically at the round cap, so
   the unsolved tail shows in [solved_share].

   The datasets are the repository's paper datasets (seed 42): other
   dataset seeds change which tasks solve and can push one into the
   timeout, which would make the run measure the timeout.  The tasks run
   in one fixed order whatever the workload seed: the tasks of a domain
   share its universe's value banks, so the order decides which tasks
   find them warm, and it shapes the heap each task starts on.  The order
   is shuffled once, so that each domain's rounds spread over the whole
   run rather than one stretch of it: the host's speed changes for
   seconds at a time, and the short, check-bound Objects rounds that set
   the p50 would otherwise all see the same stretch.  The run is one
   whole pass; a second pass in the same process would run on warm value
   banks.

   For the same reason the set-ups are spread over the pass: the first
   builds the data the sessions use, and the others run between sessions
   and are dropped. *)

module Clock = Imageeye_util.Clock
module Dataset = Imageeye_scene.Dataset
module Batch = Imageeye_vision.Batch
module Edit = Imageeye_core.Edit
module Cost = Imageeye_core.Cost
module Synthesizer = Imageeye_core.Synthesizer
module Session = Imageeye_interact.Session
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task

let excluded = [ 14; 16; 29 ]
let dataset_seed = 42

(* A round slower than this misses the interactive limit. *)
let round_limit_s = 2.0

let setup () =
  List.map
    (fun d ->
      let ds = Trace.with_span "scene.generate" (fun () -> Dataset.generate ~seed:dataset_seed d) in
      let u = Trace.with_span "vision.universe" (fun () -> Batch.universe_of_scenes ds.scenes) in
      Trace.add_int "vision.universes_built" 1;
      (d, (ds, u)))
    Dataset.all_domains

let tasks =
  Measure.shuffle (Random.State.make [| 42 |])
    (List.filter (fun t -> not (List.mem t.Task.id excluded)) Benchmarks.all)

type session = {
  task : Task.t;
  rounds_s : float list;
  wall_s : float;
  result : Session.result;
  check_ok : bool;
}

(* One simulated user: [Stepwise] driven round by round, each round a
   span with the synthesis call nested inside it. *)
let run_session ~config ~data task =
  let dataset, universe = List.assoc task.Task.domain data in
  let t0 = Clock.counter () in
  Trace.with_span "interact.session" (fun () ->
      let sw =
        Session.Stepwise.start ~engine:(Layers.timed_engine config) ~batch_universe:universe ~dataset
          task
      in
      let rec loop acc =
        let r0 = Clock.counter () in
        match Trace.with_span "interact.round" (fun () -> Session.Stepwise.step sw) with
        | None -> List.rev acc
        | Some _ ->
            Trace.add_int "interact.rounds" 1;
            loop (Clock.elapsed_s r0 :: acc)
      in
      let rounds_s = loop [] in
      Trace.op_line
        (Printf.sprintf "session task=%d" task.Task.id)
        [
          "interact.rounds";
          "core.synth_calls";
          "core.nodes";
          "core.popped";
          "core.enqueued";
          "core.pruned";
          "core.alloc_words";
        ];
      let wall_s = Clock.elapsed_s t0 in
      let result = Session.Stepwise.result sw in
      (* A solved program must induce the ground-truth edit on the whole
         dataset, re-checked here outside the loop. *)
      let check_ok =
        match result.Session.program with
        | Some p when result.solved ->
            Edit.equal (Edit.induced_by_program universe p)
              (Edit.induced_by_program universe task.ground_truth)
        | _ -> not result.solved
      in
      { task; rounds_s; wall_s; result; check_ok })

let config = Synthesizer.default_config

let run ~seconds:_ ~setups =
  let timed_setup () =
    let t0 = Clock.counter () in
    let data = setup () in
    (Clock.elapsed_s t0, data)
  in
  let first, data = timed_setup () in
  let every = List.length tasks / setups in
  let setup_times = ref [ first ] in
  let sessions =
    List.mapi
      (fun i task ->
        let s = run_session ~config ~data task in
        if (i + 1) mod every = 0 && List.length !setup_times < setups then
          setup_times := fst (timed_setup ()) :: !setup_times;
        s)
      tasks
  in
  let setup_s = Measure.median !setup_times in
  let rounds = List.concat_map (fun s -> s.rounds_s) sessions in
  let solved = List.filter (fun s -> s.result.Session.solved) sessions in
  let failed = List.length (List.filter (fun s -> not s.check_ok) sessions) in
  let attempted = List.length sessions in
  let wall = List.fold_left (fun acc s -> acc +. s.wall_s) 0.0 sessions in
  let q, tail, n = Measure.tail rounds in
  Printf.printf "sweep: %d sessions, %d rounds, %d solved, %.2f s; tail p%g over %d rounds\n"
    attempted (List.length rounds) (List.length solved) wall (q *. 100.0) n;
  List.iter
    (fun s ->
      if not s.check_ok then
        Printf.printf "  FAILED CHECK: task %d program does not match the ground truth\n"
          s.task.Task.id)
    sessions;
  let costs =
    List.filter_map
      (fun s -> Option.map (fun p -> float_of_int (Cost.total (Cost.of_program p))) s.result.program)
      solved
  in
  let m = Measure.m in
  {
    Measure.correct = failed = 0;
    attempted;
    failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "throughput_ops_per_s" "1/s" (float_of_int attempted /. wall);
        m "latency_p50_s" "s" (Measure.median rounds);
        m "latency_tail_s" "s" tail;
        m "peak_rss_mb" "MB" (Measure.self_hwm_mb ());
        m "ok_share" "share" (Measure.share (attempted - failed) attempted);
        m "within_limit_share" "share"
          (Measure.share
             (List.length (List.filter (fun r -> r <= round_limit_s) rounds))
             (List.length rounds));
        m "sustained_rate_per_s" "1/s" (float_of_int (List.length rounds) /. wall);
        m "solved_share" "share" (Measure.share (List.length solved) attempted);
        m "demos_per_task" "count"
          (Measure.mean (List.map (fun s -> float_of_int s.result.examples_used) solved));
        m "program_cost_mean" "cost" (Measure.mean costs);
      ];
  }
