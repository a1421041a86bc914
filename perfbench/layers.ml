(* The per-layer metrics, and the probe around [Synthesizer.synthesize]
   that feeds the [core] ones.  Every workload prints the whole list in a
   traced run: a layer the workload never calls reads 0, which is itself
   the prediction that a change to that layer leaves the workload alone. *)

module Synthesizer = Imageeye_core.Synthesizer
module Session = Imageeye_interact.Session

let prune_passes = [ "goal-inference"; "equiv-dedup"; "equiv-rewrite"; "fwd-bwd"; "cost-bound" ]

let serve_ops = [ "synthesize"; "apply"; "session-open"; "session-round"; "session-close" ]

(* Fold one search's statistics into the [core.*] counters.  Raw
   eval-cache and value-bank labels are kept under their own names for
   the ratios below. *)
let add_stats (st : Synthesizer.stats) =
  Trace.add_int "core.synth_calls" 1;
  Trace.add_int "core.nodes" st.nodes;
  Trace.add_int "core.popped" st.popped;
  Trace.add_int "core.enqueued" st.enqueued;
  List.iter
    (fun (label, n) ->
      if List.mem label prune_passes then begin
        Trace.add_int ("core.prune." ^ label) n;
        Trace.add_int "core.pruned" n
      end
      else Trace.add_int ("raw." ^ label) n)
    st.prune_counts

(* The session engine with the synthesis call timed from outside: a
   [core.synthesize] span, the allocation around it, and its stats. *)
let timed_engine config : Session.engine =
 fun spec ->
  let outcome =
    Trace.with_span "core.synthesize" (fun () ->
        let a0 = Trace.alloc_words () in
        let r = Synthesizer.synthesize ~config spec in
        Trace.add "core.alloc_words" (Trace.alloc_words () -. a0);
        r)
  in
  match outcome with
  | Synthesizer.Success (prog, st) ->
      add_stats st;
      { Session.program = Some prog; time = st.elapsed_s; stats = Some st }
  | Synthesizer.Timeout st | Synthesizer.Exhausted st ->
      add_stats st;
      { Session.program = None; time = st.elapsed_s; stats = Some st }

let ratio num den = if den <= 0.0 then 0.0 else num /. den

let metrics () =
  let c = Trace.get in
  let m = Measure.m in
  let span = Trace.total_s in
  let pruned = c "core.pruned" in
  let hits = c "raw.eval-cache(memo-hit)" +. c "raw.eval-cache(value-hit)" in
  let visits = hits +. c "raw.eval-cache(evaluated)" in
  let bank_hits = c "raw.value-bank(hit)" in
  [
    m "core.synth_s" "s" (span "core.synthesize" +. c "core.synth_remote_s");
    m "core.synth_calls" "count" (c "core.synth_calls");
    m "core.nodes" "count" (c "core.nodes");
    m "core.popped" "count" (c "core.popped");
    m "core.enqueued" "count" (c "core.enqueued");
  ]
  @ List.map (fun p -> m ("core.prune." ^ p) "count" (c ("core.prune." ^ p))) prune_passes
  @ [
      m "core.prune_share" "share" (ratio pruned (pruned +. c "core.enqueued"));
      m "core.eval_hit_share" "share" (ratio hits visits);
      m "core.alloc_words" "words" (c "core.alloc_words");
      m "core.bank_hit_share" "share" (ratio bank_hits (bank_hits +. c "raw.value-bank(miss)"));
      m "interact.round_s" "s" (span "interact.round");
      m "interact.rounds" "count" (c "interact.rounds");
      m "interact.check_s" "s" (Trace.self_s "interact.round");
      m "scene.generate_s" "s" (span "scene.generate");
      m "scene.render_s" "s" (span "scene.render");
      m "vision.universe_s" "s" (span "vision.universe");
      m "vision.universes_built" "count" (c "vision.universes_built");
      m "corpus.stream_s" "s" (span "corpus.stream");
      m "corpus.frames" "count" (c "corpus.frames");
      m "corpus.universes_built" "count" (c "corpus.universes_built");
      m "corpus.peak_live_universes" "count" (c "corpus.peak_live_universes");
      m "corpus.repair_nodes_warm" "count" (c "corpus.repair_nodes_warm");
      m "corpus.repair_nodes_cold" "count" (c "corpus.repair_nodes_cold");
      m "corpus.alloc_words" "words" (c "corpus.alloc_words");
      m "raster.apply_s" "s" (span "raster.apply");
      m "raster.pixels_touched" "px-computed" (c "raster.pixels_touched");
      m "raster.bytes_moved" "B-computed" (c "raster.bytes_moved");
    ]
  @ List.map (fun op -> m ("serve.rpc_s." ^ op) "s" (c ("serve.rpc_s." ^ op))) serve_ops
  @ [
      m "serve.server_latency_p50_s" "s" (c "serve.server_latency_p50_s");
      m "serve.server_latency_p99_s" "s" (c "serve.server_latency_p99_s");
      m "serve.transport_s" "s" (c "serve.transport_s");
      m "serve.queue_depth_max" "count" (c "serve.queue_depth_max");
      m "serve.bank_hit_share" "share" (c "serve.bank_hit_share");
      m "serve.faults" "count" (c "serve.faults");
      m "serve.dropped_responses" "count" (c "serve.dropped_responses");
      m "loadgen.lateness_p99_s" "s" (c "loadgen.lateness_p99_s");
      m "loadgen.backlog_max" "count" (c "loadgen.backlog_max");
      m "trace.spans" "count" (float_of_int (List.length !Trace.spans));
      m "trace.record_s" "s" !Trace.record_s;
    ]
