(* Workload [raster]: render every image of the paper-sized datasets with
   [Render.scene] and edit it with one of its domain's Appendix B
   programs through [Apply.program].  Pixel kernels dominate; no other
   workload reaches the raster layer.

   Image [i] of a domain gets the domain's task [i mod n] (in Appendix B
   order), so every program runs and the assignment is the same in every
   run.  The datasets are the repository's paper datasets (seed 42), the
   ones sweep uses, so every run edits the same images: image sizes and
   object counts differ from one dataset seed to the next.  The workload
   seed shuffles the order of the images in each pass.  Each
   output image's pixel digest is checked against the recorded one.  A
   run is whole passes over the three datasets, as many as start within
   [--seconds]: a partial pass would change the mix of domains, whose
   images differ in cost.  Each image's latency is its median over the
   passes, and the rates are medians over the passes, so a burst of host
   noise in one pass does not set them. *)

module Clock = Imageeye_util.Clock
module Dataset = Imageeye_scene.Dataset
module Scene = Imageeye_scene.Scene
module Render = Imageeye_scene.Render
module Batch = Imageeye_vision.Batch
module Apply = Imageeye_core.Apply
module Edit = Imageeye_core.Edit
module Cost = Imageeye_core.Cost
module Universe = Imageeye_symbolic.Universe
module Entity = Imageeye_symbolic.Entity
module Bbox = Imageeye_geometry.Bbox
module Image = Imageeye_raster.Image
module Ppm = Imageeye_raster.Ppm
module Benchmarks = Imageeye_tasks.Benchmarks
module Task = Imageeye_tasks.Task

(* An image slower than this misses the limit. *)
let image_limit_s = 0.1

let dataset_seed = 42

let generate dseed =
  List.map
    (fun d -> Trace.with_span "scene.generate" (fun () -> Dataset.generate ~seed:dseed d))
    Dataset.all_domains

let program_for (ds : Dataset.t) i =
  let tasks = Array.of_list (Benchmarks.for_domain ds.domain) in
  tasks.(i mod Array.length tasks).Task.ground_truth

(* Pixels the program's actions cover and the bytes that implies, from
   box and image sizes alone (computed, not measured): the output copy
   reads and writes every pixel once, and each action reads and writes
   its clipped box; 3 bytes per pixel. *)
let count_pixels u (scene : Scene.t) program =
  let clip (b : Bbox.t) =
    let w = min b.right (scene.width - 1) - max b.left 0 + 1
    and h = min b.bottom (scene.height - 1) - max b.top 0 + 1 in
    if w > 0 && h > 0 then w * h else 0
  in
  let touched =
    List.fold_left
      (fun acc (id, actions) -> acc + (List.length actions * clip (Universe.entity u id).Entity.bbox))
      0
      (Edit.bindings (Edit.induced_by_program u program))
  in
  Trace.add_int "raster.pixels_touched" touched;
  Trace.add_int "raster.bytes_moved" (3 * 2 * ((scene.width * scene.height) + touched))

(* Render, build the image's universe, apply: the per-image latency. *)
let edit_image scene program =
  let img = Trace.with_span "scene.render" (fun () -> Render.scene scene) in
  let u =
    Trace.with_span "vision.universe" (fun () ->
        Trace.add_int "vision.universes_built" 1;
        Batch.universe_of_scenes [ scene ])
  in
  let out = Trace.with_span "raster.apply" (fun () -> Apply.program u img program) in
  (u, out)

(* The first 48 bits of the MD5 of the image's PPM bytes. *)
let pixel_digest img = String.sub (Digest.to_hex (Digest.string (Ppm.to_string img))) 0 12

let run ~seed ~seconds ~setups ~trace =
  let expected = Expected.load () in
  let ds_seed = dataset_seed in
  let setup_s, datasets = Measure.repeated_setup setups (fun () -> generate ds_seed) in
  let images =
    Array.of_list
      (List.concat_map
         (fun (ds : Dataset.t) ->
           let refs =
             Hashtbl.find_opt expected.Expected.raster (ds_seed, Dataset.domain_name ds.domain)
           in
           List.mapi (fun i scene -> (ds, refs, i, scene)) ds.scenes)
         datasets)
  in
  let order = ref (List.init (Array.length images) Fun.id) in
  let st = Random.State.make [| seed; 13 |] in
  let per_image = Array.make (Array.length images) [] in
  let t0 = Clock.counter () in
  let failed = ref 0 and costs = ref [] in
  let busy_rates = ref [] and wall_rates = ref [] in
  while Clock.elapsed_s t0 < seconds do
    let p0 = Clock.counter () and busy = ref 0.0 in
    order := Measure.shuffle st !order;
    List.iter
      (fun k ->
        let (ds : Dataset.t), refs, i, scene = images.(k) in
        let program = program_for ds i in
        let i0 = Clock.counter () in
        let u, out = edit_image scene program in
        let dt = Clock.elapsed_s i0 in
        per_image.(k) <- dt :: per_image.(k);
        busy := !busy +. dt;
        let digest = pixel_digest out in
        costs := float_of_int (Cost.total (Cost.of_program program)) :: !costs;
        if trace then begin
          count_pixels u scene program;
          Trace.op_line
            (Printf.sprintf "image seed=%d %s %d digest=%s" ds_seed
               (Dataset.domain_name ds.domain) i digest)
            [ "raster.pixels_touched"; "raster.bytes_moved" ]
        end;
        let ok =
          match refs with
          | Some a -> i < Array.length a && a.(i) = digest
          | None -> false
        in
        if not ok then begin
          incr failed;
          Printf.printf "  FAILED CHECK: dataset seed %d %s image %d\n" ds_seed
            (Dataset.domain_name ds.domain) i
        end)
      !order;
    let n = float_of_int (Array.length images) in
    busy_rates := (n /. !busy) :: !busy_rates;
    wall_rates := (n /. Clock.elapsed_s p0) :: !wall_rates
  done;
  let wall = Clock.elapsed_s t0 in
  let passes = List.length !busy_rates in
  let attempted = passes * Array.length images in
  let lat = Array.to_list (Array.map Measure.median per_image) in
  let q, tail, n = Measure.tail lat in
  Printf.printf
    "raster: %d images in %d passes over dataset seed %d, %.2f s; tail p%g over %d per-image medians\n"
    attempted passes ds_seed wall (q *. 100.0) n;
  let m = Measure.m in
  {
    Measure.correct = !failed = 0;
    attempted;
    failed = !failed;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "throughput_ops_per_s" "1/s" (Measure.median !busy_rates);
        m "latency_p50_s" "s" (Measure.median lat);
        m "latency_tail_s" "s" tail;
        m "peak_rss_mb" "MB" (Measure.self_hwm_mb ());
        m "ok_share" "share" (Measure.share (attempted - !failed) attempted);
        m "within_limit_share" "share"
          (Measure.share (List.length (List.filter (fun d -> d <= image_limit_s) lat)) (List.length lat));
        m "sustained_rate_per_s" "1/s" (Measure.median !wall_rates);
        m "solved_share" "share" (Measure.share (attempted - !failed) attempted);
        m "demos_per_task" "count" 1.0;
        m "program_cost_mean" "cost" (Measure.mean !costs);
      ];
  }

let record emit =
  let dseed = dataset_seed in
  List.iter
    (fun (ds : Dataset.t) ->
      let digests =
        List.mapi (fun i scene -> pixel_digest (snd (edit_image scene (program_for ds i)))) ds.scenes
      in
      emit
        (Printf.sprintf "raster %d %s %s" dseed (Dataset.domain_name ds.domain)
           (String.concat "," digests)))
    (generate dseed)
