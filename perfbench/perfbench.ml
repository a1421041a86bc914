(* The benchmark program.

     perfbench --workload W --seed N --seconds S --trace 0|1

   runs one workload and prints its metrics, the last line being one JSON
   object.  With --trace 0 those are the end-to-end metrics; with
   --trace 1 the per-layer ones, from spans recorded around every call
   into a layer (written to .perfbench/trace-W-N.jsonl).  The exit code
   is non-zero when an output check fails. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload sweep|stream|serve|raster --seed N --seconds S --trace 0|1";
  exit 2

(* Set-up is repeated this many times per run and its median reported;
   raster's set-up takes milliseconds, so it is repeated five times as
   often. *)
let setups = 5

(* perfbench record: write the reference outputs the runs check against. *)
let record () =
  let lines = ref [] in
  let emit l = lines := l :: !lines in
  Stream_wl.record ~pool_size:Stream_wl.per_task emit;
  Raster_wl.record emit;
  let oc = open_out Expected.path in
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !lines);
  close_out oc

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "record" then (record (); exit 0);
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | arg :: _ -> Printf.eprintf "unknown argument %S\n" arg; usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  Trace.enabled := !trace = 1;
  let seed = !seed and seconds = float_of_int !seconds in
  let result =
    match !workload with
    | "sweep" -> Sweep.run ~seconds ~setups
    | "stream" -> Stream_wl.run ~seed ~seconds ~setups ~trace:(!trace = 1)
    | "raster" -> Raster_wl.run ~seed ~seconds ~setups:(5 * setups) ~trace:(!trace = 1)
    | "serve" -> Serve_wl.run ~seed ~seconds ~setups ~trace:(!trace = 1)
    | _ -> usage ()
  in
  let result =
    if !trace = 0 then result
    else begin
      (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Trace.write_file (Printf.sprintf ".perfbench/trace-%s-%d.jsonl" !workload seed);
      Trace.write_op_lines (Printf.sprintf ".perfbench/counters-%s-%d.txt" !workload seed);
      print_endline "end-to-end metrics of this traced run:";
      Measure.print_metrics result.Measure.metrics;
      print_endline "per-layer metrics:";
      { result with Measure.metrics = Layers.metrics () }
    end
  in
  Measure.print_result result;
  exit (if result.correct then 0 else 1)
