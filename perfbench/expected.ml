(* Reference outputs recorded once (perfbench record) and checked by every
   run: stream edit digests per (task, corpus seed) and raster pixel
   digests per (dataset seed, domain, image).  The runs take their
   inputs from what is recorded here, so every input a run makes has a
   reference.

   Line format:
     stream TASK CORPUS_SEED FRAMES DIGEST EDITS REPAIRS
     raster DATASET_SEED DOMAIN DIGEST,DIGEST,...  (one per image) *)

let path = "perfbench/expected.txt"

type t = {
  stream : (int * int, string * int * int) Hashtbl.t;  (** (task, cseed) -> digest, edits, repairs *)
  stream_pool : (int, int list) Hashtbl.t;  (** task -> corpus seeds, in file order *)
  raster : (int * string, string array) Hashtbl.t;  (** (dseed, domain) -> per-image digests *)
}

let load () =
  let t =
    {
      stream = Hashtbl.create 256;
      stream_pool = Hashtbl.create 4;
      raster = Hashtbl.create 64;
    }
  in
  let ic =
    try open_in path
    with Sys_error msg -> failwith ("cannot read the reference outputs: " ^ msg)
  in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "stream"; task; cseed; _frames; digest; edits; repairs ] ->
           let task = int_of_string task and cseed = int_of_string cseed in
           Hashtbl.replace t.stream (task, cseed) (digest, int_of_string edits, int_of_string repairs);
           let pool = Option.value (Hashtbl.find_opt t.stream_pool task) ~default:[] in
           Hashtbl.replace t.stream_pool task (pool @ [ cseed ])
       | [ "raster"; dseed; domain; digests ] ->
           let dseed = int_of_string dseed in
           Hashtbl.replace t.raster (dseed, domain) (Array.of_list (String.split_on_char ',' digests))
       | [ "" ] -> ()
       | _ -> failwith "malformed line in the reference outputs"
     done
   with End_of_file -> close_in ic);
  t
