(* Summaries and the result line every workload prints. *)

module Clock = Imageeye_util.Clock

(* Nearest-rank quantile of a sorted array (the serving tier's rule). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let sorted_of list =
  let a = Array.of_list list in
  Array.sort compare a;
  a

let median list = quantile (sorted_of list) 0.5

(* The tail percentile: the highest of a fixed ladder that leaves at
   least ten samples beyond it.  A fixed ladder keeps the choice the
   same from run to run while the sample count stays inside one rung. *)
let tail_ladder = [ 0.999; 0.99; 0.9; 0.75; 0.5 ]

let tail list =
  let a = sorted_of list in
  let n = Array.length a in
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  let q = match List.find_opt (fun q -> beyond q >= 10) tail_ladder with Some q -> q | None -> 0.5 in
  (q, quantile a q, n)

(* A Fisher-Yates shuffle of [l] drawn from [st]. *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let mean = function [] -> 0.0 | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let share num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Linux VmHWM (peak resident set) of a process, in MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let self_hwm_mb () = vm_hwm_mb "self"

(* Set up [times] times and report the median duration; [f] returns the
   state the workload then runs on (the last one is kept). *)
let repeated_setup times f =
  let durations = ref [] and last = ref None in
  for _ = 1 to times do
    let t0 = Clock.counter () in
    let v = f () in
    durations := Clock.elapsed_s t0 :: !durations;
    last := Some v
  done;
  (median !durations, Option.get !last)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = { correct : bool; attempted : int; failed : int; metrics : metric list }

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_metrics = List.iter (fun x -> Printf.printf "  %-34s %18.6f %s\n" x.name x.value x.unit_)

(* Human-readable lines first, then the one-line JSON result last. *)
let print_result r =
  print_metrics r.metrics;
  let metrics =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" (json_escape x.name)
             (json_float x.value) (json_escape x.unit_))
         r.metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" r.correct
    r.attempted r.failed metrics
