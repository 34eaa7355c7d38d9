(* Host-speed calibration.

   The benchmark runs on shared machines whose speed drifts by 20-30%
   within a minute, which moves every wall-clock metric of a run
   together.  A fixed loop owned by the benchmark (boxed float
   arithmetic, array traffic, minor allocation and hashing, like the
   interpreter's mix) is timed many times during each run; wall-clock
   metrics are reported scaled by [reference /. median loop time], in
   milliseconds at the reference host speed.

   The loop runs in a child process of its own ([--calibrate]), and
   only while the program is idle: between passes in process, and
   between segments of closed-loop rounds once every request has
   completed.  It shares no heap and no garbage-collector debt with the
   program and competes with none of its threads for a core, so the
   program's own allocation or CPU use cannot move it.  The raw values
   are printed too. *)

(* Median loop time on the 2-core host the bounds were set on. *)
let reference_ms = 0.90

(* Timed loops per child process, after one untimed warm-up loop. *)
let loops = 15

let samples : float list ref = ref []

(* Seconds spent calibrating, which measured walls leave out. *)
let spent_s = ref 0.0

let work () =
  let a = Array.init 1024 float_of_int in
  let h = Hashtbl.create 64 in
  let acc = ref 0.0 in
  for r = 0 to 63 do
    for i = 0 to 1023 do
      let x = (a.(i) *. 1.0001) +. float_of_int r in
      a.(i) <- x;
      acc := !acc +. sqrt x;
      if i land 31 = 0 then Hashtbl.replace h (i + r) (Some x)
    done
  done;
  Sys.opaque_identity (!acc, h)

(* Body of the child process: print the median loop time in ms. *)
let child_main () =
  ignore (work ());
  let time () =
    let t0 = Unix.gettimeofday () in
    ignore (work ());
    1000.0 *. (Unix.gettimeofday () -. t0)
  in
  Printf.printf "%.6f\n%!" (Stats.median (List.init loops (fun _ -> time ())))

(* Run one child and record its median. *)
let sample () =
  let t0 = Unix.gettimeofday () in
  let exe = Sys.executable_name in
  let out, child_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "--calibrate" |] Unix.stdin child_out Unix.stderr in
  Unix.close child_out;
  let ic = Unix.in_channel_of_descr out in
  let line = try Some (input_line ic) with End_of_file -> None in
  close_in ic;
  (match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some l -> samples := float_of_string l :: !samples
  | _ -> failwith "calibration child failed");
  spent_s := !spent_s +. (Unix.gettimeofday () -. t0)

(* Multiply a time by this to express it at reference speed. *)
let factor () =
  match !samples with [] -> 1.0 | s -> reference_ms /. Stats.median s
