(* Machine facts recorded with every result: cores, CPU steal, the
   source revision, peak memory. *)

let read_file path =
  match open_in_bin path with
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          Some (really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

(* /proc files report a length of 0; read them line by line. *)
let read_lines path =
  match open_in path with
  | ic ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go [])
  | exception Sys_error _ -> []

let words l =
  List.filter (( <> ) "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l))

(* VmHWM of a process, in MiB. *)
let peak_rss_mb ~pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  List.fold_left
    (fun acc l ->
      match words l with
      | "VmHWM:" :: kb :: _ -> float_of_string kb /. 1024.0
      | _ -> acc)
    nan (read_lines path)

type jiffies = { busy : float; steal : float; total : float }

(* Jiffies of the aggregate cpu line: busy (user, nice, system, irq,
   softirq), steal, and the total of the first eight fields (the guest
   fields are already counted in user). *)
let cpu_jiffies () =
  let zero = { busy = 0.0; steal = 0.0; total = 0.0 } in
  match read_lines "/proc/stat" with
  | l :: _ -> (
      match words l with
      | "cpu" :: fields ->
          let v = Array.of_list (List.map (fun f -> try float_of_string f with _ -> 0.0) fields) in
          let at i = if i < Array.length v then v.(i) else 0.0 in
          { busy = at 0 +. at 1 +. at 2 +. at 5 +. at 6;
            steal = at 7;
            total = List.fold_left (fun acc i -> acc +. at i) 0.0 [ 0; 1; 2; 3; 4; 5; 6; 7 ] }
      | _ -> zero)
  | [] -> zero

let steal_pct ~before ~after =
  let dt = after.total -. before.total in
  if dt > 0.0 then 100.0 *. (after.steal -. before.steal) /. dt else 0.0

(* Share of the CPU time the machine's processes were ready to run that
   the host gave them: busy / (busy + steal).  Steal is only counted
   while a virtual CPU wants to run, so CPU-bound wall time stretches by
   the inverse of this share. *)
let cpu_granted ~before ~after =
  let db = after.busy -. before.busy and ds = after.steal -. before.steal in
  if db +. ds > 0.0 then db /. (db +. ds) else 1.0

let cores () = Domain.recommended_domain_count ()

(* The checkout may not be a git repository, so the revision is a
   digest of the program's sources, plus the git commit when there is
   one. *)
let revision () =
  let rec files dir =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.to_list entries
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                       || Filename.basename p = "dune"
               then [ p ]
               else [])
    | exception Sys_error _ -> []
  in
  let digest =
    List.concat_map files [ "lib"; "bin" ]
    |> List.map (fun p -> p ^ Option.value ~default:"" (read_file p))
    |> String.concat "\000" |> Digest.string |> Digest.to_hex
  in
  let commit =
    match read_file ".git/HEAD" with
    | Some head -> (
        let head = String.trim head in
        match String.split_on_char ' ' head with
        | [ "ref:"; r ] -> Option.map String.trim (read_file (Filename.concat ".git" r))
        | _ -> Some head)
    | None -> None
  in
  (digest, commit)
