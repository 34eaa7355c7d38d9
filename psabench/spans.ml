(* The benchmark's own spans, kept in memory and summarized at the end
   of a traced run.  They wrap calls into the program's public APIs
   from outside; nothing inside the program is instrumented.  All spans
   of one operation share its request id, and the operation's root span
   ([cat = "op"]) is the parent of the others. *)

type span = {
  rid : string;
  cat : string;
  name : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []

let now = Unix.gettimeofday

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* Untraced calls go straight through: one branch on a ref. *)
let with_span ~rid ~cat name f =
  if not !enabled then f ()
  else
    let t0 = now () in
    Fun.protect ~finally:(fun () -> record { rid; cat; name; t0; t1 = now () }) f

let take () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  recorded := [];
  Mutex.unlock lock;
  l

let dur_ms s = 1000.0 *. (s.t1 -. s.t0)

(* Length of the union of intervals, clipped to [lo, hi]. *)
let covered ~lo ~hi (ivs : (float * float) list) =
  let ivs =
    List.sort compare
      (List.filter_map
         (fun (a, b) ->
           let a = Float.max a lo and b = Float.min b hi in
           if b > a then Some (a, b) else None)
         ivs)
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total
