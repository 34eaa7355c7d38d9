(* Order statistics over raw samples (no sketches: a run keeps every
   sample, so percentiles are exact nearest-rank values). *)

let percentile p (xs : float list) =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum = List.fold_left ( +. ) 0.0
