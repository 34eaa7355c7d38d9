(** Learned surrogate cost model for the device DSEs.

    Each DSE sweep (thread count, GPU blocksize, FPGA unroll factor)
    asks this module to *predict* every candidate's quality before
    paying for the analytic device model, then simulates only the
    candidates that need it: the surrogate-ranked top-k (a continuous
    validation of the ranking) plus every candidate whose prediction is
    uncertain.  Models are trained online, inside the flow, from the
    real outcomes the sweeps and [Devices.Simulate] produce — there is
    no offline fitting step and no persisted state.

    Two predictors run side by side over {!Featvec} vectors:

    - an exact memo: outcomes keyed by the raw vector's bit pattern
      ({!Featvec.key}).  Because the vector is a superset of every
      device-model input, a hit replays a value bit-identical to
      re-running the model — the only kind of prediction the engine
      ever substitutes for a real evaluation;
    - a smooth estimator — the mean of a ridge regression (normal
      equations over log-scaled features, solved lazily) and a
      distance-weighted k-NN over recent samples (standardized by
      running per-dimension moments) — used solely to *rank* candidates
      for the top-k choice.

    Uncertainty rule: a prediction is certain iff it is a memo hit
    (nearest-neighbour distance zero).  Interpolated estimates carry
    residual risk, and the engine's correctness bar — guided DSE must
    select the same winner as the exhaustive sweep, and recorded
    artifacts must be byte-identical across surrogate warmth — prices
    any nonzero risk as "uncertain", so estimates steer which
    candidates get fresh evaluations but are never recorded anywhere.

    Activity: off under [PSAFLOW_NO_SURROGATE] (exhaustive sweeps,
    bit-for-bit today's behaviour, not even training).  Tracing does
    not change it: a traced sweep is guided like an untraced one and
    its trace shows only the candidates it actually simulated. *)

type prediction =
  | Exact of float array
      (** memoized outcome payload of a bit-identical earlier
          evaluation; safe to substitute for the analytic model *)
  | Estimate of float
      (** interpolated objective (ranking only; always uncertain) *)
  | Cold  (** no trained model for this sweep yet *)

(* ------------------------------------------------------------------ *)
(* Env knobs                                                           *)
(* ------------------------------------------------------------------ *)

module Env = Flow_obs.Env

let enabled_override : bool option ref = ref None
let topk_override : int option ref = ref None

(** Benchmark/test override of the [PSAFLOW_NO_SURROGATE] knob
    ([Some true] forces the surrogate on, [Some false] off, [None]
    defers to the environment). *)
let set_enabled o = enabled_override := o

(** Benchmark/test override of [PSAFLOW_SURROGATE_TOPK]. *)
let set_topk o = topk_override := o

let enabled () =
  match !enabled_override with
  | Some b -> b
  | None -> not (Env.flag ~name:"PSAFLOW_NO_SURROGATE" ())

(** How many top-ranked candidates receive a fresh analytic evaluation
    even when their prediction is certain. *)
let topk () =
  match !topk_override with
  | Some k -> max 1 k
  | None -> Env.int ~name:"PSAFLOW_SURROGATE_TOPK" ~default:1 ~min:1 ()

(* ------------------------------------------------------------------ *)
(* Model store                                                         *)
(* ------------------------------------------------------------------ *)

let d_aug = Featvec.dim + 1 (* ridge design dimension incl. bias *)
let lambda = 1.0 (* ridge regularizer: A = lambda*I + sum z z^T *)
let knn_k = 5
let sample_cap = 512 (* k-NN working set: most recent samples kept *)

type model = {
  memo : (string, float array) Hashtbl.t;
  mutable n : int;  (** distinct observations *)
  mean : float array;  (** running per-dim mean of log-scaled vectors *)
  m2 : float array;  (** running per-dim sum of squared deviations *)
  mutable samples : (float array * float) list;
      (** most-recent-first (log-scaled x, y), capped at [sample_cap] *)
  xtx : float array array;  (** normal-equation accumulator, bias-augmented *)
  xty : float array;
  mutable weights : float array option;  (** lazily solved; None = stale *)
}

let lock = Mutex.create ()
let models : (string, model) Hashtbl.t = Hashtbl.create 8

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let new_model () =
  {
    memo = Hashtbl.create 64;
    n = 0;
    mean = Array.make Featvec.dim 0.0;
    m2 = Array.make Featvec.dim 0.0;
    samples = [];
    xtx = Array.make_matrix d_aug d_aug 0.0;
    xty = Array.make d_aug 0.0;
    weights = None;
  }

(** Drop every trained model and memo (benchmarks isolate measurement
    phases with this; overrides are untouched). *)
let reset () = with_lock (fun () -> Hashtbl.reset models)

(* log-scale a raw vector: compresses the 1..1e9 dynamic range of
   trip counts and byte footprints so no single dimension dominates
   distances or the ridge fit *)
let scale (x : float array) =
  Array.map (fun v -> Float.log1p (Float.max 0.0 (Featvec.finite v))) x

(* standardized squared distance under the model's current moments *)
let dist2 (m : model) (a : float array) (b : float array) =
  let acc = ref 0.0 in
  for j = 0 to Featvec.dim - 1 do
    let sd =
      if m.n > 1 then sqrt (m.m2.(j) /. float_of_int (m.n - 1)) else 0.0
    in
    let s = Float.max sd 1e-6 in
    let d = (a.(j) -. b.(j)) /. s in
    acc := !acc +. (d *. d)
  done;
  !acc

(* distance-weighted k-NN over the sample window *)
let knn_estimate (m : model) (u : float array) =
  let best = Array.make knn_k (infinity, 0.0) in
  List.iter
    (fun (su, y) ->
      let d2 = dist2 m u su in
      (* insertion into the fixed-size worst-out array *)
      let rec place i (d2, y) =
        if i < knn_k then
          if d2 < fst best.(i) then begin
            let evicted = best.(i) in
            best.(i) <- (d2, y);
            place (i + 1) evicted
          end
          else place (i + 1) (d2, y)
      in
      place 0 (d2, y))
    m.samples;
  let wsum = ref 0.0 and vsum = ref 0.0 in
  Array.iter
    (fun (d2, y) ->
      if d2 < infinity then begin
        let w = 1.0 /. (d2 +. 1e-9) in
        wsum := !wsum +. w;
        vsum := !vsum +. (w *. y)
      end)
    best;
  if !wsum > 0.0 then Some (!vsum /. !wsum) else None

(* solve (lambda*I + X^T X) w = X^T y by Gaussian elimination with
   partial pivoting; d_aug is small (57) so O(d^3) is microseconds *)
let solve_ridge (m : model) =
  match m.weights with
  | Some w -> Some w
  | None ->
      let n = d_aug in
      let a = Array.init n (fun i -> Array.copy m.xtx.(i)) in
      for i = 0 to n - 1 do
        a.(i).(i) <- a.(i).(i) +. lambda
      done;
      let v = Array.copy m.xty in
      (try
         for col = 0 to n - 1 do
           let piv = ref col in
           for r = col + 1 to n - 1 do
             if Float.abs a.(r).(col) > Float.abs a.(!piv).(col) then piv := r
           done;
           if Float.abs a.(!piv).(col) < 1e-12 then raise Exit;
           if !piv <> col then begin
             let t = a.(col) in
             a.(col) <- a.(!piv);
             a.(!piv) <- t;
             let t = v.(col) in
             v.(col) <- v.(!piv);
             v.(!piv) <- t
           end;
           for r = col + 1 to n - 1 do
             let f = a.(r).(col) /. a.(col).(col) in
             if f <> 0.0 then begin
               for c = col to n - 1 do
                 a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
               done;
               v.(r) <- v.(r) -. (f *. v.(col))
             end
           done
         done;
         let w = Array.make n 0.0 in
         for i = n - 1 downto 0 do
           let s = ref v.(i) in
           for c = i + 1 to n - 1 do
             s := !s -. (a.(i).(c) *. w.(c))
           done;
           w.(i) <- !s /. a.(i).(i)
         done;
         m.weights <- Some w;
         Some w
       with Exit -> None)

let ridge_estimate (m : model) (u : float array) =
  match solve_ridge m with
  | None -> None
  | Some w ->
      let acc = ref w.(0) in
      for j = 0 to Featvec.dim - 1 do
        acc := !acc +. (w.(j + 1) *. u.(j))
      done;
      if Float.is_nan !acc then None else Some !acc

(* ------------------------------------------------------------------ *)
(* Predict / observe                                                   *)
(* ------------------------------------------------------------------ *)

(** Predict the outcome of evaluating feature vector [x] under model
    [name] (one model per (sweep kind, device), e.g.
    ["blocksize:rtx2080ti"]). *)
let predict name (x : float array) : prediction =
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "surrogate_predictions";
  with_lock (fun () ->
      match Hashtbl.find_opt models name with
      | None -> Cold
      | Some m -> (
          match Hashtbl.find_opt m.memo (Featvec.key x) with
          | Some payload -> Exact payload
          | None when m.n = 0 -> Cold
          | None -> (
              let u = scale x in
              let knn = knn_estimate m u in
              let ridge = ridge_estimate m u in
              match (knn, ridge) with
              | Some a, Some b -> Estimate (0.5 *. (a +. b))
              | Some v, None | None, Some v -> Estimate v
              | None, None -> Cold)))

(** Record a real evaluation: [payload] is the full outcome (replayed
    verbatim on a future memo hit), [y] the scalar training target the
    estimators fit (e.g. log seconds, utilization).  Re-observing a
    known key refreshes the memo without double-counting the sample. *)
let observe name ~(x : float array) ~(y : float) ~(payload : float array) =
  with_lock (fun () ->
      let m =
        match Hashtbl.find_opt models name with
        | Some m -> m
        | None ->
            let m = new_model () in
            Hashtbl.replace models name m;
            m
      in
      let k = Featvec.key x in
      if Hashtbl.mem m.memo k then Hashtbl.replace m.memo k payload
      else begin
        Hashtbl.replace m.memo k payload;
        if not (Float.is_nan y) then begin
          let u = scale x in
          m.n <- m.n + 1;
          let nf = float_of_int m.n in
          for j = 0 to Featvec.dim - 1 do
            let delta = u.(j) -. m.mean.(j) in
            m.mean.(j) <- m.mean.(j) +. (delta /. nf);
            m.m2.(j) <- m.m2.(j) +. (delta *. (u.(j) -. m.mean.(j)))
          done;
          m.samples <- (u, y) :: m.samples;
          if m.n mod (2 * sample_cap) = 0 then
            m.samples <- List.filteri (fun i _ -> i < sample_cap) m.samples;
          (* bias-augmented normal-equation accumulators *)
          let z j = if j = 0 then 1.0 else u.(j - 1) in
          for r = 0 to d_aug - 1 do
            let zr = z r in
            if zr <> 0.0 then begin
              let row = m.xtx.(r) in
              for c = 0 to d_aug - 1 do
                row.(c) <- row.(c) +. (zr *. z c)
              done;
              m.xty.(r) <- m.xty.(r) +. (zr *. y)
            end
          done;
          m.weights <- None
        end
      end)

(** Monotone, finite training/ranking target for a seconds-valued
    objective: log-compressed, with infeasible candidates (infinite
    modelled time) clamped to a worst-case sentinel so they rank last
    without poisoning the accumulators. *)
let y_of_seconds s = log (Float.min (Float.max s 1e-12) 1e12)

(* ------------------------------------------------------------------ *)
(* Sweep planning                                                      *)
(* ------------------------------------------------------------------ *)

type plan = {
  simulate : bool array;
      (** candidate must receive a fresh analytic evaluation *)
  in_topk : bool array;  (** candidate is in the surrogate's top-k *)
  fallback : bool;
      (** no certain prediction anywhere: the sweep degenerates to the
          exhaustive evaluation (and trains the model for next time) *)
}

(** Decide which candidates to simulate.  [scored] pairs each
    candidate's prediction with its ranking score (lower is better;
    ties break toward the earlier candidate, matching the sweeps'
    first-best tie-break).  Simulated = the top-[k] ranked candidates
    plus every candidate whose prediction is not a memo hit. *)
let plan ~k (scored : (prediction * float) array) : plan =
  let n = Array.length scored in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let sa = snd scored.(a) and sb = snd scored.(b) in
      if sa < sb then -1 else if sa > sb then 1 else compare a b)
    order;
  let in_topk = Array.make n false in
  for r = 0 to min k n - 1 do
    in_topk.(order.(r)) <- true
  done;
  let simulate =
    Array.mapi
      (fun i (p, _) ->
        in_topk.(i) || match p with Exact _ -> false | _ -> true)
      scored
  in
  let fallback =
    not (Array.exists (fun (p, _) -> match p with Exact _ -> true | _ -> false)
           scored)
  in
  { simulate; in_topk; fallback }

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

(** The sweep's provenance record ([psaflow explain] branch "D.<design>").
    Every field is warmth-invariant — the same whether the sweep ran
    exhaustively (cold fallback) or replayed memoized candidates — so
    recorded flow artifacts stay byte-identical across surrogate
    state. *)
let decision ~design_name ~sweep ~device ~candidates ~chosen ~evidence :
    Flow_obs.Provenance.decision =
  {
    Flow_obs.Provenance.branch = "D." ^ design_name;
    strategy = "surrogate";
    selected = [ chosen ];
    reason = None;
    evidence =
      [
        ( "policy",
          Flow_obs.Attr.String
            "surrogate-ranked; analytic model for top-k + uncertain" );
        ("sweep", Flow_obs.Attr.String sweep);
        ("device", Flow_obs.Attr.String device);
        ("candidates", Flow_obs.Attr.Int candidates);
        ("topk", Flow_obs.Attr.Int (topk ()));
      ]
      @ evidence;
  }
