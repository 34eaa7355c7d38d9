(** "OMP Num Threads DSE".

    Sweeps the OpenMP thread count from 1 to the core count and keeps the
    fastest.  For the paper's embarrassingly parallel benchmarks this
    selects the maximum available threads (32 on the EPYC 7543), yielding
    the 28-30x Fig. 5 CPU bars.

    When the surrogate is active ({!Flow_surrogate.Surrogate.active})
    the sweep is guided: every candidate is scored by the learned model
    first and the analytic CPU model runs only for the surrogate-ranked
    top-k plus every candidate without a certain (memo-exact)
    prediction.  Skipped candidates replay their memoized outcome
    bit-for-bit, so [steps], the winner and the tie-break are identical
    to the exhaustive sweep in every state of training. *)

module Surrogate = Flow_surrogate.Surrogate
module Featvec = Flow_surrogate.Featvec

type step = { threads : int; seconds : float; speedup : float }

type result = {
  design : Codegen.Design.t;  (** with the chosen thread count *)
  chosen_threads : int;
  steps : step list;
  decision : Flow_obs.Provenance.decision option;
      (** surrogate sweep provenance; [None] on exhaustive sweeps *)
}

(* Doubling ladder 1, 2, 4, ... capped at the device's core count. *)
let candidate_threads (cpu : Devices.Spec.cpu) =
  let rec doubling n acc =
    if n >= cpu.cores then List.rev (cpu.cores :: acc)
    else doubling (n * 2) (n :: acc)
  in
  doubling 1 []

let run_uncached (design : Codegen.Design.t) (features : Analysis.Features.t) :
    result =
  let cpu = Devices.Spec.find_cpu design.device_id in
  let candidates = candidate_threads cpu in
  let mname = "threads:" ^ design.device_id in
  let eval ?x t =
    Flow_obs.Trace.with_span ~cat:"dse" "dse.threads_candidate"
      ~args:[ ("threads", Flow_obs.Attr.Int t) ]
    @@ fun () ->
    let m = Flow_obs.Metrics.global in
    Flow_obs.Metrics.incr m "dse_candidates";
    Flow_obs.Metrics.incr m "dse_simulate_calls";
    let r = Devices.Cpu_model.time cpu features ~threads:t in
    Flow_obs.Trace.add_args [ ("seconds", Flow_obs.Attr.Float r.t_parallel) ];
    (match x with
    | Some x ->
        Surrogate.observe mname ~x
          ~y:(Surrogate.y_of_seconds r.t_parallel)
          ~payload:[| r.t_parallel; r.speedup |]
    | None -> ());
    { threads = t; seconds = r.t_parallel; speedup = r.speedup }
  in
  let guided = Surrogate.active () in
  let steps, plan_info =
    if not guided then
      (* candidate evaluations are independent: sweep them on the pool
         (order-preserving, so the first-best tie-break is unchanged) *)
      (Flow_par.Pool.map (fun t -> eval t) candidates, None)
    else begin
      let cand = Array.of_list candidates in
      let xs =
        Array.map
          (fun t ->
            Featvec.extract ~design ~unroll:design.unroll_factor
              ~blocksize:design.blocksize ~threads:t features)
          cand
      in
      let preds = Array.map (Surrogate.predict mname) xs in
      let scored =
        Array.map
          (fun p ->
            ( p,
              match p with
              | Surrogate.Exact payload -> Surrogate.y_of_seconds payload.(0)
              | Surrogate.Estimate v -> v
              | Surrogate.Cold -> infinity ))
          preds
      in
      let k = Surrogate.topk () in
      let plan = Surrogate.plan ~k scored in
      if plan.Surrogate.fallback then
        Flow_obs.Metrics.incr Flow_obs.Metrics.global "surrogate_fallbacks";
      let steps =
        Flow_par.Pool.map
          (fun i ->
            if plan.Surrogate.simulate.(i) then eval ~x:xs.(i) cand.(i)
            else
              match preds.(i) with
              | Surrogate.Exact p ->
                  { threads = cand.(i); seconds = p.(0); speedup = p.(1) }
              | _ -> assert false)
          (List.init (Array.length cand) Fun.id)
      in
      (steps, Some (plan, cand))
    end
  in
  let best =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some b when b.seconds <= s.seconds -> Some b
        | _ -> Some s)
      None steps
  in
  let chosen = match best with Some s -> s.threads | None -> cpu.cores in
  (match (plan_info, best) with
  | Some (plan, cand), Some b ->
      let won = ref false in
      Array.iteri
        (fun i t ->
          if t = b.threads && plan.Surrogate.in_topk.(i) then won := true)
        cand;
      if !won then
        Flow_obs.Metrics.incr Flow_obs.Metrics.global "surrogate_hit_topk"
  | _ -> ());
  (* recorded whenever the knob is on — including traced runs, where the
     sweep itself stays exhaustive — so explain output depends only on
     configuration, never on tracing or model warmth *)
  let decision =
    if not (Surrogate.enabled ()) then None
    else
      Some
        (Surrogate.decision ~design_name:design.name ~sweep:"threads"
           ~device:design.device_id ~candidates:(List.length candidates)
           ~chosen:(Printf.sprintf "%d threads" chosen)
           ~evidence:
             (match best with
             | Some b -> [ ("seconds", Flow_obs.Attr.Float b.seconds) ]
             | None -> []))
  in
  {
    design = Codegen.Openmp_gen.set_num_threads design chosen;
    chosen_threads = chosen;
    steps;
    decision;
  }

(* Sweep memo: knob choice, trajectory and provenance cached; the
   design is rebuilt from the incoming design with the same setter the
   sweep applies (see {!Sweep_memo}). *)
type cached = {
  c_threads : int;
  c_steps : step list;
  c_decision : Flow_obs.Provenance.decision option;
}

let cache : cached Flow_memo.Cache.t = Sweep_memo.create ~name:"dse_threads" ()

(** Run the DSE for [design] on its CPU device (memoized per sweep
    key — see {!Sweep_memo}). *)
let run (design : Codegen.Design.t) (features : Analysis.Features.t) : result =
  let cpu = Devices.Spec.find_cpu design.device_id in
  let fresh = ref None in
  let e =
    Flow_memo.Cache.find_or_compute cache
      ~key:
        (Sweep_memo.key ~sweep:"threads" ~design features
           ~candidates:
             (String.concat ","
                (List.map string_of_int (candidate_threads cpu))))
      (fun () ->
        let r = run_uncached design features in
        fresh := Some r;
        {
          c_threads = r.chosen_threads;
          c_steps = r.steps;
          c_decision = r.decision;
        })
  in
  match !fresh with
  | Some r -> r
  | None ->
      {
        design = Codegen.Openmp_gen.set_num_threads design e.c_threads;
        chosen_threads = e.c_threads;
        steps = e.c_steps;
        decision = e.c_decision;
      }
