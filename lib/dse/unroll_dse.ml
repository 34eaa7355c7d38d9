(** "Unroll Until Overmap" DSE — the meta-program of the paper's Fig. 2.

    Iteratively doubles the kernel's outer-loop unroll factor, asking the
    FPGA resource model (standing in for the HLS high-level design
    report) for estimated utilisation after each step, until the device
    overmaps (> 90 %).  The last fitting design is kept; if even unroll 1
    overmaps, the design is unsynthesizable for this device — exactly the
    paper's Rush Larsen outcome.

    When the surrogate is active the speculative sweep is guided: the
    learned model ranks the candidate factors (largest predicted-fitting
    factor first — the predicted overmap boundary) and the analytic
    resource model runs only for the top-k plus every candidate without
    a memo-exact prediction.  The doubling walk is then reconstructed
    over authoritative values only, so the trajectory and the chosen
    factor are identical to the exhaustive sweep in every state of
    training. *)

module Surrogate = Flow_surrogate.Surrogate
module Featvec = Flow_surrogate.Featvec

type step = {
  factor : int;
  utilization : float;
  alm_util : float;
  dsp_util : float;
  overmapped : bool;
}

type result = {
  design : Codegen.Design.t;  (** annotated with the chosen factor *)
  chosen_factor : int;
  synthesizable : bool;
  steps : step list;  (** DSE trajectory, in exploration order *)
  decision : Flow_obs.Provenance.decision option;
      (** surrogate sweep provenance; [None] on exhaustive sweeps *)
}

let max_factor = 1 lsl 16

(* The doubling candidate ladder 1, 2, 4, ... up to one past
   [max_factor] — static, but part of the sweep-memo key. *)
let factors =
  let rec go n acc =
    if n > max_factor then List.rev (n :: acc) else go (n * 2) (n :: acc)
  in
  go 1 []

let run_uncached (design : Codegen.Design.t) (features : Analysis.Features.t) :
    result =
  let fpga = Devices.Spec.find_fpga design.device_id in
  let mname = "unroll:" ^ design.device_id in
  let eval ?x n =
    Flow_obs.Trace.with_span ~cat:"dse" "dse.unroll_candidate"
      ~args:[ ("factor", Flow_obs.Attr.Int n) ]
    @@ fun () ->
    let m = Flow_obs.Metrics.global in
    Flow_obs.Metrics.incr m "dse_candidates";
    Flow_obs.Metrics.incr m "dse_simulate_calls";
    let r = Devices.Fpga_model.resources fpga design features ~unroll:n in
    if r.overmapped then Flow_obs.Metrics.incr m "dse_rejected";
    Flow_obs.Trace.add_args
      [
        ("utilization", Flow_obs.Attr.Float r.utilization);
        ("overmapped", Flow_obs.Attr.Bool r.overmapped);
      ];
    (match x with
    | Some x ->
        Surrogate.observe mname ~x
          ~y:(Float.log1p (Float.max 0.0 r.utilization))
          ~payload:
            [|
              r.utilization;
              r.alm_util;
              r.dsp_util;
              (if r.overmapped then 1.0 else 0.0);
            |]
    | None -> ());
    {
      factor = n;
      utilization = r.utilization;
      alm_util = r.alm_util;
      dsp_util = r.dsp_util;
      overmapped = r.overmapped;
    }
  in
  (* Speculative sweep: every candidate factor is evaluated up front by
     the domain pool (the model is pure, so extra evaluations beyond the
     stopping point are unobservable), then the sequential
     doubling-until-overmap walk is reconstructed over the results.
     [chosen_factor] and [steps] are therefore bit-identical to the
     incremental exploration. *)
  let guided = Surrogate.enabled () in
  let evaluated, plan_info =
    if not guided then (Flow_par.Pool.map (fun n -> (n, eval n)) factors, None)
    else begin
      let cand = Array.of_list factors in
      let xs =
        Array.map
          (fun n ->
            Featvec.extract ~design ~unroll:n ~blocksize:design.blocksize
              ~threads:design.num_threads features)
          cand
      in
      let preds = Array.map (Surrogate.predict mname) xs in
      (* rank the largest factor predicted to fit first: the predicted
         overmap boundary is exactly where a fresh evaluation is most
         valuable *)
      let scored =
        Array.mapi
          (fun i p ->
            let fits_score fits =
              if fits then -.float_of_int cand.(i) else infinity
            in
            ( p,
              match p with
              | Surrogate.Exact payload -> fits_score (payload.(3) = 0.0)
              | Surrogate.Estimate v -> fits_score (Float.expm1 v <= 0.9)
              | Surrogate.Cold -> infinity ))
          preds
      in
      let k = Surrogate.topk () in
      let plan = Surrogate.plan ~k scored in
      if plan.Surrogate.fallback then
        Flow_obs.Metrics.incr Flow_obs.Metrics.global "surrogate_fallbacks";
      let evaluated =
        Flow_par.Pool.map
          (fun i ->
            let n = cand.(i) in
            if plan.Surrogate.simulate.(i) then (n, eval ~x:xs.(i) n)
            else
              match preds.(i) with
              | Surrogate.Exact p ->
                  ( n,
                    {
                      factor = n;
                      utilization = p.(0);
                      alm_util = p.(1);
                      dsp_util = p.(2);
                      overmapped = p.(3) <> 0.0;
                    } )
              | _ -> assert false)
          (List.init (Array.length cand) Fun.id)
      in
      (evaluated, Some (plan, cand))
    end
  in
  let rec walk best steps = function
    | [] -> (best, steps)
    | (n, s) :: rest ->
        let steps = s :: steps in
        if s.overmapped || n > max_factor then (best, steps)
        else walk (Some n) steps rest
  in
  let best, steps = walk None [] evaluated in
  (match (plan_info, best) with
  | Some (plan, cand), Some factor ->
      let won = ref false in
      Array.iteri
        (fun i n -> if n = factor && plan.Surrogate.in_topk.(i) then won := true)
        cand;
      if !won then
        Flow_obs.Metrics.incr Flow_obs.Metrics.global "surrogate_hit_topk"
  | _ -> ());
  (* recorded on every guided sweep, traced or not, so explain output
     depends only on configuration, never on tracing or model warmth *)
  let decision ~chosen ~synthesizable =
    if not guided then None
    else
      Some
        (Surrogate.decision ~design_name:design.name ~sweep:"unroll"
           ~device:design.device_id ~candidates:(List.length factors)
           ~chosen:
             (if synthesizable then Printf.sprintf "unroll factor %d" chosen
              else "unsynthesizable")
           ~evidence:[ ("synthesizable", Flow_obs.Attr.Bool synthesizable) ])
  in
  match best with
  | Some factor ->
      {
        design = Codegen.Oneapi_gen.set_unroll_factor design factor;
        chosen_factor = factor;
        synthesizable = true;
        steps = List.rev steps;
        decision = decision ~chosen:factor ~synthesizable:true;
      }
  | None ->
      (* the single-pipeline design already exceeds the 90% DSE headroom:
         it is still synthesizable if it physically fits the device
         (<= 100%), just with no unroll; beyond that it is not (the
         paper's Rush Larsen FPGA outcome).  The factor-1 candidate is
         always the sweep's first evaluation, and [fits] is by
         definition [utilization <= 1.0], so no extra model call is
         needed. *)
      let fits =
        match evaluated with
        | (1, s) :: _ -> s.utilization <= 1.0
        | _ ->
            Flow_obs.Metrics.incr Flow_obs.Metrics.global "dse_simulate_calls";
            (Devices.Fpga_model.resources fpga design features ~unroll:1).fits
      in
      let design = Codegen.Oneapi_gen.set_unroll_factor design 1 in
      {
        design = { design with Codegen.Design.synthesizable = fits };
        chosen_factor = 1;
        synthesizable = fits;
        steps = List.rev steps;
        decision = decision ~chosen:1 ~synthesizable:fits;
      }

(* Sweep memo: the knob choice, trajectory and provenance are cached;
   the design is always rebuilt from the *incoming* design with the
   same setter the sweep applies.  Designs reach this DSE with
   [synthesizable = true] (nothing earlier in the flow clears it), so
   re-asserting the cached flag reproduces both exit branches of
   [run_uncached] exactly. *)
type cached = {
  c_factor : int;
  c_synth : bool;
  c_steps : step list;
  c_decision : Flow_obs.Provenance.decision option;
}

let cache : cached Flow_memo.Cache.t = Sweep_memo.create ~name:"dse_unroll" ()

(** Run the DSE for [design] on its FPGA device (memoized per sweep
    key — see {!Sweep_memo}). *)
let run (design : Codegen.Design.t) (features : Analysis.Features.t) : result =
  let fresh = ref None in
  let e =
    Flow_memo.Cache.find_or_compute cache
      ~key:
        (Sweep_memo.key ~sweep:"unroll" ~design features
           ~candidates:(String.concat "," (List.map string_of_int factors)))
      (fun () ->
        let r = run_uncached design features in
        fresh := Some r;
        {
          c_factor = r.chosen_factor;
          c_synth = r.synthesizable;
          c_steps = r.steps;
          c_decision = r.decision;
        })
  in
  match !fresh with
  | Some r -> r
  | None ->
      let d = Codegen.Oneapi_gen.set_unroll_factor design e.c_factor in
      {
        design = { d with Codegen.Design.synthesizable = e.c_synth };
        chosen_factor = e.c_factor;
        synthesizable = e.c_synth;
        steps = e.c_steps;
        decision = e.c_decision;
      }
