(** GPU blocksize DSE ("GTX 1080 Blocksize DSE" / "RTX 2080 Blocksize
    DSE").

    Sweeps the launch blocksize over the architecturally valid range and
    keeps the value minimising modelled execution time — the paper's goal
    of minimising latency and maximising occupancy per device.  The same
    kernel typically lands on different blocksizes per device because the
    register file, SM count and occupancy curves differ.

    When the surrogate is active the sweep is guided: candidates are
    scored by the learned model and the analytic GPU model runs only for
    the ranked top-k plus every candidate without a memo-exact
    prediction (see {!Threads_dse} for the identity argument). *)

module Surrogate = Flow_surrogate.Surrogate
module Featvec = Flow_surrogate.Featvec

type step = {
  blocksize : int;
  occupancy : float;
  seconds : float;
  feasible : bool;
}

type result = {
  design : Codegen.Design.t;  (** with the chosen blocksize *)
  chosen_blocksize : int;
  steps : step list;
  decision : Flow_obs.Provenance.decision option;
      (** surrogate sweep provenance; [None] on exhaustive sweeps *)
}

let candidate_blocksizes = [ 32; 64; 96; 128; 192; 256; 384; 512; 768; 1024 ]

let run_uncached (design : Codegen.Design.t) (features : Analysis.Features.t) :
    result =
  let gpu = Devices.Spec.find_gpu design.device_id in
  let candidates =
    List.filter (fun bs -> bs <= gpu.max_blocksize) candidate_blocksizes
  in
  let mname = "blocksize:" ^ design.device_id in
  let eval ?x bs =
    Flow_obs.Trace.with_span ~cat:"dse" "dse.blocksize_candidate"
      ~args:[ ("blocksize", Flow_obs.Attr.Int bs) ]
    @@ fun () ->
    let m = Flow_obs.Metrics.global in
    Flow_obs.Metrics.incr m "dse_candidates";
    Flow_obs.Metrics.incr m "dse_simulate_calls";
    let d = { design with Codegen.Design.blocksize = bs } in
    let r = Devices.Gpu_model.time gpu d features in
    if not r.feasible then Flow_obs.Metrics.incr m "dse_rejected";
    Flow_obs.Trace.add_args
      [
        ("seconds", Flow_obs.Attr.Float r.total);
        ("feasible", Flow_obs.Attr.Bool r.feasible);
      ];
    (match x with
    | Some x ->
        Surrogate.observe mname ~x
          ~y:(Surrogate.y_of_seconds r.total)
          ~payload:
            [| r.total; r.occupancy; (if r.feasible then 1.0 else 0.0) |]
    | None -> ());
    {
      blocksize = bs;
      occupancy = r.occupancy;
      seconds = r.total;
      feasible = r.feasible;
    }
  in
  let guided = Surrogate.enabled () in
  let steps, plan_info =
    if not guided then
      (* candidate evaluations are independent: sweep them on the pool
         (order-preserving, so the first-best tie-break is unchanged) *)
      (Flow_par.Pool.map (fun bs -> eval bs) candidates, None)
    else begin
      let cand = Array.of_list candidates in
      let xs =
        Array.map
          (fun bs ->
            Featvec.extract ~design ~unroll:design.unroll_factor ~blocksize:bs
              ~threads:design.num_threads features)
          cand
      in
      let preds = Array.map (Surrogate.predict mname) xs in
      let scored =
        Array.map
          (fun p ->
            ( p,
              match p with
              | Surrogate.Exact payload ->
                  if payload.(2) = 0.0 then infinity
                  else Surrogate.y_of_seconds payload.(0)
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
                  {
                    blocksize = cand.(i);
                    occupancy = p.(1);
                    seconds = p.(0);
                    feasible = p.(2) <> 0.0;
                  }
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
        | Some b when b.seconds <= s.seconds || not s.feasible -> Some b
        | _ -> if s.feasible then Some s else acc)
      None steps
  in
  let chosen =
    match best with Some s -> s.blocksize | None -> design.blocksize
  in
  (match (plan_info, best) with
  | Some (plan, cand), Some b ->
      let won = ref false in
      Array.iteri
        (fun i bs ->
          if bs = b.blocksize && plan.Surrogate.in_topk.(i) then won := true)
        cand;
      if !won then
        Flow_obs.Metrics.incr Flow_obs.Metrics.global "surrogate_hit_topk"
  | _ -> ());
  (* recorded on every guided sweep, traced or not, so explain output
     depends only on configuration, never on tracing or model warmth *)
  let decision =
    if not guided then None
    else
      Some
        (Surrogate.decision ~design_name:design.name ~sweep:"blocksize"
           ~device:design.device_id ~candidates:(List.length candidates)
           ~chosen:(Printf.sprintf "blocksize %d" chosen)
           ~evidence:
             (match best with
             | Some b ->
                 [
                   ("seconds", Flow_obs.Attr.Float b.seconds);
                   ("occupancy", Flow_obs.Attr.Float b.occupancy);
                 ]
             | None -> []))
  in
  {
    design = Codegen.Hip_gen.set_blocksize design chosen;
    chosen_blocksize = chosen;
    steps;
    decision;
  }

(* Sweep memo: knob choice, trajectory and provenance cached; the
   design is rebuilt from the incoming design with the same setter the
   sweep applies (see {!Sweep_memo}). *)
type cached = {
  c_blocksize : int;
  c_steps : step list;
  c_decision : Flow_obs.Provenance.decision option;
}

let cache : cached Flow_memo.Cache.t =
  Sweep_memo.create ~name:"dse_blocksize" ()

(** Run the DSE for [design] on its GPU device (memoized per sweep
    key — see {!Sweep_memo}). *)
let run (design : Codegen.Design.t) (features : Analysis.Features.t) : result =
  let gpu = Devices.Spec.find_gpu design.device_id in
  let candidates =
    List.filter (fun bs -> bs <= gpu.max_blocksize) candidate_blocksizes
  in
  let fresh = ref None in
  let e =
    Flow_memo.Cache.find_or_compute cache
      ~key:
        (Sweep_memo.key ~sweep:"blocksize" ~design features
           ~candidates:(String.concat "," (List.map string_of_int candidates)))
      (fun () ->
        let r = run_uncached design features in
        fresh := Some r;
        {
          c_blocksize = r.chosen_blocksize;
          c_steps = r.steps;
          c_decision = r.decision;
        })
  in
  match !fresh with
  | Some r -> r
  | None ->
      {
        design = Codegen.Hip_gen.set_blocksize design e.c_blocksize;
        chosen_blocksize = e.c_blocksize;
        steps = e.c_steps;
        decision = e.c_decision;
      }
