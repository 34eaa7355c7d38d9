(** Memoized DSE sweep outcomes.

    A sweep's result is a pure function of the device spec, the
    candidate set and the analytic model inputs: the feature vector of
    {!Flow_surrogate.Featvec} is a verified superset of every device
    model's inputs, so (sweep name, device id, design name, base
    feature vector, candidate set) fully determines the chosen knob
    value, the step trajectory and the decision provenance — in every
    state of surrogate training, because guided sweeps reconstruct the
    exhaustive trajectory over authoritative values.  Budget or
    strategy variants of a request therefore replay sweeps without
    re-simulating.

    Only the knob choice, steps and decision are cached — never the
    design itself.  A hit re-applies the chosen knob to the *incoming*
    design with the same setter the sweep would have used, so the
    returned design is built from the caller's artifacts, not a
    previous request's.

    The caches follow the hierarchy rules ([PSAFLOW_NO_MEMO],
    [PSAFLOW_MEMO_CAP], [PSAFLOW_MEMO_SHARDS], [memo.dse_*] trace
    instants, metrics under [memo_dse_*]).  A hit skips the analytic
    model calls and the surrogate observations of the sweep, so
    [dse_simulate_calls] and the surrogate training counters advance
    only on misses — harnesses that *measure* sweep cost (the perf bench's DSE section,
    the surrogate test-suite) disable the sweep memo via
    {!set_enabled} so their counter arithmetic keeps measuring the
    model, not the cache. *)

let switches : (bool -> unit) list ref = ref []
let clearers : (unit -> unit) list ref = ref []

(** Create one sweep cache and register it for {!set_enabled}/{!clear}. *)
let create ~name () =
  let c = Flow_memo.Cache.create ~name () in
  switches := Flow_memo.Cache.set_enabled c :: !switches;
  clearers := (fun () -> Flow_memo.Cache.clear c) :: !clearers;
  c

(** Enable or disable every sweep cache (bench and test harnesses that
    measure simulate-call counts turn them off). *)
let set_enabled b = List.iter (fun f -> f b) !switches

(** Drop all sweep entries. *)
let clear () = List.iter (fun f -> f ()) !clearers

(** Content key of one sweep request.  [candidates] is any exact
    printout of the candidate set (it is device-derived, but keying it
    explicitly keeps the entry safe against spec changes at runtime). *)
let key ~sweep ~(design : Codegen.Design.t) (features : Analysis.Features.t)
    ~candidates : string =
  let fv =
    Flow_surrogate.Featvec.extract ~design ~unroll:design.unroll_factor
      ~blocksize:design.blocksize ~threads:design.num_threads features
  in
  Printf.sprintf "%s:%s:%s:%s:surr=%b" sweep design.device_id design.name
    (Digest.to_hex
       (Digest.string (Flow_surrogate.Featvec.key fv ^ "|" ^ candidates)))
    (Flow_surrogate.Surrogate.enabled ())
