(* psabench: the repository's end-to-end benchmark.

   psabench --workload W --seed N --seconds S --trace 0|1

   Runs one workload (cold_flows, daemon_variants, daemon_faults) for
   S seconds, checks every outcome, and prints as its last stdout line
   one JSON object: end-to-end metrics with --trace 0, per-layer
   metrics with --trace 1.  See README.md in this directory. *)

module Protocol = Flow_service.Protocol
module Json = Flow_service.Json
module Metrics = Flow_obs.Metrics

let now = Unix.gettimeofday
let run_dir = ".psabench"
let daemon_exe = "_build/default/bin/psaflow.exe"
let setups = 3

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("psabench: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* In-process operations (cold_flows)                                  *)
(* ------------------------------------------------------------------ *)

(* Process-wide minor words per paper flow (all domains, unlike
   [Gc.minor_words]). *)
let words : (string, float list) Hashtbl.t = Hashtbl.create 8

(* The template classes run in process as the daemon's worker runs
   them, with a sequential flow pool (the daemon is pinned to
   PSAFLOW_JOBS=1), but with every memo cache off: this workload takes
   no stage-memo hits, so a variant or a repeat costs a whole flow.
   The paper flows keep the pool at its default. *)
let without_memo f =
  let saved = !Flow_par.Pool.override in
  Flow_par.Pool.override := Some 1;
  Fun.protect ~finally:(fun () -> Flow_par.Pool.override := saved) (fun () ->
      Flows.in_reference_mode ~surrogate:true f)

(* One operation, timed; the result is reduced to its digests after the
   clock stops. *)
let inproc_op (op : Ops.op) : Flows.sample =
  let t0 = now () in
  let result =
    match op.kind with
    | Ops.Paper id -> (
        let app = Benchmarks.Registry.find id in
        let w0 = (Gc.quick_stat ()).minor_words in
        match Flows.paper_flow app ~nonce:op.nonce with
        | report ->
            let w = (Gc.quick_stat ()).minor_words -. w0 in
            Hashtbl.replace words id (w :: Option.value ~default:[] (Hashtbl.find_opt words id));
            Ok { Protocol.report; data = Json.Null }
        | exception _ -> Error `Failed)
    | _ -> without_memo (fun () -> Flows.exec op.sub)
  in
  let ms = 1000.0 *. (now () -. t0) in
  Flows.sample op ~ms
    (match result with
    | Ok jr -> Flows.Done (Flows.digests jr)
    | Error `Rejected -> Flows.Rejected
    | Error `Failed -> Flows.Failed)

let pass ~seed ~nonce round =
  let r = Ops.rng ~seed ~round in
  List.map inproc_op (Ops.interleave r (Ops.groups Ops.Cold_flows ~round ~nonce))

(* Passes until [until round] holds; returns samples and pass walls. *)
let passes ~seed ~nonce ~until =
  let rec go r acc walls =
    if until r then (List.concat (List.rev acc), List.rev walls)
    else
      let t0 = now () in
      let s = pass ~seed ~nonce r in
      go (r + 1) (s :: acc) ((now () -. t0) :: walls)
  in
  go 0 [] []

(* The measured window of an untraced run: [segment k] for k = 0, 1, ...
   with a host-speed calibration after each (see Calib), until
   [seconds] of measured time have passed.  Calibration time is not
   measured.  Returns the segments' samples and the measured wall. *)
let measured_window ~seconds segment =
  let spent0 = !Calib.spent_s and t0 = now () in
  let measured () = now () -. t0 -. (!Calib.spent_s -. spent0) in
  let rec go k acc =
    if k > 0 && measured () > seconds then (List.concat (List.rev acc), measured ())
    else
      let s = segment k in
      Calib.sample ();
      go (k + 1) (s :: acc)
  in
  go 0 []

(* Counters of this process's global registry, flattened like the
   daemon's engine section. *)
let local_counters () =
  List.concat_map
    (fun (k, v) ->
      match v with
      | Metrics.Counter n -> [ ("engine." ^ k, float_of_int n) ]
      | Metrics.Histogram s ->
          [ ("engine." ^ k ^ ".count", float_of_int s.s_count); ("engine." ^ k ^ ".sum", s.s_sum) ]
      | Metrics.Gauge _ -> [])
    (Metrics.snapshot Metrics.global)

(* ------------------------------------------------------------------ *)
(* Daemon operations                                                   *)
(* ------------------------------------------------------------------ *)

let share w ~seed ~nonce ~round ~client =
  let r = Ops.rng ~seed ~round in
  (Ops.deal r ~clients:Daemon.clients (Ops.groups w ~round ~nonce)).(client)

(* Spawn a daemon and bring it to steady state: one untimed round
   executes the paper programs (store entries the measured rounds hit)
   and every template once (sweep-memo and surrogate state).  Returns
   the daemon, the warm round's samples and its counter deltas. *)
let daemon_setup w ~seed =
  let d = Daemon.spawn ~exe:daemon_exe ~dir:run_dir in
  let before = Daemon.counters d in
  let warm = Daemon.drive d ~share:(share w ~seed ~nonce:"warm") ~first:0 ~until:(fun r -> r >= 1) in
  (d, warm, before, Daemon.counters d)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = string * float * string

let of_kind k samples =
  List.filter_map (fun (s : Flows.sample) -> if s.op.kind = k then Some s.ms else None) samples

let end_to_end ~samples ~ok ~wall ~setup_s ~rss : metric list =
  let n_ok = List.length (List.filter Fun.id ok) in
  List.map
    (fun id -> (Printf.sprintf "flow_ms.%s.p50" id, Stats.median (of_kind (Ops.Paper id) samples), "ms"))
    Ops.paper_ids
  @ [
      ("cold_ms.p50", Stats.percentile 50.0 (of_kind Ops.Cold samples), "ms");
      ("cold_ms.p90", Stats.percentile 90.0 (of_kind Ops.Cold samples), "ms");
      (* a mean, not a median: see README.md, "Variant latency" *)
      ("variant_ms.mean", Stats.mean (of_kind Ops.Variant samples), "ms");
      ("variant_ms.p90", Stats.percentile 90.0 (of_kind Ops.Variant samples), "ms");
      ("repeat_ms.p50", Stats.percentile 50.0 (of_kind Ops.Repeat samples), "ms");
      ("failed_ms.p50", Stats.percentile 50.0 (of_kind Ops.Fail samples), "ms");
      ("failed_ms.p90", Stats.percentile 90.0 (of_kind Ops.Fail samples), "ms");
      ("goodput_per_s", float_of_int n_ok /. wall, "1/s");
      ("success_ratio", float_of_int n_ok /. float_of_int (List.length samples), "ratio");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss, "MiB");
    ]

let delta before after name =
  let get l = Option.value ~default:0.0 (List.assoc_opt name l) in
  get after -. get before

let sum_matching before after ~prefix ~suffix =
  List.fold_left
    (fun acc (k, _) ->
      if String.starts_with ~prefix k && String.ends_with ~suffix k then acc +. delta before after k
      else acc)
    0.0 after

let memo_hits b a =
  sum_matching b a ~prefix:"engine.memo_" ~suffix:"_hits"
  +. delta b a "engine.profile_cache_hits"

let memo_misses b a =
  sum_matching b a ~prefix:"engine.memo_" ~suffix:"_misses"
  +. delta b a "engine.profile_cache_misses"

(* The counters that must not change when tracing is on. *)
let identity_counters b a =
  [
    ("interp_runs", delta b a "engine.interp_runs");
    ("memo_hits", memo_hits b a);
    ("memo_misses", memo_misses b a);
    ("dse_simulate_calls", delta b a "engine.dse_simulate_calls");
  ]

let engine_layers ~ops b a : metric list =
  let per x = x /. float_of_int ops in
  let hits = memo_hits b a and misses = memo_misses b a in
  [
    ("interp.runs_per_op", per (delta b a "engine.interp_runs"), "count");
    ("interp.vcycles_per_op", per (delta b a "engine.interp_virtual_cycles.sum"), "count");
    ("memo.hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0), "ratio");
    ("memo.misses_per_op", per misses, "count");
  ]

(* Design-space exploration happens in set-up: once the warm round has
   run every sweep, the sweep memo answers them all, so these counts
   are taken over the warm round, per operation. *)
let setup_layers ~ops b a : metric list =
  let per x = x /. float_of_int ops in
  [
    ("dse.simulate_calls_per_op", per (delta b a "engine.dse_simulate_calls"), "count");
    ("surrogate.predictions_per_op", per (delta b a "engine.surrogate_predictions"), "count");
    ("surrogate.fallbacks_per_op", per (delta b a "engine.surrogate_fallbacks"), "count");
  ]

(* Service and scheduler rows of a traced daemon phase: its samples,
   the client's submit and fetch spans, and the daemon's counters. *)
let service_layers (samples : Flows.sample list) (spans : Spans.span list) b a : metric list =
  let fresh = List.filter (fun (s : Flows.sample) -> s.fresh) samples in
  let exec ok =
    List.filter_map
      (fun (s : Flows.sample) ->
        match s.outcome with
        | Flows.Done _ when ok -> s.exec_ms
        | Flows.Failed when not ok -> s.exec_ms
        | _ -> None)
      fresh
  in
  let exec_all = List.filter_map (fun (s : Flows.sample) -> s.exec_ms) fresh in
  let span_ms cat =
    Stats.median (List.filter_map (fun (s : Spans.span) -> if s.cat = cat then Some (Spans.dur_ms s) else None) spans)
  in
  let jobs = delta b a "job_ms_fresh.count" in
  let hits = delta b a "store_hits" and misses = delta b a "store_misses" in
  [
    ("store.hit_ratio", (if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0), "ratio");
    ("service.submit_ms.p50", span_ms "service.submit", "ms");
    ("service.fetch_ms.p50", span_ms "service.fetch", "ms");
    ("service.polls_per_job", Stats.mean (List.map (fun (s : Flows.sample) -> float_of_int s.polls) fresh), "count");
    ( "scheduler.queue_wait_ms.mean",
      (if jobs > 0.0 then (delta b a "job_ms_fresh.sum" -. Stats.sum exec_all) /. jobs else 0.0),
      "ms" );
    ("scheduler.exec_ms.mean", Stats.mean (exec true), "ms");
    ("scheduler.failed_exec_ms.mean", Stats.mean (exec false), "ms");
    ( "scheduler.jobs_failed_per_op",
      delta b a "jobs_failed" /. float_of_int (List.length samples),
      "count" );
  ]

(* Layer split of traced paper flows: each op span's tasks and parse
   and typecheck spans, summed per category and averaged per flow. *)
let flow_layers (spans : Spans.span list) : metric list =
  let ops = List.filter (fun (s : Spans.span) -> s.cat = "op" && String.starts_with ~prefix:"paper." s.rid) spans in
  let children rid = List.filter (fun (s : Spans.span) -> s.rid = rid && s.cat <> "op") spans in
  let per_flow f = Stats.mean (List.map f ops) in
  let cat_ms cats (op : Spans.span) =
    Stats.sum (List.map Spans.dur_ms (List.filter (fun (s : Spans.span) -> List.mem s.cat cats) (children op.rid)))
  in
  let covered (op : Spans.span) =
    Spans.covered ~lo:op.t0 ~hi:op.t1
      (List.map (fun (s : Spans.span) -> (s.t0, s.t1)) (children op.rid))
  in
  [
    ("analysis.dynamic_ms", per_flow (cat_ms [ "analysis.dynamic" ]), "ms");
    ("analysis.static_ms", per_flow (cat_ms [ "analysis.static" ]), "ms");
    ("minic.parse_ms", per_flow (cat_ms [ "minic.parse" ]), "ms");
    ("minic.typecheck_ms", per_flow (cat_ms [ "minic.typecheck" ]), "ms");
    ("transforms.ms", per_flow (cat_ms [ "transforms" ]), "ms");
    ("codegen.ms", per_flow (cat_ms [ "codegen" ]), "ms");
    ("dse.ms", per_flow (cat_ms [ "dse" ]), "ms");
    ("devices.ms", per_flow (cat_ms [ "devices" ]), "ms");
    ("core.self_ms", per_flow (fun op -> Spans.dur_ms op -. (1000.0 *. covered op)), "ms");
    (* per program, the median flow's coverage; then the worst program *)
    ( "core.span_coverage",
      List.fold_left
        (fun acc id ->
          let flows = List.filter (fun (op : Spans.span) -> op.name = id) ops in
          Float.min acc (Stats.median (List.map (fun op -> covered op /. (op.Spans.t1 -. op.t0)) flows)))
        1.0 Ops.paper_ids,
      "ratio" );
  ]

let mwords_layers () : metric list =
  List.map
    (fun id ->
      ( Printf.sprintf "core.mwords.%s" id,
        Stats.median (Option.value ~default:[] (Hashtbl.find_opt words id)) /. 1e6,
        "Mwords" ))
    Ops.paper_ids

(* Direct interpreter calls on each paper hotspot kernel: compile once,
   then the best of three bare and three focus-tracking runs. *)
let interp_layers () : metric list =
  let best f = List.fold_left Float.min infinity (List.init 3 (fun _ -> f ())) in
  let time f = let t0 = now () in ignore (f ()); now () -. t0 in
  let rows =
    List.map
      (fun (app : Benchmarks.Bench_app.t) ->
        let p = Minic.Parser.parse_program (app.source ~n:app.profile_n) in
        let kp, kernel, _ = Psa.Std_flow.prepare_kernel p in
        let t0 = now () in
        let c = Minic_interp.Eval.compile kp in
        Minic_interp.Eval.force_engines c;
        let compile_s = now () -. t0 in
        let cycles ?focus () = (Minic_interp.Eval.run_compiled ?focus c).profile.cycles in
        let bare = best (fun () -> time (fun () -> Minic_interp.Eval.run_compiled c)) in
        let tracking = best (fun () -> time (fun () -> Minic_interp.Eval.run_compiled ~focus:kernel c)) in
        (compile_s, cycles (), bare, cycles ~focus:kernel (), tracking))
      Benchmarks.Registry.all
  in
  let sum f = Stats.sum (List.map f rows) in
  [
    ( "interp.bare_mcycles_per_s",
      sum (fun (_, c, _, _, _) -> c) /. sum (fun (_, _, t, _, _) -> t) /. 1e6,
      "Mcycles/s" );
    ( "interp.tracking_mcycles_per_s",
      sum (fun (_, _, _, c, _) -> c) /. sum (fun (_, _, _, _, t) -> t) /. 1e6,
      "Mcycles/s" );
    ("interp.compile_ms", 1000.0 *. sum (fun (c, _, _, _, _) -> c) /. float_of_int (List.length rows), "ms");
  ]

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

(* Per-source medians on stderr: which program a pooled percentile
   sits on, and how many samples each has. *)
let breakdown samples =
  let key (s : Flows.sample) = Ops.kind_name s.op.kind ^ " " ^ s.op.ref_key in
  let keys = List.sort_uniq compare (List.map key samples) in
  List.iter
    (fun k ->
      let ms = List.filter_map (fun s -> if key s = k then Some s.Flows.ms else None) samples in
      Printf.eprintf "psabench: %-28s n=%-5d p50=%9.3f ms\n" k (List.length ms) (Stats.median ms))
    keys;
  flush stderr

let check ~in_process samples =
  breakdown samples;
  let refs = Flows.references ~in_process samples in
  List.map
    (fun (s : Flows.sample) ->
      let ok = Flows.correct ~in_process refs s in
      if not ok then
        Printf.eprintf "psabench: unexpected outcome for %s %s%s\n%!" (Ops.kind_name s.op.kind) s.op.ref_key
          (match (s.op.kind, s.outcome) with
          | Ops.Paper id, Flows.Done d when in_process ->
              Printf.sprintf " (report digest of %s: %s)" id d.report
          | _ -> "");
      ok)
    samples

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type result = { ok : bool; attempted : int; failures : int; metrics : metric list }

(* End-to-end wall-clock metrics at reference host speed (see Calib),
   and as if the host had given the run all the CPU time it was ready
   to use ([granted], see Sysinfo.cpu_granted). *)
let at_reference_speed ~granted (metrics : metric list) : metric list =
  let f = Calib.factor () *. granted in
  List.map
    (fun (name, v, unit) ->
      match unit with
      | "ms" | "s" -> (name, v *. f, unit)
      | "1/s" -> (name, v /. f, unit)
      | _ -> (name, v, unit))
    metrics

let finish ~extra_ok samples ok metrics =
  let failures = List.length (List.filter not ok) in
  { ok = failures = 0 && extra_ok && Atomic.get Daemon.client_errors = 0;
    attempted = List.length samples; failures; metrics }

(* Set-up time of a one-shot user: a fresh process that builds its
   state with one cold pass.  Measured on child processes of this
   executable, start to exit. *)
let cold_setup_s ~seed =
  let probe () =
    let t0 = now () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; "--setup-probe"; "--seed"; string_of_int seed |]
        Unix.stdin Unix.stderr Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> now () -. t0
    | _ -> die "set-up probe failed"
  in
  Stats.median (List.init setups (fun _ -> probe ()))

let warm_pass ~seed = ignore (pass ~seed ~nonce:"warm" 0)

(* Service and scheduler layers for a workload that has no daemon of
   its own: ten rounds of daemon_variants traffic. *)
let daemon_probe ~seed =
  let w = Ops.Daemon_variants in
  let d, _, _, _ = daemon_setup w ~seed in
  let b = Daemon.counters d in
  Spans.enabled := true;
  let samples =
    Daemon.drive d ~share:(share w ~seed ~nonce:"probe") ~first:0 ~until:(fun r -> r >= Ops.cycle w)
  in
  Spans.enabled := false;
  let a = Daemon.counters d in
  Daemon.shutdown d;
  service_layers samples (Spans.take ()) b a

let cold_flows ~seed ~seconds ~trace =
  if not trace then begin
    let setup_s = cold_setup_s ~seed in
    warm_pass ~seed;
    let samples, wall = measured_window ~seconds (pass ~seed ~nonce:(Printf.sprintf "s%d" seed)) in
    let ok = check ~in_process:true samples in
    finish ~extra_ok:true samples ok
      (end_to_end ~samples ~ok ~wall ~setup_s ~rss:(Sysinfo.peak_rss_mb ~pid:0))
  end
  else begin
    let s0 = local_counters () in
    let warm = pass ~seed ~nonce:"warm" 0 in
    let s1 = local_counters () in
    Hashtbl.reset words;
    let half = now () +. (seconds /. 2.0) in
    let c0 = local_counters () in
    let plain, plain_walls =
      passes ~seed ~nonce:(Printf.sprintf "s%du" seed) ~until:(fun r -> r > 0 && now () > half)
    in
    let c1 = local_counters () in
    let mwords = mwords_layers () in
    let n = List.length plain_walls in
    Spans.enabled := true;
    let traced, traced_walls = passes ~seed ~nonce:(Printf.sprintf "s%dt" seed) ~until:(fun r -> r >= n) in
    Spans.enabled := false;
    let c2 = local_counters () in
    let spans = Spans.take () in
    let same = identity_counters c0 c1 = identity_counters c1 c2 in
    if not same then prerr_endline "psabench: counters differ between traced and untraced passes";
    let probe = daemon_probe ~seed in
    let samples = plain @ traced in
    let ok = check ~in_process:true samples in
    finish ~extra_ok:same samples ok
      (engine_layers ~ops:(List.length plain) c0 c1
      @ setup_layers ~ops:(List.length warm) s0 s1
      @ flow_layers spans @ mwords @ interp_layers () @ probe
      @ [ ("trace.overhead_pct", 100.0 *. ((Stats.mean traced_walls /. Stats.mean plain_walls) -. 1.0), "%") ])
  end

(* In-process paper flows for the layers a daemon hides from its
   clients: one pass untraced (allocation), one traced (layer times). *)
let paper_probe ~seed =
  let paper nonce =
    List.iter
      (fun id ->
        ignore
          (inproc_op
             { Ops.kind = Ops.Paper id; sub = Protocol.submission (Protocol.Bench id);
               ref_key = "paper:" ^ id; nonce = Printf.sprintf "%s.%d.%s" nonce seed id }))
      Ops.paper_ids
  in
  paper "probe-warm";
  Hashtbl.reset words;
  paper "probe-plain";
  let mwords = mwords_layers () in
  Spans.enabled := true;
  paper "probe-traced";
  Spans.enabled := false;
  flow_layers (Spans.take ()) @ mwords

let daemon_workload w ~seed ~seconds ~trace =
  if not trace then begin
    let setup_times = ref [] in
    let rec setup i =
      let t0 = now () in
      let d, _, _, _ = daemon_setup w ~seed in
      setup_times := (now () -. t0) :: !setup_times;
      if i + 1 < setups then (Daemon.shutdown d; setup (i + 1)) else d
    in
    let d = setup 0 in
    let share = share w ~seed ~nonce:(Printf.sprintf "s%d" seed) and seg = Ops.segment w in
    let samples, wall =
      measured_window ~seconds (fun k ->
          Daemon.drive d ~share ~first:(k * seg) ~until:(fun r -> r >= (k + 1) * seg))
    in
    let rss = Sysinfo.peak_rss_mb ~pid:d.pid in
    Daemon.shutdown d;
    let ok = check ~in_process:false samples in
    finish ~extra_ok:true samples ok
      (end_to_end ~samples ~ok ~wall ~setup_s:(Stats.median !setup_times) ~rss)
  end
  else begin
    let d, warm, s0, s1 = daemon_setup w ~seed in
    let cycle = Ops.cycle w in
    (* whole poison cycles, so both phases see the same multiset *)
    let phase nonce ~until_chunk =
      let rec go k acc =
        if until_chunk k then (List.concat (List.rev acc), k)
        else
          let s =
            Daemon.drive d ~share:(share w ~seed ~nonce) ~first:(k * cycle)
              ~until:(fun r -> r >= (k + 1) * cycle)
          in
          go (k + 1) (s :: acc)
      in
      go 0 []
    in
    let half = now () +. (seconds /. 2.0) in
    let c0 = Daemon.counters d in
    let plain, chunks = phase (Printf.sprintf "s%du" seed) ~until_chunk:(fun k -> k > 0 && now () > half) in
    let c1 = Daemon.counters d in
    Spans.enabled := true;
    let traced, _ = phase (Printf.sprintf "s%dt" seed) ~until_chunk:(fun k -> k >= chunks) in
    Spans.enabled := false;
    let c2 = Daemon.counters d in
    let spans = Spans.take () in
    Daemon.shutdown d;
    let same = identity_counters c0 c1 = identity_counters c1 c2 in
    if not same then prerr_endline "psabench: counters differ between traced and untraced rounds";
    let layers = paper_probe ~seed @ interp_layers () in
    let samples = plain @ traced in
    let ok = check ~in_process:false samples in
    let lat l = Stats.mean (List.map (fun (s : Flows.sample) -> s.ms) l) in
    finish ~extra_ok:same samples ok
      (engine_layers ~ops:(List.length plain) c0 c1
      @ setup_layers ~ops:(List.length warm) s0 s1
      @ service_layers traced spans c1 c2 @ layers
      @ [ ("trace.overhead_pct", 100.0 *. ((lat traced /. lat plain) -. 1.0), "%") ])
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metrics_json (metrics : metric list) =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         ( name,
           Json.Obj
             [ ("value", Json.Float (if Float.is_finite v then v else 0.0)); ("unit", Json.String unit) ] ))
       metrics)

(* One line of run context, then the result line.  End-to-end metrics
   are reported at reference host speed; the context line carries them
   as measured, with the calibration that scales them. *)
let print_result ~workload ~seed ~trace ~steal ~granted (r : result) =
  let digest, commit = Sysinfo.revision () in
  let calib =
    if trace then []
    else
      [ ("calibration", Json.Obj [ ("reference_ms", Json.Float Calib.reference_ms);
                                   ("samples", Json.Int (List.length !Calib.samples));
                                   ("factor", Json.Float (Calib.factor ())) ]);
        ("cpu_granted", Json.Float granted);
        ("measured", metrics_json r.metrics) ]
  in
  let env =
    Json.Obj
      ([ ("workload", Json.String workload); ("seed", Json.Int seed);
         ("cores", Json.Int (Sysinfo.cores ())); ("cpu_steal_pct", Json.Float steal);
         ("source_digest", Json.String digest);
         ("commit", match commit with Some c -> Json.String c | None -> Json.Null);
         ("daemon_env", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) Daemon.env_pins));
         ("clients", Json.Int Daemon.clients);
         ("poll_interval_ms", Json.Float (1000.0 *. Daemon.poll_interval_s)) ]
      @ calib)
  in
  print_endline (Json.to_string (Json.Obj [ ("psabench_env", env) ]));
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) r.metrics in
  if not finite then prerr_endline "psabench: a metric has no samples";
  let metrics = if trace then r.metrics else at_reference_speed ~granted r.metrics in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (r.ok && finite));
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failures);
            ("metrics", metrics_json metrics);
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let probe = ref false and calibrate = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "cold_flows | daemon_variants | daemon_faults");
      ("--seed", Arg.Set_int seed, "N  seeds op order and nonces");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
      ("--setup-probe", Arg.Set probe, " (internal) one cold warm pass, then exit");
      ("--calibrate", Arg.Set calibrate, " (internal) time the calibration loop, then exit");
    ]
    (fun a -> die "unexpected argument %s" a)
    "psabench --workload W --seed N --seconds S --trace 0|1";
  if !calibrate then (Calib.child_main (); exit 0);
  if !probe then (warm_pass ~seed:!seed; exit 0);
  if not (Sys.file_exists daemon_exe) then die "%s is missing; run psabench/run.sh" daemon_exe;
  if !seconds <= 0.0 then die "--seconds must be positive";
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let st0 = Sysinfo.cpu_jiffies () in
  let trace = !trace = 1 in
  let r =
    match Ops.workload_of_string !workload with
    | Some Ops.Cold_flows -> cold_flows ~seed:!seed ~seconds:!seconds ~trace
    | Some w -> daemon_workload w ~seed:!seed ~seconds:!seconds ~trace
    | None -> die "unknown workload %S" !workload
  in
  let st1 = Sysinfo.cpu_jiffies () in
  print_result ~workload:!workload ~seed:!seed ~trace
    ~steal:(Sysinfo.steal_pct ~before:st0 ~after:st1)
    ~granted:(Sysinfo.cpu_granted ~before:st0 ~after:st1) r
