(** Fast-path safety nets: the shared profile cache must be invisible to
    every analysis, and the domain pool must be invisible to every DSE
    sweep and flow fan-out. *)

let cache = Minic_interp.Profile_cache.clear
let set_cache = Minic_interp.Profile_cache.set_enabled

(* This binary measures sweep internals (simulate-call counts, explicit
   surrogate fallbacks); the cross-request sweep memo would serve
   repeated sweeps from cache and zero those counters out.  The memo's
   own behavior is covered by test_memo. *)
let () = Dse.Sweep_memo.set_enabled false

let with_cache_off f =
  cache ();
  set_cache false;
  Fun.protect ~finally:(fun () -> set_cache true; cache ()) f

let with_jobs n f =
  let saved = !Flow_par.Pool.override in
  Flow_par.Pool.override := Some n;
  Fun.protect ~finally:(fun () -> Flow_par.Pool.override := saved) f

(* ------------------------------------------------------------------ *)
(* Cached vs uncached analyses                                         *)
(* ------------------------------------------------------------------ *)

let trip_list (t : Analysis.Trip_count.t) =
  Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) t []
  |> List.sort compare

(* Every observation the flow's dynamic tasks consume, computed once
   with the cache disabled and twice with it enabled (second pass all
   hits), must be structurally identical. *)
let check_benchmark (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let analyses () =
    let hot = Analysis.Hotspot.detect p in
    let trips = trip_list (Analysis.Trip_count.analyze p) in
    let ex, kernel, _ = Psa.Std_flow.prepare_kernel p in
    let dio = Analysis.Data_inout.analyze ex ~kernel in
    let alias = Analysis.Alias.analyze ex ~kernel in
    let feats = Analysis.Features.analyze ex ~kernel in
    (hot, trips, dio, alias, feats)
  in
  let uncached = with_cache_off analyses in
  cache ();
  Minic_interp.Profile_cache.reset_stats ();
  let cached1 = analyses () in
  let cached2 = analyses () in
  let { Minic_interp.Profile_cache.hits; misses; _ } =
    Minic_interp.Profile_cache.stats ()
  in
  Alcotest.(check bool) "cached pass 1 = uncached" true (uncached = cached1);
  Alcotest.(check bool) "cached pass 2 = uncached" true (uncached = cached2);
  Alcotest.(check bool)
    (Printf.sprintf "cache was exercised (%d hits, %d misses)" hits misses)
    true
    (hits > 0 && misses > 0 && hits > misses);
  cache ()

let cache_tests =
  List.map
    (fun (b : Benchmarks.Bench_app.t) ->
      Alcotest.test_case b.id `Slow (check_benchmark b))
    (Benchmarks.Registry.all @ Benchmarks.Registry.extras)

(* Distinct programs must never share a cache entry, even when they are
   structurally identical (their loop ids differ, and per-loop stats are
   keyed by those ids). *)
let distinct_ids_distinct_entries () =
  let src = {|
int main() {
  int s = 0;
  for (int i = 0; i < 10; i++) { s += i; }
  return s;
}
|} in
  let p1 = Minic.Parser.parse_program src in
  let p2 = Minic.Parser.parse_program src in
  cache ();
  let r1 = Minic_interp.Profile_cache.run p1 in
  let r2 = Minic_interp.Profile_cache.run p2 in
  let sids t = Hashtbl.fold (fun sid _ acc -> sid :: acc) t [] in
  Alcotest.(check bool)
    "loop stats keyed by each program's own ids" false
    (List.sort compare (sids r1.profile.loops)
    = List.sort compare (sids r2.profile.loops));
  Alcotest.(check (float 0.0))
    "identical cycles" r1.profile.cycles r2.profile.cycles;
  cache ()

(* Re-running the same parsed program hits; the hit returns the same
   observations. *)
let same_program_hits () =
  let p =
    Minic.Parser.parse_program
      {|
int main() {
  double x = 0.0;
  for (int i = 0; i < 100; i++) { x = x + 1.5; }
  print_float(x);
  return 0;
}
|}
  in
  cache ();
  Minic_interp.Profile_cache.reset_stats ();
  let r1 = Minic_interp.Profile_cache.run p in
  let r2 = Minic_interp.Profile_cache.run p in
  let { Minic_interp.Profile_cache.hits; misses; _ } =
    Minic_interp.Profile_cache.stats ()
  in
  Alcotest.(check int) "one miss" 1 misses;
  Alcotest.(check int) "one hit" 1 hits;
  Alcotest.(check string) "same output" r1.output r2.output;
  Alcotest.(check (float 0.0)) "same cycles" r1.profile.cycles
    r2.profile.cycles;
  cache ()

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let pool_order () =
  let xs = List.init 100 Fun.id in
  let expect = List.map (fun x -> (2 * x) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "map with %d jobs preserves order" jobs)
        expect
        (Flow_par.Pool.map ~jobs (fun x -> (2 * x) + 1) xs))
    [ 1; 2; 4; 7 ]

let pool_exception () =
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      ignore
        (Flow_par.Pool.map ~jobs:4
           (fun x -> if x = 13 then failwith "boom" else x)
           (List.init 20 Fun.id)))

let pool_jobs_env () =
  with_jobs 3 (fun () ->
      Alcotest.(check int) "override wins" 3 (Flow_par.Pool.jobs ()))

(* ------------------------------------------------------------------ *)
(* Parallel DSE = sequential DSE (qcheck)                              *)
(* ------------------------------------------------------------------ *)

let features_gen =
  QCheck.Gen.(
    let* trip_exp = float_range 3.0 7.0 in
    let* flops = float_range 2.0 400.0 in
    let* bytes = float_range 4.0 64.0 in
    let* regs = int_range 16 200 in
    let* parallel = bool in
    return
      (Feat_fixtures.make ~outer_trip:(10.0 ** trip_exp)
         ~flops_per_iter:flops ~bytes_in_per_iter:bytes
         ~bytes_out_per_iter:bytes ~regs ~outer_parallel:parallel ()))

let features_arb =
  QCheck.make ~print:(fun (f : Analysis.Features.t) ->
      Printf.sprintf "trip=%g flops/iter=%g regs=%d" f.outer_trip
        (f.flops_per_call /. f.outer_trip)
        f.regs_estimate)
    features_gen

(* Each DSE must visit the same candidate set, pick the same winner and
   produce the same annotated design no matter how many domains sweep
   the candidates. *)
let dse_prop name run_dse =
  QCheck.Test.make ~count:25 ~name features_arb (fun features ->
      let seq = with_jobs 1 (fun () -> run_dse features) in
      let par = with_jobs 4 (fun () -> run_dse features) in
      seq = par)

let unroll_prop =
  dse_prop "unroll" (fun f ->
      let d =
        Feat_fixtures.design ~target:Codegen.Design.Fpga_oneapi
          ~device_id:"arria10" ()
      in
      let r = Dse.Unroll_dse.run d f in
      (r.chosen_factor, r.synthesizable, r.steps, r.design.unroll_factor))

let blocksize_prop =
  dse_prop "blocksize" (fun f ->
      let d = Feat_fixtures.design ~target:Codegen.Design.Gpu_hip ~device_id:"gtx1080ti" () in
      let r = Dse.Blocksize_dse.run d f in
      (r.chosen_blocksize, r.steps, r.design.blocksize))

let threads_prop =
  dse_prop "threads" (fun f ->
      let d =
        Feat_fixtures.design ~target:Codegen.Design.Cpu_openmp
          ~device_id:"epyc7543" ()
      in
      let r = Dse.Threads_dse.run d f in
      (r.chosen_threads, r.steps, r.design.num_threads))

(* ------------------------------------------------------------------ *)
(* Fused single-pass profile = legacy per-analysis interpreter runs    *)
(* ------------------------------------------------------------------ *)

module I = Minic_interp

(* Everything a profile records, as a comparable value: totals, access
   counters, per-loop stats, the kernel observations, the program
   output and the return value. *)
let run_fingerprint (r : I.Eval.run) =
  let p = r.profile in
  let loops =
    Hashtbl.fold
      (fun sid (s : I.Profile.loop_stat) acc ->
        (sid, s.invocations, s.iterations, s.min_trip, s.max_trip, s.cycles)
        :: acc)
      p.loops []
    |> List.sort compare
  in
  ( (p.cycles, p.loads, p.stores, p.flops, p.int_ops, p.sfu_ops),
    (p.bytes_read, p.bytes_written),
    loops,
    p.kernel,
    r.output,
    r.return_value )

(* The bare fused run measures bit-identically what the paper's timer
   instrumentation measures: for every candidate loop, the instrumented
   legacy run's timer total equals the projected loop cycles, and the
   instrumentation itself costs nothing. *)
let check_fused_bare (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let legacy =
    I.Eval.run_ir (I.Resolve.compile (Analysis.Hotspot.instrument p))
  in
  let fused = I.Fused_profile.of_run p (I.Eval.run p) in
  Alcotest.(check (float 0.0))
    "instrumentation adds no cycles" legacy.profile.cycles
    (I.Fused_profile.total_cycles fused);
  Alcotest.(check string)
    "same output" legacy.output
    (I.Fused_profile.output fused);
  let cands = Analysis.Hotspot.candidates p in
  Alcotest.(check bool) "benchmark has candidate loops" true (cands <> []);
  List.iter
    (fun (m : Artisan.Query.match_ctx) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "loop %d: legacy timer total = projected cycles"
           m.stmt.sid)
        (I.Profile.timer_total legacy.profile m.stmt.sid)
        (I.Fused_profile.loop_cycles fused m.stmt.sid))
    cands;
  match Analysis.Hotspot.of_fused fused with
  | None -> Alcotest.fail "no hotspot detected"
  | Some h ->
      Alcotest.(check (float 0.0))
        "hotspot cycles = legacy timer total"
        (I.Profile.timer_total legacy.profile h.loop_sid)
        h.cycles

(* Every focused analysis must project the same record out of the fused
   profile that the legacy kernel-focused walker run produces. *)
let check_fused_focus (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ex, kernel, _ = Psa.Std_flow.prepare_kernel p in
  let legacy = I.Eval.run_ir ~focus:kernel (I.Resolve.compile ex) in
  let fused = I.Fused_profile.of_run ~focus:kernel ex (I.Eval.run ~focus:kernel ex) in
  Alcotest.(check bool)
    "kernel observations identical" true
    (legacy.profile.kernel = I.Fused_profile.kernel_obs fused);
  (* project each analysis from the legacy walker run and compare with
     the production (VM, cached) analysis entry points *)
  let of_legacy = I.Fused_profile.of_run ~focus:kernel ex legacy in
  let dio = with_cache_off (fun () -> Analysis.Data_inout.analyze ex ~kernel) in
  Alcotest.(check bool)
    "data in/out projection" true
    (dio = Analysis.Data_inout.of_fused of_legacy ~kernel);
  let al = with_cache_off (fun () -> Analysis.Alias.analyze ex ~kernel) in
  Alcotest.(check bool)
    "alias projection" true
    (al = Analysis.Alias.of_fused of_legacy ~kernel);
  let fe = with_cache_off (fun () -> Analysis.Features.analyze ex ~kernel) in
  Alcotest.(check bool)
    "features projection" true
    (fe = Analysis.Features.of_fused of_legacy ~kernel)

let fused_tests =
  List.concat_map
    (fun (b : Benchmarks.Bench_app.t) ->
      [
        Alcotest.test_case (b.id ^ " bare") `Slow (check_fused_bare b);
        Alcotest.test_case (b.id ^ " focused") `Slow (check_fused_focus b);
      ])
    Benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* Threaded code = reference walker (qcheck over generated programs)   *)
(* ------------------------------------------------------------------ *)

(* Random MiniC kernels exercising scalar and array arithmetic, casts,
   division, math builtins, short-circuit conditions, nested [for],
   bounded [while] and compound assignment.  Loop variables index the
   64-element arrays as [i + 7*j], which stays in bounds for any pair of
   in-scope loop variables (bounds at most 7). *)
let program_gen =
  let open QCheck.Gen in
  let fresh = ref 0 in
  let loop_vars = [ "i"; "j"; "k" ] in
  let rec iexpr depth vars =
    let leaves =
      [ return "u"; return "v"; map string_of_int (int_range 0 9) ]
      @ List.map return vars
    in
    if depth = 0 then oneof leaves
    else
      frequency
        [
          (3, oneof leaves);
          ( 2,
            let* a = iexpr (depth - 1) vars
            and* b = iexpr (depth - 1) vars
            and* op = oneofl [ "+"; "-"; "*" ] in
            return (Printf.sprintf "(%s %s %s)" a op b) );
          ( 1,
            let* a = iexpr (depth - 1) vars in
            return (Printf.sprintf "(%s / 3)" a) );
          ( 1,
            let* i = idx vars in
            return (Printf.sprintf "b[%s]" i) );
          ( 1,
            let* f = fexpr (depth - 1) vars in
            return (Printf.sprintf "(int)(%s)" f) );
        ]
  and fexpr depth vars =
    let leaves =
      [
        return "x";
        return "y";
        return "0.25";
        return "1.5";
        return "rand01()";
        (let* i = idx vars in
         return (Printf.sprintf "a[%s]" i));
      ]
    in
    if depth = 0 then oneof leaves
    else
      frequency
        [
          (3, oneof leaves);
          ( 3,
            let* a = fexpr (depth - 1) vars
            and* b = fexpr (depth - 1) vars
            and* op = oneofl [ "+"; "-"; "*" ] in
            return (Printf.sprintf "(%s %s %s)" a op b) );
          ( 1,
            let* a = fexpr (depth - 1) vars in
            return (Printf.sprintf "(%s / 1.25)" a) );
          ( 1,
            let* a = fexpr (depth - 1) vars
            and* f = oneofl [ "sqrt(fabs(%s))"; "fabs(%s)"; "sin(%s)"; "cos(%s)" ] in
            return (Printf.sprintf (Scanf.format_from_string f "%s") a) );
          ( 1,
            let* i = iexpr (depth - 1) vars in
            return (Printf.sprintf "(double)(%s)" i) );
        ]
  and idx vars =
    let open QCheck.Gen in
    match vars with
    | [] -> map string_of_int (int_range 0 63)
    | v :: rest ->
        oneof
          ([ return v; map string_of_int (int_range 0 63) ]
          @
          match rest with
          | w :: _ -> [ return (Printf.sprintf "(%s + 7 * %s)" v w) ]
          | [] -> [])
  and cond depth vars =
    let open QCheck.Gen in
    let cmp =
      frequency
        [
          ( 2,
            let* a = fexpr 1 vars
            and* b = fexpr 1 vars
            and* op = oneofl [ "<"; "<="; ">"; ">="; "!=" ] in
            return (Printf.sprintf "%s %s %s" a op b) );
          ( 1,
            let* a = iexpr 1 vars
            and* b = iexpr 1 vars
            and* op = oneofl [ "<"; "=="; ">" ] in
            return (Printf.sprintf "%s %s %s" a op b) );
        ]
    in
    if depth = 0 then cmp
    else
      frequency
        [
          (3, cmp);
          ( 1,
            let* a = cond (depth - 1) vars
            and* b = cond (depth - 1) vars
            and* op = oneofl [ "&&"; "||" ] in
            return (Printf.sprintf "(%s) %s (%s)" a op b) );
        ]
  and stmt depth vars =
    let open QCheck.Gen in
    let simple =
      frequency
        [
          ( 3,
            let* t = oneofl [ "x"; "y" ]
            and* op = oneofl [ "="; "+="; "-="; "*=" ]
            and* e = fexpr 2 vars in
            return (Printf.sprintf "%s %s %s;" t op e) );
          ( 2,
            let* t = oneofl [ "u"; "v" ]
            and* op = oneofl [ "="; "+=" ]
            and* e = iexpr 2 vars in
            return (Printf.sprintf "%s %s %s;" t op e) );
          ( 2,
            let* i = idx vars
            and* op = oneofl [ "="; "+=" ]
            and* e = fexpr 2 vars in
            return (Printf.sprintf "a[%s] %s %s;" i op e) );
          ( 1,
            let* i = idx vars
            and* e = iexpr 2 vars in
            return (Printf.sprintf "b[%s] = %s;" i e) );
        ]
    in
    if depth = 0 then simple
    else
      frequency
        [
          (4, simple);
          ( 2,
            let* c = cond 1 vars
            and* a = block (depth - 1) vars
            and* b = block (depth - 1) vars
            and* has_else = bool in
            return
              (if has_else then
                 Printf.sprintf "if (%s) {\n%s\n} else {\n%s\n}" c a b
               else Printf.sprintf "if (%s) {\n%s\n}" c a) );
          ( 2,
            match List.find_opt (fun v -> not (List.mem v vars)) loop_vars with
            | None -> simple
            | Some v ->
                let* bound = int_range 2 6
                and* body = block (depth - 1) (v :: vars) in
                return
                  (Printf.sprintf "for (int %s = 0; %s < %d; %s++) {\n%s\n}" v
                     v bound v body) );
          ( 1,
            let w =
              incr fresh;
              Printf.sprintf "w%d" !fresh
            in
            let* bound = int_range 1 4
            and* body = block (depth - 1) vars in
            return
              (Printf.sprintf
                 "int %s = %d;\nwhile (%s > 0) {\n%s = %s - 1;\n%s\n}" w bound
                 w w w body) );
        ]
  and block depth vars =
    let open QCheck.Gen in
    let* n = int_range 1 3 in
    let* stmts = flatten_l (List.init n (fun _ -> stmt depth vars)) in
    return (String.concat "\n" stmts)
  in
  let* body = block 3 [] in
  return
    (Printf.sprintf
       {|
double work(double* a, int* b, int n) {
  double x = 0.5;
  double y = 1.5;
  int u = 3;
  int v = 7;
%s
  return x + y + (double)u + 0.125 * (double)v;
}

int main() {
  int n = 64;
  double a[n];
  int b[n];
  for (int s = 0; s < n; s++) {
    a[s] = rand01();
    b[s] = s;
  }
  double acc = 0.0;
  for (int t = 0; t < 3; t++) {
    acc += work(a, b, n);
  }
  print_float(acc);
  print_int(b[5]);
  return 0;
}
|}
       body)

let program_arb = QCheck.make ~print:Fun.id program_gen

(* The production engine ([Eval.run]: optimize, lower, run the VM) must
   be indistinguishable from the reference tree walker — identical
   profile, counters, loop stats, kernel observations, output and return
   value — bare and kernel-focused; and timer instrumentation must cost
   nothing. *)
let production_engine_prop =
  QCheck.Test.make ~count:30
    ~name:"production engine = walker on generated programs" program_arb
    (fun src ->
      let p = Minic.Parser.parse_program src in
      let walker = I.Eval.run_ir (I.Resolve.compile p) in
      let prod = I.Eval.run p in
      let bare_ok = run_fingerprint walker = run_fingerprint prod in
      let fwalker = I.Eval.run_ir ~focus:"work" (I.Resolve.compile p) in
      let fprod = I.Eval.run ~focus:"work" p in
      let focus_ok = run_fingerprint fwalker = run_fingerprint fprod in
      let instr = I.Eval.run (Analysis.Hotspot.instrument p) in
      let instr_ok =
        instr.profile.cycles = prod.profile.cycles
        && instr.output = prod.output
      in
      if not bare_ok then QCheck.Test.fail_report "bare run diverges";
      if not focus_ok then QCheck.Test.fail_report "focused run diverges";
      if not instr_ok then QCheck.Test.fail_report "instrumented run diverges";
      true)

(* The flow's branch fan-out must produce the same designs in the same
   order with and without worker domains. *)
let uninformed_parallel_identical () =
  let app = List.nth Benchmarks.Registry.all 2 (* bezier: smallest *) in
  let fingerprint (o : Psa.Std_flow.outcome) =
    List.map
      (fun (r : Devices.Simulate.result) ->
        (r.design.name, r.seconds, r.speedup, r.feasible))
      o.results
  in
  let run () =
    fingerprint
      (Psa.Std_flow.run_uninformed (Benchmarks.Bench_app.context app))
  in
  let seq = with_cache_off (fun () -> with_jobs 1 run) in
  let par = with_cache_off (fun () -> with_jobs 4 run) in
  Alcotest.(check bool) "sequential = parallel designs" true (seq = par)

(* ------------------------------------------------------------------ *)
(* Slot-IR optimizer: per-pass bit-identity vs the reference walker    *)
(* ------------------------------------------------------------------ *)

let pass_configs =
  let no_p = I.Opt.no_passes in
  [
    ("fold", { no_p with I.Opt.fold = true });
    ("strength", { no_p with I.Opt.strength = true });
    ("dead", { no_p with I.Opt.dead = true });
    ("hoist", { no_p with I.Opt.hoist = true });
    ("specialize", { no_p with I.Opt.specialize = true });
    ("composed", I.Opt.all_passes);
  ]

(* Every pass alone, and all composed, must leave every observable of a
   run untouched — profile totals, per-loop stats, kernel observations,
   output, return value — bare and kernel-focused, vs the reference
   walker on the un-optimized slot IR. *)
let check_opt_identity (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ir = I.Resolve.compile p in
  let walker = run_fingerprint (I.Eval.run_ir ir) in
  let ex, kernel, _ = Psa.Std_flow.prepare_kernel p in
  let fir = I.Resolve.compile ex in
  let fwalker = run_fingerprint (I.Eval.run_ir ~focus:kernel fir) in
  List.iter
    (fun (name, config) ->
      let bare =
        I.Eval.run_compiled
          (I.Eval.compile_resolved (I.Opt.optimize ~config ir))
      in
      Alcotest.(check bool)
        (name ^ ": bare run identical") true
        (run_fingerprint bare = walker);
      let focused =
        I.Eval.run_compiled ~focus:kernel
          (I.Eval.compile_resolved (I.Opt.optimize ~config fir))
      in
      Alcotest.(check bool)
        (name ^ ": focused run identical") true
        (run_fingerprint focused = fwalker))
    pass_configs

(* [PSAFLOW_NO_OPT] follows the shared kill-switch grammar: the flag parser
   accepts 1/true/yes only, and [Opt.set_enabled false] makes
   [Eval.compile] skip the optimizer entirely — observable through the
   published opt_* counters — without changing any run observable. *)
let opt_kill_switch () =
  Unix.putenv "PSAFLOW_TEST_FLAG_ON" "1";
  Alcotest.(check bool)
    "1 turns a flag on" true
    (Flow_obs.Env.flag ~name:"PSAFLOW_TEST_FLAG_ON" ());
  Unix.putenv "PSAFLOW_TEST_FLAG_TYPO" "on";
  Alcotest.(check bool)
    "a typo'd value leaves the flag off" false
    (Flow_obs.Env.flag ~name:"PSAFLOW_TEST_FLAG_TYPO" ());
  Alcotest.(check bool)
    "unset is off" false
    (Flow_obs.Env.flag ~name:"PSAFLOW_TEST_FLAG_UNSET" ());
  let was = I.Opt.is_enabled () in
  Fun.protect ~finally:(fun () -> I.Opt.set_enabled was) @@ fun () ->
  let b = List.nth Benchmarks.Registry.all 1 (* nbody *) in
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let walker = run_fingerprint (I.Eval.run_ir (I.Resolve.compile p)) in
  let specialized () =
    Flow_obs.Metrics.counter_value Flow_obs.Metrics.global
      "opt_kernels_specialized"
  in
  I.Opt.set_enabled false;
  let c0 = specialized () in
  let off = I.Eval.run_compiled (I.Eval.compile p) in
  Alcotest.(check int) "optimizer skipped when disabled" c0 (specialized ());
  I.Opt.set_enabled true;
  let on = I.Eval.run_compiled (I.Eval.compile p) in
  Alcotest.(check bool) "optimizer ran when enabled" true (specialized () > c0);
  Alcotest.(check bool)
    "disabled run = walker" true
    (run_fingerprint off = walker);
  Alcotest.(check bool) "enabled run = walker" true (run_fingerprint on = walker)

(* The per-pass identity obligation, over generated programs. *)
let opt_equivalence_prop =
  QCheck.Test.make ~count:15
    ~name:"optimizer passes = walker on generated programs" program_arb
    (fun src ->
      let p = Minic.Parser.parse_program src in
      let ir = I.Resolve.compile p in
      let walker = run_fingerprint (I.Eval.run_ir ir) in
      let fwalker = run_fingerprint (I.Eval.run_ir ~focus:"work" ir) in
      List.for_all
        (fun (name, config) ->
          let compiled =
            I.Eval.compile_resolved (I.Opt.optimize ~config ir)
          in
          if run_fingerprint (I.Eval.run_compiled compiled) <> walker then
            QCheck.Test.fail_reportf "%s: bare run diverges" name;
          if
            run_fingerprint (I.Eval.run_compiled ~focus:"work" compiled)
            <> fwalker
          then QCheck.Test.fail_reportf "%s: focused run diverges" name;
          true)
        pass_configs)

let opt_tests =
  List.map
    (fun (b : Benchmarks.Bench_app.t) ->
      Alcotest.test_case b.id `Slow (check_opt_identity b))
    Benchmarks.Registry.all
  @ [
      Alcotest.test_case "kill switch" `Quick opt_kill_switch;
      QCheck_alcotest.to_alcotest opt_equivalence_prop;
    ]

(* ================================================================== *)
(* Register-bytecode VM (Eval.run_compiled / Bytecode)                 *)
(* ================================================================== *)

(* The VM obligation over generated programs, on the unoptimized IR:
   the bytecode VM must match the reference walker on every observable,
   bare and kernel-focused. *)
let vm_equivalence_prop =
  QCheck.Test.make ~count:30
    ~name:"bytecode VM = walker on generated programs" program_arb
    (fun src ->
      let p = Minic.Parser.parse_program src in
      let ir = I.Resolve.compile p in
      let walker = run_fingerprint (I.Eval.run_ir ir) in
      let fwalker = run_fingerprint (I.Eval.run_ir ~focus:"work" ir) in
      let c = I.Eval.compile_resolved ir in
      if run_fingerprint (I.Eval.run_compiled c) <> walker then
        QCheck.Test.fail_report "vm: bare run diverges";
      if run_fingerprint (I.Eval.run_compiled ~focus:"work" c) <> fwalker then
        QCheck.Test.fail_report "vm: focused run diverges";
      true)

(* Per-benchmark bit-identity of the VM against the walker, across the
   superinstruction selector (on/off) and 1/2/4 worker domains: the flow
   fan-out runs one memoized [compiled] value on several domains at once
   (see [Eval.force_engines]), so every concurrent run must match. *)
let check_vm_identity (b : Benchmarks.Bench_app.t) () =
  let p = Benchmarks.Bench_app.program b ~n:b.profile_n in
  let ir_opt = I.Opt.optimize (I.Resolve.compile p) in
  let walker = run_fingerprint (I.Eval.run_ir (I.Resolve.compile p)) in
  List.iter
    (fun (sel, hot) ->
      let c = I.Eval.compile_resolved ~vm_hot:hot ir_opt in
      I.Eval.force_engines c;
      List.iter
        (fun domains ->
          let runs =
            Flow_par.Pool.map ~jobs:domains
              (fun _ -> run_fingerprint (I.Eval.run_compiled c))
              (List.init domains Fun.id)
          in
          Alcotest.(check bool)
            (Printf.sprintf "superinstructions %s, %d domains: identical" sel
               domains)
            true
            (List.for_all (( = ) walker) runs))
        [ 1; 2; 4 ])
    [ ("on", fun _ -> true); ("off", fun _ -> false) ]

(* Lowered kernels of a fixed data-parallel source, for selector unit
   tests. *)
let vm_lowered_kernels ~hot src =
  let p = Minic.Parser.parse_program src in
  let ir_opt = I.Opt.optimize (I.Resolve.compile p) in
  let bp = I.Bytecode.lower ~hot ir_opt in
  let kps = ref [] in
  Array.iter
    (fun (f : I.Bytecode.fn) ->
      Array.iter
        (function
          | I.Bytecode.IKernel { kp; _ } -> kps := kp :: !kps
          | _ -> ())
        f.I.Bytecode.bc_code)
    (Array.append bp.I.Bytecode.bc_funcs [| bp.I.Bytecode.bc_globals |]);
  List.rev !kps

let vm_triad_src =
  {|
int main() {
  int n = 64;
  double x[n];
  double y[n];
  for (int i = 0; i < n; i++) {
    x[i] = i * 0.5;
    y[i] = i * 0.25;
  }
  double a = 1.5;
  for (int i = 0; i < n; i++) {
    y[i] = y[i] + a * x[i];
  }
  print_float(y[10]);
  return 0;
}
|}

(* The selector on a fixed program: hot kernels shrink (superinstruction
   fusion fired) — the fused bodies cover fewer micro-ops than the
   original kinstr stream; with everything cold, bodies lower 1:1 and
   nothing is marked fused. *)
let vm_selector_fuses () =
  let kps = vm_lowered_kernels ~hot:(fun _ -> true) vm_triad_src in
  Alcotest.(check bool) "kernels lowered" true (List.length kps >= 2);
  List.iter
    (fun (kp : I.Bytecode.kprog) ->
      let before = Array.length kp.I.Bytecode.kp_kern.I.Resolve.k_body in
      let after = Array.length kp.I.Bytecode.kp_ops in
      Alcotest.(check bool) "hot kernel marked fused" true
        kp.I.Bytecode.kp_fused;
      Alcotest.(check bool) "fusion shrank the body" true (after < before))
    kps;
  let cold = vm_lowered_kernels ~hot:(fun _ -> false) vm_triad_src in
  List.iter
    (fun (kp : I.Bytecode.kprog) ->
      let before = Array.length kp.I.Bytecode.kp_kern.I.Resolve.k_body in
      Alcotest.(check bool) "cold kernel not fused" false
        kp.I.Bytecode.kp_fused;
      Alcotest.(check int) "cold kernel lowers 1:1" before
        (Array.length kp.I.Bytecode.kp_ops);
      Alcotest.(check int) "cold kernel hoists no literals" 0
        (Array.length kp.I.Bytecode.kp_lits);
      Alcotest.(check int) "cold kernel prefetches nothing" 0
        (Array.length kp.I.Bytecode.kp_prefetch))
    cold

(* [hot_of_profile] thresholding on a measured profile: the dominant
   loop clears the default 2% share, an impossible share admits nothing,
   and unknown statement ids are never hot. *)
let vm_hot_of_profile () =
  let p = Minic.Parser.parse_program vm_triad_src in
  let r = I.Eval.run p in
  let dominant, _ =
    Hashtbl.fold
      (fun sid (ls : I.Profile.loop_stat) ((_, best) as acc) ->
        if ls.I.Profile.cycles > best then (sid, ls.I.Profile.cycles) else acc)
      r.profile.I.Profile.loops (-1, neg_infinity)
  in
  Alcotest.(check bool) "profile has loops" true (dominant >= 0);
  let hot = I.Bytecode.hot_of_profile r.profile in
  Alcotest.(check bool) "dominant loop is hot" true (hot dominant);
  let none = I.Bytecode.hot_of_profile ~min_share:1.1 r.profile in
  Alcotest.(check bool) "impossible share admits nothing" false
    (none dominant);
  Alcotest.(check bool) "unknown sid is cold" false (hot (-42));
  let empty = I.Bytecode.hot_of_profile (I.Profile.create ()) in
  Alcotest.(check bool) "no cycle data: everything hot" true (empty dominant)

let vm_tests =
  List.map
    (fun (b : Benchmarks.Bench_app.t) ->
      Alcotest.test_case (b.id ^ " superinstructions x domains") `Slow
        (check_vm_identity b))
    Benchmarks.Registry.all
  @ [
      Alcotest.test_case "selector fuses hot kernels" `Quick vm_selector_fuses;
      Alcotest.test_case "hot_of_profile thresholds" `Quick vm_hot_of_profile;
      QCheck_alcotest.to_alcotest vm_equivalence_prop;
    ]

(* ================================================================== *)
(* Surrogate-guided DSE = exhaustive DSE                               *)
(* ================================================================== *)

module Surrogate = Flow_surrogate.Surrogate

(* Pin the surrogate configuration for [f]: fresh models, an explicit
   enabled/topk override, and full restoration afterwards so the other
   suites (which run flows with the surrogate in its default state) are
   untouched. *)
let with_surrogate ~enabled ?topk f =
  Surrogate.reset ();
  Surrogate.set_enabled (Some enabled);
  Surrogate.set_topk topk;
  Fun.protect
    ~finally:(fun () ->
      Surrogate.set_enabled None;
      Surrogate.set_topk None;
      Surrogate.reset ())
    f

let counter name = Flow_obs.Metrics.counter_value Flow_obs.Metrics.global name

(* Every sweep of every device, on generated MiniC kernels: the guided
   winner and the full trajectory must equal the exhaustive sweep's,
   both on a cold model (where the explicit uncertain-fallback simulates
   everything) and on a warm one (where only the top-k is fresh). *)
let surrogate_winner_prop =
  QCheck.Test.make ~count:15
    ~name:"guided DSE winner = exhaustive on generated programs" program_arb
    (fun src ->
      let p = Minic.Parser.parse_program src in
      match Psa.Std_flow.prepare_kernel p with
      | exception Transforms.Extract.Not_extractable _ ->
          (* no extractable kernel, hence no DSE to compare *)
          true
      | ex, kernel, _ ->
      let features = Analysis.Features.analyze ex ~kernel in
      let winners () =
        let u =
          Dse.Unroll_dse.run
            (Feat_fixtures.design ~target:Codegen.Design.Fpga_oneapi
               ~device_id:"arria10" ())
            features
        in
        let b =
          Dse.Blocksize_dse.run
            (Feat_fixtures.design ~target:Codegen.Design.Gpu_hip
               ~device_id:"gtx1080ti" ())
            features
        in
        let t =
          Dse.Threads_dse.run
            (Feat_fixtures.design ~target:Codegen.Design.Cpu_openmp
               ~device_id:"epyc7543" ())
            features
        in
        ( (u.chosen_factor, u.synthesizable, u.steps),
          (b.chosen_blocksize, b.steps),
          (t.chosen_threads, t.steps) )
      in
      let exhaustive = with_surrogate ~enabled:false winners in
      with_surrogate ~enabled:true (fun () ->
          let f0 = counter "surrogate_fallbacks" in
          let cold = winners () in
          let cold_fallbacks = counter "surrogate_fallbacks" - f0 in
          let warm = winners () in
          let warm_fallbacks = counter "surrogate_fallbacks" - f0 - cold_fallbacks in
          if cold <> exhaustive then
            QCheck.Test.fail_report "cold guided sweep diverges";
          if cold_fallbacks <> 3 then
            QCheck.Test.fail_reportf
              "cold model: expected every sweep to take the explicit \
               uncertain-fallback (3), got %d"
              cold_fallbacks;
          if warm <> exhaustive then
            QCheck.Test.fail_report "warm guided sweep diverges";
          if warm_fallbacks <> 0 then
            QCheck.Test.fail_reportf
              "warm model: expected no fallback, got %d" warm_fallbacks;
          true))

(* Full-flow identity per benchmark: the surrogate knob and every top-k
   width must be invisible in the flow's outcome; the warm top-1 pass
   must also clear the >= 10x simulate-call saving the bench gates. *)
let outcome_fingerprint (o : Psa.Std_flow.outcome) =
  List.map
    (fun (r : Devices.Simulate.result) ->
      ( r.design.name,
        r.design.unroll_factor,
        r.design.blocksize,
        r.design.num_threads,
        r.seconds,
        r.speedup,
        r.feasible ))
    o.results

let check_surrogate_identity (b : Benchmarks.Bench_app.t) () =
  let run () =
    let c0 = counter "dse_simulate_calls" in
    let fp =
      outcome_fingerprint
        (Psa.Std_flow.run_uninformed (Benchmarks.Bench_app.context b))
    in
    (fp, counter "dse_simulate_calls" - c0)
  in
  let off, off_calls = with_surrogate ~enabled:false run in
  List.iter
    (fun k ->
      let (cold, _), (warm, warm_calls) =
        with_surrogate ~enabled:true ~topk:k (fun () ->
            let cold = run () in
            let warm = run () in
            (cold, warm))
      in
      Alcotest.(check bool)
        (Printf.sprintf "top-%d cold = exhaustive" k)
        true (cold = off);
      Alcotest.(check bool)
        (Printf.sprintf "top-%d warm = exhaustive" k)
        true (warm = off);
      if k = 1 then
        Alcotest.(check bool)
          (Printf.sprintf
             "top-1 warm simulates >= 10x less (%d vs %d exhaustive calls)"
             warm_calls off_calls)
          true
          (warm_calls * 10 <= off_calls))
    [ 1; 4; 16 ]

let surrogate_tests =
  List.map
    (fun (b : Benchmarks.Bench_app.t) ->
      Alcotest.test_case
        (b.id ^ " on/off x topk identity")
        `Slow
        (check_surrogate_identity b))
    Benchmarks.Registry.all
  @ [ QCheck_alcotest.to_alcotest surrogate_winner_prop ]

let () =
  Alcotest.run "perf"
    [
      ( "cache",
        cache_tests
        @ [
            Alcotest.test_case "distinct ids, distinct entries" `Quick
              distinct_ids_distinct_entries;
            Alcotest.test_case "same program hits" `Quick same_program_hits;
          ] );
      ( "pool",
        [
          Alcotest.test_case "order preserved" `Quick pool_order;
          Alcotest.test_case "exceptions propagate" `Quick pool_exception;
          Alcotest.test_case "jobs override" `Quick pool_jobs_env;
        ] );
      ("fused", fused_tests);
      ("optimizer", opt_tests);
      ("engine", [ QCheck_alcotest.to_alcotest production_engine_prop ]);
      ("vm", vm_tests);
      ( "dse-parallel",
        [
          QCheck_alcotest.to_alcotest unroll_prop;
          QCheck_alcotest.to_alcotest blocksize_prop;
          QCheck_alcotest.to_alcotest threads_prop;
          Alcotest.test_case "uninformed flow fan-out" `Slow
            uninformed_parallel_identical;
        ] );
      ("surrogate", surrogate_tests);
    ]
