(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation section and reports paper-vs-measured side by side.

    - Fig. 5: hotspot speedups of all five generated designs per
      benchmark, plus the informed Auto-Selected result;
    - Table I: added lines of code per generated design;
    - Fig. 6: relative FPGA-vs-GPU cost across resource price ratios and
      the crossover points;
    - Table II: qualitative comparison of design approaches;
    - an ablation of the PSA strategy's X threshold;
    - bechamel micro-benchmarks (one [Test.make] per experiment, timing
      the regeneration of each table from the profiled features, plus
      toolchain micro-benchmarks).

    Usage: [main.exe] runs everything; [main.exe fig5|table1|fig6|table2|
    ablation|micro] runs one part.

    Perf-history plumbing (see [scripts/perf_gate.sh]):
    [main.exe history-append [--quick]] appends the current
    [BENCH_psaflow.json] numbers as one commit-keyed datapoint to
    [BENCH_history.jsonl]; [main.exe gate-history [--quick]] gates
    them against the rolling median of the recent comparable
    history (exit 1 on regression). *)

(* ------------------------------------------------------------------ *)
(* Data collection: one uninformed flow per benchmark                  *)
(* ------------------------------------------------------------------ *)

type collected = {
  app : Benchmarks.Bench_app.t;
  reference : Minic.Ast.program;
  features : Analysis.Features.t;  (** at evaluation scale *)
  results : Devices.Simulate.result list;  (** all five designs, timed *)
  decision : Psa.Strategy.explanation;  (** branch point A, informed *)
}

let collect_one (app : Benchmarks.Bench_app.t) : collected =
  let ctx = Benchmarks.Bench_app.context app in
  let outcome = Psa.Std_flow.run_uninformed ctx in
  let c0 =
    match outcome.contexts with
    | c :: _ -> c
    | [] -> failwith "flow produced no context"
  in
  {
    app;
    reference = ctx.Psa.Context.reference;
    features = Psa.Context.eval_features_exn c0;
    results = outcome.results;
    decision = Psa.Strategy.fig3_explain c0;
  }

let collected : collected list Lazy.t =
  lazy
    (Flow_par.Pool.map
       (fun (app : Benchmarks.Bench_app.t) ->
         Printf.eprintf "profiling %s...\n%!" app.id;
         collect_one app)
       Benchmarks.Registry.all)

let find_result (c : collected) name =
  List.find_opt
    (fun (r : Devices.Simulate.result) -> r.design.name = name)
    c.results

let speedup_of (c : collected) name =
  match find_result c name with
  | Some r when r.feasible -> Some r.speedup
  | _ -> None

let seconds_of (c : collected) name =
  match find_result c name with
  | Some r when r.feasible -> Some r.seconds
  | _ -> None

(** The Auto-Selected result: fastest design on the informed target. *)
let auto_selected (c : collected) : Devices.Simulate.result option =
  let target =
    match c.decision.decision with
    | Psa.Strategy.Cpu_path -> Some Codegen.Design.Cpu_openmp
    | Psa.Strategy.Gpu_path -> Some Codegen.Design.Gpu_hip
    | Psa.Strategy.Fpga_path -> Some Codegen.Design.Fpga_oneapi
    | Psa.Strategy.No_offload _ -> None
  in
  match target with
  | None -> None
  | Some t ->
      Psa.Report.best
        (List.filter
           (fun (r : Devices.Simulate.result) -> r.design.target = t)
           c.results)

(* ------------------------------------------------------------------ *)
(* Fig. 5                                                              *)
(* ------------------------------------------------------------------ *)

let opt_x = function Some v -> Printf.sprintf "%.1f" v | None -> "n/a"

let fig5_rows () =
  List.map
    (fun (c : collected) ->
      let auto = auto_selected c in
      ( c,
        [
          Option.map (fun (r : Devices.Simulate.result) -> r.speedup) auto;
          speedup_of c "omp_epyc7543";
          speedup_of c "hip_gtx1080ti";
          speedup_of c "hip_rtx2080ti";
          speedup_of c "oneapi_arria10";
          speedup_of c "oneapi_stratix10";
        ] ))
    (Lazy.force collected)

let print_fig5 () =
  print_endline "";
  print_endline
    "== Fig. 5: hotspot speedups vs single-thread CPU (measured | paper) ==";
  Printf.printf "%-13s %13s %13s %13s %13s %13s %13s\n" "benchmark" "Auto"
    "OMP" "HIP 1080Ti" "HIP 2080Ti" "oneAPI A10" "oneAPI S10";
  List.iter
    (fun ((c : collected), cells) ->
      let paper =
        List.find
          (fun (r : Paper_data.fig5_row) -> r.bench = c.app.id)
          Paper_data.fig5
      in
      let paper_auto =
        (* the paper's Auto bar equals the best bar of the winning family *)
        List.fold_left
          (fun acc v -> match v with Some x -> Float.max acc x | None -> acc)
          0.0
          [ paper.omp; paper.hip_1080; paper.hip_2080; paper.oneapi_a10;
            paper.oneapi_s10 ]
      in
      let cell measured paper =
        Printf.sprintf "%s|%s" (opt_x measured) (Paper_data.opt_str paper)
      in
      match cells with
      | [ auto; omp; g1; g2; a10; s10 ] ->
          Printf.printf "%-13s %13s %13s %13s %13s %13s %13s\n" c.app.id
            (cell auto (Some paper_auto))
            (cell omp paper.omp) (cell g1 paper.hip_1080)
            (cell g2 paper.hip_2080) (cell a10 paper.oneapi_a10)
            (cell s10 paper.oneapi_s10)
      | _ -> ())
    (fig5_rows ());
  (* the paper's headline claim: the informed strategy picks the winner *)
  print_endline "";
  List.iter
    (fun ((c : collected), _) ->
      let best = Psa.Report.best c.results in
      let auto = auto_selected c in
      let ok =
        match (best, auto) with
        | Some b, Some a -> b.design.target = a.design.target
        | _ -> false
      in
      Printf.printf "  %-13s informed strategy -> %-16s %s\n" c.app.id
        (Psa.Strategy.decision_to_string c.decision.decision)
        (if ok then "(= best target; matches the paper)"
         else "(MISMATCH with the best uninformed design!)"))
    (fig5_rows ())

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1_cells (c : collected) =
  let delta name =
    match find_result c name with
    | Some r when r.design.synthesizable ->
        Some (Codegen.Design.loc_delta_percent ~reference:c.reference r.design)
    | _ -> None
  in
  let omp = delta "omp_epyc7543" in
  let hip1 = delta "hip_gtx1080ti" in
  let hip2 = delta "hip_rtx2080ti" in
  let a10 = delta "oneapi_arria10" in
  let s10 = delta "oneapi_stratix10" in
  let total =
    match (omp, hip1, hip2, a10, s10) with
    | Some a, Some b, Some b', Some d, Some e -> Some (a +. b +. b' +. d +. e)
    | _ -> None
  in
  (omp, hip1, a10, s10, total)

let print_table1 () =
  print_endline "";
  print_endline
    "== Table I: added LOC per design, % of reference (measured | paper) ==";
  Printf.printf "%-13s %6s %14s %14s %14s %14s %16s\n" "benchmark" "ref" "OMP"
    "HIP" "oneAPI A10" "oneAPI S10" "total (5)";
  List.iter
    (fun (c : collected) ->
      let omp, hip, a10, s10, total = table1_cells c in
      let paper =
        List.find
          (fun (r : Paper_data.table1_row) -> r.t1_bench = c.app.id)
          Paper_data.table1
      in
      let cell m p =
        Printf.sprintf "%s|%s"
          (match m with Some v -> Printf.sprintf "+%.0f%%" v | None -> "n/a")
          (match p with Some v -> Printf.sprintf "+%.0f%%" v | None -> "n/a")
      in
      Printf.printf "%-13s %6d %14s %14s %14s %14s %16s\n" c.app.id
        (Minic.Loc_count.count_program c.reference)
        (cell omp paper.t1_omp) (cell hip paper.t1_hip)
        (cell a10 paper.t1_a10) (cell s10 paper.t1_s10)
        (cell total paper.t1_total))
    (Lazy.force collected)

(* ------------------------------------------------------------------ *)
(* Fig. 6                                                              *)
(* ------------------------------------------------------------------ *)

let fig6_apps = [ "adpredictor"; "bezier"; "kmeans" ]

let print_fig6 () =
  print_endline "";
  print_endline
    "== Fig. 6: relative cost, Stratix10 CPU+FPGA vs 2080 Ti CPU+GPU ==";
  print_endline
    "   (cost ratio = FPGA cost / GPU cost; < 1 means the FPGA platform is";
  print_endline "    more cost effective at that price ratio)";
  let ratios = [ 0.25; 1.0 /. 3.0; 0.5; 1.0; 2.0; 3.0; 4.0 ] in
  Printf.printf "%-13s" "FPGA$/GPU$:";
  List.iter (fun r -> Printf.printf "%9.2f" r) ratios;
  Printf.printf "%12s %s\n" "crossover" "(paper)";
  List.iter
    (fun id ->
      match
        List.find_opt (fun (c : collected) -> c.app.id = id) (Lazy.force collected)
      with
      | None -> ()
      | Some c -> (
          match
            (seconds_of c "oneapi_stratix10", seconds_of c "hip_rtx2080ti")
          with
          | Some t_f, Some t_g ->
              Printf.printf "%-13s" id;
              List.iter
                (fun pr ->
                  Printf.printf "%9.2f"
                    (Psa.Cost.relative_cost ~price_ratio:pr ~seconds_a:t_f
                       ~seconds_b:t_g))
                ratios;
              let crossover =
                Psa.Cost.breakeven_ratio ~seconds_a:t_f ~seconds_b:t_g
              in
              Printf.printf "%12.2f %s\n" crossover
                (match List.assoc_opt id Paper_data.fig6_crossovers with
                | Some p -> Printf.sprintf "(%.1f)" p
                | None -> "(not in the paper)")
          | _ -> Printf.printf "%-13s (FPGA design not available)\n" id))
    fig6_apps

(* ------------------------------------------------------------------ *)
(* Ablation: the X threshold of the Fig. 3 strategy                    *)
(* ------------------------------------------------------------------ *)

let print_ablation () =
  print_endline "";
  print_endline
    "== Ablation: PSA strategy decisions as the FLOPs/B threshold X sweeps ==";
  let xs = [ 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  Printf.printf "%-13s %10s" "benchmark" "FLOPs/B";
  List.iter (fun x -> Printf.printf "  X=%-7.1f" x) xs;
  print_newline ();
  List.iter
    (fun (c : collected) ->
      Printf.printf "%-13s %10.2f" c.app.id
        (Analysis.Features.offload_intensity c.features);
      List.iter
        (fun x ->
          let ctx =
            {
              (Benchmarks.Bench_app.context c.app) with
              Psa.Context.features = Some c.features;
              eval_features = Some c.features;
              x_threshold = x;
            }
          in
          let e = Psa.Strategy.fig3_explain ctx in
          let short =
            match e.Psa.Strategy.decision with
            | Psa.Strategy.Cpu_path -> "cpu"
            | Psa.Strategy.Gpu_path -> "gpu"
            | Psa.Strategy.Fpga_path -> "fpga"
            | Psa.Strategy.No_offload _ -> "stop"
          in
          Printf.printf "  %-9s" short)
        xs;
      print_newline ())
    (Lazy.force collected)

(* ------------------------------------------------------------------ *)
(* Strategy comparison: Fig. 3 heuristic vs model-based PSA            *)
(* ------------------------------------------------------------------ *)

let print_strategies () =
  print_endline "";
  print_endline
    "== Branch-point A strategies: Fig. 3 heuristic vs model-based PSA ==";
  Printf.printf "%-13s %12s %16s %16s %16s\n" "benchmark" "fig3"
    "model(perf)" "model(cost)" "model(energy)";
  List.iter
    (fun (c : collected) ->
      let base =
        {
          (Benchmarks.Bench_app.context c.app) with
          Psa.Context.features = Some c.features;
          eval_features = Some c.features;
          kernel = Some c.features.Analysis.Features.kernel;
        }
      in
      let show sel =
        match sel with
        | Psa.Flow.Paths [ p ] -> p
        | Psa.Flow.Paths ps -> String.concat "+" ps
        | Psa.Flow.All -> "all"
        | Psa.Flow.Stop _ -> "stop"
      in
      (* the model-based probes need the extracted program; reuse the
         features-only context (the probes read features, not source) *)
      Printf.printf "%-13s %12s %16s %16s %16s\n" c.app.id
        (show (Psa.Strategy.fig3 base))
        (show (Psa.Strategy.model_based ~objective:Psa.Strategy.Performance base))
        (show (Psa.Strategy.model_based ~objective:Psa.Strategy.Monetary_cost base))
        (show (Psa.Strategy.model_based ~objective:Psa.Strategy.Energy base)))
    (Lazy.force collected)

(* ------------------------------------------------------------------ *)
(* Energy (Section IV-D's suggested extension)                         *)
(* ------------------------------------------------------------------ *)

let print_energy () =
  print_endline "";
  print_endline
    "== Energy: joules per run and the most energy-efficient platform ==";
  Printf.printf "%-13s %12s %12s %12s %12s %12s %16s\n" "benchmark" "OMP"
    "HIP 1080Ti" "HIP 2080Ti" "oneAPI A10" "oneAPI S10" "most efficient";
  List.iter
    (fun (c : collected) ->
      let joules name =
        match find_result c name with
        | Some r when r.feasible -> Some (Psa.Cost.energy_of_result r)
        | _ -> None
      in
      let cells =
        List.map
          (fun n -> (n, joules n))
          [
            "omp_epyc7543"; "hip_gtx1080ti"; "hip_rtx2080ti"; "oneapi_arria10";
            "oneapi_stratix10";
          ]
      in
      let best =
        List.fold_left
          (fun acc (n, j) ->
            match (acc, j) with
            | Some (_, bj), Some v when v >= bj -> acc
            | _, Some v -> Some (n, v)
            | _, None -> acc)
          None cells
      in
      let fmt = function
        | Some j when j >= 1.0 -> Printf.sprintf "%.3g J" j
        | Some j -> Printf.sprintf "%.3g mJ" (1000.0 *. j)
        | None -> "n/a"
      in
      Printf.printf "%-13s %12s %12s %12s %12s %12s %16s\n" c.app.id
        (fmt (snd (List.nth cells 0)))
        (fmt (snd (List.nth cells 1)))
        (fmt (snd (List.nth cells 2)))
        (fmt (snd (List.nth cells 3)))
        (fmt (snd (List.nth cells 4)))
        (match best with Some (n, _) -> n | None -> "n/a"))
    (Lazy.force collected)

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let print_table2 () =
  print_endline "";
  print_endline "== Table II: comparison of design approaches ==";
  Format.printf "%a" Psa.Report.pp_table2 ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let data = Lazy.force collected in
  let nbody =
    List.find (fun c -> c.app.Benchmarks.Bench_app.id = "nbody") data
  in
  let kmeans =
    List.find (fun c -> c.app.Benchmarks.Bench_app.id = "kmeans") data
  in
  let src = nbody.app.source ~n:64 in
  let parsed = Minic.Parser.parse_program src in
  let gpu_design =
    List.find
      (fun (r : Devices.Simulate.result) -> r.design.name = "hip_rtx2080ti")
      nbody.results
  in
  let fpga_design =
    List.find
      (fun (r : Devices.Simulate.result) -> r.design.name = "oneapi_stratix10")
      kmeans.results
  in
  [
    (* one Test.make per table/figure: time regenerating it from the
       profiled features *)
    Test.make ~name:"fig5_regenerate"
      (Staged.stage (fun () ->
           List.iter
             (fun c ->
               List.iter
                 (fun (r : Devices.Simulate.result) ->
                   ignore (Devices.Simulate.run r.design c.features))
                 c.results)
             data));
    Test.make ~name:"table1_regenerate"
      (Staged.stage (fun () ->
           List.iter
             (fun c ->
               List.iter
                 (fun (r : Devices.Simulate.result) ->
                   ignore
                     (Codegen.Design.loc_delta ~reference:c.reference r.design))
                 c.results)
             data));
    Test.make ~name:"fig6_regenerate"
      (Staged.stage (fun () ->
           List.iter
             (fun pr ->
               ignore
                 (Psa.Cost.relative_cost ~price_ratio:pr ~seconds_a:1.0
                    ~seconds_b:2.0))
             [ 0.25; 0.5; 1.0; 2.0; 4.0 ]));
    Test.make ~name:"table2_regenerate"
      (Staged.stage (fun () ->
           ignore (Format.asprintf "%a" Psa.Report.pp_table2 ())));
    (* toolchain micro-benchmarks *)
    Test.make ~name:"minic_parse_nbody"
      (Staged.stage (fun () -> ignore (Minic.Parser.parse_program src)));
    Test.make ~name:"minic_pretty_nbody"
      (Staged.stage (fun () -> ignore (Minic.Pretty.program_to_string parsed)));
    Test.make ~name:"query_outermost_loops"
      (Staged.stage (fun () ->
           ignore
             Artisan.Query.(stmts ~where:(is_for &&& is_outermost_loop) parsed)));
    Test.make ~name:"dependence_analysis"
      (Staged.stage (fun () ->
           ignore (Analysis.Dependence.analyze_function parsed "main")));
    Test.make ~name:"gpu_model_eval"
      (Staged.stage (fun () ->
           ignore
             (Devices.Gpu_model.time Devices.Spec.rtx2080ti gpu_design.design
                nbody.features)));
    Test.make ~name:"fpga_model_eval"
      (Staged.stage (fun () ->
           ignore
             (Devices.Fpga_model.time Devices.Spec.stratix10 fpga_design.design
                kmeans.features)));
    Test.make ~name:"blocksize_dse"
      (Staged.stage (fun () ->
           ignore (Dse.Blocksize_dse.run gpu_design.design nbody.features)));
    Test.make ~name:"unroll_dse"
      (Staged.stage (fun () ->
           ignore (Dse.Unroll_dse.run fpga_design.design kmeans.features)));
  ]

let run_bechamel () =
  print_endline "";
  print_endline "== bechamel micro-benchmarks (ns per run, OLS estimate) ==";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let est = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ t ] -> Printf.printf "  %-24s %12.1f ns/run\n" name t
          | _ -> Printf.printf "  %-24s (no estimate)\n" name)
        est)
    (List.map
       (fun t -> Test.make_grouped ~name:"" ~fmt:"%s%s" [ t ])
       (bechamel_tests ()))

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match what with
  | "fig5" -> print_fig5 ()
  | "table1" -> print_table1 ()
  | "fig6" -> print_fig6 ()
  | "table2" -> print_table2 ()
  | "ablation" -> print_ablation ()
  | "energy" -> print_energy ()
  | "strategies" -> print_strategies ()
  | "micro" -> run_bechamel ()
  | "perf" ->
      Perf.run
        ~quick:(Array.exists (fun a -> a = "--quick") Sys.argv)
        ()
  | "svc-load" ->
      let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
      let variants =
        (* --mix variants selects the variant-traffic leg *)
        let rec find i =
          if i + 1 >= Array.length Sys.argv then false
          else if Sys.argv.(i) = "--mix" then Sys.argv.(i + 1) = "variants"
          else find (i + 1)
        in
        find 2
      in
      if variants then Svc_load.run_variants ~quick ()
      else Svc_load.run ~quick ()
  | "history-append" ->
      let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
      let d = Report_file.history_append ~quick () in
      Printf.printf "history: appended %d metrics at commit %s (%s) to %s\n"
        (List.length d.Flow_service.Perf_history.metrics)
        d.Flow_service.Perf_history.commit
        (if quick then "quick" else "full")
        Report_file.history_path
  | "gate-history" ->
      let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
      if not (Report_file.history_gate ~quick ()) then exit 1
  | _ ->
      print_fig5 ();
      print_table1 ();
      print_fig6 ();
      print_table2 ();
      print_ablation ();
      print_strategies ();
      print_energy ();
      run_bechamel ());
  print_endline ""
