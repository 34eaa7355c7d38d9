(** Bridge between the service protocol and the flow engine: resolves a
    {!Protocol.submission} into a content-address, a display label and a
    thunk running [Psa.Std_flow] — with MiniC/benchmark problems mapped
    to typed protocol errors at submit time, before anything enqueues.

    Also owns the canonical textual report renderer so the daemon's
    [fetch_result] payload is byte-identical to what the [psaflow run]
    CLI prints for the same flow. *)

type resolved = {
  key : string;  (** {!Store} content address of the execution *)
  label : string;  (** benchmark id, or ["inline"] *)
  run : request_id:string option -> unit -> Protocol.job_result;
      (** executes the flow under a root span carrying [request_id], so
          a request trace names its originating request end-to-end; the
          id never enters [key], so identical work still coalesces *)
}

(* ------------------------------------------------------------------ *)
(* Report rendering (shared with bin/psaflow.ml)                       *)
(* ------------------------------------------------------------------ *)

(** Exactly the bytes [psaflow run] prints after its header line. *)
let render_report (results : Devices.Simulate.result list) : string =
  let table = Format.asprintf "@.%a" Psa.Report.pp_results results in
  let best =
    match Psa.Report.best results with
    | Some b -> Format.asprintf "@.best: %s (%.1fx)@." b.design.name b.speedup
    | None -> Format.asprintf "@.no feasible design@."
  in
  table ^ best

(* JSON has no nan/infinity: a non-finite float (an infeasible design's
   time and speedup, an unbounded piece of evidence) is served as its
   display string, so every payload encodes. *)
let float_json f : Json.t =
  if Float.is_finite f then Json.Float f
  else Json.String (Flow_obs.Attr.to_display (Flow_obs.Attr.Float f))

let attr_json (v : Flow_obs.Attr.value) : Json.t =
  match v with
  | Flow_obs.Attr.Bool b -> Json.Bool b
  | Flow_obs.Attr.Int i -> Json.Int i
  | Flow_obs.Attr.Float f -> float_json f
  | Flow_obs.Attr.String s -> Json.String s

let decision_json (d : Flow_obs.Provenance.decision) : Json.t =
  Json.Obj
    ([
       ("branch", Json.String d.branch);
       ("strategy", Json.String d.strategy);
       ("selected", Json.List (List.map (fun p -> Json.String p) d.selected));
     ]
    @ (match d.reason with
      | Some r -> [ ("reason", Json.String r) ]
      | None -> [])
    @ [
        ( "evidence",
          Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) d.evidence) );
      ])

(** The decision provenance of an outcome, as served in the [explain]
    field of job results ([psaflow explain] renders the same records). *)
let decisions_json (outcome : Psa.Std_flow.outcome) : Json.t =
  Json.List
    (List.map decision_json (Psa.Context.collect_decisions outcome.contexts))

let result_json (r : Devices.Simulate.result) : Json.t =
  Json.Obj
    [
      ("name", Json.String r.design.name);
      ( "device",
        Json.String (Devices.Spec.name (Devices.Spec.find r.design.device_id)) );
      ("target", Json.String (Codegen.Design.target_framework r.design.target));
      ("seconds", float_json r.seconds);
      ("speedup", float_json r.speedup);
      ("feasible", Json.Bool r.feasible);
      ("synthesizable", Json.Bool r.design.synthesizable);
    ]

let outcome_json ~label (s : Protocol.submission)
    (outcome : Psa.Std_flow.outcome) : Json.t =
  Json.Obj
    [
      ("label", Json.String label);
      ("mode", Json.String (Protocol.mode_to_string s.mode));
      ("strategy", Json.String (Protocol.strategy_to_string s.strategy));
      ("designs", Json.List (List.map result_json outcome.results));
      ( "best",
        match Psa.Report.best outcome.results with
        | Some b -> Json.String b.design.name
        | None -> Json.Null );
      ("log", Json.List (List.map (fun l -> Json.String l) outcome.log));
      ("explain", decisions_json outcome);
    ]

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let objective_of_strategy = function
  | Protocol.Model_perf -> Some Psa.Strategy.Performance
  | Protocol.Model_cost -> Some Psa.Strategy.Monetary_cost
  | Protocol.Model_energy -> Some Psa.Strategy.Energy
  | Protocol.Fig3 -> None

let run_outcome (s : Protocol.submission) (ctx : Psa.Context.t) =
  match (s.mode, objective_of_strategy s.strategy) with
  | Protocol.Uninformed, _ ->
      (* uninformed mode takes every path; the strategy never fires *)
      Psa.Std_flow.run_uninformed ~x_threshold:s.x_threshold ctx
  | Protocol.Informed, None ->
      Psa.Std_flow.run_informed ~x_threshold:s.x_threshold ?budget:s.budget ctx
  | Protocol.Informed, Some objective ->
      Psa.Std_flow.run_flow
        (Psa.Std_flow.flow ~select_a:(Psa.Strategy.model_based ~objective) ())
        { ctx with x_threshold = s.x_threshold; budget = s.budget }

(* The span tracer is one process-wide instance; traced jobs therefore
   serialize on this mutex so each exported trace covers exactly one
   job.  Untraced jobs are unaffected (they run concurrently and record
   nothing while the tracer is idle; a job running concurrently with a
   traced one contributes spans distinguished by thread id). *)
let trace_mutex = Mutex.create ()

(** Resolve a submission.  Benchmark lookup and inline MiniC
    parsing/typechecking happen here so the errors surface immediately
    as typed responses; the returned [run] thunk only re-executes work
    already known to succeed up to flow level. *)
let resolve (s : Protocol.submission) : (resolved, Protocol.error_kind) result =
  let make ~label ~source ~workload (mk_ctx : unit -> Psa.Context.t) =
    let workload = if s.trace then workload ^ ";trace" else workload in
    let key =
      Store.key ~source
        ~mode:(Protocol.mode_to_string s.mode)
        ~strategy:(Protocol.strategy_to_string s.strategy)
        ~x_threshold:s.x_threshold ~budget:s.budget ~workload
    in
    let root_args request_id =
      match request_id with
      | Some r -> [ ("request_id", Flow_obs.Attr.String r) ]
      | None -> []
    in
    let plain_run ~request_id () =
      let outcome =
        Flow_obs.Trace.with_span ~cat:"service" ("job " ^ label)
          ~args:(root_args request_id) (fun () -> run_outcome s (mk_ctx ()))
      in
      {
        Protocol.report = render_report outcome.results;
        data = outcome_json ~label s outcome;
      }
    in
    (* The traced path embeds the exported global trace in the job
       result, whose bytes are identity-checked against direct
       re-execution — so the request id must NOT appear in its spans
       (the request-trace record carries the id instead). *)
    let traced_run ~request_id:_ () =
      Mutex.lock trace_mutex;
      Fun.protect ~finally:(fun () ->
          Flow_obs.Trace.stop ();
          Mutex.unlock trace_mutex)
      @@ fun () ->
      Flow_obs.Trace.start ();
      let outcome =
        Flow_obs.Trace.with_span ~cat:"service" ("job " ^ label) (fun () ->
            run_outcome s (mk_ctx ()))
      in
      Flow_obs.Trace.stop ();
      let trace = Json.parse (Flow_obs.Trace.export ~normalize:true ()) in
      let data =
        match outcome_json ~label s outcome with
        | Json.Obj fields -> Json.Obj (fields @ [ ("trace", trace) ])
        | j -> j
      in
      { Protocol.report = render_report outcome.results; data }
    in
    { key; label; run = (if s.trace then traced_run else plain_run) }
  in
  match s.source with
  | Protocol.Bench id -> (
      match Benchmarks.Registry.find id with
      | app ->
          Ok
            (make ~label:id
               ~source:(app.source ~n:app.profile_n)
               ~workload:
                 (Printf.sprintf "bench;profile=%d;secondary=%d;eval=%d"
                    app.profile_n app.secondary_n app.eval_n)
               (fun () ->
                 Benchmarks.Bench_app.context ~x_threshold:s.x_threshold
                   ?budget:s.budget app))
      | exception Invalid_argument _ -> Error (Protocol.Unknown_benchmark id))
  | Protocol.Inline src -> (
      (* validation and context construction share one memoized parse:
         variant submissions of the same source observe the same AST
         objects (and statement ids), which is what lets every
         downstream stage cache hit across requests *)
      match Psa.Stage_memo.parse src with
      | exception Minic.Lexer.Lex_error (m, loc) ->
          Error
            (Protocol.Minic_parse_error
               (Format.asprintf "%s at %a" m Minic.Loc.pp_short loc))
      | exception Minic.Parser.Parse_error (m, loc) ->
          Error
            (Protocol.Minic_parse_error
               (Format.asprintf "%s at %a" m Minic.Loc.pp_short loc))
      | program -> (
          match Minic.Typecheck.check_program program with
          | exception Minic.Typecheck.Type_error (m, loc) ->
              Error
                (Protocol.Minic_type_error
                   (Format.asprintf "%s at %a" m Minic.Loc.pp_short loc))
          | () ->
              Ok
                (make ~label:"inline" ~source:src ~workload:"inline"
                   (fun () ->
                     Psa.Context.make ~benchmark:"inline"
                       ~x_threshold:s.x_threshold ?budget:s.budget
                       (Psa.Stage_memo.parse src)))))
