(* In-process execution through the public flow APIs, and the
   correctness oracle every measured operation is checked against. *)

module Protocol = Flow_service.Protocol
module Flow_exec = Flow_service.Flow_exec
module Json = Flow_service.Json

(* What the oracle needs of a result: digests only, so a run holds no
   result text and the benchmark's own memory stays flat. *)
type digests = {
  report : string;  (** of the report text *)
  full : string;  (** of [canon] of the result *)
  stripped : string;  (** of [canon] without the surrogate's records *)
}

type outcome = Done of digests | Rejected | Failed

(* One measured operation.  The daemon-only fields stay at their
   defaults for in-process operations. *)
type sample = {
  op : Ops.op;
  ms : float;  (** from submit to the final outcome *)
  outcome : outcome;
  polls : int;  (** fetch requests sent *)
  exec_ms : float option;  (** the daemon's own execution wall *)
  fresh : bool;  (** the daemon executed it (not a store hit) *)
}

let sample op ~ms outcome =
  { op; ms; outcome; polls = 0; exec_ms = None; fresh = false }

(* ------------------------------------------------------------------ *)
(* Paper flows                                                         *)
(* ------------------------------------------------------------------ *)

let task_cat (t : Psa.Task.t) =
  if t.name = Psa.Std_flow.Repository.finalize.name then "devices"
  else
    match t.classification with
    | Psa.Task.Analysis_task -> if t.dynamic then "analysis.dynamic" else "analysis.static"
    | Psa.Task.Transform -> "transforms"
    | Psa.Task.Code_generation -> "codegen"
    | Psa.Task.Optimisation -> if String.ends_with ~suffix:"DSE" t.name then "dse" else "transforms"

(* Every task of the public flow tree wrapped in a span, and every
   branch point's strategy and provenance evidence too: together with
   parsing they are all the flow calls out of lib/core. *)
let rec wrap ~rid (f : Psa.Flow.t) : Psa.Flow.t =
  let span cat name g x = Spans.with_span ~rid ~cat name (fun () -> g x) in
  match f with
  | Psa.Flow.Task t -> Psa.Flow.Task { t with run = span (task_cat t) t.name t.run }
  | Psa.Flow.Seq fs -> Psa.Flow.Seq (List.map (wrap ~rid) fs)
  | Psa.Flow.Branch bp ->
      Psa.Flow.Branch
        { bp with
          paths = List.map (fun (n, f) -> (n, wrap ~rid f)) bp.paths;
          select = span "core.branch" bp.bp_name bp.select;
          evidence = Option.map (span "core.branch" bp.bp_name) bp.evidence }

(* A cold uninformed flow of a paper benchmark from never-seen source
   text: what [psaflow run BENCH --uninformed] does, with the source
   parsed and typechecked here so those layers get their own spans.
   Returns the report exactly as the CLI prints it. *)
let paper_flow (app : Benchmarks.Bench_app.t) ~nonce =
  let rid = "paper." ^ app.id ^ "." ^ nonce in
  let parse n =
    let src = Ops.with_nonce nonce (app.source ~n) in
    let p =
      Spans.with_span ~rid ~cat:"minic.parse" "parse" (fun () ->
          Minic.Parser.parse_program src)
    in
    Spans.with_span ~rid ~cat:"minic.typecheck" "typecheck" (fun () ->
        Minic.Typecheck.check_program p);
    p
  in
  Spans.with_span ~rid ~cat:"op" app.id @@ fun () ->
  let p1 = parse app.profile_n in
  let p2 = parse app.secondary_n in
  let ctx =
    Psa.Context.make ~benchmark:app.id ~profile_n:app.profile_n
      ~secondary:(app.secondary_n, p2) ~eval_n:app.eval_n p1
  in
  let flow = Psa.Std_flow.flow ~select_a:Psa.Flow.select_all () in
  let flow = if !Spans.enabled then wrap ~rid flow else flow in
  let outcome = Psa.Std_flow.run_flow flow ctx in
  Spans.with_span ~rid ~cat:"report" "render" (fun () -> Flow_exec.render_report outcome.results)

(* Digest of each paper benchmark's uninformed report at this commit.
   A change that alters a modelled number must update these on
   purpose. *)
let pinned =
  [
    ("rush_larsen", "5b28661f337d58ddc0328ba11935275b");
    ("nbody", "c9b8b1d1113141d6d08ab34a6d551972");
    ("bezier", "cc27be4059f3074d8bb7f3a7b33d133f");
    ("adpredictor", "8be4be04f5238ed96184818d13897263");
    ("kmeans", "bcc9b932a637c9ddb4c490be0c4fae3e");
  ]

let report_digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Submissions executed in process                                     *)
(* ------------------------------------------------------------------ *)

(* What a daemon worker does with a submission, minus scheduler, store
   and protocol: resolve (parse, typecheck, key), then run the flow. *)
let exec (sub : Protocol.submission) =
  match Flow_exec.resolve sub with
  | Error _ -> Error `Rejected
  | Ok r -> ( match r.run ~request_id:None () with jr -> Ok jr | exception _ -> Error `Failed)

(* The reference configurations: every memo cache and the profile cache
   off, and the surrogate too unless [surrogate]. *)
let in_reference_mode ~surrogate f =
  Flow_memo.set_globally_enabled false;
  Minic_interp.Profile_cache.set_enabled false;
  if not surrogate then Flow_surrogate.Surrogate.set_enabled (Some false);
  Fun.protect f ~finally:(fun () ->
      Flow_memo.set_globally_enabled true;
      Minic_interp.Profile_cache.set_enabled true;
      Flow_surrogate.Surrogate.set_enabled None)

(* Result bytes with the process-global statement ids canonicalized
   (the only bytes that depend on how many programs a process parsed
   before). *)
let canon (jr : Protocol.job_result) =
  Flow_load.Runner.canonicalize_sids (jr.report ^ "\n" ^ Json.to_string jr.data)

(* The surrogate adds its own [branch D.*] records to [explain]; a run
   with the surrogate off has none. *)
let strip_surrogate (jr : Protocol.job_result) : Protocol.job_result =
  let not_d = function
    | Json.Obj fields -> (
        match List.assoc_opt "branch" fields with
        | Some (Json.String b) -> not (String.starts_with ~prefix:"D." b)
        | _ -> true)
    | _ -> true
  in
  let data =
    match jr.data with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "explain", Json.List ds -> (k, Json.List (List.filter not_d ds))
               | _ -> (k, v))
             fields)
    | d -> d
  in
  { jr with data }

let digests (jr : Protocol.job_result) =
  { report = report_digest jr.report;
    full = Digest.string (canon jr);
    stripped = Digest.string (canon (strip_surrogate jr)) }

type reference = { memo_off : string; surrogate_off : string }

(* References for every healthy ref_key seen, from the first
   submission carrying it.  Two oracles: memo off (byte-identical,
   surrogate provenance included) and memo plus surrogate off
   (byte-identical once the surrogate's provenance records are
   dropped).  In-process paper flows are checked against [pinned]
   instead. *)
let references ~in_process (samples : sample list) : (string, reference option) Hashtbl.t =
  let subs = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let healthy =
        match s.op.kind with
        | Ops.Cold | Ops.Variant | Ops.Repeat -> true
        | Ops.Paper _ -> not in_process
        | Ops.Fail | Ops.Reject -> false
      in
      if healthy && not (Hashtbl.mem subs s.op.ref_key) then Hashtbl.replace subs s.op.ref_key s.op.sub)
    samples;
  let out = Hashtbl.create 32 in
  Hashtbl.iter
    (fun key sub ->
      let run () = Result.to_option (exec sub) in
      let memo_off = in_reference_mode ~surrogate:true run in
      let surrogate_off = in_reference_mode ~surrogate:false run in
      Hashtbl.replace out key
        (match (memo_off, surrogate_off) with
        | Some a, Some b ->
            Some { memo_off = Digest.string (canon a);
                   surrogate_off = Digest.string (canon (strip_surrogate b)) }
        | _ -> None))
    subs;
  out

(* Whether one sample's outcome is the expected one.  Failing programs
   must end rejected or failed; the error text is not inspected. *)
let correct ~in_process refs (s : sample) =
  let matches d =
    match Hashtbl.find_opt refs s.op.ref_key with
    | Some (Some r) -> d.full = r.memo_off && d.stripped = r.surrogate_off
    | _ -> false
  in
  match (s.op.kind, s.outcome) with
  | Ops.Paper id, Done d when in_process -> List.assoc_opt id pinned = Some d.report
  | (Ops.Paper _ | Ops.Cold | Ops.Variant | Ops.Repeat), Done d -> matches d
  | (Ops.Fail | Ops.Reject), (Rejected | Failed) -> true
  | _ -> false
