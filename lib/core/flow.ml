(** PSA-flow orchestration: branching task sequences with Path Selection
    Automation.

    A flow is a tree of tasks, sequences and branch points.  A branch
    point holds named paths and a selection strategy; running a branch
    duplicates the context into every selected path ("uninformed" mode
    selects all paths, producing every design; an "informed" PSA strategy
    selects one).  Selecting no path terminates the flow on that context
    without modification — Fig. 3's "design-flow terminates" outcome. *)

type selection =
  | All  (** uninformed: generate designs for every path *)
  | Paths of string list  (** informed: the chosen path(s) *)
  | Stop of string  (** terminate without offloading, with a reason *)

type t =
  | Task of Task.t
  | Seq of t list
  | Branch of branch_point

and branch_point = {
  bp_name : string;
  paths : (string * t) list;
  select : Context.t -> selection;
  strategy_label : string;  (** provenance: which strategy is plugged in *)
  evidence : (Context.t -> (string * Flow_obs.Attr.value) list) option;
      (** provenance: analysis facts the strategy consulted *)
}

(** Sequential composition. *)
let seq ts = Seq ts

let task t = Task t

(** A branch point with a PSA strategy.  [strategy_label] and [evidence]
    feed the decision-provenance record written to the context whenever
    the branch fires. *)
let branch ?(strategy_label = "custom") ?evidence bp_name ~select paths =
  Branch { bp_name; paths; select; strategy_label; evidence }

(** The uninformed strategy: take every path. *)
let select_all _ = All

exception Unknown_path of string * string

(** Provenance evidence of a branch point on a context; a failing
    evidence callback (analyses not run yet) yields no evidence rather
    than aborting the flow. *)
let branch_evidence bp ctx =
  match bp.evidence with
  | None -> []
  | Some f -> ( try f ctx with _ -> [])

(** Run a flow; returns the terminal contexts (one per reached leaf). *)
let rec run (flow : t) (ctx : Context.t) : Context.t list =
  match flow with
  | Task t ->
      Flow_obs.Trace.with_span ~cat:"task" t.Task.name
        ~args:
          [
            ( "class",
              Flow_obs.Attr.String
                (Task.classification_letter t.Task.classification) );
            ("dynamic", Flow_obs.Attr.Bool t.Task.dynamic);
          ]
      @@ fun () -> [ Task.apply t ctx ]
  | Seq fs ->
      Flow_obs.Trace.with_span ~cat:"flow" "seq"
        ~args:[ ("length", Flow_obs.Attr.Int (List.length fs)) ]
      @@ fun () ->
      List.fold_left
        (fun ctxs f -> List.concat_map (run f) ctxs)
        [ ctx ] fs
  | Branch bp ->
      Flow_obs.Trace.with_span ~cat:"branch" ("branch " ^ bp.bp_name)
      @@ fun () ->
      let selection = bp.select ctx in
      let decision =
        let evidence = branch_evidence bp ctx in
        match selection with
        | Stop reason ->
            {
              Flow_obs.Provenance.branch = bp.bp_name;
              strategy = bp.strategy_label;
              selected = [];
              reason = Some reason;
              evidence;
            }
        | All ->
            {
              Flow_obs.Provenance.branch = bp.bp_name;
              strategy = "uninformed";
              selected = List.map fst bp.paths;
              reason = None;
              evidence;
            }
        | Paths names ->
            {
              Flow_obs.Provenance.branch = bp.bp_name;
              strategy = bp.strategy_label;
              selected = names;
              reason = None;
              evidence;
            }
      in
      Flow_obs.Trace.add_args
        [
          ("strategy", Flow_obs.Attr.String decision.strategy);
          ( "selected",
            Flow_obs.Attr.String
              (Flow_obs.Provenance.selection_to_string decision) );
        ];
      Flow_obs.Metrics.incr Flow_obs.Metrics.global "flow_branch_decisions";
      let ctx = Context.record_decision decision ctx in
      (match selection with
      | Stop reason ->
          [ Context.logf ctx "branch %s: stop (%s)" bp.bp_name reason ]
      | All ->
          let ctx =
            Context.logf ctx "branch %s: uninformed, all %d paths" bp.bp_name
              (List.length bp.paths)
          in
          (* the uninformed fan-out explores every path: independent
             sub-flows, evaluated by the domain pool (order-preserving,
             so results are identical to the sequential traversal) *)
          List.concat
            (Flow_par.Pool.map
               (fun (name, f) ->
                 run f (Context.logf ctx "branch %s -> %s" bp.bp_name name))
               bp.paths)
      | Paths names ->
          let selected =
            List.map
              (fun name ->
                match List.assoc_opt name bp.paths with
                | None -> raise (Unknown_path (bp.bp_name, name))
                | Some f -> (name, f))
              names
          in
          List.concat
            (Flow_par.Pool.map
               (fun (name, f) ->
                 run f
                   (Context.logf ctx "branch %s: PSA selected %s" bp.bp_name
                      name))
               selected))

(** All tasks mentioned in a flow, in definition order (the "repository"
    listing of Fig. 4). *)
let rec tasks = function
  | Task t -> [ t ]
  | Seq fs -> List.concat_map tasks fs
  | Branch bp -> List.concat_map (fun (_, f) -> tasks f) bp.paths

(** Rewrite the selection strategy of the branch point named [name]
    (how the evaluation switches branch point A between informed and
    uninformed modes, and how users plug in custom strategies).
    [strategy_label] renames the provenance label of the replaced
    strategy (default ["custom"]); the evidence callback is kept, so
    custom strategies still surface the analysis facts in [explain]. *)
let rec override_selection ?(strategy_label = "custom") ~name ~select =
  function
  | Task t -> Task t
  | Seq fs ->
      Seq (List.map (override_selection ~strategy_label ~name ~select) fs)
  | Branch bp ->
      let paths =
        List.map
          (fun (n, f) -> (n, override_selection ~strategy_label ~name ~select f))
          bp.paths
      in
      if bp.bp_name = name then
        Branch { bp with paths; select; strategy_label }
      else Branch { bp with paths }
