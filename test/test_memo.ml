(** Tests for the cross-request stage-memo hierarchy (lib/memo and its
    wiring): byte-identity of memoized vs unmemoized flows over
    generated MiniC programs, memo hits under the global tracer,
    single-flight dedup under concurrent domains, and LRU
    capacity/eviction accounting. *)

module Protocol = Flow_service.Protocol
module Flow_exec = Flow_service.Flow_exec
module Json = Flow_service.Json
module Cache = Flow_memo.Cache
module Trace = Flow_obs.Trace
module Metrics = Flow_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Property: memo-on == memo-off, byte for byte                        *)
(* ------------------------------------------------------------------ *)

(* Small extractable kernels (array-writing for-loop in [main], the
   shape {!Analysis.Hotspot} extracts), varied in size, constants and
   body shape so each qcheck case exercises distinct stage keys. *)
let gen_source =
  QCheck.Gen.(
    let body c1 c2 = function
      | 0 -> Printf.sprintf "b[i] = a[i] * %d.0 + %d.0;" c2 c1
      | 1 -> Printf.sprintf "b[i] = (a[i] + %d.0) * %d.0;" c1 c2
      | _ -> Printf.sprintf "b[i] = a[i] * a[i] + %d.0 * %d.0;" c1 c2
    in
    map
      (fun ((n, shape), (c1, c2)) ->
        Printf.sprintf
          "int main() {\n\
          \  double a[%d];\n\
          \  double b[%d];\n\
          \  for (int i = 0; i < %d; i++) { %s }\n\
          \  return 0;\n\
           }"
          n n n
          (body c1 c2 shape))
      (pair (pair (int_range 8 48) (int_range 0 2)) (pair (int_range 0 99) (int_range 1 9))))

let arb_source = QCheck.make ~print:(fun s -> s) gen_source

(* The parameter variants replayed against each generated source: the
   default plus two that change strategy/mode/x-threshold (distinct
   store keys, shared stage keys). *)
let variant_subs src =
  [
    Protocol.submission (Protocol.Inline src);
    Protocol.submission ~strategy:Protocol.Model_perf (Protocol.Inline src);
    Protocol.submission ~mode:Protocol.Uninformed ~x_threshold:1.0
      (Protocol.Inline src);
  ]

let exec sub =
  match Flow_exec.resolve sub with
  | Error _ -> None
  | Ok { Flow_exec.run; _ } ->
      let r = run ~request_id:None () in
      Some
        ( r.Protocol.report,
          Flow_load.Runner.canonicalize_sids (Json.to_string r.Protocol.data)
        )

let prop_memo_identity =
  QCheck.Test.make ~count:8 ~name:"memo-on == memo-off byte-identically"
    arb_source (fun src ->
      Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
      @@ fun () ->
      List.for_all
        (fun sub ->
          (* reference: the unmemoized engine *)
          Flow_memo.set_globally_enabled false;
          let reference = exec sub in
          Flow_memo.set_globally_enabled true;
          (* first memoized submission populates the stage caches,
             repeats serve from them; all three must match the
             reference bytes (after sid canonicalization — each
             memo-off execution re-parses) *)
          let cold = exec sub in
          let warm = exec sub in
          match (reference, cold, warm) with
          | Some r, Some c, Some w -> c = r && w = r
          | _ -> false)
        (variant_subs src))

(* ------------------------------------------------------------------ *)
(* Tracing records the memoized execution, never changes it            *)
(* ------------------------------------------------------------------ *)

(* Hits of every stage cache, profile stage included. *)
let stage_hits () =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | Metrics.Counter n
        when String.ends_with ~suffix:"_hits" name
             && (String.starts_with ~prefix:"memo_" name
                || String.starts_with ~prefix:"profile_cache" name) ->
          acc + n
      | _ -> acc)
    0
    (Metrics.snapshot Metrics.global)

let interp_runs () = Metrics.counter_value Metrics.global "interp_runs"

(* Warm a paper source through [Flow_exec], then run an untraced
   strategy variant of it (a store miss sharing every stage key);
   returns the variant's (stage hits, interpreter runs) deltas.  With
   [~traced] the global tracer records both jobs, as it does while a
   traced daemon submission runs beside untraced ones. *)
let variant_deltas ~traced =
  Helpers.cold_memos ();
  if traced then Trace.start ();
  Fun.protect ~finally:Trace.stop @@ fun () ->
  ignore (exec (Protocol.submission (Protocol.Bench "bezier")));
  let hits0 = stage_hits () and runs0 = interp_runs () in
  ignore
    (exec
       (Protocol.submission ~strategy:Protocol.Model_perf
          (Protocol.Bench "bezier")));
  (stage_hits () - hits0, interp_runs () - runs0)

(* outcome of each [memo.*] instant of the global export, in order *)
let memo_outcomes () =
  match Json.member "traceEvents" (Json.parse (Trace.export ~normalize:true ())) with
  | Some (Json.List evs) ->
      List.filter_map
        (fun ev ->
          match
            ( Json.member "cat" ev,
              Option.bind (Json.member "args" ev) (Json.member "outcome") )
          with
          | Some (Json.String "memo"), Some (Json.String o) -> Some o
          | _ -> None)
        evs
  | _ -> Alcotest.fail "export is not a Chrome trace document"

let test_tracer_keeps_memo () =
  let idle_hits, idle_runs = variant_deltas ~traced:false in
  let traced_hits, traced_runs = variant_deltas ~traced:true in
  check "variant hits the stage memo" true (idle_hits > 0);
  check_int "variant re-runs no interpreter" 0 idle_runs;
  check_int "same stage hits with the tracer recording" idle_hits traced_hits;
  check_int "same interpreter runs with the tracer recording" idle_runs
    traced_runs;
  match memo_outcomes () with
  | "miss" :: rest -> check "a later lookup hits" true (List.mem "hit" rest)
  | _ -> Alcotest.fail "trace does not open with a memo miss"

(* ------------------------------------------------------------------ *)
(* Single-flight dedup under concurrent domains                        *)
(* ------------------------------------------------------------------ *)

let test_single_flight () =
  let c : int Cache.t = Cache.create ~name:"sf_test" ~shards:1 ~cap:8 () in
  let computes = Atomic.make 0 in
  let started = Atomic.make 0 in
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* all four domains request the key together, so three of
               them find it in flight *)
            Atomic.incr started;
            while Atomic.get started < 4 do
              Domain.cpu_relax ()
            done;
            Cache.find_or_compute c ~key:"k" (fun () ->
                Atomic.incr computes;
                Unix.sleepf 0.05;
                42)))
  in
  let vs = Array.map Domain.join doms in
  Array.iter (fun v -> check_int "value" 42 v) vs;
  check_int "computed exactly once" 1 (Atomic.get computes);
  let s = Cache.stats c in
  check_int "one miss" 1 s.Cache.misses;
  check_int "three hits" 3 s.Cache.hits;
  check "waiters recorded" true (s.Cache.single_flight >= 1)

let test_single_flight_exception () =
  let c : int Cache.t = Cache.create ~name:"sf_exc_test" ~shards:1 () in
  (* a failing compute caches nothing and unblocks retries *)
  (match Cache.find_or_compute c ~key:"k" (fun () -> failwith "boom") with
  | exception Failure m -> check "exception propagates" true (m = "boom")
  | _ -> Alcotest.fail "expected the compute exception");
  check "nothing cached after failure" false (Cache.mem c "k");
  check_int "retry computes fresh" 7
    (Cache.find_or_compute c ~key:"k" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* LRU capacity and eviction accounting                                *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let c : string Cache.t = Cache.create ~name:"lru_test" ~shards:1 ~cap:2 () in
  let v k = Cache.find_or_compute c ~key:k (fun () -> k) in
  ignore (v "a");
  ignore (v "b");
  ignore (v "a");
  (* "a" was touched after "b": inserting "c" must evict "b" (true
     LRU), not "a" (FIFO would evict the older insert) *)
  ignore (v "c");
  check "a survives (recently used)" true (Cache.mem c "a");
  check "c resident" true (Cache.mem c "c");
  check "b evicted (least recently used)" false (Cache.mem c "b");
  check_int "length at capacity" 2 (Cache.length c);
  let s = Cache.stats c in
  check_int "one eviction" 1 s.Cache.evictions;
  check_int "one hit (the touch)" 1 s.Cache.hits;
  check_int "three misses" 3 s.Cache.misses;
  (* shrinking the capacity takes effect on the next insert *)
  Cache.set_capacity c 1;
  ignore (v "d");
  check_int "shrunk to new capacity" 1 (Cache.length c);
  check "survivor is the newest" true (Cache.mem c "d")

let test_global_switch () =
  let c : int Cache.t = Cache.create ~name:"switch_test" ~shards:1 () in
  Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
  @@ fun () ->
  Flow_memo.set_globally_enabled false;
  let computes = ref 0 in
  let v () =
    Cache.find_or_compute c ~key:"k" (fun () ->
        incr computes;
        !computes)
  in
  ignore (v ());
  ignore (v ());
  check_int "disabled memo computes every time" 2 !computes;
  check "disabled memo caches nothing" false (Cache.mem c "k");
  Flow_memo.set_globally_enabled true;
  ignore (v ());
  ignore (v ());
  check_int "re-enabled memo computes once more" 3 !computes

let () =
  Alcotest.run "memo"
    [
      ( "identity",
        [ QCheck_alcotest.to_alcotest ~long:false prop_memo_identity ] );
      ( "trace",
        [
          Alcotest.test_case "untraced variant keeps its hits under the tracer"
            `Quick test_tracer_keeps_memo;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "4 domains, one compute" `Quick test_single_flight;
          Alcotest.test_case "exception unblocks waiters" `Quick
            test_single_flight_exception;
        ] );
      ( "lru",
        [
          Alcotest.test_case "tick-on-hit eviction order" `Quick
            test_lru_eviction;
          Alcotest.test_case "global kill-switch" `Quick test_global_switch;
        ] );
    ]
