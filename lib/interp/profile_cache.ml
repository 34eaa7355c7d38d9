(** Shared profile cache — the fused-profile stage of the memo
    hierarchy.

    Every dynamic design-flow task (hotspot detection, trip counts, data
    in/out, alias analysis, feature extraction) observes a program
    through one fused profiling execution ({!Fused_profile}); this
    module memoizes those runs so all consumers of the same request
    share one execution process-wide.  Since the stage-memo hierarchy
    ({!Flow_memo}) made parse/extract/reduce artifacts stable across
    requests, the same entries are also shared across daemon
    submissions: a variant request (same source, different budget or
    strategy) re-uses the profile runs of the first request.

    Keying.  The key is exactly the fused request [(program, workload,
    focus)]: a digest of the pretty-printed source, the pre-order list
    of loop statement ids, and the focus function name.  Loop ids must
    be part of the key because the profile's per-loop trip statistics
    are keyed by them: two structurally equal programs whose loops carry
    different ids need distinct entries.  Program variants that differ
    textually (e.g. timer-instrumented copies) hash differently from the
    bare program, while re-running the *same* variant hits.  The
    workload size [n] needs no dedicated key component: it is baked into
    the program text.

    Entries are returned by reference; treat cached {!Eval.run} values
    (and their profiles) as read-only.

    The store is a single-shard {!Flow_memo.Cache}: misses are
    single-flight (concurrent domains asking for the same run block on
    one execution instead of duplicating it) and eviction is true LRU —
    every hit re-stamps the entry.  Capacity is bounded by
    [PSAFLOW_MEMO_CAP] (default 512 entries).  This stage is exempt
    from [PSAFLOW_NO_MEMO] (it predates the hierarchy, and
    disabling it would not restore pre-memoization behavior — it would
    regress it).  Hit/miss/eviction counts are mirrored into the
    process-wide metrics registry ({!Flow_obs.Metrics.global}) as
    [profile_cache_hits]/[profile_cache_misses]/
    [profile_cache_evictions], and every cache consultation is a trace
    span carrying its [hit] outcome.

    A second cache level backs the misses: compiled programs (slot IR
    resolved, optimized, bytecode lowered) are memoized per
    (program digest, optimizer fingerprint) so a profile-stage miss
    that only differs in [focus] — or arrives after an eviction — skips
    resolve/optimize/lower and pays only the interpreter run.  The
    compile stage follows the normal hierarchy rules: it honors
    [PSAFLOW_NO_MEMO] and bypasses itself under the global tracer so
    traced runs keep their [interp.compile] spans. *)

(* Single shard on purpose: the interpreter run happens outside the
   shard lock, so striping buys nothing here, and one shard keeps the
   LRU eviction order (and the eviction counter) globally exact — the
   accounting the capacity tests pin down. *)
let cache : Eval.run Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"profile" ~metric_prefix:"profile_cache"
    ~shards:1 ~trace_bypass:false ~no_memo_exempt:true ()

let compile_cache : Eval.compiled Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"compile" ()

(** Change the profile-stage entry bound (initially [PSAFLOW_MEMO_CAP]).
    Takes effect on the next insertion. *)
let set_capacity c =
  if c < 1 then invalid_arg "Profile_cache.set_capacity: capacity must be >= 1";
  Flow_memo.Cache.set_capacity cache c

(** Turn the cache off (analyses fall back to fresh runs) or back on. *)
let set_enabled b = Flow_memo.Cache.set_enabled cache b

(** Drop all entries — profile runs and memoized compiles — keeping
    the hit/miss/eviction counters. *)
let clear () =
  Flow_memo.Cache.clear cache;
  Flow_memo.Cache.clear compile_cache

type snapshot = { hits : int; misses : int; evictions : int }

(** Cumulative profile-stage counts since start or {!reset_stats}. *)
let stats () =
  let s = Flow_memo.Cache.stats cache in
  {
    hits = s.Flow_memo.Cache.hits;
    misses = s.Flow_memo.Cache.misses;
    evictions = s.Flow_memo.Cache.evictions;
  }

let reset_stats () = Flow_memo.Cache.reset_stats cache

let key ?focus (p : Minic.Ast.program) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Minic.Pretty.program_to_string p);
  Buffer.add_char buf '\000';
  Minic.Ast.iter_program
    ~fs:(fun s ->
      match s.snode with
      | For _ | While _ ->
          Buffer.add_string buf (string_of_int s.sid);
          Buffer.add_char buf ';'
      | _ -> ())
    p;
  (match focus with
  | Some f ->
      Buffer.add_char buf '#';
      Buffer.add_string buf f
  | None -> ());
  Digest.string (Buffer.contents buf)

(** Like {!Eval.compile}, but memoized per (program digest, optimizer
    fingerprint), with the bytecode forced so the value is safe to share
    across domains.  Only the no-[vm_profile] compile is
    cacheable — exactly the one {!Eval.run} performs. *)
let compile (p : Minic.Ast.program) : Eval.compiled =
  let k =
    Printf.sprintf "%s|opt=%b" (Digest.to_hex (key p)) (Opt.is_enabled ())
  in
  Flow_memo.Cache.find_or_compute compile_cache ~key:k (fun () ->
      let c = Eval.compile p in
      Eval.force_engines c;
      c)

(** Like {!Eval.run}, but memoized.  Only the default fuel budget is
    cacheable; callers that restrict fuel must use {!Eval.run}
    directly. *)
let run ?focus (p : Minic.Ast.program) : Eval.run =
  if not (Flow_memo.Cache.active cache) then Eval.run ?focus p
  else
    Flow_obs.Trace.with_span ~cat:"interp" "profile_cache.run" @@ fun () ->
    let k = key ?focus p in
    Flow_memo.Cache.find_or_compute cache ~key:k
      ~on:(fun hit ->
        Flow_obs.Trace.add_args [ ("hit", Flow_obs.Attr.Bool hit) ])
      (fun () -> Eval.run_compiled ?focus (compile p))
