(** Cross-request artifact memoization.

    The daemon's only reuse unit used to be the whole-result store: a
    resubmission with a different budget, strategy or workload size
    recomputed parse, extraction, analysis and DSE from zero even
    though most stages do not depend on the field that changed.  This
    module provides the shared machinery for build-system-style stage
    memoization: a content-addressed, sharded, capacity-bounded cache
    with single-flight computation, so concurrent scheduler domains
    asking for the same artifact run the stage once and everyone else
    waits for the result instead of duplicating it.

    Each stage (parsed AST, extracted kernel, reduced kernel, analysis
    features, compiled program, fused profile run, DSE sweep outcome)
    creates one ['a Cache.t] instance holding its typed artifacts;
    stage keys are digests of everything the stage output depends on
    (see DESIGN.md §18 for the key scheme per stage).

    Semantics and invariants:

    - Entries are returned by reference: cached artifacts must be
      treated as read-only.  All memoized stages store immutable
      values (MiniC ASTs carry no mutable fields; [Eval.run] profiles
      are treated as read-only by every consumer).
    - Eviction is true LRU: every hit re-stamps the entry, using a
      lazy-deletion stamp queue so hits cost O(1) amortized.
    - Caches whose artifacts would swallow trace spans (everything
      except the fused-profile stage, whose span structure predates
      this module) bypass themselves while the global tracer is
      recording, so a [--trace] run's span tree is byte-identical to
      an unmemoized run.
    - [PSAFLOW_NO_MEMO=1] disables every cache except those created
      with [~no_memo_exempt:true] (the fused-profile stage, which
      predates the hierarchy and is switched programmatically by
      [Profile_cache.set_enabled]), restoring pre-memoization behavior
      bit-for-bit.
    - [PSAFLOW_MEMO_CAP] (default 512) bounds each cache's entry
      count; [PSAFLOW_MEMO_SHARDS] (default 8) sets the lock-striping
      width.  Both follow the hardened {!Flow_obs.Env} grammar.

    Every cache mirrors its hit/miss/eviction/single-flight counters
    into {!Flow_obs.Metrics.global} as
    [<prefix>_hits]/[_misses]/[_evictions]/[_single_flight] (prefix
    [memo_<name>] by default), so the whole hierarchy is visible in
    [psaflow svc-metrics] and the bench reports. *)

let default_capacity = 512

let env_capacity () =
  Flow_obs.Env.int ~name:"PSAFLOW_MEMO_CAP" ~default:default_capacity ~min:1 ()

let env_shards () =
  Flow_obs.Env.int ~name:"PSAFLOW_MEMO_SHARDS" ~default:8 ~min:1 ()

(* Process-wide kill-switch: [PSAFLOW_NO_MEMO] at startup, overridable
   at runtime for tests and identity-comparison harnesses. *)
let globally_enabled =
  Atomic.make (not (Flow_obs.Env.flag ~name:"PSAFLOW_NO_MEMO" ()))

let set_globally_enabled b = Atomic.set globally_enabled b
let is_globally_enabled () = Atomic.get globally_enabled

module Cache = struct
  type stats = {
    hits : int;
    misses : int;
    evictions : int;
    single_flight : int;
  }

  type 'a entry = { value : 'a; mutable stamp : int }

  type 'a shard = {
    lock : Mutex.t;
    cond : Condition.t;
    table : (string, 'a entry) Hashtbl.t;
    inflight : (string, unit) Hashtbl.t;
    (* Lazy-deletion LRU: every insert and hit pushes (key, stamp);
       only the newest stamp of a key matches its entry, older stamps
       are skipped during eviction and squeezed out by compaction. *)
    stamps : (string * int) Queue.t;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable single_flight : int;
  }

  type 'a t = {
    name : string;
    metric_prefix : string;
    trace_bypass : bool;
    no_memo_exempt : bool;
    mutable capacity : int; (* total across shards *)
    mutable enabled : bool;
    shards : 'a shard array;
  }

  let make_shard () =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      table = Hashtbl.create 32;
      inflight = Hashtbl.create 4;
      stamps = Queue.create ();
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      single_flight = 0;
    }

  (** [create ~name ()] makes a stage cache.  [cap] defaults to
      [PSAFLOW_MEMO_CAP]; [shards] to [PSAFLOW_MEMO_SHARDS].
      [trace_bypass] (default true) computes fresh while the global
      tracer records so memo hits cannot swallow spans;
      [no_memo_exempt] (default false) opts the cache out of
      [PSAFLOW_NO_MEMO] (only the pre-existing fused-profile stage
      does this — it keeps its own kill-switch). *)
  let create ~name ?cap ?shards ?(trace_bypass = true)
      ?(no_memo_exempt = false) ?metric_prefix () : 'a t =
    let cap = match cap with Some c -> max 1 c | None -> env_capacity () in
    let n = match shards with Some s -> max 1 s | None -> env_shards () in
    {
      name;
      metric_prefix =
        (match metric_prefix with Some p -> p | None -> "memo_" ^ name);
      trace_bypass;
      no_memo_exempt;
      capacity = cap;
      enabled = true;
      shards = Array.init n (fun _ -> make_shard ());
    }

  let set_enabled t b = t.enabled <- b

  let set_capacity t c =
    if c < 1 then invalid_arg "Flow_memo.Cache.set_capacity: capacity >= 1";
    t.capacity <- c

  (** Whether a lookup right now would consult the table at all. *)
  let active t =
    t.enabled
    && (t.no_memo_exempt || Atomic.get globally_enabled)
    && not (t.trace_bypass && Flow_obs.Trace.is_enabled ())

  let gincr name = Flow_obs.Metrics.incr Flow_obs.Metrics.global name

  let shard_of t key =
    let n = Array.length t.shards in
    if n = 1 then t.shards.(0) else t.shards.(Hashtbl.hash key mod n)

  let per_shard_cap t =
    let n = Array.length t.shards in
    max 1 ((t.capacity + n - 1) / n)

  (* All [_locked] helpers run with the shard lock held. *)

  let touch_locked sh key (e : 'a entry) =
    sh.clock <- sh.clock + 1;
    e.stamp <- sh.clock;
    Queue.push (key, sh.clock) sh.stamps

  let compact_locked sh =
    if Queue.length sh.stamps > (8 * Hashtbl.length sh.table) + 64 then begin
      let live =
        Queue.fold
          (fun acc (k, s) ->
            match Hashtbl.find_opt sh.table k with
            | Some e when e.stamp = s -> (k, s) :: acc
            | _ -> acc)
          [] sh.stamps
      in
      Queue.clear sh.stamps;
      List.iter (fun ks -> Queue.push ks sh.stamps) (List.rev live)
    end

  let evict_excess_locked t sh =
    let cap = per_shard_cap t in
    let evicted = ref 0 in
    while Hashtbl.length sh.table > cap && not (Queue.is_empty sh.stamps) do
      let k, s = Queue.pop sh.stamps in
      match Hashtbl.find_opt sh.table k with
      | Some e when e.stamp = s ->
          Hashtbl.remove sh.table k;
          sh.evictions <- sh.evictions + 1;
          incr evicted
      | _ -> () (* stale stamp: the key was re-touched or removed *)
    done;
    !evicted

  (** [find_or_compute t ~key f] returns the cached artifact for [key]
      or computes it with [f] exactly once process-wide: a concurrent
      request for an in-flight key blocks until the computing domain
      publishes (single-flight).  [f] runs outside the shard lock.  An
      exception from [f] is re-raised to the computing caller and
      unblocks the waiters, which retry (nothing is cached, so error
      paths behave exactly as without memoization).  [on] (if given)
      observes the outcome: [true] for a hit — including a
      single-flight wait — [false] for a computing miss; it is not
      called when the cache is bypassed. *)
  let find_or_compute (t : 'a t) ?on ~key (f : unit -> 'a) : 'a =
    if not (active t) then f ()
    else begin
      let sh = shard_of t key in
      let report b = match on with Some g -> g b | None -> () in
      let rec acquire ~waited =
        match Hashtbl.find_opt sh.table key with
        | Some e ->
            touch_locked sh key e;
            sh.hits <- sh.hits + 1;
            `Hit e.value
        | None ->
            if Hashtbl.mem sh.inflight key then begin
              if not waited then sh.single_flight <- sh.single_flight + 1;
              Condition.wait sh.cond sh.lock;
              acquire ~waited:true
            end
            else begin
              Hashtbl.replace sh.inflight key ();
              sh.misses <- sh.misses + 1;
              `Compute
            end
      in
      Mutex.lock sh.lock;
      let outcome = acquire ~waited:false in
      Mutex.unlock sh.lock;
      match outcome with
      | `Hit v ->
          gincr (t.metric_prefix ^ "_hits");
          report true;
          v
      | `Compute -> (
          gincr (t.metric_prefix ^ "_misses");
          report false;
          match f () with
          | v ->
              Mutex.lock sh.lock;
              Hashtbl.remove sh.inflight key;
              if not (Hashtbl.mem sh.table key) then begin
                sh.clock <- sh.clock + 1;
                Hashtbl.replace sh.table key { value = v; stamp = sh.clock };
                Queue.push (key, sh.clock) sh.stamps;
                compact_locked sh
              end;
              let evicted = evict_excess_locked t sh in
              Condition.broadcast sh.cond;
              Mutex.unlock sh.lock;
              for _ = 1 to evicted do
                gincr (t.metric_prefix ^ "_evictions")
              done;
              v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Mutex.lock sh.lock;
              Hashtbl.remove sh.inflight key;
              Condition.broadcast sh.cond;
              Mutex.unlock sh.lock;
              Printexc.raise_with_backtrace e bt)
    end

  (** Whether [key] is resident (tests; does not touch LRU order). *)
  let mem t key =
    let sh = shard_of t key in
    Mutex.lock sh.lock;
    let r = Hashtbl.mem sh.table key in
    Mutex.unlock sh.lock;
    r

  let length t =
    Array.fold_left
      (fun acc sh ->
        Mutex.lock sh.lock;
        let n = Hashtbl.length sh.table in
        Mutex.unlock sh.lock;
        acc + n)
      0 t.shards

  (** Drop all entries (keeps counters; in-flight computations finish
      and publish into the emptied table). *)
  let clear t =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        Hashtbl.reset sh.table;
        Queue.clear sh.stamps;
        Mutex.unlock sh.lock)
      t.shards

  let stats t : stats =
    Array.fold_left
      (fun (acc : stats) sh ->
        Mutex.lock sh.lock;
        let r =
          {
            hits = acc.hits + sh.hits;
            misses = acc.misses + sh.misses;
            evictions = acc.evictions + sh.evictions;
            single_flight = acc.single_flight + sh.single_flight;
          }
        in
        Mutex.unlock sh.lock;
        r)
      { hits = 0; misses = 0; evictions = 0; single_flight = 0 }
      t.shards

  let reset_stats t =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        sh.hits <- 0;
        sh.misses <- 0;
        sh.evictions <- 0;
        sh.single_flight <- 0;
        Mutex.unlock sh.lock)
      t.shards
end
