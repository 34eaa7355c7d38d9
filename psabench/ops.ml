(* Workload operations: the MiniC sources, the submissions made from
   them, and the seeded rounds each workload replays.

   Every cycle of rounds of a workload (see [cycle]) is the same
   multiset of operations.  The seed
   only decides their order and the nonce comment that makes each
   cold or failing source text never-seen (a new source digest misses
   every content-addressed cache keyed on it). *)

module Protocol = Flow_service.Protocol

type kind =
  | Paper of string  (** one of the paper's five benchmarks *)
  | Cold  (** never-seen template source, default parameters *)
  | Variant  (** the same source again under new parameters *)
  | Repeat  (** the exact cold submission again *)
  | Fail  (** runs, then faults after a fixed amount of work *)
  | Reject  (** parse or type error: refused at submit *)

let kind_name = function
  | Paper _ -> "paper"
  | Cold -> "cold"
  | Variant -> "variant"
  | Repeat -> "repeat"
  | Fail -> "fail"
  | Reject -> "reject"

type op = {
  kind : kind;
  sub : Protocol.submission;
  ref_key : string;
      (** ops with equal [ref_key] must produce the same result modulo
          the nonce comment and statement ids *)
  nonce : string;
}

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)
(* ------------------------------------------------------------------ *)

(* Five extractable kernels (an array-writing hotspot loop in [main]),
   one per loop shape the paper's programs use, each at a size whose
   cold daemon flow takes a distinct 5-50 ms.  Five equal groups put
   the pooled p50 in the middle of the third kernel's costs and the
   p90 in the middle of the fifth's, away from a group boundary. *)
let templates : (string * string) array =
  [|
    ( "map",
      {|int main() {
  int n = 3400;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < n; i++) {
      b[i] = ((a[i] * 1.5 + 3.0) * 0.875 + a[i] * 0.25) * 1.0625 + 2.0;
    }
  }
  return 0;
}|} );
    ( "stencil",
      {|int main() {
  int n = 20000;
  double a[n];
  double b[n];
  for (int i = 0; i < n; i++) { a[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int i = 1; i < n - 1; i++) {
      b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
    }
  }
  return 0;
}|} );
    ( "matvec",
      {|int main() {
  int n = 152;
  int m = 152;
  double w[n * m];
  double x[m];
  double y[n];
  for (int i = 0; i < n * m; i++) { w[i] = rand01(); }
  for (int j = 0; j < m; j++) { x[j] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < n; i++) {
      double s = 0.0;
      for (int j = 0; j < m; j++) { s += w[i * m + j] * x[j]; }
      y[i] = s;
    }
  }
  return 0;
}|} );
    ( "gates",
      {|int main() {
  int n = 16000;
  double v[n];
  double g[n];
  for (int i = 0; i < n; i++) { v[i] = 0.0 - 80.0 + 40.0 * rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < n; i++) {
      double am = 0.32 * (v[i] + 47.0) / (1.0 - exp(0.0 - 0.1 * (v[i] + 47.0)));
      double bm = 0.08 * exp(0.0 - v[i] / 11.0);
      double tau = 1.0 / (am + bm);
      g[i] = am * tau + (g[i] - am * tau) * exp(0.0 - 0.02 / tau);
    }
  }
  return 0;
}|} );
    ( "nbody",
      {|int main() {
  int n = 288;
  double px[n];
  double py[n];
  double fx[n];
  for (int i = 0; i < n; i++) { px[i] = rand01(); py[i] = rand01(); }
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < n; i++) {
      double f = 0.0;
      for (int j = 0; j < n; j++) {
        double dx = px[j] - px[i];
        double dy = py[j] - py[i];
        f += dx / sqrt(dx * dx + dy * dy + 0.01);
      }
      fx[i] = f;
    }
  }
  return 0;
}|} );
  |]

(* Failing programs: a fixed amount of loop work, then an
   out-of-bounds access or an integer division by zero.  The work
   sizes spread the failure costs over five groups like the
   templates; the largest is the loop that runs for tens of ms before
   it faults. *)
let failing : (string * string) array =
  let oob n =
    Printf.sprintf
      {|int main() {
  int n = %d;
  double a[n];
  for (int i = 0; i <= n; i++) { a[i] = 0.5 * a[i] + 1.0; }
  return 0;
}|}
      n
  in
  let div0 n =
    Printf.sprintf
      {|int main() {
  int n = %d;
  int z = 0;
  double a[n];
  for (int i = 0; i < n; i++) { a[i] = 0.5 * a[i] + 1.0; z = z * 1; }
  int q = n / z;
  return q;
}|}
      n
  in
  [|
    ("oob-small", oob 4_000);
    ("div0-small", div0 30_000);
    ("oob-medium", oob 20_000);
    ("div0-large", div0 120_000);
    ("slow-loop", oob 300_000);
  |]

let rejected : (string * string) array =
  [|
    ("parse-error", "int main( {\n  return 0;\n}");
    ("type-error", "int main() {\n  x = 1;\n  return 0;\n}");
  |]

(* Parameters of variant [k]: each differs from the cold default
   (informed, fig3, x=2.0, no budget), so every variant is a new
   result-store key.  The budget sits far above any simulated cost, so
   it varies the key without triggering the over-budget revision. *)
let variant_params =
  [|
    (Protocol.Informed, Protocol.Fig3, 1.0, None);
    (Protocol.Informed, Protocol.Model_perf, 2.0, None);
    (Protocol.Uninformed, Protocol.Fig3, 2.0, None);
    (Protocol.Informed, Protocol.Fig3, 2.0, Some 1.0e6);
    (Protocol.Informed, Protocol.Model_cost, 4.0, None);
  |]

(* The template whose cold submission is repeated, twice per round: one
   program, so the repeat median never falls between two programs of
   different cost (in process, with the memo off, a repeat costs a whole
   flow).  Stencil is the middle one by cost. *)
let repeated = 1

let paper_ids =
  List.map (fun (b : Benchmarks.Bench_app.t) -> b.id) Benchmarks.Registry.all

let with_nonce nonce src = Printf.sprintf "// psabench %s\n%s" nonce src

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

type workload = Cold_flows | Daemon_variants | Daemon_faults

let workload_of_string = function
  | "cold_flows" -> Some Cold_flows
  | "daemon_variants" -> Some Daemon_variants
  | "daemon_faults" -> Some Daemon_faults
  | _ -> None

(* One generator per (seed, round): the stdlib's seeding mixes both, so
   the orders of consecutive rounds are unrelated draws. *)
let rng ~seed ~round = Random.State.make [| seed; round |]

let roll r bound = Random.State.int r bound

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = roll r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The groups of one round.  Ops inside a group keep their order
   (a variant or repeat follows its cold submission); the seed
   interleaves the groups.

   The template round is the same on every workload: each template
   cold, then one variant (template [k] under parameter set [k]), and
   one cold repeated twice.  Paper programs run cold and in process on
   cold_flows.  The daemon workloads send each by benchmark id with
   default parameters (what [psaflow submit BENCH] sends) to a daemon
   that executed them at set-up, so each is a store hit: a known source
   again, counted in svc-load's hot share.

   Per daemon_variants round, against svc-load's mix in
   lib/load/workload.ml:
   - hot 60%: 5 paper store hits, 5 variants, 2 repeats (12 of 20);
   - cold 25%: 5 colds;
   - poison 10% + batch storms 5%: 2 failing programs and 1 rejected
     source (3 of 20), cycling through both sets.
   cold_flows runs the same template round in process next to its five
   paper flows, with every failing program and rejected source once: a
   pass then holds equal groups of failing programs, as a cycle of
   daemon_variants rounds does.  daemon_faults adds as many failing ops
   as healthy ones (17): every failing program three times and both
   rejected sources. *)
let groups w ~round ~nonce : op list list =
  let fresh = ref 0 in
  let next_nonce () =
    incr fresh;
    Printf.sprintf "%s.%d.%d" nonce round !fresh
  in
  let inline src = Protocol.submission (Protocol.Inline src) in
  let paper =
    List.map
      (fun id ->
        let sub = Protocol.submission (Protocol.Bench id) and ref_key = "paper:" ^ id in
        match w with
        | Cold_flows -> [ { kind = Paper id; sub; ref_key; nonce = next_nonce () } ]
        | Daemon_variants | Daemon_faults -> [ { kind = Paper id; sub; ref_key; nonce = "" } ])
      paper_ids
  in
  let template k (name, src) =
    let nonce = next_nonce () in
    let src = with_nonce nonce src in
    let cold = inline src in
    let p = k mod Array.length variant_params in
    let mode, strategy, x_threshold, budget = variant_params.(p) in
    let variant =
      { kind = Variant;
        sub = Protocol.submission ~mode ~strategy ~x_threshold ?budget (Protocol.Inline src);
        ref_key = Printf.sprintf "variant:%s:%d" name p;
        nonce }
    in
    [ { kind = Cold; sub = cold; ref_key = "cold:" ^ name; nonce }; variant ]
    @ if k = repeated then List.init 2 (fun _ -> { kind = Repeat; sub = cold; ref_key = "cold:" ^ name; nonce })
      else []
  in
  let fail ~times (name, src) =
    let nonce = next_nonce () in
    let sub = inline (with_nonce nonce src) in
    List.init times (fun _ -> { kind = Fail; sub; ref_key = "fail:" ^ name; nonce })
  in
  let reject (name, src) =
    let nonce = next_nonce () in
    [ { kind = Reject; sub = inline (with_nonce nonce src);
        ref_key = "reject:" ^ name; nonce } ]
  in
  let templates = List.mapi template (Array.to_list templates) in
  let fails, rejects =
    match w with
    | Cold_flows -> (List.map (fail ~times:1) (Array.to_list failing), List.map reject (Array.to_list rejected))
    | Daemon_variants ->
        let n = Array.length failing in
        ( [ fail ~times:1 failing.(2 * round mod n); fail ~times:1 failing.(((2 * round) + 1) mod n) ],
          [ reject rejected.(round mod Array.length rejected) ] )
    | Daemon_faults ->
        ( List.map (fail ~times:3) (Array.to_list failing),
          List.map reject (Array.to_list rejected) )
  in
  paper @ templates @ fails @ rejects

(* Interleave groups into one op sequence, keeping each group's order. *)
let interleave r (gs : op list list) : op list =
  let gs = Array.of_list (List.filter (fun g -> g <> []) gs) in
  let out = ref [] in
  let live = ref (Array.length gs) in
  while !live > 0 do
    let i = roll r !live in
    match gs.(i) with
    | [] -> assert false
    | [ op ] ->
        out := op :: !out;
        gs.(i) <- gs.(!live - 1);
        decr live
    | op :: rest ->
        out := op :: !out;
        gs.(i) <- rest
  done;
  List.rev !out

(* Split a round's groups over [clients] connections: shuffled, then
   dealt round-robin, so each client's share is a seeded draw and every
   group stays on one connection (a repeat never coalesces with its own
   in-flight cold submission). *)
let deal r ~clients (gs : op list list) : op list array =
  let a = Array.of_list gs in
  shuffle r a;
  let per = Array.make clients [] in
  Array.iteri (fun i g -> per.(i mod clients) <- g :: per.(i mod clients)) a;
  Array.map (fun gs -> interleave r (List.rev gs)) per

(* Rounds after which a workload has sent the same multiset again:
   daemon_variants cycles its poison programs over ten.  Traced and
   untraced phases compare whole cycles. *)
let cycle = function
  | Daemon_variants -> Array.length failing * Array.length rejected
  | Cold_flows | Daemon_faults -> 1

(* Rounds between two host-speed calibrations (see Calib), about a
   second of traffic each. *)
let segment = function Cold_flows -> 1 | Daemon_variants -> 5 | Daemon_faults -> 2
