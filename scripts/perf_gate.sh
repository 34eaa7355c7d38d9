#!/bin/sh
# Perf-regression gate: run the quick perf bench and the quick daemon
# replay (same code paths as the full runs, reduced repetitions), then
# gate the fresh numbers against the *rolling median* of recent runs
# recorded in BENCH_history.jsonl — one noisy datapoint can neither
# fail the gate by itself nor poison the baseline for later runs.
#
# Fails when:
#   - any outputs_identical check in the fresh BENCH_psaflow.json is
#     false (a VM run, optimizer pass, flow leg or a daemon result
#     diverged from the reference bytes), or
#   - a gated metric regressed against the rolling median of the last
#     K comparable (quick-scale, other-commit) history entries:
#       interp.bytecode.mcycles_per_s   >= 70% of median
#       dse.simulate_call_reduction     >= 90% of median
#       service.throughput_rps          >= 50% of median
#       service.p99_ms                  <= 4x median
#     (K = PSAFLOW_HISTORY_K, default 5, min 3.)
#   - the guided-DSE simulate-call saving falls below its hard 10x
#     floor (call counts are deterministic, so this is not noise).
#
# Fewer than 3 comparable history entries skips that metric's check
# with a notice — a young history cannot block a merge.  After gating,
# the fresh numbers are appended to the history as one commit-keyed
# datapoint, so every CI run grows the baseline.
#
# Run from anywhere; operates on the repo this script lives in.
set -eu

cd "$(dirname "$0")/.."

dune exec bench/main.exe -- perf --quick

# Quick daemon replay: exits non-zero by itself when any sampled daemon
# result is not byte-identical to direct execution or when unexpected
# errors appear, so a mismatch hard-fails the gate before any
# throughput comparison.
dune exec bench/main.exe -- svc-load --quick

# Variant-traffic replay: same sources resubmitted under different
# (mode, strategy, x-threshold, budget).  Exits non-zero by itself if
# any sampled variant result differs from memo-off direct execution.
dune exec bench/main.exe -- svc-load --quick --mix variants

if grep -q '"outputs_identical": false' BENCH_psaflow.json; then
  echo "FAIL: perf bench reports non-identical outputs"; exit 1
fi
grep -q '"outputs_identical": true' BENCH_psaflow.json \
  || { echo "FAIL: perf bench reports no output-identity checks"; exit 1; }

# Guided DSE floor: the bench already asserted (via the dse section's
# outputs_identical, covered above) that guided and exhaustive sweeps
# picked identical winners on every benchmark; the warm guided pass must
# also make at least 10x fewer simulate calls.  Call counts are
# deterministic, so this is a hard floor, not a noisy measurement.
DSE_REDUCTION=$(sed -n 's/.*"simulate_call_reduction": *\([0-9.]*\).*/\1/p' BENCH_psaflow.json | head -n1)
[ -n "$DSE_REDUCTION" ] \
  || { echo "FAIL: BENCH_psaflow.json reports no dse simulate_call_reduction"; exit 1; }
awk "BEGIN { exit !($DSE_REDUCTION >= 10) }" \
  || { echo "FAIL: guided DSE saves only ${DSE_REDUCTION}x simulate calls (floor 10x)"; exit 1; }
echo "guided DSE: ${DSE_REDUCTION}x fewer simulate calls (floor 10x)"

# Stage-memo floors.  A cold variant (same source, different
# parameters) must cost at most 40% of a cold full flow — that is the
# point of cross-request memoization — and the phase-B stage-memo hit
# rate must stay above 50% (the schedule is deterministic, so a lower
# rate means stage keys stopped matching, not noise).
MEMO_RATIO=$(sed -n 's/.*"latency_ratio": *\([0-9.e-]*\).*/\1/p' BENCH_psaflow.json | head -n1)
[ -n "$MEMO_RATIO" ] \
  || { echo "FAIL: BENCH_psaflow.json reports no variants latency_ratio"; exit 1; }
awk "BEGIN { exit !($MEMO_RATIO <= 0.40) }" \
  || { echo "FAIL: cold variant costs ${MEMO_RATIO}x of a cold full flow (ceiling 0.40)"; exit 1; }
MEMO_RATE=$(sed -n 's/.*"memo_hit_rate": *\([0-9.e-]*\).*/\1/p' BENCH_psaflow.json | head -n1)
[ -n "$MEMO_RATE" ] \
  || { echo "FAIL: BENCH_psaflow.json reports no variants memo_hit_rate"; exit 1; }
awk "BEGIN { exit !($MEMO_RATE >= 0.5) }" \
  || { echo "FAIL: variant replay memo hit rate ${MEMO_RATE} (floor 0.5)"; exit 1; }
echo "stage memo: cold variant at ${MEMO_RATIO}x of cold full flow, ${MEMO_RATE} hit rate"

# Rolling-median regression gate (exit 1 on any GATE FAIL line).
dune exec bench/main.exe -- gate-history --quick

# Record this run for future gates.
dune exec bench/main.exe -- history-append --quick

echo "perf gate: outputs identical, no regression vs rolling median"
