#!/usr/bin/env bash
# One scripted bench gate: run a bench family's binaries in their
# --emit-json / --perf-smoke CI mode, merge multi-binary families into a
# single fresh JSON, and compare it against the committed baseline with
# tools/compare_bench.py. CI's Release job loops this over every family
# instead of carrying one copy-pasted step block per bench.
#
# Usage: tools/run_bench_gate.sh FAMILY [BUILD_DIR]
#   FAMILY    linear_gap | monoid | synthesized | hardness | simulation |
#             classifier
#   BUILD_DIR cmake build directory holding the bench binaries (default:
#             build)
#
# Writes BENCH_<FAMILY>.fresh.json into the current directory (the
# baseline-refresh vehicle CI uploads as an artifact — download it and
# commit it as BENCH_<FAMILY>.json after an intentional perf change).
# Exit code is nonzero when any binary's perf smoke fails or the compare
# finds drift/regression; all binaries of a family still run so one
# failure does not mask the rest.
set -u

if [ $# -lt 1 ]; then
  echo "usage: $0 FAMILY [BUILD_DIR]" >&2
  exit 2
fi
family=$1
build=${2:-build}
status=0

run() {
  echo "+ $*"
  "$@" || status=1
}

case "$family" in
  linear_gap)
    # --perf-smoke doubles as the lazy-certificate regression tripwire:
    # beyond the overall fixed-cost budget it bounds the lifted
    # shift-input end-to-end classify at a sixth of the budget.
    run "$build/bench_gap_scaling" --emit-json=BENCH_linear_gap.fresh.json \
      --perf-smoke=60 --benchmark_list_tests=true
    ;;
  classifier)
    # --perf-smoke also asserts every catalog verdict matches its textbook
    # class and the undirected 3-coloring lift classifies O(1); the
    # compare step pins verdicts and monoid sizes row by row.
    run "$build/bench_classifier" --emit-json=BENCH_classifier.fresh.json \
      --perf-smoke=60 --benchmark_list_tests=true
    ;;
  monoid)
    # --perf-smoke also asserts the cold-vs-cached sweep actually hits the
    # MonoidCache.
    run "$build/bench_monoid" --emit-json=BENCH_monoid.fresh.json \
      --perf-smoke=60 --benchmark_list_tests=true
    ;;
  synthesized)
    # --perf-smoke runs the self-selection tripwires on every row
    # (synthesized_radius < n, synthesized_s <= gather_s) on top of the
    # overall fixed-cost budget.
    run "$build/bench_synthesized" --emit-json=BENCH_synthesized.fresh.json \
      --perf-smoke=60 --benchmark_list_tests=true
    ;;
  simulation)
    # --perf-smoke runs the engine tripwires: parallel speedup where the
    # hardware has the cores (4x at >= 8, any win at >= 2), the
    # no-materialize RSS ceiling on the 10^7-node streaming row, and the
    # memoized-gather / synthesized wins over the honest Theta(n^2)
    # baseline.
    run "$build/bench_simulation" --emit-json=BENCH_simulation.fresh.json \
      --perf-smoke=90 --benchmark_list_tests=true
    ;;
  hardness)
    # Five binaries, one tracked JSON: each emits its own top-level
    # section ({"encoding"}, {"error_chains"}, {"theorem4"}, {"theorem5"},
    # {"lower_bound"}); the merge is a plain key union. --perf-smoke runs
    # each binary's structural tripwires (encodings verify, Pi_MB
    # classification budget-caps, batch caches hit, ...).
    parts=()
    for bin in lba_encoding error_chains theorem4 theorem5_scaling lower_bound; do
      part="BENCH_hardness_${bin}.part.json"
      run "$build/bench_${bin}" --emit-json="$part" --perf-smoke=60 \
        --benchmark_list_tests=true
      parts+=("$part")
    done
    python3 - "${parts[@]}" <<'PYEOF' || status=1
import json, sys
merged = {}
for path in sys.argv[1:]:
    with open(path) as f:
        section = json.load(f)
    overlap = merged.keys() & section.keys()
    if overlap:
        raise SystemExit(f"duplicate bench sections: {sorted(overlap)}")
    merged.update(section)
with open("BENCH_hardness.fresh.json", "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
PYEOF
    rm -f "${parts[@]}"
    ;;
  *)
    echo "unknown bench family: $family (expected linear_gap | monoid |" \
      "synthesized | hardness | simulation | classifier)" >&2
    exit 2
    ;;
esac

run python3 tools/compare_bench.py "BENCH_${family}.json" \
  "BENCH_${family}.fresh.json"
exit $status
