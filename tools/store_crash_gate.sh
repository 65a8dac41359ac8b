#!/usr/bin/env bash
# The catalog store's CI gate: a real round trip, an fsck pass, and a
# kill-and-recover loop against the serve subcommand.
#
# Usage: tools/store_crash_gate.sh [BUILD_DIR]
#   BUILD_DIR cmake build directory holding lclpath_cli (default: build)
#
# Three phases, each a hard failure when it breaks:
#   1. Round trip — classify-batch --store twice over a generated problem
#      corpus (coloring k=3..8 across all four topologies): the first run
#      classifies everything fresh, the second must be served entirely
#      from the persisted store ("0 classified fresh") and print
#      per-problem verdict lines byte-identical to the first run's.
#   2. store-fsck gate — every shard header/checksum/record-count must
#      validate (exit 0, ": clean").
#   3. Kill-and-recover — a background serve loop is SIGKILLed while it is
#      classifying and committing; the store left behind must fsck clean
#      (atomic shard commits: old-complete or new-complete, stray *.tmp
#      ignored), and a rerun with --exit-when-idle must finish the
#      remaining work so the final store holds every record.
set -u

build=${1:-build}
cli=$build/lclpath_cli
if [ ! -x "$cli" ]; then
  echo "store_crash_gate: $cli not found or not executable" >&2
  exit 2
fi

workdir=$(mktemp -d)
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "store_crash_gate: FAIL: $*" >&2
  exit 1
}

run() {
  echo "+ $*" >&2
  "$@"
}

# ---------------------------------------------------------------- corpus
# Proper k-coloring for k=3..8 on every topology: 24 problems, covering
# O(1)/Theta(log* n) classes and both directed/undirected code paths.
corpus=$workdir/corpus.lcl
expected=0
for k in 3 4 5 6 7 8; do
  for topology in directed-path directed-cycle undirected-path undirected-cycle; do
    {
      echo "lcl coloring-k${k}-${topology}"
      echo "topology ${topology}"
      echo "inputs a"
      echo -n "outputs"
      for ((c = 0; c < k; ++c)); do echo -n " c${c}"; done
      echo
      for ((c = 0; c < k; ++c)); do echo "node a c${c}"; done
      for ((i = 0; i < k; ++i)); do
        for ((j = 0; j < k; ++j)); do
          [ "$i" -ne "$j" ] && echo "edge c${i} c${j}"
        done
      done
      echo "end"
    } >> "$corpus"
    expected=$((expected + 1))
  done
done
echo "store_crash_gate: corpus of $expected problems"

# ------------------------------------------------------------ round trip
store=$workdir/store_roundtrip
out=$workdir/run1.out
run "$cli" classify-batch --store "$store" "$corpus" > "$out" || fail "first classify-batch run"
grep -q "$expected classified fresh" "$out" \
  || fail "first run did not classify all $expected problems fresh: $(grep '^store:' "$out")"

out=$workdir/run2.out
run "$cli" classify-batch --store "$store" "$corpus" > "$out" || fail "second classify-batch run"
grep -q "preloaded $expected record(s); 0 classified fresh" "$out" \
  || fail "second run was not served entirely from the store: $(grep '^store:' "$out")"
# The per-problem lines come before the "classified N problem(s)" totals.
verdicts() { sed '/^classified [0-9]* problem(s) in /,$d' "$1"; }
[ "$(verdicts "$out" | wc -l)" -eq "$expected" ] \
  || fail "warm run printed $(verdicts "$out" | wc -l) verdict line(s), not $expected"
diff <(verdicts "$workdir/run1.out") <(verdicts "$out") \
  || fail "warm run's verdict lines differ from the cold run's"

# ------------------------------------------------------------- fsck gate
out=$workdir/fsck1.out
run "$cli" store-fsck "$store" > "$out" || fail "store-fsck flagged the round-trip store"
grep -q ": clean" "$out" || fail "store-fsck did not report clean"
grep -q "$expected record(s): clean" "$out" \
  || fail "store-fsck record count drifted: $(tail -1 "$out")"

# ------------------------------------------------------- kill and recover
store=$workdir/store_killed
"$cli" serve "$store" --classify "$corpus" --chunk 2 --poll-ms 20 \
  > "$workdir/serve1.out" 2>&1 &
serve_pid=$!
# Let it classify and commit a few chunks, then pull the plug mid-loop.
# (Whether the kill lands mid-commit or between chunks, the invariant is
# the same: every shard file on disk must validate.)
sleep 0.3
kill -9 "$serve_pid" 2>/dev/null || fail "serve loop already exited before SIGKILL"
wait "$serve_pid" 2>/dev/null
serve_pid=""
echo "+ SIGKILL delivered mid-serve; store left behind:"

out=$workdir/fsck2.out
run "$cli" store-fsck "$store" > "$out" || fail "SIGKILL left a corrupt shard (atomic commit broken)"
grep -q ": clean" "$out" || fail "post-kill store-fsck did not report clean"
cat "$out"

out=$workdir/serve2.out
run "$cli" serve "$store" --classify "$corpus" --chunk 4 --poll-ms 20 --exit-when-idle \
  > "$out" || fail "recovery serve run"
grep -q "store $expected record(s)" "$out" \
  || fail "recovery did not finish the remaining work: $(tail -2 "$out")"

out=$workdir/fsck3.out
run "$cli" store-fsck "$store" > "$out" || fail "recovered store failed fsck"
grep -q "$expected record(s): clean" "$out" \
  || fail "recovered store record count drifted: $(tail -1 "$out")"

echo "store_crash_gate: PASS (round trip, fsck, kill-and-recover)"
