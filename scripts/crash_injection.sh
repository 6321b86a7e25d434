#!/usr/bin/env sh
# Crash-injection drill against the real psa_cli binary: inject a crash, an
# OOM, a hang and an uncaught exception (every PSA_FAULT_AT kind) into a
# batch run over the bundled corpus, assert the batch still completes with
# exactly the faulted units quarantined, then SIGKILL a checkpointed batch
# mid-run and prove --resume skips the finished units and reproduces the
# uninterrupted report byte for byte.
#
#   $ scripts/crash_injection.sh [BUILD_DIR]     # default: build
#
# The same scenarios run in-process as GTest suites (tests/driver/); this
# script drives the shipped binary end to end, the way an operator would,
# and is what the CI crash-injection job executes.
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/examples/psa_cli"

if [ ! -x "$CLI" ]; then
  echo "crash_injection: $CLI not found or not executable; build first" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "crash_injection: FAIL: $1" >&2
  exit 1
}

# The 60s per-unit budget is generous on purpose: a watchdog timeout in these
# scenarios means the injected hang, not a genuinely slow analysis.
run_units() {
  env "$@" "$CLI" --corpus --isolate --jobs=4 --timeout-ms=60000 \
    >"$WORK/report.txt" 2>"$WORK/log.txt" || return $?
}

echo "== scenario 1: fault-free corpus batch completes clean"
status=0
run_units PSA_FAULT_AT= || status=$?
[ "$status" -eq 0 ] || fail "clean corpus batch exited $status"
grep -q "0 failed" "$WORK/report.txt" || fail "clean batch reported failures"
cp "$WORK/report.txt" "$WORK/clean-report.txt"

echo "== scenario 2: injected crash, oom, hang and throw are contained"
status=0
run_units PSA_FAULT_AT="dll:crash,queue:oom,visit_marks:hang,two_lists:throw" ||
  status=$?
[ "$status" -eq 3 ] || fail "faulted batch exited $status, want 3 (some failed)"
grep -q "dll: crash (signal" "$WORK/report.txt" || fail "crash not classified"
grep -q "queue: oom" "$WORK/report.txt" || fail "oom not classified"
grep -q "visit_marks: timeout" "$WORK/report.txt" || fail "hang not classified"
grep -q "two_lists: exit (code 78), .*quarantined" "$WORK/report.txt" ||
  fail "throw not classified and quarantined"
[ "$(grep -c "quarantined" "$WORK/report.txt")" -ge 4 ] ||
  fail "faulted units not quarantined"
# Every unit not faulted must still be analyzed, identically to scenario 1.
for u in sll list_reverse binary_tree; do
  line="$(grep "^  $u: ok" "$WORK/report.txt")" || fail "$u did not survive"
  grep -qF "$line" "$WORK/clean-report.txt" ||
    fail "$u result differs from fault-free run"
done

echo "== scenario 3: SIGKILL mid-batch, then --resume reproduces the report"
CKPT="$WORK/ckpt"
"$CLI" --corpus --isolate --jobs=1 --timeout-ms=60000 \
  --checkpoint="$WORK/ckpt-ref" >"$WORK/ref-report.txt" 2>/dev/null ||
  fail "reference checkpointed run failed"

"$CLI" --corpus --isolate --jobs=1 --timeout-ms=60000 \
  --checkpoint="$CKPT" >"$WORK/victim.out" 2>"$WORK/victim.err" &
VICTIM=$!
# Wait for at least two finished units in the journal, then kill mid-run.
spins=0
while :; do
  outcomes="$(grep -c "^outcome " "$CKPT/journal.psaj" 2>/dev/null)" ||
    outcomes=0
  [ "${outcomes:-0}" -lt 2 ] || break
  spins=$((spins + 1))
  [ "$spins" -lt 12000 ] || fail "journal never showed progress"
  sleep 0.005
done
kill -9 "$VICTIM" 2>/dev/null || fail "batch finished before the kill landed"
wait "$VICTIM" 2>/dev/null && fail "victim exited cleanly, not killed" || true

"$CLI" --corpus --isolate --jobs=1 --timeout-ms=60000 \
  --checkpoint="$CKPT" --resume >"$WORK/resumed.txt" 2>"$WORK/resume.log" ||
  fail "resume run failed"
grep -q "(checkpointed)" "$WORK/resume.log" ||
  fail "resume log shows no unit served from the checkpoint"
# Byte-identical report modulo the from-checkpoint provenance markers.
sed -e "s/, [0-9]* from checkpoint//" -e "s/, from checkpoint//" \
  "$WORK/resumed.txt" >"$WORK/resumed-normalized.txt"
cmp -s "$WORK/resumed-normalized.txt" "$WORK/ref-report.txt" || {
  diff -u "$WORK/ref-report.txt" "$WORK/resumed-normalized.txt" >&2 || true
  fail "resumed report differs from the uninterrupted run"
}

echo "crash_injection: all scenarios passed"
