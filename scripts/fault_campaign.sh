#!/usr/bin/env sh
# Deterministic fault-space exploration of the durable-I/O layer
# (src/support/io, docs/RESILIENCE.md "The I/O fault space") against the
# shipped psa_cli binary: the batch -> cache -> checkpoint -> resume
# pipeline, swept by `psa_cli --fault-campaign`. One golden traced run, then
# one scenario per (durable op, fault kind) pair over the full kind
# vocabulary {enospc, eio, shortwrite, tornrename, crash}, asserting the four
# soundness invariants machine-checkably (exit-code contract, explicit
# degradation markers, no corrupt cache entry ever served, crash + --resume
# reproduces the golden report byte-for-byte).
#
#   $ scripts/fault_campaign.sh [BUILD_DIR]     # default: build
#
# This is the bounded sweep the CI fault-campaign job executes (a few
# minutes). The full-corpus sweep (--campaign-full-corpus, hours) is
# documented in EXPERIMENTS.md.
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/examples/psa_cli"

if [ ! -x "$CLI" ]; then
  echo "fault_campaign: $CLI not found or not executable; build first" >&2
  exit 1
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "fault_campaign: FAIL: $1" >&2
  exit 1
}

echo "== batch pipeline (op x kind) sweep"
"$CLI" --fault-campaign="$WORK/campaign" ||
  fail "batch fault campaign reported violations (exit $?)"

echo "fault_campaign: OK (batch sweep: all invariants held)"
