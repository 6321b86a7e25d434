#!/usr/bin/env bash
# Smoke-run every benchmark binary in --quick mode and validate the
# canonical BENCH_<name>.json files against the psa.bench.v1 schema.
#
# Usage: scripts/bench_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree holding bench/ binaries (default: build)
#   OUT_DIR    where the BENCH_*.json files land (default: a temp dir;
#              exported to the benches as PSA_BENCH_DIR)
#
# Beyond the schema check, every fresh report is diffed structurally against
# its committed canonical baseline in bench/baselines/: same schema, same
# run configs, same counter vocabulary. Timing VALUES are machine-dependent
# and not compared — the diff catches silently dropped rows, renamed
# configs, and counter-vocabulary drift that would desynchronize
# EXPERIMENTS.md from the committed numbers.
#
# Exit 0 when every bench runs and every JSON validates; non-zero otherwise.
# CI runs this as the bench-smoke job and uploads OUT_DIR as an artifact.
set -u

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$(mktemp -d)}"
mkdir -p "$OUT_DIR"
export PSA_BENCH_DIR="$OUT_DIR"

BENCHES=(
  table1_analysis_cost
  fig1_dll_ops
  fig2_pipeline
  fig3_barnes_hut
  ablation_pruning
  ablation_join
  ablation_widening
  parallel_transfer
  governor_overhead
  checker_cost
  cache_warm
  incremental
  ipa_summary
)

BASELINE_DIR="$(cd "$(dirname "$0")/.." && pwd)/bench/baselines"

fail=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "bench_smoke: MISSING $bin" >&2
    fail=1
    continue
  fi
  echo "bench_smoke: running $bench --quick"
  if ! "$bin" --quick >/dev/null; then
    echo "bench_smoke: FAILED $bench" >&2
    fail=1
  fi
done

python3 - "$OUT_DIR" "$BASELINE_DIR" "${BENCHES[@]}" <<'EOF'
import json
import sys

out_dir, baseline_dir, benches = sys.argv[1], sys.argv[2], sys.argv[3:]
RUN_FIELDS = {
    "config": str,
    "seconds": (int, float),
    "converged": bool,
    "visits": int,
    "peak_bytes": int,
    "exit_graphs": int,
    "ops": dict,
}
status = 0
for bench in benches:
    path = f"{out_dir}/BENCH_{bench}.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_smoke: {path}: {e}", file=sys.stderr)
        status = 1
        continue
    errors = []
    if doc.get("schema") != "psa.bench.v1":
        errors.append(f"bad schema {doc.get('schema')!r}")
    if doc.get("bench") != bench:
        errors.append(f"bench field {doc.get('bench')!r} != {bench!r}")
    if not isinstance(doc.get("quick"), bool):
        errors.append("quick is not a bool")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append("runs missing or empty")
        runs = []
    for i, run in enumerate(runs):
        for field, ty in RUN_FIELDS.items():
            if not isinstance(run.get(field), ty):
                errors.append(f"runs[{i}].{field} missing or mistyped")
        ops = run.get("ops")
        if isinstance(ops, dict):
            bad = [k for k, v in ops.items()
                   if not isinstance(v, int) or v < 0]
            if bad:
                errors.append(f"runs[{i}].ops non-counter values: {bad}")
    # Structural diff against the committed canonical baseline: the set of
    # run configs and the counter vocabulary must match (values are machine-
    # and build-dependent and deliberately not compared).
    base_path = f"{baseline_dir}/BENCH_{bench}.json"
    try:
        with open(base_path) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"baseline {base_path}: {e}")
        base = {"runs": []}
    if base.get("schema") != doc.get("schema"):
        errors.append(
            f"schema drift vs baseline: {doc.get('schema')!r} != "
            f"{base.get('schema')!r}")
    fresh_configs = [r.get("config") for r in runs]
    base_configs = [r.get("config") for r in base.get("runs", [])]
    if fresh_configs != base_configs:
        errors.append(
            f"run configs drifted from baseline: {fresh_configs} != "
            f"{base_configs} (regenerate bench/baselines with --quick)")
    for i, run in enumerate(runs):
        if i >= len(base.get("runs", [])):
            break
        fresh_ops = set((run.get("ops") or {}).keys())
        base_ops = set((base["runs"][i].get("ops") or {}).keys())
        if fresh_ops != base_ops:
            errors.append(
                f"runs[{i}] counter vocabulary drifted from baseline: "
                f"+{sorted(fresh_ops - base_ops)} -{sorted(base_ops - fresh_ops)}")
    if errors:
        status = 1
        for e in errors:
            print(f"bench_smoke: {path}: {e}", file=sys.stderr)
    else:
        print(f"bench_smoke: {path}: ok ({len(runs)} runs, baseline match)")
sys.exit(status)
EOF
[[ $? -ne 0 ]] && fail=1

if [[ $fail -ne 0 ]]; then
  echo "bench_smoke: FAILED" >&2
  exit 1
fi
echo "bench_smoke: all benches ok, reports in $OUT_DIR"
