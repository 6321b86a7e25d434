#!/usr/bin/env bash
# Smoke-run every benchmark binary in --quick mode and validate the
# canonical BENCH_<name>.json files against the psa.bench.v1 schema.
#
# Usage: scripts/bench_smoke.sh [BUILD_DIR] [OUT_DIR]
#   BUILD_DIR  cmake build tree holding bench/ binaries (default: build)
#   OUT_DIR    where the BENCH_*.json files land (default: a temp dir;
#              exported to the benches as PSA_BENCH_DIR)
#
# Beyond the schema check, every fresh report is diffed against its
# committed canonical baseline in bench/baselines/:
#   * structurally — same schema, same run configs, same counter vocabulary,
#     which catches silently dropped rows, renamed configs, and counter
#     drift that would desynchronize EXPERIMENTS.md from the committed
#     numbers;
#   * exactly on the deterministic work of each row — `visits`,
#     `exit_graphs`, `converged`, `peak_bytes` and every `ops` counter
#     except the `phase_*` timers. A change that alters the work any bench
#     configuration does fails here without timing noise. `seconds` and the
#     timers are machine-dependent and not compared.
# A mismatch prints bench, config, field, baseline and fresh value. After an
# intended change of work or vocabulary, regenerate the baselines and commit
# the diff (EXPERIMENTS.md):
#   PSA_BENCH_DIR=bench/baselines ./build/bench/<name> --quick
#
# Exit 0 when every bench runs, every JSON validates and every row matches
# its baseline; non-zero otherwise.
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
# Deterministic for a fixed input and options, so compared exactly; every
# ops counter outside the phase_* timers joins them.
EXACT_FIELDS = ("visits", "exit_graphs", "converged", "peak_bytes")
REGENERATE = ("regenerate with: PSA_BENCH_DIR=bench/baselines "
              "./build/bench/<name> --quick")
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
    # Diff against the committed canonical baseline: the set of run configs
    # and the counter vocabulary must match, and so must every deterministic
    # value (seconds and the phase_* timers are machine-dependent and
    # deliberately not compared).
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
    mismatches = 0
    for i, run in enumerate(runs):
        if i >= len(base.get("runs", [])):
            break
        base_run = base["runs"][i]
        fresh_ops = run.get("ops") or {}
        base_ops = base_run.get("ops") or {}
        if set(fresh_ops) != set(base_ops):
            errors.append(
                f"runs[{i}] counter vocabulary drifted from baseline: "
                f"+{sorted(set(fresh_ops) - set(base_ops))} "
                f"-{sorted(set(base_ops) - set(fresh_ops))}")
            continue
        pairs = [(field, base_run.get(field), run.get(field))
                 for field in EXACT_FIELDS]
        pairs += [(f"ops.{name}", base_ops[name], fresh_ops[name])
                  for name in sorted(base_ops)
                  if not name.startswith("phase_")]
        for field, base_value, fresh_value in pairs:
            if base_value != fresh_value:
                mismatches += 1
                errors.append(
                    f"{bench} {run.get('config')} {field}: baseline "
                    f"{base_value!r}, fresh {fresh_value!r}")
    if mismatches:
        errors.append(f"{mismatches} deterministic value(s) differ from "
                      f"the baseline; if intended, {REGENERATE}")
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
