#!/usr/bin/env python3
"""Run one workload of the psa benchmark and print its metrics.

    python3 perfbench/run.py --workload table1|corpus_warm|corpus_edit \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the psa libraries plus the benchmark binary) into
$CARGO_TARGET_DIR, default .bench_build, on first use. Every run works in a
private directory under the build directory and removes it at the end. The
corpus workloads fill their cache in a separate set-up process first, so
set-up stays out of the measured process's peak RSS.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json declares (end_to_end without --trace, per_layer
with --trace 1). Everything above it is the readable per-metric table. See
perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1", "corpus_warm", "corpus_edit")
# Hard limit for any one process, below the 180 s a run may take.
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configure and build; both are quick no-ops once the tree is built."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr, env=env,
                   timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "psa_perfbench")


def run_binary(args, env):
    """Run the benchmark binary; relay its table; return its JSON result."""
    proc = subprocess.run(args, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args[:2])} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Temporary files stay inside the checkout, and no fault-injection knob
    # (docs/RESILIENCE.md) from the caller's environment reaches the program.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PSA_FAULT_AT", "PSA_IO_FAULT", "PSA_IO_TRACE")}
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(build_dir, env)

    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    env["TMPDIR"] = os.path.join(root, "tmp")
    os.makedirs(env["TMPDIR"])
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--root", root]
    try:
        results = []
        run_args = [binary, "run", *common, "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
        if args.workload != "table1":  # table1 sets up in the measured process
            results.append(run_binary([binary, "setup", *common], env))
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            trace_out = os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl")
            run_args += ["--trace-out", trace_out]
            log(f"spans written to {trace_out}")
        results.append(run_binary(run_args, env))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    metrics = {}
    for result in results:
        metrics.update(result["metrics"])
        for mismatch in result["mismatches"]:
            log(f"MISMATCH {mismatch}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics["failed_ratio"] = {"value": failed / max(attempted, 1),
                               "unit": "ratio"}
    print(f"failed_ratio {metrics['failed_ratio']['value']:.6g} "
          f"({failed} of {attempted} units failed or mismatched)")
    wrong = [m["name"] for m in declared
             if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if wrong:
        raise RuntimeError(f"metrics missing or in another unit: "
                           f"{', '.join(wrong)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in declared},
    }))


if __name__ == "__main__":
    try:
        main()
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log(f"error: {error}")
        sys.exit(1)
