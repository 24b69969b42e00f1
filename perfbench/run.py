#!/usr/bin/env python3
"""Entry point of the apq end-to-end benchmark.

    python3 perfbench/run.py --workload tpch|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. Builds perfbench/ (the apq library
plus the apq_perfbench program) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload, and prints the program's output.
The last line is one JSON object: correct, attempted, failed, and the
metrics declared in BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1). A traced run also writes its spans to
<build dir>/traces/<workload>-seed<N>.json. Build logs go to stderr.

Exits non-zero, printing no result, when the sources are missing, the build
or the run fails, or the result line does not match BENCHMARK.json.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORKLOADS = ["tpch", "serve"]


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir, targets):
    """Configures (once) and builds `targets`; False when either fails."""
    if not (ROOT / "src" / "engine" / "engine.h").is_file():
        print("perfbench: no apq sources under %s/src" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4", "--target"] +
                 targets)
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: %s: %s" % (cmd[0], e), file=sys.stderr)
            return False
        if rc != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def declared_metrics(traced):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def check_result(line, declared):
    """Returns "" when `line` is a valid result line, else what is wrong.

    The metrics must be exactly the declared ones, each with its declared
    unit and a finite value: every workload reports every metric.
    """
    try:
        obj = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if not isinstance(obj, dict) or set(obj) != RESULT_KEYS:
        return "result keys are not %s" % sorted(RESULT_KEYS)
    if not isinstance(obj["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            return "%s is not a whole number" % key
    if obj["attempted"] < 1 or not 0 <= obj["failed"] <= obj["attempted"]:
        return "attempted/failed out of range"
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        return "no metrics"
    for name, m in metrics.items():
        if name not in declared:
            return "metric %s is not declared in BENCHMARK.json" % name
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return "metric %s is not {value, unit}" % name
        if m["unit"] != declared[name]:
            return "metric %s has unit %s, declared %s" % (
                name, m["unit"], declared[name])
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                not math.isfinite(v):
            return "metric %s has no finite value" % name
    missing = sorted(set(declared) - set(metrics))
    if missing:
        return "declared metrics missing: %s" % ", ".join(missing)
    return ""


def run_workload(args):
    bdir = build_dir()
    if not build(bdir, ["apq_perfbench"]):
        return 2
    cmd = [str(bdir / "apq_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed)))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=str(ROOT),
                            universal_newlines=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    why = "apq_perfbench exited with %d" % proc.returncode \
        if proc.returncode != 0 else \
        check_result(lines[-1], declared_metrics(args.trace == 1))
    if why:
        sys.stderr.write(out)
        print("perfbench: %s" % why, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


def selftest():
    bdir = build_dir()
    if not build(bdir, ["perfbench_selftest"]):
        return 2
    rc = subprocess.run([str(bdir / "perfbench_selftest")]).returncode
    py = subprocess.run([sys.executable, str(HERE / "run_test.py")]).returncode
    return 1 if rc or py else 0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.seed < 0 or args.seconds < 1:
        p.error("--workload, --seed >= 0 and --seconds >= 1 are required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
