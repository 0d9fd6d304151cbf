#!/usr/bin/env python3
"""Sink-path benchmark entry point.

    python3 sinkbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Builds libpnm, the `pnm` CLI and the
`sinkbench` program from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), generates the workload's trace from the seed, computes the
correctness oracle, measures, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# workload -> how its end-to-end figures are measured
WORKLOADS = {
    "shallow-replay": "replay",
    "deep-scoped": "replay",
    "shallow-serve": "serve",
}

BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # every step after the build must end by then


class BenchError(Exception):
    pass


def log(msg):
    print(f"sinkbench: {msg}", file=sys.stderr, flush=True)


def expected_metrics(trace):
    """Metric name -> unit, as BENCHMARK.json at the repository root lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then (incrementally) build; returns (sinkbench, pnm)."""
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError(f"{need} is missing: run from a full checkout of the repository")
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", cmake_dir, "--target", "sinkbench", "pnm_cli", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=max(1, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    sinkbench = os.path.join(cmake_dir, "sinkbench")
    pnm = os.path.join(cmake_dir, "pnm_tools", "pnm")
    for path in (sinkbench, pnm):
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return sinkbench, pnm


def step(cmd, deadline):
    """Run one sinkbench subcommand in its own process group and parse its
    result line. On timeout the whole group (daemon included) is killed."""
    timeout = deadline - time.monotonic()
    if timeout <= 1:
        raise BenchError(f"no time left for: {' '.join(cmd[1:3])}")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd[1:])}")
    finally:
        # Nothing the step started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd[1:])}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sinkbench, pnm = build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=runs)
    try:
        common = ["--dir", rundir, "--workload", args.workload]
        timed = common + ["--seconds", str(args.seconds)]
        gen = step([sinkbench, "gen"] + common + ["--seed", str(args.seed)], deadline)
        results = [gen]
        if args.trace == 0:
            if WORKLOADS[args.workload] == "serve":
                results.append(step([sinkbench, "serve", "--pnm", pnm] + timed, deadline))
            else:
                results.append(step([sinkbench, "replay"] + timed, deadline))
        else:
            results.append(step([sinkbench, "replay", "--traced", "1"] + timed, deadline))
            results.append(step([sinkbench, "serve", "--pnm", pnm, "--traced", "1"] + timed,
                                deadline))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = {}
    for r in results:
        metrics.update(r["metrics"])
        for e in r["errors"]:
            log(f"check failed: {e}")
    expected = expected_metrics(args.trace)
    missing = [m for m in expected if m not in metrics]
    if missing:
        raise BenchError(f"no value for: {', '.join(missing)}")
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            raise BenchError(f"{name} measured in {metrics[name]['unit']}, listed in {unit}")
    measured = results[1:]  # the generator's records are inputs, not attempts
    out = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in measured),
        "failed": sum(r["failed"] for r in measured),
        "metrics": {m: metrics[m] for m in expected},
    }
    context = {"workload": args.workload, "seed": args.seed}
    for r in results:
        context.update(r["context"])
    print("# context: " + json.dumps(context))
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"failed: {e}")
        sys.exit(1)
