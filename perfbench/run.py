#!/usr/bin/env python3
"""Build the DDR benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload pencil_fft --seed 1 --seconds 20 --trace 0

The benchmark program is configured and built under .bench_build/perfbench
(the first run builds the library from src/; later runs only check that it
is up to date).

A run is PROCESSES fresh processes of the program, one after another, each
measuring an equal share of --seconds on the same inputs. Every metric is
the mean of the processes' figures: the speed of a process depends on where
its memory landed (tiff_volume's render and lbm_intransit's lattice ran up
to 25 % apart between processes with the same input), so one process per
run would turn that draw into run-to-run spread.

Build output and the program's diagnostics go to standard error, so the
last line of standard output is the run's JSON result. Exits non-zero,
without a result, when the library sources are missing, the build fails, a
process fails, or the run does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("pencil_fft", "rebalance", "tiff_volume", "lbm_intransit")
RUN_TIMEOUT_S = 170
PROCESSES = 5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
        return None
    if shutil.which("cmake") is None:
        fail("cmake not found")
        return None
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
        return None
    exe = os.path.join(BUILD_DIR, "perfbench")
    return exe if os.path.isfile(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2

    workdir = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{os.getpid()}")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PROCESSES),
           "--trace", str(args.trace), "--workdir", workdir]
    start = time.monotonic()
    results = []
    try:
        for _ in range(PROCESSES):
            left = RUN_TIMEOUT_S - (time.monotonic() - start)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, left))
            if proc.returncode != 0:
                return fail("benchmark program exited with code "
                            f"{proc.returncode}")
            lines = [l for l in proc.stdout.splitlines() if l.strip()]
            if not lines:
                return fail("benchmark program printed no result")
            results.append(json.loads(lines[-1]))
    except subprocess.TimeoutExpired:
        return fail(f"run did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"perfbench: {args.workload} ran {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    print(json.dumps(combine(results)), flush=True)
    return 0


def combine(results):
    """One run's result from its processes': counts add up, the run is
    correct only if every process was, and each metric is the mean."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": sum(values) / len(values),
                         "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
