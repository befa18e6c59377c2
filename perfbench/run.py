#!/usr/bin/env python3
"""Build and run the nesgx benchmark.

    python3 perfbench/run.py --workload warm --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (the nesgx libraries from src/ plus the driver, Release) into
.bench_build/perfbench; later runs only re-check the build. Build output
goes to stderr, so the last stdout line is the driver's JSON result.
--trace 1 also writes the traced run's spans to
.bench_build/perfbench/spans_<workload>.csv. --workload all runs every
workload in BENCHMARK.json untraced and traced (--trace defaults to both)
and fails if any run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nesgx_perfbench")
JOBS = "4"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: nesgx sources (src/) not found next to perfbench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "nesgx_perfbench",
                    "-j", JOBS], stdout=sys.stderr, check=True)


def selftest():
    """Metric names and units, the metric budget, and the driver's own
    determinism checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    listed = subprocess.run([BINARY, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split()
    emitted = {"end_to_end": [], "per_layer": []}
    for kind, name, unit in zip(listed[0::3], listed[1::3], listed[2::3]):
        emitted[kind].append({"name": name, "unit": unit})
    failures = []
    for kind, limit in (("end_to_end", 16), ("per_layer", 128)):
        names = [m["name"] for m in emitted[kind]]
        if not 1 <= len(names) <= limit:
            failures.append(f"{kind}: {len(names)} metrics (limit {limit})")
        if len(set(names)) != len(names):
            failures.append(f"{kind}: duplicate metric names")
        for m in emitted[kind]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                failures.append(f"{kind}: bad name/unit {m}")
        declared_pairs = [(m["name"], m["unit"]) for m in declared[kind]]
        emitted_pairs = [(m["name"], m["unit"]) for m in emitted[kind]]
        if declared_pairs != emitted_pairs:
            failures.append(f"{kind}: BENCHMARK.json and the driver disagree")
    for failure in failures:
        print("  FAIL", failure)
    print(f"  metric tables: {len(emitted['end_to_end'])} end-to-end, "
          f"{len(emitted['per_layer'])} per-layer",
          "FAIL" if failures else "ok")
    driver = subprocess.run([BINARY, "--selftest"])
    return 1 if failures or driver.returncode else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"error: build failed: {err}")
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    traces = [args.trace] if args.trace is not None else [0, 1]
    status = 0
    for workload in workloads:
        for trace in traces:
            status = max(status, run(workload, args.seed, args.seconds, trace))
    return status


def run(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, f"spans_{workload}.csv")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
