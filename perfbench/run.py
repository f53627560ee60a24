#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, check its result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a dune package of its own (perfbench/dune-project). It
is built in a workspace under .bench_build/ws/ that links the
repository's lib/ and perfbench/src/ beside that project file; the build
also runs the benchmark's own tests. The executable prints the metrics it
measured; this script reports the set BENCHMARK.json declares for the
run's mode, with the units declared there, as the last line of standard
output. The exit code is the benchmark's own (1 when an output check
failed), 2 when the build or its tests fail, 3 when an end-to-end metric
is missing or a metric is not declared, and 4 when the benchmark does not
finish in time.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKSPACE = os.path.join(ROOT, ".bench_build", "ws")
# Workspace entry -> what it links to, relative to the repository root.
LINKS = {
    "dune-project": os.path.join("perfbench", "dune-project"),
    "lib": "lib",
    "perfbench": os.path.join("perfbench", "src"),
}
# A benchmark still running after this long is killed and reported.
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(message, file=sys.stderr)
    sys.exit(code)


def build(env):
    for target in LINKS.values():
        if not os.path.exists(os.path.join(ROOT, target)):
            fail(2, f"cannot build the benchmark: {target} is missing")
    os.makedirs(WORKSPACE, exist_ok=True)
    for name, target in LINKS.items():
        link = os.path.join(WORKSPACE, name)
        if not os.path.islink(link):
            os.symlink(os.path.join("..", "..", target), link)
    proc = subprocess.run(
        ["dune", "build", "--root", WORKSPACE, "./perfbench/bench.exe",
         "@perfbench/test/runtest"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(2, "benchmark build or its tests failed")
    return os.path.join(WORKSPACE, "_build", "default", "perfbench",
                        "bench.exe")


def report(raw, trace):
    """The result line: every metric BENCHMARK.json declares for the mode,
    with its declared unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    undeclared = sorted(set(raw["metrics"]) - known)
    if undeclared:
        fail(3, "metrics BENCHMARK.json does not declare: "
             + ", ".join(undeclared))
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = raw["metrics"].get(m["name"])
        if value is None and not trace:
            fail(3, f"{m['name']}: not measured, or too few samples")
        if value is None:
            # A layer this workload does not use, or a percentile with too
            # few samples beyond it.
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:36s} {value:16.6f} {m['unit']}")
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    env = dict(os.environ)
    # The dune cache lives outside the repository; keep every write inside.
    env["DUNE_CACHE"] = "disabled"
    exe = build(env)
    try:
        proc = subprocess.run([exe] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1):
        fail(proc.returncode, "benchmark failed")
    print(json.dumps(report(json.loads(lines[-1]), trace)))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
