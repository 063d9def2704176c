#!/usr/bin/env python3
"""Build `pmss` and the benchmark harness from source, then run the harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --workload all --seed N --seconds S [--smoke]

Both builds go to $CARGO_TARGET_DIR (default `.bench_build` at the
repository root).  Build output goes to stderr; stdout is the harness's
report, ending with the run's result as one JSON line.  `--workload all`
runs every workload of BENCHMARK.json untraced and then traced, each in
its own harness process, and ends with one JSON line holding every result.
Generated specs and trace files land in `<target dir>/perfbench-out`.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "pmss"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_all(harness, args, env):
    """Every workload, untraced then traced; returns the exit code."""
    i = args.index("--workload")
    args = args[:i] + args[i + 2:]
    args = [a for j, a in enumerate(args)
            if a != "--trace" and (j == 0 or args[j - 1] != "--trace")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    results = {}
    for name in workloads:
        for trace in ("0", "1"):
            p = subprocess.run(harness + args + ["--workload", name, "--trace", trace],
                               cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(p.stdout)
            if p.returncode != 0:
                return p.returncode
            results[f"{name}/trace{trace}"] = json.loads(p.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "runs": results,
    }))
    return 0


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # PMSS_* settings would change what the CLI under test computes.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PMSS_")}
    env["CARGO_TARGET_DIR"] = target
    if not build(env):
        return 1
    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "pmss-perfbench"),
        "--pmss", os.path.join(release, "pmss"),
        "--out", os.path.join(target, "perfbench-out"),
    ]
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        return run_all(harness, args, env)
    # The harness's own children never outlive it; it is waited for here.
    return subprocess.run(harness + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
