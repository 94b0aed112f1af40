#!/usr/bin/env python3
"""Builds the simulator and the benchmark from source, then runs the benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR (default
.bench_build): the `dkip-sim` binary from the repository's workspace, and
the `perfbench` package in this directory. The benchmark's last line of
standard output is its JSON result; build output goes to standard error.

`--self-test` runs the benchmark's own checks (the figure job lists equal
the `experiments` drivers', and every output check fails on wrong input),
then a tiny-budget pass of every workload of BENCHMARK.json, traced and
untraced, and checks that each reports exactly the metrics BENCHMARK.json
names, with their units, as finite numbers.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def build():
    """Returns (perfbench, dkip-sim) paths, or None when a build fails."""
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates", "sim"))
    ):
        print("error: the simulator sources are not in this checkout", file=sys.stderr)
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for manifest, extra in (
        ("Cargo.toml", ["-p", "dkip-sim", "--bin", "dkip-sim"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        cmd = cargo + ["--manifest-path", os.path.join(ROOT, manifest)] + extra
        if subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "dkip-sim")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(bench, dkip_sim):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = subprocess.run([bench, "--self-test", "--dkip-sim", dkip_sim], cwd=ROOT).returncode == 0
    for workload in spec["workloads"]:
        for trace, table in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [bench, "--workload", workload["name"], "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--tiny", "--dkip-sim", dkip_sim]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            problems = []
            try:
                result = last_json(out.stdout)
            except ValueError:
                result = None
            if out.returncode != 0 or result is None:
                problems.append("exit %d, no result" % out.returncode)
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("incorrect (failed=%s)" % result["failed"])
                want = {m["name"]: m["unit"] for m in spec[table]}
                got = result["metrics"]
                if set(got) != set(want):
                    problems.append("metric names differ: %s" % sorted(set(got) ^ set(want)))
                for name, metric in got.items():
                    value = metric.get("value")
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        problems.append("%s is not a finite number: %r" % (name, value))
                    if name in want and metric.get("unit") != want[name]:
                        problems.append("%s has unit %r" % (name, metric.get("unit")))
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("self-test: %s trace=%d: %s" % (workload["name"], trace, status), file=sys.stderr)
            if problems:
                sys.stderr.write(out.stderr[-2000:])
                ok = False
    return 0 if ok else 1


def main():
    built = build()
    if built is None:
        return 2
    bench, dkip_sim = built
    if sys.argv[1:] == ["--self-test"]:
        return self_test(bench, dkip_sim)
    return subprocess.run([bench] + sys.argv[1:] + ["--dkip-sim", dkip_sim], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
