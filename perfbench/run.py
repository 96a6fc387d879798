#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cluster --seed 1 --seconds 20 --trace 0

builds the Go benchmark in perfbench/ (a module of its own that uses the
repository's packages through a replace directive) into .bench_build/ at
the repository root, then runs it with the given arguments. The last line
of standard output is the result JSON. Every Go cache and setting the
build touches lives under .bench_build/, so the run writes nothing outside
the checkout.

    python3 perfbench/run.py --workload all --seconds 20

runs every workload in turn and prints one table of the end-to-end
metrics instead.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
WORKLOADS = ["multitask", "harness", "cluster", "overload"]


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "go-cache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    return env


def build():
    """Compile the benchmark; exits 1, printing no result, on failure."""
    os.makedirs(os.path.dirname(BINARY), exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(1)


def run_all(args):
    """Run every workload and print its end-to-end metrics."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run([BINARY, "--workload", name] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in sorted(res["metrics"].items()):
            print(f"  {metric:24s} {m['value']:16.6g} {m['unit']}")
    sys.exit(0 if all(res["correct"] for _, res in rows) else 1)


def main():
    build()
    args = sys.argv[1:]
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 < len(args) and args[i + 1] == "all":
            run_all(args[:i] + args[i + 2:])
    proc = subprocess.run([BINARY] + args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
