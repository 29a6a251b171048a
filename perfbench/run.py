#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fig7-sweep --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and compiles
the simulator and the benchmark into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench); later runs only rebuild what changed.
Each workload runs in its own process, so peak RSS is per workload.
The last line of standard output is the result as one JSON object;
`--workload all` runs every workload in turn and prints one result
line per workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["fig7-sweep", "long-8core", "sampled-trace"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(here, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", here, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def run_one(binary, build_dir, args, workload):
    workdir = os.path.join(build_dir, f"work-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # The benchmark pins every scale knob itself; none leak in.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CCSIM_")}
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with code {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload} printed no result line")
        return None
    for line in lines[:-1]:
        print(line)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        binary = build(here, build_dir)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    for workload in workloads:
        try:
            result = run_one(binary, build_dir, args, workload)
        except (subprocess.TimeoutExpired, ValueError) as e:
            log(f"{workload} failed: {e}")
            result = None
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
