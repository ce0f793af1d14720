#!/usr/bin/env python3
"""Builds and runs the AdapCC benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release) into $CARGO_TARGET_DIR, default
`.bench_build`, then runs one workload per process and relays its output.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--workload all` every workload
runs in turn and the last line merges them, metric names prefixed by the
workload. Exits nonzero when the build fails or any output check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["ddp-testbed", "pod-allreduce", "parallel3d-step", "plan-serve"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result can be
    tied to its code even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build(target_dir):
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return False
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
    return done.returncode == 0


def run_one(binary, workload, args, env):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None, 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"{workload} printed no result (exit code {done.returncode})")
        return None, done.returncode or 1
    return result, done.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(target_dir):
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    env = dict(os.environ, PERFBENCH_COMMIT=commit(), PERFBENCH_SOURCE=source_digest(),
               PERFBENCH_CPU=cpu_model())

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in workloads:
        result, code = run_one(binary, w, args, env)
        if result is None:
            return code or 1
        status = status or code
        if len(workloads) == 1:
            print(json.dumps(result))
            return code
        print(json.dumps(result))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w}/{name}"] = m
    print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
