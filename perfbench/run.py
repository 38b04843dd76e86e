#!/usr/bin/env python3
"""Build and run the RXL simulator benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload drain_pod --seed 1 --seconds 10 --trace 0

The benchmark package (perfbench/Cargo.toml) is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run once. Its result object
is printed as the last line of standard output, preceded by one provenance
line (git sha or source digest, rustc, nproc, timestamp and the run's own
settings). The same two lines are saved under .bench_out/. Build or run
failures exit non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
# A run must end within 180 s; keep a margin for start-up and output.
RUN_TIMEOUT_S = 170


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def git_sha():
    """HEAD's sha if the repository root is itself a git work tree."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "rev-parse", "HEAD"])


def source_digest():
    """SHA-256 over the sources the benchmark builds from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def build(env):
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Compiler output goes to stderr: standard output carries only results.
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return result.returncode == 0


def main():
    args = parse_args()
    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target_dir, "release", "rxl-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", OUT_DIR,
    ]
    try:
        run = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    provenance.update(
        git_sha=git_sha(),
        source_sha256=source_digest(),
        rustc=command_output(["rustc", "--version"]),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=2)
    print(json.dumps({"provenance": provenance}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
