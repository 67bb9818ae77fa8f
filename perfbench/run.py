#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

    python3 perfbench/run.py --workload detailed|sampled|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness is a Cargo package of its
own (perfbench/harness) with path dependencies on the repository's
crates; it is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). Standard output ends with one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
"perfbench-record" with host and engine facts. The exit code is non-zero
when the build fails, any output differs from the reference, or the run
overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("detailed", "sampled", "serve")
# A first run in a fresh checkout builds the harness and its path
# dependencies; a measured run takes --seconds plus set-up, one pass
# and (traced) the probes. Stop anything that hangs well past that.
BUILD_TIMEOUT_S = 840


def run_timeout_s(seconds):
    """Time limit for the harness run: 170 s for a 30 s run."""
    return 3 * seconds + 80


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    manifest = os.path.join(HERE, "harness", "Cargo.toml")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest,
    ]
    try:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return done.returncode or 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [
        exe, "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--refdir", os.path.join(HERE, "reference"),
        "--workdir", os.path.join(target, "perfbench"),
    ]
    started = time.monotonic()
    timeout = run_timeout_s(args.seconds)
    # The harness runs in a process group of its own, with the set-up
    # rounds it spawns: an overrun kills and reaps the whole group.
    harness = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        out, _ = harness.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.communicate()
        print(f"perfbench: run exceeded {timeout:g} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    print(f"perfbench: {args.workload} seed {args.seed} finished in "
          f"{time.monotonic() - started:.1f} s (exit {harness.returncode})",
          file=sys.stderr)
    return harness.returncode


if __name__ == "__main__":
    sys.exit(main())
