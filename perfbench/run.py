#!/usr/bin/env python3
"""Builds and runs the adaptive-join engine benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fig7_serial --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (Release) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later runs rebuild incrementally. Build output goes to stderr.
ajr_perfbench's stdout is passed through unchanged, so the last stdout line
is the JSON result. The exit code is ajr_perfbench's (nonzero on any wrong
result), or nonzero without a result when the build or the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"timed out after {timeout}s: {' '.join(cmd)}", file=sys.stderr)
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def code_version():
    """The git commit when the checkout is a repository, else a digest of src/."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["fig7_serial", "fig11_serial", "hot_shared"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("engine sources (src/) not found next to perfbench/", file=sys.stderr)
        return 2

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                         "perfbench")
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
               BUILD_TIMEOUT_S, sys.stderr) != 0:
            return 3
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run(["cmake", "--build", build, "--target", "ajr_perfbench", "-j", jobs],
           BUILD_TIMEOUT_S, sys.stderr) != 0:
        return 3

    sys.stdout.flush()
    return run([os.path.join(build, "ajr_perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--git-sha", code_version()],
               RUN_TIMEOUT_S, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
