#!/usr/bin/env python3
"""Builds the benchmark from source and runs it once.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The library and the benchmark binary are built (Release) into
.bench_build/perfbench under the repository root, or under $CARGO_TARGET_DIR
when it is set; later runs only rebuild what changed. Build output goes to
stderr, so the last line on stdout is the binary's JSON result. The run
exits non-zero without a result when the build fails, e.g. when the GRECA
sources are not next to this directory.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds perfbench_run; returns the binary path."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            # Configure again on the next run.
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", out_dir, "--target",
                        "perfbench_run", "-j", jobs],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(out_dir, "perfbench_run")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    binary = build(build_dir())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([binary] + sys.argv[1:] +
                             ["--git-sha", git_sha()], cwd=ROOT)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
