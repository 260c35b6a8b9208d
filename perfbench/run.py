#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". Build output, store
directories and traces go under $CARGO_TARGET_DIR, or .bench_build when it is
unset. --selftest builds and runs the benchmark's own tests instead.

NXGRAPH_* variables are removed from the benchmark's environment: they
override the store format, summaries, decode path and I/O backend, and the
benchmark measures the default configuration.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pagerank-mpu-ssd", "serve-mixed-ssd")
HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; the build is timed separately.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(out_dir, targets):
    """Configures and builds `targets`; returns the build directory or None."""
    build_dir = os.path.join(out_dir, "perfbench")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as build_log:
        for cmd in (configure,
                    ["cmake", "--build", build_dir, "-j", jobs, "--target"]
                    + targets):
            if subprocess.run(cmd, stdout=build_log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    log("".join(f.readlines()[-40:]))
                log("build failed; full log in " + log_path)
                return None
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seconds < 1):
        parser.error("--workload, --seed and --seconds >= 1 are required")
    for key in [k for k in os.environ if k.startswith("NXGRAPH_")]:
        log("ignoring %s: the benchmark runs the default configuration" % key)
        del os.environ[key]

    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    if args.selftest:
        build_dir = build(out_dir, ["perfbench_selftest"])
        if build_dir is None:
            return 1
        tmp = os.path.join(out_dir, "tmp") + os.sep
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")],
            env=dict(os.environ, TEST_TMPDIR=tmp, TMPDIR=tmp)).returncode

    build_dir = build(out_dir, ["nxbench"])
    if build_dir is None:
        return 1
    work_dir = os.path.join(out_dir, "work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "nxbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        rc = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
