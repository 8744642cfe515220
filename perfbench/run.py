#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload deepenrich --seed 1 --seconds 30 --trace 0

Run from the repository root; `--workload all` runs every workload in
turn. The first run configures and builds the benchmark
(perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR or
.bench_build/; later runs rebuild incrementally. The last line of stdout
is the benchmark's JSON result. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("deepenrich", "fleet-shared", "fleet-flaky")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "e2e_bench")


def source_id():
    """The git commit in a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def recorded_digest(workload, seed):
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the benchmark's own test")
    args = p.parse_args()

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for workload in workloads:
        code = code or run(binary, workload, args)
    return code


def run(binary, workload, args):
    base = os.path.dirname(build_dir())
    work = os.path.join(base, "work-%s-%d" % (workload, os.getpid()))
    traces = os.path.join(base, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git-sha", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    else:
        expected = recorded_digest(workload, args.seed)
        if expected:
            cmd += ["--expect-digest", expected]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d%s.json" % (workload, args.seed,
                                          "-smoke" if args.smoke else ""))]
    try:
        sys.stdout.flush()
        r = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S)
        code = r.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
