#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library and gauss_perfbench in Release (BUILD_TESTING=OFF, nothing downloaded)
under .bench_build/; later runs only rebuild what changed. The program's
last stdout line is the result JSON. Temporary files live in a per-run
directory under .bench_tmp/ that is removed on exit; traces of --trace 1
runs are written to .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("mem_identify", "file_small_cache", "shard_ingest")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds gauss_perfbench; returns its path."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF",
                      "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"])
    steps.append(["cmake", "--build", build_dir, "--target", "gauss_perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})", 3)
    return os.path.join(build_dir, "gauss_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "api", "gauss_db.h")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}: run from "
             "a full checkout of the repository", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH", 2)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp_dir, "--out", out_dir]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"gauss_perfbench exceeded {RUN_TIMEOUT_S} s and was stopped", 4)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    if code != 0:
        fail(f"gauss_perfbench exited with code {code}", 5)


if __name__ == "__main__":
    main()
