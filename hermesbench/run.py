#!/usr/bin/env python3
"""Builds the hermesbench program from this checkout's sources and runs it.

Usage (from the repository root):

    python3 hermesbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The repository's CMake project (its `hermes` library from src/) and the
program (hermesbench/*.cc) are compiled into $CARGO_TARGET_DIR/hermesbench
(default .bench_build/hermesbench) with CMake; only the `hermesbench`
target and what it links are built. Build output goes to standard error;
the program's standard output is passed through, and its last line is the
JSON result. The run fails (non-zero exit, no result) when the
repository's build file or sources are missing, the build fails, the
program fails, or the result does not carry exactly the metrics
BENCHMARK.json declares for the run's mode.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program stops measuring after --seconds; this bounds a hung run.
RUN_TIMEOUT_S = 170


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "service", "server.h"))):
        sys.exit("hermesbench: the repository's CMakeLists.txt and src/ "
                 "were not found beside hermesbench/; run from a full "
                 "checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "hermesbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "hermesbench",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "hermesbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    expected = expected_metrics(trace)
    binary = build()
    try:
        proc = subprocess.run([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("hermesbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("hermesbench: program exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit("hermesbench: result metrics do not match BENCHMARK.json: "
                 "missing %s, unexpected %s" %
                 (sorted(set(expected) - set(got)),
                  sorted(set(got) - set(expected))))
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
