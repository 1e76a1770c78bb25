#!/usr/bin/env python3
"""Builds chaosbench from the repository's sources and runs one workload.

    python3 chaosbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 chaosbench/run.py --smoke        # every workload on the tiny mesh
    python3 chaosbench/run.py --self-test    # each output check catches a fault

The build goes to .bench_build/chaosbench (Release, CMake), the Chrome trace
of a traced run to .bench_out/. The last line of standard output is the
result JSON; the build's log goes to standard error only when it fails. The
set-up time is measured from the instant this script spawns the benchmark
process.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "chaosbench")
OUT = os.path.join(ROOT, ".bench_out")


def fail(msg):
    print(f"chaosbench: {msg}", file=sys.stderr)
    sys.exit(2)


def quiet(cmd, what):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail(f"{what} failed")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "rt", "machine.hpp")):
        fail(f"no chaos runtime sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
              "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    quiet(["cmake", "--build", BUILD, "-j", jobs], "build")
    return os.path.join(BUILD, "chaosbench")


def arg_value(argv, flag):
    if flag in argv and argv.index(flag) + 1 < len(argv):
        return argv[argv.index(flag) + 1]
    return None


def main():
    argv = sys.argv[1:]
    binary = build()
    extra = []
    if arg_value(argv, "--trace") == "1":
        os.makedirs(OUT, exist_ok=True)
        name = f"trace-{arg_value(argv, '--workload')}-seed{arg_value(argv, '--seed')}.json"
        extra = ["--trace-out", os.path.join(OUT, name)]
    t0 = time.monotonic_ns()
    return subprocess.run([binary, *argv, *extra, "--t0-ns", str(t0)]).returncode


if __name__ == "__main__":
    sys.exit(main())
