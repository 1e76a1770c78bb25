#!/usr/bin/env python3
"""Runs workloads N times and compares two sets of runs.

    python3 chaosbench/repeat.py run [--workload <name>|all] [--runs N]
                                     [--seed0 S] [--seconds s] [--trace 0|1]
                                     [--out FILE]
    python3 chaosbench/repeat.py compare A.json B.json

`run` runs each workload N times with the seeds S, S+1, ..., prints the
median and quartiles of every metric, and saves every run's result (default
.bench_out/runs-<time>.json). `compare` checks set B against set A with the
bounds of BENCHMARK.json: for each workload and end-to-end metric, the
spread of each set (quartile distance over median) must stay within the
bound (set-up time excepted), B's median must not be worse than A's by more
than the bound, and both sets must fail the same share of operations. It
exits 1 when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 != 0 else float("inf")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - t0
    for line in lines:
        if "wall_s per round:" in line:
            result["round_wall_s"] = [float(v) for v in line.split(":")[-1].split()]
    return result


def summarize(workload, runs):
    print(f"{workload}: {len(runs)} runs, "
          f"failed {sum(r['failed'] for r in runs)}/"
          f"{sum(r['attempted'] for r in runs)}, "
          f"correct {all(r['correct'] for r in runs)}, "
          f"longest run {max(r['process_s'] for r in runs):.1f} s")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = quartiles(vals)
        print(f"  {name:34s} median {q2:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g}"
              f" spread {spread(vals):7.2%} {runs[0]['metrics'][name]['unit']}")


def cmd_run(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    seconds = args.seconds or bench["run_seconds"]
    out = args.out or os.path.join(
        ROOT, ".bench_out", time.strftime("runs-%Y%m%d-%H%M%S.json"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    saved = {"trace": args.trace, "seconds": seconds, "workloads": {}}
    for w in workloads:
        runs = [run_once(w, args.seed0 + i, seconds, args.trace)
                for i in range(args.runs)]
        saved["workloads"][w] = runs
        summarize(w, runs)
        with open(out, "w") as f:
            json.dump(saved, f, indent=1)
    print(f"saved {out}")
    return 0


def cmd_compare(args):
    bench = spec()
    with open(args.a) as f:
        a = json.load(f)["workloads"]
    with open(args.b) as f:
        b = json.load(f)["workloads"]
    bad = 0
    for w in sorted(set(a) & set(b)):
        ra, rb = a[w], b[w]
        fa = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        fb = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        ok = fa == fb and all(r["correct"] for r in ra + rb)
        bad += not ok
        print(f"{w}: failed share {fa:.4f} vs {fb:.4f}, all correct "
              f"{all(r['correct'] for r in ra + rb)}  {'ok' if ok else 'FAIL'}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            sa, sb = spread(va), spread(vb)
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread_ok = name == "setup_s" or (sa <= bound and sb <= bound)
            ok = spread_ok and worse <= bound
            bad += not ok
            print(f"  {name:12s} bound {bound:5.1%}  spread {sa:6.2%} / {sb:6.2%}"
                  f"  median {ma:.6g} -> {mb:.6g} ({worse:+.2%} worse)"
                  f"  {'ok' if ok else 'FAIL'}")
    print("all checks pass" if bad == 0 else f"{bad} checks fail")
    return 0 if bad == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", default="all")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
