#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads plan-solve,replan-delta --seeds 1-10 --trace 0
    python3 perfbench/spread.py ... --save a.json      # keep the figures
    python3 perfbench/spread.py ... --against a.json   # compare medians

For every metric it prints the median of the runs, the quartiles from
`statistics.quantiles(values, n=4)`, and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. With --against it also
prints how far each median moved from the saved set, counted in the
metric's worse direction. Agreement needs every move within the bound,
and every spread within the bound except that of `setup_s`. A run's
set-ups all fall within about a second, so the spread of `setup_s`
across runs is the machine's own variation at that time scale, which no
number of set-ups per run averages out; it is printed and judged by its
median's move alone.

It also reports the machine readings each run records: the timings of a
fixed integer loop and of a fixed cache-missing walk, each before and
after the workload (`calib_alu_ms`, `calib_mem_ms`), and the share of
CPU time stolen by the hypervisor. A set whose calibration spreads, or
moves against the saved set, ran on a machine whose speed changed, and
its timing figures say as much about the machine as about the program;
so does one in which a run lost more than 5% of the CPU to steal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CALIB_DRIFT = 0.25
STEAL_LIMIT = 0.05


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


CALIBRATIONS = ["calib_alu_ms", "calib_mem_ms"]


def machine(workload, seed, trace):
    """The run's record's calibration timings and steal share."""
    path = os.path.join("perfbench", "out", "results", f"{workload}-s{seed}-t{trace}.json")
    with open(path) as f:
        meta = json.loads(f.readline())["meta"]
    return {c: meta[c] for c in CALIBRATIONS}, meta["steal_share"]


def quartile_spread(v):
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
    return med, q1, q3, ((q3 - q1) / abs(med) if med else 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: m for m in declared}
    previous = json.load(open(args.against)) if args.against else {}
    figures = {}
    agree = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        calib = {c: [] for c in CALIBRATIONS}
        steal = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, args.trace)
            readings, st = machine(workload, seed, args.trace)
            for c in CALIBRATIONS:
                calib[c].extend(readings[c])
            steal.append(st)
            ok = result["correct"] and result["failed"] == 0
            agree &= ok
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        figures[workload] = dict(values, **{"_" + c: v for c, v in calib.items()})
        print(f"\n{workload}: {len(args.seeds)} runs of {seconds} s")
        line = f"  machine: steal share max {max(steal):.4f}"
        if max(steal) > STEAL_LIMIT:
            line += "  HYPERVISOR STEAL: re-run this set"
        print(line)
        for c, v in calib.items():
            cmed, _, _, csp = quartile_spread(v)
            line = f"  machine: {c} median {cmed:.4g}, spread {csp:.4f}"
            old = previous.get(workload, {}).get("_" + c)
            if old:
                moved = cmed / statistics.median(old) - 1
                line += f", moved {moved:+.4f} against the saved set"
                csp = max(csp, abs(moved))
            if csp > CALIB_DRIFT:
                line += "  MACHINE SPEED CHANGED: re-run this set"
            print(line)
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'moved':>8}")
        for name, m in metrics.items():
            med, q1, q3, sp = quartile_spread(values[name])
            bound = m.get("bound")
            line = f"  {name:<36} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {sp:>8.4f}"
            line += f" {bound:>6}" if bound is not None else f" {'':>6}"
            prev = previous.get(workload, {}).get(name)
            if prev:
                pm = statistics.median(prev)
                moved = (med - pm) / abs(pm) if pm else 0.0
                if m.get("better") == "higher":
                    moved = -moved
                line += f" {moved:>+8.4f}"
                if bound is not None and moved > bound:
                    agree = False
                    line += "  MOVED PAST BOUND"
            if name == "setup_s":
                line += "  (spread not gated)"
            elif bound is not None and sp > bound:
                agree = False
                line += "  SPREAD PAST BOUND"
            elif bound is not None and sp > bound / 3:
                line += "  (over a third of the bound)"
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(figures, f, indent=1)
    print("\nagree" if agree else "\nDO NOT AGREE")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
