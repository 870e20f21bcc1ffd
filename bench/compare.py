"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records that ``bench/run.py --out DIR``
writes.  Runs of the two sets are paired by workload, trace mode and
seed, in the order they ran; run the two sides alternately, with the
same seeds and ``--seconds``, so that each pair shares a stretch of host
time.  One row per workload and metric gives each side's median and
quartiles, the pairs the new side won, lost and tied, and a verdict:

- better: the new side wins at least nine tenths of all pairs (ties
  count for neither side) and the medians differ by more than the base
  side's own spread, the distance between its quartiles;
- worse: the same with the sides swapped;
- unresolved: anything else, or fewer than ten pairs.

End-to-end rows also say whether the new median is worse than the base
median by more than the metric's bound in BENCHMARK.json.  Output
digests are compared per workload and seed: a difference means the two
sides printed different tables for the same inputs.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Metric directions and bounds.
SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    runs = []
    for path in glob.glob(os.path.join(directory, "*.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if "workload" in record and "metrics" in record:
            runs.append(record)
    return sorted(runs, key=lambda r: r["time"])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pair_up(base, new):
    """(base record, new record) pairs, matched by seed in run order."""
    by_seed = {}
    for r in base:
        by_seed.setdefault(r["seed"], []).append(r)
    pairs = []
    for r in new:
        queue = by_seed.get(r["seed"])
        if queue:
            pairs.append((queue.pop(0), r))
    return pairs


def verdict(base_vals, new_vals, pairs, higher_is_better):
    sign = 1 if higher_is_better else -1
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    ties = len(pairs) - wins - losses
    q1, q3 = _quartiles(base_vals)
    gap = statistics.median(new_vals) - statistics.median(base_vals)
    if len(pairs) < MIN_PAIRS:
        word = "unresolved"
    elif wins >= WIN_SHARE * len(pairs) and sign * gap > q3 - q1:
        word = "better"
    elif losses >= WIN_SHARE * len(pairs) and -sign * gap > q3 - q1:
        word = "worse"
    else:
        word = "unresolved"
    return wins, losses, ties, word


def _fmt(values):
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base_runs, new_runs, spec, out=sys.stdout):
    directions = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    groups = sorted({(r["workload"], r["trace"]) for r in base_runs + new_runs})
    header = (f"{'workload':<14} {'metric':<24} {'unit':<6} {'base median [q1, q3]':<30} "
              f"{'new median [q1, q3]':<30} {'change':>8}  {'won/lost/tied':<13} "
              f"{'verdict':<10} bound")
    print(header, file=out)
    for workload, trace in groups:
        base = [r for r in base_runs if (r["workload"], r["trace"]) == (workload, trace)]
        new = [r for r in new_runs if (r["workload"], r["trace"]) == (workload, trace)]
        if not base or not new:
            print(f"{workload:<14} (trace {trace}) runs on one side only", file=out)
            continue
        pairs = pair_up(base, new)
        for name in base[0]["metrics"]:
            spec_m = directions.get(name)
            if spec_m is None or any(name not in r["metrics"] for r in base + new):
                continue
            bvals = [r["metrics"][name]["value"] for r in base]
            nvals = [r["metrics"][name]["value"] for r in new]
            vpairs = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                      for b, n in pairs]
            higher = spec_m["better"] == "higher"
            wins, losses, ties, word = verdict(bvals, nvals, vpairs, higher)
            bmed, nmed = statistics.median(bvals), statistics.median(nvals)
            change = (nmed - bmed) / bmed if bmed else 0.0
            bound = ""
            if "bound" in spec_m:
                worse_by = -change if higher else change
                bound = "over" if worse_by > spec_m["bound"] else "within"
                bound += f" {spec_m['bound']:g}"
            print(f"{workload:<14} {name:<24} {spec_m['unit']:<6} {_fmt(bvals):<30} "
                  f"{_fmt(nvals):<30} {change:>+8.1%}  {f'{wins}/{losses}/{ties}':<13} "
                  f"{word:<10} {bound}", file=out)
        differing = sorted({n["seed"] for b, n in pairs if b["digest"] != n["digest"]})
        if differing:
            print(f"{workload:<14} output digests differ for seeds {differing}", file=out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", help="directory of the base side's run records")
    ap.add_argument("new", help="directory of the new side's run records")
    args = ap.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no run records found", file=sys.stderr)
        return 2
    compare(base, new, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
