"""One benchmark worker: set up, say READY, run the timed loop, report.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Set-up is everything before READY: interpreter start, importing
fusekit, generating the inputs and one warm-up op per rule.  With
``--setup-only`` the worker exits there.  Otherwise it runs whole cycles
of the workload's op mix until ``--seconds`` have passed and at least
the workload's minimum number of cycles is done, then prints one JSON
line.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

import calib
import workloads
from spans import Tracer


def _warm_up(cells):
    # One op per (kind, rule), on the cell with the fewest products.
    cheapest = {}
    for cell in cells:
        key = (cell.kind, cell.rule)
        if key not in cheapest or cell.products < cheapest[key].products:
            cheapest[key] = cell
    quiet = Tracer(enabled=False)
    for cell in cheapest.values():
        workloads.run(cell, quiet)
        if cell.kind == "cli":
            break  # one child process is enough to warm the file cache


def _loop(wl, first_cells, checker, seconds, min_cycles, trace):
    """Run whole cycles until both the time and the cycle count are reached.

    Peak RSS is read when the minimum cycle count is reached, so that it
    covers the same work however long the run goes on.

    With ``trace`` the cycles alternate untraced and traced, each pair on
    the same problems, so that the two op rates the run compares share
    inputs and a stretch of host time.
    """
    untraced = Tracer(enabled=False)
    traced = Tracer(enabled=True)
    lat = {False: [], True: []}
    slices = []  # one calibration slice before each untraced op
    attempted = failed = cycles = 0
    errors = []
    start = time.perf_counter()
    cells = first_cells
    while cycles < min_cycles or time.perf_counter() - start < seconds:
        on = trace and cycles % 2 == 1
        tr = traced if on else untraced
        number = cycles // 2 if trace else cycles
        if number != cells[0].cycle:
            cells = wl.cells(number)
        for cell in wl.order(cells):
            attempted += 1
            tr.op = f"c{cycles}:{cell.index}"
            slice_ns = calib.slice_ns()
            t0 = time.perf_counter_ns()
            try:
                with tr.span("op"):
                    out = workloads.run(cell, tr)
                lat[on].append(time.perf_counter_ns() - t0)
                if not on:
                    slices.append(slice_ns)
                if on and cell.kind == "cli":
                    # The in-process run of the same file splits cli.process.
                    with tr.span("replay"):
                        workloads.run_fuse(cell, tr)
                problems = checker.check(cell, out)
            except Exception as exc:  # a failed op is counted, not fatal
                problems = [f"op {cell.index} ({cell.rule}): {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                errors.extend(problems)
        cycles += 1
        if cycles == min_cycles:
            peak_rss_mb = _peak_rss_mb(wl)
    return lat, slices, attempted, failed, cycles, errors, traced, peak_rss_mb


def _peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-wide" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--perturb-reference", action="store_true")
    args = ap.parse_args()

    first_slice = calib.slice_ns()
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out)
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        first_cells = wl.cells(0)
        _warm_up(first_cells)
        # The parent subtracts the two slices from the set-up it times.
        print(f"READY {first_slice} {calib.slice_ns()}", flush=True)
        if args.setup_only:
            return 0
        checker = workloads.Checker(perturb=args.perturb_reference)
        min_cycles = 2 if args.trace else (1 if args.smoke else wl.min_cycles)
        lat, slices, attempted, failed, cycles, errors, tracer, peak_rss_mb = _loop(
            wl, first_cells, checker, args.seconds, min_cycles, bool(args.trace))
        record = {
            "attempted": attempted,
            "failed": failed,
            "errors": errors[:20],
            "cycles": cycles,
            "ops_per_cycle": len(first_cells),
            "tail_pct": wl.tail_pct,
            "latencies_ns": lat[False],
            "slices_ns": slices,
            "digest": workloads.digest(checker),
            "peak_rss_mb": peak_rss_mb,
        }
        if args.trace:
            import probes

            record["traced_latencies_ns"] = lat[True]
            record["per_layer"] = probes.per_layer(
                wl, first_cells, checker, tracer, lat, workdir, smoke=args.smoke)
            spans_path = os.path.join(args.out, f"spans-{args.workload}-s{args.seed}.jsonl")
            tracer.dump(spans_path)
            record["spans_file"] = spans_path
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
