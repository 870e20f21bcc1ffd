"""Per-layer metrics for the traced run.

Every number here is measured from outside fusekit: a span around the
benchmark's own call into one module's public functions, on the same
generated inputs the workload's ops use.  Op-level layers (parse,
execute, table, child process) come from the spans of the traced
cycles; the rest come from probe calls made after the loop on the
workload's probe cells.  Counts come from the benchmark's own expansion
of the generated atom sets, or from the ops' exported ledgers.
"""

import dataclasses
import itertools
import os
import statistics
import subprocess
import time

from fusekit import (
    Frame,
    MassFunction,
    QuasiAssociativeState,
    ScenarioConfig,
    parse_problem,
    quasi_associative_combine,
    uft_combine,
    verify_golden,
)
from fusekit import classic, pcr, special

import workloads
from spans import median_or_zero

# A probe repeats its call up to this many times while under the budget.
_MAX_REPEATS = 3
_BUDGET_NS = 250_000_000
# Batched calls run until a span covers at least this long.
_BATCH_NS = 200_000
_MAX_CANONICAL_PAIRS = 256


def _repeat(tr, name, fn):
    start = time.perf_counter_ns()
    for _ in range(_MAX_REPEATS):
        with tr.span(name):
            out = fn()
        if time.perf_counter_ns() - start > _BUDGET_NS:
            break
    return out


def _batched(tr, name, fn):
    # One timed call sizes the batch; the batch spans are what count.
    t0 = time.perf_counter_ns()
    fn()
    once = max(time.perf_counter_ns() - t0, 1)
    calls = max(1, min(1000, _BATCH_NS // once))
    for _ in range(_MAX_REPEATS):
        with tr.span(name, calls):
            for _ in range(calls):
                fn()


def _build_frame(problem):
    """The frame construction parse_problem performs for this model."""
    names = problem.frame.names
    base = Frame(names)
    if problem.model_kind == "shafer":
        return Frame.shafer(names)
    if problem.model_kind == "constrain":
        return base.constrain(*(base.parse(e) for e in problem.model_constraints))
    return base


def _probe_cell(tr, cell):
    problem = parse_problem(cell.text)
    frame = problem.frame
    sources = problem.final_sources()
    m1, m2 = sources[0], sources[1]

    _repeat(tr, "frame.build", lambda: _build_frame(problem))
    _repeat(tr, "frame.model", lambda: frame.model)
    twin = _build_frame(problem)
    _batched(tr, "frame.eq", lambda: frame == twin)
    pairs = list(itertools.islice(itertools.product(m1.focal(), m2.focal()),
                                  _MAX_CANONICAL_PAIRS))
    for _ in range(_MAX_REPEATS):
        with tr.span("frame.canonical", len(pairs)):
            for x, y in pairs:
                (x & y).canonical()
    for m in sources:
        items = dict(m.items())
        _repeat(tr, "mass.build", lambda: MassFunction(frame, items))

    _repeat(tr, "classic.conjunctive", lambda: classic.conjunctive(*sources))
    _repeat(tr, "classic.dempster", lambda: classic.dempster(*sources))
    _repeat(tr, "classic.dsmh", lambda: classic.dsm_hybrid(*sources))

    # The pairwise unit every fold repeats, with its conjunctive base.
    _repeat(tr, "pcr.base", lambda: classic.conjunctive(m1, m2))
    _repeat(tr, "pcr.pcr3", lambda: pcr.pcr3(m1, m2))
    ledger = _repeat(tr, "pcr.pcr5", lambda: pcr.pcr5(m1, m2)).conflict
    _repeat(tr, "pcr.minc-a", lambda: pcr.minc(m1, m2, version="a"))
    folded = sources if len(sources) > 2 else [m1, m2, m1]
    _repeat(tr, "pcr.fold", lambda: pcr.pcr5(*folded))
    _batched(tr, "result.ledger", lambda: (ledger.lost, ledger.redistributed()))

    config = ScenarioConfig.for_case("1.2.1")
    _repeat(tr, "uft.combine", lambda: uft_combine(sources, config))
    state = QuasiAssociativeState.start(sources[0])
    op = tr.op
    for step, m in enumerate(sources[1:] if len(sources) > 2 else [m2, m1]):
        tr.op = f"{op}:store{step}"
        _repeat(tr, "uft.store_append", lambda: state.append(m))
        _repeat(tr, "uft.store_combine", lambda: quasi_associative_combine(state, m, "dempster"))
        state = state.append(m)
    tr.op = op
    _repeat(tr, "special.zhang", lambda: special.zhang_center(m1, m2, degree="product"))


def _probe_cli(tr, cell, workdir):
    """One child process on a fuse cell's problem, plus its replay."""
    path = os.path.join(workdir, f"probe-{cell.index:02d}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cell.text)
    child = dataclasses.replace(cell, kind="cli", path=path, export=path + ".json")
    with tr.span("cli.process"):
        proc = subprocess.run(workloads.cli_command(child), capture_output=True,
                              timeout=workloads.CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe child exited {proc.returncode}: {proc.stderr[-200:]!r}")
    with tr.span("replay"):
        workloads.run_fuse(cell, tr)


def _expansion_counts(cells):
    """Products, distinct landings and empty landings of each problem's
    s-ary conjunctive expansion, summed over the workload's problems."""
    products = landings = conflicting = 0
    for cell in cells:
        focal = [[atoms for _, atoms, _ in src.focal] for src in cell.problem.sources]
        seen = set()
        for combo in itertools.product(*focal):
            landing = combo[0]
            for atoms in combo[1:]:
                landing = landing & atoms
            seen.add(landing)
            products += 1
            conflicting += not landing
        landings += len(seen)
    return products, landings, conflicting


def _paired_difference(tr, minuend, subtrahend):
    """Median over ops of (median minuend span - median subtrahend span), in ns."""
    a = tr.by_op(minuend)
    b = tr.by_op(subtrahend)
    return median_or_zero([statistics.median(a[op]) - statistics.median(b[op])
                           for op in a.keys() & b.keys()])


def _mean_of_medians(tr, name):
    """Mean over probe problems of each problem's median call, in ns.

    The problems of a workload differ in size by orders of magnitude; the
    mean gives each its typical cost, where a median over all calls would
    pick whichever size has the most calls.
    """
    return _mean([statistics.median(calls) for calls in tr.by_op(name).values()])


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(wl, first_cells, checker, tr, lat, workdir, smoke=False):
    """Every per-layer metric, keyed by its BENCHMARK.json name."""
    ms, us = 1e-6, 1e-3
    out = {}

    def loop_ops(name):  # spans of the traced cycles, not of the probes
        return [d for op, ds in tr.by_op(name).items() if op.startswith("c") for d in ds]

    out["problem.parse_ms"] = median_or_zero(loop_ops("problem.parse")) * ms
    out["golden.execute_ms"] = median_or_zero(loop_ops("golden.execute")) * ms
    out["cli.table_ms"] = median_or_zero(loop_ops("cli.table")) * ms

    cells = wl.probe_cells(first_cells)[:1 if smoke else None]
    for cell in cells:
        tr.op = f"probe:{cell.index}"
        _probe_cell(tr, cell)
    if wl.name != "cli-wide":
        for cell in cells:
            tr.op = f"probe:{cell.index}"
            _probe_cli(tr, cell, workdir)
    tr.op = "probe:verify"
    _repeat(tr, "golden.verify", verify_golden)

    for name, unit in (("frame.build", ms), ("frame.model", ms), ("frame.eq", us),
                       ("frame.canonical", us), ("mass.build", ms),
                       ("classic.conjunctive", ms), ("classic.dempster", ms),
                       ("classic.dsmh", ms), ("pcr.pcr3", ms), ("pcr.pcr5", ms),
                       ("pcr.minc-a", ms), ("pcr.fold", ms), ("uft.combine", ms),
                       ("uft.store_append", ms), ("special.zhang", ms),
                       ("result.ledger", ms), ("golden.verify", ms), ("cli.process", ms)):
        suffix = "_us" if unit == us else "_ms"
        out[name + suffix] = _mean_of_medians(tr, name) * unit
    out["pcr.route_ms"] = _paired_difference(tr, "pcr.pcr5", "pcr.base") * ms
    out["uft.store_transfer_ms"] = _paired_difference(
        tr, "uft.store_combine", "uft.store_append") * ms
    out["cli.startup_ms"] = _paired_difference(tr, "cli.process", "replay") * ms

    products, landings, conflicting = _expansion_counts(first_cells)
    out["classic.products"] = products
    out["classic.landings"] = landings
    out["classic.conflicting"] = conflicting
    out["classic.landing_ratio"] = landings / products
    out["result.partials"] = sum(len(doc.get("ledger", ())) for _, doc in checker.first.values())

    self_times = tr.self_times()
    for name in ("op", "problem.parse", "golden.execute", "cli.table", "cli.process"):
        out[f"self.{name}_ms"] = _mean(self_times.get(name, ())) * ms
    traced, untraced = lat[True], lat[False]
    out["trace.ops_per_s"] = len(traced) / (sum(traced) * 1e-9) if traced else 0.0
    out["trace.overhead_ratio"] = (_mean(traced) / _mean(untraced)) if untraced else 0.0
    out["trace.spans"] = len(tr.spans)
    return out
