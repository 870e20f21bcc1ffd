"""The three workloads: their op mix, how one op runs, and how it is checked.

Every op is a closed-loop call by one caller.  A fuse op takes the CLI's
path in-process: parse_problem -> execute_problem -> build_table ->
render() + to_json_dict().  A stream op feeds the problem's sources one
at a time through quasi_associative_combine.  A cli op runs
``python -m fusekit --rule R --input F --export J`` as a child process.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

from fusekit import QuasiAssociativeState, execute_problem, parse_problem, quasi_associative_combine
from fusekit.cli import build_table
from fusekit.golden import Outcome

import gen
import reference
from spans import Tracer

PAIR_RULES = ("conjunctive", "dempster", "dsmh", "pcr3", "pcr5", "minc-a", "uft", "zhang-product")
UFT_SCENARIO = "case 1.2.1"
# Rules whose combined total is 1 by construction, whatever the sources' totals.
NORMALISING = frozenset({"dempster", "zhang-product"})
# Absolute tolerance of every mass comparison.
TOL = 1e-12
# A cli op that takes longer than this has hung.
CLI_TIMEOUT_S = 60


@dataclass
class Cell:
    """One op of the mix: what to run and on which generated problem."""

    index: int
    kind: str  # "fuse" | "stream" | "cli"
    rule: str
    problem: gen.Problem
    text: str
    cycle: int = 0
    path: str = None
    export: str = None

    @property
    def products(self):
        return math.prod(len(src.focal) for src in self.problem.sources)


@dataclass
class Workload:
    """A workload's op mix for one seed.

    Every cycle runs the whole mix once, on problems of its own: cycle c
    draws fresh problems from (workload, seed, c), so a longer run sees
    more distinct inputs and the same seed always sees the same ones.
    """

    name: str
    seed: int
    workdir: str
    tail_pct: int
    min_cycles: int

    def cells(self, number):
        """The cells of cycle ``number``, in generation order."""
        rng = gen.rng_for(self.name, f"{self.seed}:{number}")
        cells = BUILDERS[self.name][0](rng)
        for cell in cells:
            cell.cycle = number
            if cell.kind == "cli":
                stem = os.path.join(self.workdir, f"cell-{number}-{cell.index:02d}")
                cell.path, cell.export = stem + ".txt", stem + ".json"
                with open(cell.path, "w", encoding="utf-8") as fh:
                    fh.write(cell.text)
        return cells

    def order(self, cells):
        """The seeded order in which a cycle runs its cells."""
        ordered = list(cells)
        gen.rng_for(self.name, f"{self.seed}:order:{cells[0].cycle}").shuffle(ordered)
        return ordered

    def probe_cells(self, cells):
        """One cell per problem shape the probes should cover."""
        return BUILDERS[self.name][1](cells)


def _fuse(rng, cells, kind, n, k, s, rule, scenario=None, runs_as="fuse"):
    problem = gen.make_problem(rng, kind, n, k, s, scenario)
    cells.append(Cell(len(cells), runs_as, rule, problem, problem.text()))


def _first_per_frame(cells):
    seen = {}
    for c in cells:
        seen.setdefault((c.problem.model.kind, c.problem.model.n), c)
    return list(seen.values())


def _pair_conflict(rng):
    cells = []
    # Twice as many small problems as large ones keeps the median op
    # inside one cluster of latencies instead of on the gap between two.
    for kind in ("shafer", "hybrid"):
        for (n, k), copies in (((6, 16), 2), ((8, 40), 1)):
            for rule in PAIR_RULES:
                for _ in range(copies):
                    _fuse(rng, cells, kind, n, k, 2, rule,
                          UFT_SCENARIO if rule == "uft" else None)
    return cells


_MULTI_FRAMES = (("free", 3), ("free", 4), ("hybrid", 3), ("hybrid", 4))
# (sources, focal elements): 1296, 1024 and 4096 products per s-ary op;
# the pairwise and stream ops also take 5 sources of 6 (7776 products).
_EXPANSION_SIZES = ((4, 6), (5, 4), (6, 4))
_PAIRWISE_SIZES = _EXPANSION_SIZES + ((5, 6),)


def _multi_source(rng):
    cells = []
    for r, rule in enumerate(("conjunctive", "dsmh", "uft")):
        for i, (s, k) in enumerate(_EXPANSION_SIZES):
            kind, n = _MULTI_FRAMES[(i + r) % 4]
            _fuse(rng, cells, kind, n, k, s, rule)
    # Two problems per shape for the cheap ops: their costs spread widely
    # with the drawn focal sets, and the median op is one of them.
    for _ in range(2):
        for r, rule in enumerate(("pcr5", "minc-a")):
            for i, (s, k) in enumerate(_PAIRWISE_SIZES):
                kind, n = _MULTI_FRAMES[(i + r + 1) % 4]
                _fuse(rng, cells, kind, n, k, s, rule)
        for r, rule in enumerate(("dempster", "pcr1", "pcr5")):
            for i, (s, k) in enumerate(_PAIRWISE_SIZES):
                kind, n = _MULTI_FRAMES[(i + r + 2) % 4]
                _fuse(rng, cells, kind, n, k, s, rule, runs_as="stream")
    return cells


def _multi_probes(cells):
    return [c for c in cells if c.rule == "conjunctive"]


_CLI_RULES = {
    # (model, n): rules, one problem each.  Both models run every rule at
    # n=3 and n=8, and Shafer's model runs every rule twice at n=14: the
    # median op is then a small-frame run and the p75 tail falls inside
    # the n=14 Shafer runs, not on a gap between clusters of latencies.
    ("shafer", 3): ("dempster", "dsmh", "pcr5", "uft", "dempster", "pcr5"),
    ("shafer", 8): ("dempster", "dsmh", "pcr5", "uft"),
    ("shafer", 14): ("dempster", "dsmh", "pcr5", "uft") * 2,
    ("shafer", 16): ("uft",),
    ("hybrid", 3): ("dempster", "dsmh", "pcr5", "uft", "dsmh", "uft"),
    ("hybrid", 8): ("dempster", "dsmh", "pcr5", "uft"),
    ("hybrid", 14): ("dsmh", "pcr5", "uft"),
    ("hybrid", 16): ("dempster",),
}


def _cli_wide(rng):
    cells = []
    for (kind, n), rules in _CLI_RULES.items():
        for rule in rules:
            _fuse(rng, cells, kind, n, 4, 2, rule,
                  UFT_SCENARIO if rule == "uft" else None, runs_as="cli")
    return cells


# name -> (cell builder, probe cell selector, tail percentile, minimum cycles).
# The tail percentile is fixed per workload, so that runs of different
# lengths report the same statistic; the minimum cycle count keeps at
# least ten samples beyond it.
BUILDERS = {
    "pair-conflict": (_pair_conflict, _first_per_frame, 90, 3),
    "multi-source": (_multi_source, _multi_probes, 90, 3),
    "cli-wide": (_cli_wide, _first_per_frame, 75, 2),
}


def build(name, seed, workdir):
    _, _, tail_pct, min_cycles = BUILDERS[name]
    return Workload(name, seed, workdir, tail_pct, min_cycles)


# -- running one op ---------------------------------------------------------

@dataclass
class Output:
    text: str
    doc: dict = None
    outcome: object = None
    returncode: int = 0


def run_fuse(cell, tr):
    with tr.span("problem.parse"):
        problem = parse_problem(cell.text)
    with tr.span("golden.execute"):
        outcome = execute_problem(problem, cell.rule)
    with tr.span("cli.table"):
        table = build_table(outcome, cell.rule)
        return Output(table.render(), table.to_json_dict(outcome), outcome)


def run_stream(cell, tr):
    with tr.span("problem.parse"):
        problem = parse_problem(cell.text)
    with tr.span("uft.stream"):
        sources = problem.final_sources()
        state = QuasiAssociativeState.start(sources[0])
        for m in sources[1:]:
            state, result = quasi_associative_combine(state, m, cell.rule)
    outcome = Outcome("mass", frame=problem.final_frame(), combined=result.combined,
                      result=result, warnings=result.warnings)
    with tr.span("cli.table"):
        table = build_table(outcome, cell.rule)
        return Output(table.render(), table.to_json_dict(outcome), outcome)


def cli_command(cell):
    return [sys.executable, "-m", "fusekit", "--rule", cell.rule,
            "--input", cell.path, "--export", cell.export]


def run_cli(cell, tr):
    with tr.span("cli.process"):
        proc = subprocess.run(cli_command(cell), capture_output=True, text=True,
                              encoding="utf-8", timeout=CLI_TIMEOUT_S)
    return Output(proc.stdout, returncode=proc.returncode)


RUNNERS = {"fuse": run_fuse, "stream": run_stream, "cli": run_cli}


def run(cell, tr):
    return RUNNERS[cell.kind](cell, tr)


# -- checking one op --------------------------------------------------------

def _by_atoms(mass_function):
    return {frozenset(el.atoms): v for el, v in mass_function.items()}


class Checker:
    """Checks every op's output; keeps the first cycle's outputs for the digest.

    ``perturb`` shifts every reference result by 1e-3 so that a run can
    prove the reference comparison fails when it should.
    """

    def __init__(self, perturb=False):
        self.perturb = perturb
        self.first = {}  # cell index -> (rendered text, JSON dict) of cycle 0

    def check(self, cell, out):
        if cell.kind == "cli":
            return self._check_cli(cell, out)
        if cell.cycle == 0:
            self.first[cell.index] = (out.text, out.doc)
        return self.full_check(cell, out.outcome)

    def _check_cli(self, cell, out):
        if out.returncode != 0:
            return [f"op {cell.index} ({cell.rule}): exit code {out.returncode}"]
        replay = run_fuse(cell, Tracer(enabled=False))
        if cell.cycle == 0:
            self.first[cell.index] = (out.text, replay.doc)
        errors = self.full_check(cell, replay.outcome)
        if out.text != replay.text + "\n":
            errors.append(f"op {cell.index}: CLI stdout differs from the in-process render()")
        with open(cell.export, encoding="utf-8") as fh:
            if json.load(fh) != replay.doc:
                errors.append(f"op {cell.index}: --export JSON differs from to_json_dict()")
        return errors

    def _reference(self, cell):
        atoms = [src.by_atoms() for src in cell.problem.sources]
        rule = "dempster" if cell.kind == "stream" else cell.rule
        if rule == "conjunctive":
            want = reference.conjunctive(atoms)
        elif rule == "dempster":
            want = reference.dempster(atoms)
        elif rule == "pcr5" and len(atoms) == 2:
            want = reference.pcr5(*atoms)
        else:
            return None
        if self.perturb:
            key = next(iter(want))
            want = {**want, key: want[key] + 1e-3}
        return want

    def full_check(self, cell, outcome):
        errors = []
        result = outcome.result
        totals = [src.total for src in cell.problem.sources]
        want_total = 1.0 if cell.rule in NORMALISING else math.prod(totals)
        got_total = outcome.combined.total + result.conflict.lost
        if abs(got_total - want_total) > TOL:
            errors.append(f"op {cell.index} ({cell.rule}): total + lost = {got_total!r}, "
                          f"want {want_total!r}")
        if cell.kind == "stream" and cell.rule != "dempster":
            return errors
        want = self._reference(cell)
        if want is not None:
            diff = reference.max_difference(_by_atoms(outcome.combined), want)
            if diff > TOL:
                errors.append(f"op {cell.index} ({cell.rule}): differs from the reference "
                              f"by {diff:.3e}")
        # The direct s-ary run costs as much as the largest ops, so only
        # the first cycle's stream results are compared with it.
        if cell.kind == "stream" and cell.cycle == 0:
            direct = execute_problem(parse_problem(cell.text), "dempster").combined
            diff = reference.max_difference(_by_atoms(outcome.combined), _by_atoms(direct))
            if diff > TOL:
                errors.append(f"op {cell.index}: stream dempster differs from the direct "
                              f"s-ary result by {diff:.3e}")
        return errors


def digest(checker):
    """Hash of the first cycle's rendered outputs, in generation order."""
    h = hashlib.sha256()
    for index in sorted(checker.first):
        h.update(checker.first[index][0].encode("utf-8") + b"\0")
    return h.hexdigest()[:16]
