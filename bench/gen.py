"""Seeded problem generation for the benchmark.

Nothing here imports fusekit.  Every generated problem carries its text,
which is all fusekit ever sees, and the same sources as atom sets, which
only the benchmark's own reference and checks read.  Atoms use fusekit's
documented encoding: an atom is a bitmask over hypothesis indices naming
exactly the hypotheses that contain it.
"""

import itertools
import math
import random
from dataclasses import dataclass

LABELS = "ABCDEFGHIJKLMNOP"

# Focal weights are drawn from [floor, 1], so no mass is orders of
# magnitude below the others and every product carries visible mass.
_WEIGHT_FLOOR = 0.05


def rng_for(workload, seed):
    """One deterministic stream per (workload, seed)."""
    return random.Random(f"fusekit-bench:{workload}:{seed}")


@dataclass(frozen=True)
class Model:
    """A frame and its model.

    ``kind`` is "free", "shafer" or "hybrid".  A hybrid model here is
    Shafer's model with a few pairwise overlaps left non-empty: the
    problem text constrains every other pair to be empty.
    """

    kind: str
    n: int
    pairs: tuple = ()

    @property
    def names(self):
        return LABELS[: self.n]

    def surviving(self):
        if self.kind == "free":
            return frozenset(range(1, 1 << self.n))
        singles = {1 << i for i in range(self.n)}
        return frozenset(singles | {(1 << i) | (1 << j) for i, j in self.pairs})

    def lines(self):
        out = ["frame: " + " ".join(self.names)]
        if self.kind == "hybrid":
            kept = set(self.pairs)
            empty = [
                f"{self.names[i]}&{self.names[j]}=0"
                for i, j in itertools.combinations(range(self.n), 2)
                if (i, j) not in kept
            ]
            out.append("model: constrain " + ", ".join(empty))
        else:
            out.append(f"model: {self.kind}")
        return out


def make_model(rng, kind, n):
    """A model of the given kind; hybrids keep a random matching of overlaps."""
    if kind != "hybrid":
        return Model(kind, n)
    order = list(range(n))
    rng.shuffle(order)
    pairs = tuple(sorted(
        tuple(sorted(order[2 * i: 2 * i + 2])) for i in range(max(1, n // 4))
    ))
    return Model("hybrid", n, pairs)


def focal_pool(model):
    """Candidate focal elements as (text, atoms), distinct and non-empty.

    Unions of up to three hypotheses, plus intersections of two or three
    hypotheses where the model leaves them non-empty.
    """
    surviving = model.surviving()
    names = model.names
    seen = set()
    pool = []

    def offer(text, atoms):
        if atoms and atoms not in seen:
            seen.add(atoms)
            pool.append((text, atoms))

    for size in (1, 2, 3):
        for combo in itertools.combinations(range(model.n), size):
            mask = sum(1 << i for i in combo)
            offer("|".join(names[i] for i in combo),
                  frozenset(a for a in surviving if a & mask))
    for size in (2, 3):
        for combo in itertools.combinations(range(model.n), size):
            mask = sum(1 << i for i in combo)
            offer("&".join(names[i] for i in combo),
                  frozenset(a for a in surviving if a & mask == mask))
    return pool


@dataclass(frozen=True)
class Source:
    """One source: ordered (text, atoms, mass) focal entries."""

    focal: tuple

    def text_line(self, name):
        return f"source {name}: " + ", ".join(f"{t}={v!r}" for t, _, v in self.focal)

    @property
    def total(self):
        return math.fsum(v for _, _, v in self.focal)

    def by_atoms(self):
        return {atoms: v for _, atoms, v in self.focal}


def make_source(rng, pool, k):
    chosen = rng.sample(pool, k)
    weights = [rng.uniform(_WEIGHT_FLOOR, 1.0) for _ in chosen]
    total = math.fsum(weights)
    return Source(tuple((t, atoms, w / total) for (t, atoms), w in zip(chosen, weights)))


def _some_product_survives(model, sources):
    # Enough for Dempster's rule to be defined: one surviving atom lies
    # in a focal element of every source.
    return any(
        all(any(atom in atoms for _, atoms, _ in src.focal) for src in sources)
        for atom in model.surviving()
    )


@dataclass(frozen=True)
class Problem:
    """One generated problem: model, sources, optional scenario line."""

    model: Model
    sources: tuple
    scenario: str = None

    def text(self):
        lines = self.model.lines()
        lines += [src.text_line(f"m{i + 1}") for i, src in enumerate(self.sources)]
        if self.scenario:
            lines.append(f"scenario: {self.scenario}")
        return "\n".join(lines) + "\n"


def make_problem(rng, kind, n, k, s, scenario=None):
    """Sources drawn until some product survives, so no rule is undefined."""
    model = make_model(rng, kind, n)
    pool = focal_pool(model)
    if k > len(pool):
        raise ValueError(f"{kind} frame with n={n} has only {len(pool)} candidates, k={k}")
    while True:
        sources = tuple(make_source(rng, pool, k) for _ in range(s))
        if _some_product_survives(model, sources):
            return Problem(model, sources, scenario)
