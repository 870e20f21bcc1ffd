"""Reference implementations used to cross-check the combination rules.

Everything here works on plain dictionaries keyed by frozensets of atom
bitmasks, written directly from the defining formulas.  Nothing calls
back into the package: tests convert package output to this shape and
compare the numbers.  The rule oracles but ``split_ledger`` assume
sources without mass on the empty element; other tests that exercise
empty-focal sources check invariants instead of oracle equality.
``export_ledger`` is the one exception: it reads the package's displays
and expression text, and checks only how the export assembles them.
"""

import functools
import itertools
import math
import operator

EMPTY = frozenset()


def plain(m):
    """A package mass function as {frozenset(atoms): mass}."""
    out = {}
    for el, v in m.items():
        key = frozenset(el.atoms)
        out[key] = out.get(key, 0.0) + v
    return out


def delta(actual, expected):
    """Largest absolute per-element difference between two plain maps."""
    keys = set(actual) | set(expected)
    return max(
        (abs(actual.get(k, 0.0) - expected.get(k, 0.0)) for k in keys),
        default=0.0,
    )


def _add(acc, key, w):
    acc[key] = acc.get(key, 0.0) + w


def products(p1, p2):
    for x, wx in p1.items():
        for y, wy in p2.items():
            yield x, y, wx * wy


def expand_products(sources, op, claim=None):
    """The conjunctive-family product loop as one plain ``itertools.product``
    over the sources' (element, mass) items; it reads only their masks.

    A product weighs ``math.prod`` of its masses and is skipped at zero;
    its landing is its operands' masks joined left to right by ``op``
    ("and", "or" or "xor").  A non-empty landing that ``claim(els, mask)``
    does not claim lands; every other product conflicts.  Returns the
    conflicts as (operands, weight, landing mask) in enumeration order,
    their total k12 summed in that order, and the landed masses as
    [(mask, mass)] in first-landing order.
    """
    join = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}[op]
    conflicts, k12, acc = [], 0.0, {}
    for combo in itertools.product(*(m.items() for m in sources)):
        els, masses = zip(*combo)
        p = math.prod(masses)
        if p == 0.0:
            continue
        mask = functools.reduce(join, (el.mask for el in els))
        if mask and (claim is None or not claim(els, mask)):
            _add(acc, mask, p)
            continue
        k12 += p
        conflicts.append((els, p, mask))
    return conflicts, k12, list(acc.items())


def columns(*ps):
    out = {}
    for p in ps:
        for k, v in p.items():
            _add(out, k, v)
    return out


def conflict(p1, p2):
    return math.fsum(w for x, y, w in products(p1, p2) if not x & y)


def conjunctive(p1, p2):
    out = {}
    for x, y, w in products(p1, p2):
        _add(out, x & y, w)
    return out


def disjunctive(p1, p2):
    out = {}
    for x, y, w in products(p1, p2):
        _add(out, x | y, w)
    return out


def xor(p1, p2):
    out = {}
    for x, y, w in products(p1, p2):
        _add(out, x ^ y, w)
    return out


def dempster(p1, p2):
    out = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        if inter:
            _add(out, inter, w)
    total = math.fsum(out.values())
    return {k: v / total for k, v in out.items()}


def yager(p1, p2, ignorance):
    out = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        _add(out, inter if inter else ignorance, w)
    return out


def dubois_prade(p1, p2):
    out = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        _add(out, inter if inter else x | y, w)
    return out


def wao(p1, p2):
    """Column-average redistribution; returns (masses, lost)."""
    out = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        if inter:
            _add(out, inter, w)
    k12 = conflict(p1, p2)
    lost = 0.0
    if k12 > 0.0:
        for k, c in columns(p1, p2).items():
            share = (c / 2.0) * k12
            if k:
                _add(out, k, share)
            else:
                lost += share
    return out, lost


def pcr1(p1, p2):
    out = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        if inter:
            _add(out, inter, w)
    k12 = conflict(p1, p2)
    if k12 > 0.0:
        cols = {k: c for k, c in columns(p1, p2).items() if k}
        d12 = math.fsum(cols.values())
        for k, c in cols.items():
            _add(out, k, k12 * c / d12)
    return out


def pcr2(p1, p2):
    out = {}
    involved = set()
    k12 = 0.0
    for x, y, w in products(p1, p2):
        inter = x & y
        if inter:
            _add(out, inter, w)
        else:
            k12 += w
            involved.add(x)
            involved.add(y)
    if k12 > 0.0:
        cols = columns(p1, p2)
        e12 = math.fsum(cols.get(k, 0.0) for k in involved)
        for k in involved:
            _add(out, k, k12 * cols.get(k, 0.0) / e12)
    return out


def pcr3(p1, p2):
    cols = columns(p1, p2)
    out = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        if inter:
            _add(out, inter, w)
            continue
        cx, cy = cols.get(x, 0.0), cols.get(y, 0.0)
        _add(out, x, w * cx / (cx + cy))
        _add(out, y, w * cy / (cx + cy))
    return out


def pcr4(p1, p2):
    base = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        if inter:
            _add(base, inter, w)
    out = dict(base)
    cols = columns(p1, p2)
    for x, y, w in products(p1, p2):
        if x & y:
            continue
        wx, wy = base.get(x, 0.0), base.get(y, 0.0)
        if wx + wy <= 0.0:
            wx, wy = cols.get(x, 0.0), cols.get(y, 0.0)
        _add(out, x, w * wx / (wx + wy))
        _add(out, y, w * wy / (wx + wy))
    return out


def pcr5(p1, p2):
    """The closed two-source formula, summed element by element."""
    out = {}
    for x, y, w in products(p1, p2):
        inter = x & y
        if inter:
            _add(out, inter, w)
    keys = set(p1) | set(p2)
    for x in keys:
        a1 = p1.get(x, 0.0)
        a2 = p2.get(x, 0.0)
        for y in keys:
            if x & y:
                continue
            b2 = p2.get(y, 0.0)
            if a1 > 0.0 and b2 > 0.0:
                _add(out, x, a1 * a1 * b2 / (a1 + b2))
            b1 = p1.get(y, 0.0)
            if a2 > 0.0 and b1 > 0.0:
                _add(out, x, a2 * a2 * b1 / (a2 + b1))
    return out


def pcr5_split(operands, weights, ignorance, p):
    """PCR5's split of one conflicting product back to its operands.

    ``operands`` are the operands' atom sets and ``weights`` the masses
    their sources give them.  Empty operands weigh nothing; total
    ignorance weighs only when no other operand is non-empty; operands of
    equal atoms pool their weights, kept where first seen.  Returns
    [(atoms, share)], or None when the operands weigh nothing.
    """
    nonempty = [i for i, atoms in enumerate(operands) if atoms]
    charged = [i for i in nonempty if operands[i] != ignorance] or nonempty
    pooled = {}
    for i in charged:
        _add(pooled, operands[i], weights[i])
    total = sum(pooled.values())
    if total <= 1e-12:
        return None
    return [(atoms, p * w / total) for atoms, w in pooled.items()]


def _by_weight(entries, p):
    """Split p over (atoms, weight) entries of positive weight; None if
    they weigh at most 1e-12 in all."""
    entries = [(atoms, w) for atoms, w in entries if w > 0.0]
    total = math.fsum(w for _, w in entries)
    if total <= 1e-12:
        return None
    return [(atoms, p * w / total) for atoms, w in entries]


def split_ledger(rule, sources, names, surviving):
    """The ledger and result of ``pcr3``, ``pcr5``, ``minc-a`` or ``uft``
    under case 1.2.1 on two sources, one product at a time.

    ``sources`` are two lists of (expression, mass).  A product weighs
    m1 * m2 and is skipped at zero; it lands on its operands' common
    atoms.  pcr3, pcr5 and minC split each product that lands on none;
    uft splits each contested one, whose landing is none of its operands'
    atoms.  The split goes:
    - pcr5 and uft: to the operands as ``pcr5_split`` gives;
    - pcr3: to the non-empty operands (total ignorance only when no other
      is non-empty), each atom set once, by its column sum;
    - minc-a: to ``minc_a_recipients`` by their landed masses, else in
      equal shares.
    A split that weighs nothing, and a minC product with no recipient,
    goes to the union of the operands' disjunctive forms, else to total
    ignorance, else stays on the empty set.  Mass sums in product order.
    Returns ([(operand atom sets, mass, [(atoms, share)])], {atoms: mass}).
    """
    ops = [[(expr_atoms(e, names, surviving), e, v) for e, v in src] for src in sources]
    cols = columns(*({x: v for x, _, v in src} for src in ops))
    ignorance = frozenset(surviving)
    landed, ledger, out, pending = {}, [], {}, []

    def book(atoms, exprs, weights, p):
        if rule in ("pcr5", "uft"):
            shares = pcr5_split(list(atoms), list(weights), ignorance, p)
        elif rule == "pcr3":
            charged = [x for x in atoms if x and x != ignorance] or [x for x in atoms if x]
            shares = _by_weight([(x, cols[x]) for x in dict.fromkeys(charged)], p)
        else:
            recipients = minc_a_recipients(list(exprs), names, surviving)
            shares = recipients and (
                _by_weight([(r, landed.get(r, 0.0)) for r in recipients], p)
                or [(r, p / len(recipients)) for r in recipients])
        if not shares:
            labels = set().union(*(_form_labels(e, names, surviving) for e in exprs))
            dest = frozenset().union(*(expr_atoms(("label", nm), names, surviving)
                                       for nm in labels))
            shares = [(dest or ignorance, p)]
        ledger.append((list(atoms), p, shares))
        for dest, v in shares:
            _add(out, dest, v)

    # uft books each product as it comes; the others once every product
    # has landed, since minC weighs by the landed masses.
    for (x, ex, a), (y, ey, b) in itertools.product(*ops):
        p = a * b
        if p == 0.0:
            continue
        inter = x & y
        if inter and (rule != "uft" or inter in (x, y)):
            _add(landed, inter, p)
            _add(out, inter, p)
        elif rule == "uft":
            book((x, y), (ex, ey), (a, b), p)
        else:
            pending.append(((x, y), (ex, ey), (a, b), p))
    for args in pending:
        book(*args)
    return ledger, {atoms: v for atoms, v in out.items() if v}


# -- belief measures --------------------------------------------------------

def bel(p, a):
    return math.fsum(v for k, v in p.items() if k and k <= a)


def pl(p, a):
    return math.fsum(v for k, v in p.items() if k & a)


def q(p, a):
    return math.fsum(v for k, v in p.items() if k >= a)


def bel_d(p, a):
    return math.fsum(
        v * len(k) / len(a) for k, v in p.items() if k and k <= a
    )


def pl_d(p, a):
    return math.fsum(
        v * len(k & a) / len(k | a) for k, v in p.items() if k & a
    )


def mobius_from_commonality(qmap):
    """Invert a commonality map over a subset lattice of frozensets."""
    out = {}
    for a in qmap:
        total = math.fsum(
            qv if (len(b) - len(a)) % 2 == 0 else -qv
            for b, qv in qmap.items()
            if b >= a
        )
        if abs(total) > 1e-12:
            out[a] = total
    return out


# -- the reduced intersection read by dsmh and minC ----------------------
#
# Expressions are plain tuple trees: ("label", name), ("empty",),
# ("not", e) and (op, (e, ...)) for op in and, or, xor.  A frame is its
# hypothesis names and its surviving atoms.  The whole intersection of a
# product's operand expressions is reduced in one pass, as the rules
# define it.

def expr_atoms(expr, names, surviving):
    """The surviving atoms an expression denotes."""
    op = expr[0]
    if op == "label":
        bit = 1 << names.index(expr[1])
        return frozenset(a for a in surviving if a & bit)
    if op == "empty":
        return EMPTY
    if op == "not":
        return frozenset(surviving) - expr_atoms(expr[1], names, surviving)
    out = None
    for child in expr[1]:
        atoms = expr_atoms(child, names, surviving)
        if out is None:
            out = atoms
        elif op == "and":
            out = out & atoms
        elif op == "or":
            out = out | atoms
        else:
            out = out ^ atoms
    return out


def free_atoms(n):
    """Every candidate atom of n hypotheses: the free model keeps them all."""
    return frozenset(range(1, 1 << n))


def shafer_atoms(n):
    """The n single-hypothesis atoms of Shafer's model."""
    return frozenset(1 << i for i in range(n))


def constrain(constraints, names, surviving):
    """The surviving atoms left once every constraint expression is empty."""
    gone = frozenset().union(*(expr_atoms(e, names, surviving) for e in constraints))
    return frozenset(surviving) - gone


def degree_intersection(x, y):
    return len(x & y) / len(x | y)


def degree_inclusion(x, y):
    return len(x) / len(y) if y else 1.0


def reduce_expr(expr, names, surviving):
    """Absorption, inside out: a chain of one connective (and or or) is
    flattened, terms of equal atoms keep the first, and an and-chain
    drops every term holding another term's atoms, an or-chain every
    term inside another's."""
    op = expr[0]
    if op in ("label", "empty"):
        return expr
    if op == "not":
        return ("not", reduce_expr(expr[1], names, surviving))
    kids = [reduce_expr(child, names, surviving) for child in expr[1]]
    if op == "xor":
        return ("xor", tuple(kids))
    terms = []
    for kid in kids:
        terms.extend(kid[1] if kid[0] == op else [kid])
    first = {}
    for term in terms:
        first.setdefault(expr_atoms(term, names, surviving), term)
    kept = []
    for atoms, term in first.items():
        others = [other for other in first if other != atoms]
        if op == "and" and any(other <= atoms for other in others):
            continue
        if op == "or" and any(atoms <= other for other in others):
            continue
        kept.append(term)
    return kept[0] if len(kept) == 1 else (op, tuple(kept))


def _form_labels(expr, names, surviving):
    """The hypotheses of an expression's disjunctive form; a complement
    reads as the hypotheses covering its atoms."""
    op = expr[0]
    if op == "label":
        return {expr[1]}
    if op == "empty":
        return set()
    if op == "not":
        atoms = expr_atoms(expr, names, surviving)
        return {nm for i, nm in enumerate(names) if any(a >> i & 1 for a in atoms)}
    return set().union(*(_form_labels(child, names, surviving) for child in expr[1]))


def intersection_parts(operands, names, surviving):
    """The terms of the reduced intersection of the operand expressions."""
    reduced = reduce_expr(("and", tuple(operands)), names, surviving)
    return list(reduced[1]) if reduced[0] == "and" else [reduced]


def dsmh_destination(operands, names, surviving):
    """The atoms a conflicting dsmh product goes to.

    Operands that are all empty send it to the union of their own
    disjunctive forms, any other product to the disjunctive form of the
    reduced intersection.  An empty destination falls back to total
    ignorance, which is empty only in a fully degenerate model.
    """
    if all(not expr_atoms(e, names, surviving) for e in operands):
        labels = set().union(*(_form_labels(e, names, surviving) for e in operands))
    else:
        labels = _form_labels(reduce_expr(("and", tuple(operands)), names, surviving),
                              names, surviving)
    dest = frozenset().union(*(expr_atoms(("label", nm), names, surviving) for nm in labels))
    return dest or frozenset(surviving)


# -- displays -------------------------------------------------------------------
#
# The display rule as plain passes over atom sets: a cover of the set by
# cubes, each grown from the minterm of its lowest uncovered atom by
# dropping literals while it stays inside the set.  Every cube is
# recomputed from the surviving atoms.

def display_expr(names, surviving, atoms):
    """The expression the atom set ``atoms`` displays as.

    The union of the set's cubes when none negates a label, else ``~`` of
    the union of the complement's cubes when none of those negates one,
    else the union of the set's cubes.
    """
    if not atoms:
        return ("empty",)
    cubes = cover(names, surviving, atoms)
    if any(negated for _, negated in cubes):
        outer = cover(names, surviving, frozenset(surviving) - atoms)
        if not any(negated for _, negated in outer):
            return ("not", _cubes_node(names, outer))
    return _cubes_node(names, cubes)


def cover(names, surviving, atoms):
    """The cubes, as (label indices, negated label indices), whose union is
    ``atoms``.

    The lowest uncovered atom seeds its minterm.  Negated labels are
    dropped one at a time, lowest index first, then labels, highest index
    first, each while the cube stays inside the set and keeps a literal.
    (Dropping the negated labels one at a time drops them all when the
    labels' intersection is inside the set.)  Atom sets are ints here, bit
    a for atom a, so that frames of 16 free labels take milliseconds.
    """
    n, alive, want = len(names), _atom_bits(surviving), _atom_bits(atoms)
    # Label i holds the atoms with bit i set: read from atom 2^n - 1 down,
    # runs of 2^i ones and 2^i zeros.
    holds = [alive & int(("1" * (1 << i) + "0" * (1 << i)) * (1 << (n - 1 - i)), 2)
             for i in range(n)]

    def cube(labels, negated):
        out = alive
        for i in labels:
            out &= holds[i]
        for i in negated:
            out &= ~holds[i]
        return out

    cubes, covered = [], 0
    while want & ~covered:
        rest = want & ~covered
        seed = (rest & -rest).bit_length() - 1
        labels = {i for i in range(n) if seed >> i & 1}
        negated = set(range(n)) - labels
        for i in sorted(negated):
            if not cube(labels, negated - {i}) & ~want:
                negated.discard(i)
        for i in sorted(labels, reverse=True):
            if len(labels) + len(negated) > 1 and not cube(labels - {i}, negated) & ~want:
                labels.discard(i)
        cubes.append((labels, negated))
        covered |= cube(labels, negated)
    assert covered == want
    return cubes


def _atom_bits(atoms):
    """An atom set as one int, bit a for atom a."""
    out = bytearray((max(atoms, default=0) >> 3) + 1)
    for a in atoms:
        out[a >> 3] |= 1 << (a & 7)
    return int.from_bytes(out, "little")


def _cubes_node(names, cubes):
    """The union of the cubes: terms by literal count, then by their
    (label index, negated) pairs; literals in label order."""
    terms = sorted(sorted([(i, False) for i in labels] + [(i, True) for i in negated])
                   for labels, negated in cubes)
    return _node([_node([("not", ("label", names[i])) if neg else ("label", names[i])
                         for i, neg in term], "and")
                  for term in sorted(terms, key=len)])


# The display rule before the cube cover, kept to compare lengths: a union
# of label intersections when the set is up-closed, else the complement of
# one, else the union of its minterms.

def minterm_display_expr(names, surviving, atoms):
    """The expression the atom set ``atoms`` displayed as before the cube
    cover.

    An up-closed set (it holds every surviving atom above any of its
    atoms) is a union of label intersections, at most one per minimal atom;
    otherwise the complement of an up-closed set is ``~`` of that set's
    expression, and anything else the union of its minterms.  Terms run
    by label count, then by label index.
    """
    if not atoms:
        return ("empty",)
    for negate, region in ((False, atoms), (True, frozenset(surviving) - atoms)):
        terms = _up_closed_terms(surviving, region, names)
        if terms is not None:
            return ("not", _node(terms)) if negate else _node(terms)
    leaves = [("label", nm) for nm in names]
    return _node([("and", tuple(leaf if atom >> i & 1 else ("not", leaf)
                                for i, leaf in enumerate(leaves)))
                  for atom in sorted(atoms, key=_label_order)])


def _up_closed_terms(surviving, atoms, names):
    """The label intersections an up-closed set is the union of, else None.

    Each minimal atom's labels are thinned, last label first, while
    their intersection stays inside the set; a term whose labels hold
    another term's goes.
    """
    def above(labels):
        return frozenset(a for a in surviving if a & labels == labels)

    minimal = []
    for atom in sorted(sorted(atoms), key=int.bit_count):
        if not any(atom & low == low for low in minimal):
            minimal.append(atom)
    if frozenset().union(*map(above, minimal)) != atoms:
        return None
    terms = set()
    for labels in minimal:
        for i in reversed(_label_order(labels)[1]):
            if labels != 1 << i and not above(labels & ~(1 << i)) - atoms:
                labels &= ~(1 << i)
        terms.add(labels)
    return [_node([("label", names[i]) for i in _label_order(labels)[1]], "and")
            for labels in sorted(terms, key=_label_order)
            if not any(other != labels and labels & other == other for other in terms)]


def _label_order(mask):
    """(label count, label indices) of an atom or label mask: the term order."""
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return len(bits), tuple(bits)


def _node(terms, op="or"):
    """One term alone, else the terms under one connective."""
    return terms[0] if len(terms) == 1 else (op, tuple(terms))


def _subset_unions(atom_sets):
    """The distinct non-empty unions of the sets, over subsets taken
    smallest first."""
    out = []
    for r in range(1, len(atom_sets) + 1):
        for combo in itertools.combinations(atom_sets, r):
            union = frozenset().union(*combo)
            if union and union not in out:
                out.append(union)
    return out


def minc_a_recipients(operands, names, surviving):
    """minC version a's recipients: the distinct non-empty unions of the
    non-empty parts, over subsets taken smallest first."""
    parts = intersection_parts(operands, names, surviving)
    return _subset_unions([expr_atoms(part, names, surviving) for part in parts])


def minc_b_recipients(operands, names, surviving):
    """minC version b's recipients: the distinct non-empty unions over the
    hypotheses of the parts' disjunctive forms, over subsets taken smallest
    first.  The hypotheses come part by part, each part's in frame order,
    each kept where it is first seen."""
    involved = []
    for part in intersection_parts(operands, names, surviving):
        labels = _form_labels(part, names, surviving)
        involved += [name for name in names if name in labels and name not in involved]
    return _subset_unions([expr_atoms(("label", name), names, surviving) for name in involved])


# -- the conflict ledger's contract -------------------------------------------

def _renormalises(rule):
    return rule == "dempster" or rule.startswith(("zhang-", "tnorm-", "tconorm-", "improved-"))


def _close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _expected_total(rule, sources, params):
    """The total a rule's output plus its lost mass must reach.

    Mixing averages the sources, so the mean of their totals under the
    mixing weights; the cautious rule takes the minimum of the sources'
    commonalities, and q(empty) is a source's total; every other rule
    multiplies the sources' totals.
    """
    totals = [m.total for m in sources]
    if rule in ("mixing", "murphy"):
        weights = params.get("weights") or [1.0] * len(totals)
        return math.fsum(w * t for w, t in zip(weights, totals)) / math.fsum(weights)
    if rule == "cautious":
        return min(totals)
    return math.prod(totals)


def audit(result, sources, params=None):
    """What a fusion result's ledger fails to account for, as messages.

    (a) each partial's shares sum to its mass; (b) the partials' masses
    sum to k12; (c) a renormalising rule's total is one with nothing
    lost, the cautious rule's signed total is the expected total, and
    any other rule's total plus its lost mass is that total: the product
    of the source totals, their mean under mixing (weighted by the
    ``weights`` of the rule's ``params``) or their minimum under the
    cautious rule.  A None destination is lost mass.
    """
    problems = []
    conflict = result.conflict
    for p in conflict.partials:
        shared = math.fsum(v for _, v in p.shares)
        if not _close(shared, p.mass):
            problems.append(f"(a) shares sum to {shared!r}, the partial's mass is {p.mass!r}")
    booked = math.fsum(p.mass for p in conflict.partials)
    if not _close(booked, conflict.k12):
        problems.append(f"(b) partials sum to {booked!r}, k12 is {conflict.k12!r}")
    lost = math.fsum(v for p in conflict.partials for dest, v in p.shares if dest is None)
    expected = _expected_total(result.rule, sources, params or {})
    total = result.combined.total
    if _renormalises(result.rule):
        if not (_close(total, 1.0) and _close(lost, 0.0)):
            problems.append(f"(c) renormalised total {total!r} with {lost!r} lost")
    elif result.signed_masses is not None:
        signed = math.fsum(result.signed_masses.values())
        if not _close(signed, expected):
            problems.append(f"(c) signed total {signed!r}, expected {expected!r}")
    elif not _close(total + lost, expected):
        problems.append(f"(c) total {total!r} + lost {lost!r}, expected {expected!r}")
    return problems


def export_ledger(result):
    """The ``ledger`` of a result's export, built partial by partial with no
    memo: each operand's display and expression text, and each share's
    destination display (None for lost mass; the divided-out label as
    it is)."""
    from fusekit.frame import render_expression

    return [{
        "operands": [el.display for el in p.operands],
        "operand_exprs": [render_expression(el.expr) for el in p.operands],
        "mass": p.mass,
        "basis": p.basis,
        "note": p.note,
        "shares": [{"to": dest if dest is None or isinstance(dest, str) else dest.display,
                    "mass": v} for dest, v in p.shares],
    } for p in result.conflict.partials]
