"""Conflict-redistribution rules: WAO, the PCR ladder, and minC.

All rules start from the conjunctive expansion and differ only in where
the empty-landing products go.  Mass conservation is the governing
invariant: combined total plus reported losses equals the product of
the source totals.
"""

from .classic import (
    _EPS,
    Ledger,
    _conflict_operands,
    _direct,
    _subset_unions,
)
from .errors import RuleError
from .mass import _fsum


def _columns(sources):
    """Each focal element's mass summed down the sources, in first-seen order."""
    masses = {}
    for m in sources:
        for el, v in m.items():
            masses.setdefault(el, []).append(v)
    return {el: _fsum(vs) for el, vs in masses.items()}


def _proportional(entries, p):
    """Split p over (element, weight) entries by weight; None if weightless."""
    total = _fsum(w for _, w in entries)
    if total <= _EPS:
        return None
    return tuple((el, p * w / total) for el, w in entries)


def _two_way(x, a, y, b, p):
    """``_proportional`` over two entries: ``a + b`` rounds as ``math.fsum``
    of two terms does, so the shares are bit for bit the same."""
    total = a + b
    if total <= _EPS:
        return None
    return (x, p * a / total), (y, p * b / total)


def _weighted(els, weigh):
    """Distinct non-empty operands with positive weight, in operand order."""
    entries = []
    seen = set()
    for el in els:
        if el.is_empty or el in seen:
            continue
        seen.add(el)
        w = weigh(el)
        if w > 0.0:
            entries.append((el, w))
    return entries


def _pcr5_split(els, sources, p):
    """PCR5: a product goes back to its operands by the masses that collided.

    Operand i weighs what source i gives it; equal operands pool their
    weight.  Only the operands that cause the conflict weigh: empty ones
    never, total ignorance only when no other operand is non-empty.
    None when every such operand is weightless.  Two distinct operands,
    neither empty nor total ignorance, split by plain arithmetic.

    On three or more operands, which uft's split route meets, pooling
    equal operands is PCR6 (Martin & Osswald, 2006), not Smarandache and
    Dezert's general PCR5.
    """
    full = sources[0].frame._full
    if len(els) == 2:
        x, y = els
        if x.mask != y.mask and 0 < x.mask != full and 0 < y.mask != full:
            return _two_way(x, sources[0]._map[x], y, sources[1]._map[y], p)
    exonerated = full if any(0 < el.mask != full for el in els) else 0
    weights = {}
    for el, m in zip(els, sources):
        # Operand i is a focal element of source i, so it has a mass there.
        if el.mask and el.mask != exonerated:
            weights[el] = weights.get(el, 0.0) + m._map[el]
    return _proportional(list(weights.items()), p)


# -- pooled transfers: the whole k12 goes out as one partial ---------------
#
# Each runs once every product has landed, and only on conflict.

def _by_columns(ledger, entries, basis, failure):
    shares = _proportional([(el, c) for el, c in entries if c > 0.0], ledger.k12)
    if shares is None:
        ledger.book((), ledger.k12, ((None, ledger.k12),), basis)
        return (failure,)
    ledger.book((), ledger.k12, shares, basis, "pooled conflict")
    return ()


def _column_averages(ledger, conflicts):
    """WAO: each focal column takes k12 times its average mass.  The empty
    column's share has no admissible recipient, and on subnormal sources
    the averages sum to the mean source total, short of one; both are lost.
    A mean total above one would hand out more than k12, so it raises."""
    s = len(ledger.sources)
    mean = _fsum(m.total for m in ledger.sources) / s
    if mean > 1.0 + _EPS:
        raise RuleError(f"wao needs a mean source total of at most 1, got {mean:.6g}")
    if not list(conflicts):
        return ()
    empty_w = 0.0
    shares = []
    for el, column in _columns(ledger.sources).items():
        w = column / s
        if w <= 0.0:
            continue
        if el.is_empty:
            empty_w += w
        else:
            shares.append((el, w * ledger.k12))
    short = 1.0 - mean
    lost_w = empty_w + short if short > _EPS else empty_w
    if lost_w > 0.0:
        shares.append((None, lost_w * ledger.k12))
    ledger.book((), ledger.k12, shares, "column averages", "pooled conflict")
    if empty_w * ledger.k12 > _EPS:
        return (f"column weight on empty elements lost: {empty_w * ledger.k12:.6f}",)
    return ()


def _column_sums(ledger, conflicts):
    """PCR1: k12 split by the column sums of the non-empty focal elements."""
    if not list(conflicts):
        return ()
    entries = [(el, c) for el, c in _columns(ledger.sources).items() if not el.is_empty]
    return _by_columns(ledger, entries, "column sums",
                       "no non-empty focal columns; conflict lost")


def _involved_columns(ledger, conflicts):
    """PCR2: like PCR1, over the columns of operands some conflict involves."""
    conflicts = list(conflicts)
    if not conflicts:
        return ()
    ignorance = ledger.frame.ignorance()
    involved = set()
    for els, _, _ in conflicts:
        involved.update(_conflict_operands(els, ignorance))
    columns = _columns(ledger.sources)
    entries = [(el, columns.get(el, 0.0))
               for el in sorted(involved, key=lambda e: e.display)]
    return _by_columns(ledger, entries, "involved columns",
                       "conflict involves only empty operands; lost")


def wao(*sources):
    """Redistribute conflict by column-average weights.

    Each non-empty focal element receives k12 times the average of the
    masses the sources give it.  Whatever weight the averages give the
    empty column cannot be placed and is reported as lost.
    """
    return _direct("wao", sources, _column_averages)


def pcr1(*sources):
    """Redistribute conflict proportionally to column sums.

    d12 is the sum of all column sums over non-empty elements; each such
    element receives k12 * column/d12.  Mass the sources put on the
    empty element weights nothing and is divided out through d12 staying
    short, keeping the total at exactly the sources' mass that named a
    non-empty element.
    """
    return _direct("pcr1", sources, _column_sums)


def pcr2(*sources):
    """Like PCR1 but only elements involved in some conflict receive mass."""
    return _direct("pcr2", sources, _involved_columns)


# -- per-product splits: each conflicting product goes out on its own ------

def _split_each(ledger, rule, why, split):
    """Split each conflicting product by ``split(els, p, m12)``; a product
    it cannot place goes to the operands' joint disjunctive form, then
    to total ignorance, and only in a fully degenerate model stays on
    the empty set.  ``m12`` is the conjunctive result before any
    redistribution, keyed by survivor mask.
    """
    conflicts = list(ledger.expand())
    m12 = dict(ledger.acc)
    for els, p, _ in conflicts:
        shares, basis = split(els, p, m12)
        if shares:
            ledger.book(els, p, shares, basis)
        else:
            ledger.escalate(els, p, ledger.reductions.joint_disjunctive(els),
                            f"{why}; to joint disjunctive form")
    return ledger.finish(rule)


def pcr3(*sources):
    """Split each conflicting product by the operands' column sums.

    A conflict between X1..Xs goes to its responsible non-empty
    operands (vacuous operands are exonerated) proportionally to their
    column sums.  When every such column sum is zero the product falls
    back to the union of the operands' disjunctive forms, then to total
    ignorance, and only in a fully degenerate model stays on the empty
    set.
    """
    ledger = Ledger(sources)
    columns = _columns(ledger.sources)
    ignorance = ledger.frame.ignorance()

    def split(els, p, m12):
        # Two non-empty operands that conflict are disjoint: distinct, and
        # neither is total ignorance.
        if len(els) == 2 and els[0].mask and els[1].mask:
            x, y = els
            return _two_way(x, columns[x], y, columns[y], p), "column sums"
        entries = _weighted(_conflict_operands(els, ignorance),
                            lambda el: columns.get(el, 0.0))
        return _proportional(entries, p), "column sums"

    return _split_each(ledger, "pcr3", "all columns empty", split)


def pcr4(*sources):
    """Split each conflicting product by the conjunctive result itself.

    The conflict between X and Y goes to them proportionally to
    m12(X) and m12(Y), the masses the conjunctive combination assigns.
    Products whose operands both got zero conjunctive mass fall back to
    the column-sum split.
    """
    if len(sources) > 2:
        return _pairwise_fold(pcr4, "pcr4", sources)
    ledger = Ledger(sources)
    columns = _columns(ledger.sources)

    def split(els, p, m12):
        shares = _proportional(_weighted(els, lambda el: m12.get(el.mask, 0.0)), p)
        if shares:
            return shares, "conjunctive masses"
        return (_proportional(_weighted(els, lambda el: columns.get(el, 0.0)), p),
                "column sums (conjunctive masses all zero)")

    return _split_each(ledger, "pcr4", "all weights zero", split)


def pcr5(*sources):
    """Split each conflicting product by the colliding masses themselves.

    For two sources, the product m1(X)*m2(Y) with X and Y disjoint goes
    back to X and Y proportionally to m1(X) and m2(Y).  More sources
    are folded pairwise left to right, which keeps the per-pair
    exactness but is order-dependent; the result carries a warning.
    """
    if len(sources) > 2:
        return _pairwise_fold(pcr5, "pcr5", sources)
    ledger = Ledger(sources)
    return _split_each(ledger, "pcr5", "all weights zero", lambda els, p, m12: (
        _pcr5_split(els, ledger.sources, p), "own masses"))


def _pairwise_fold(rule_fn, rule_name, sources, done=1, combined=None):
    """Left fold of a strictly binary rule over three or more sources.

    The fold resumes after its first ``done`` sources, whose fold
    combined to ``combined``: one binary step per source after them.
    """
    combined = sources[0] if combined is None else combined
    for m in sources[done:]:
        acc_result = rule_fn(combined, m)
        combined = acc_result.combined
    return acc_result._replace(
        rule=rule_name, sources=tuple(sources),
        warnings=acc_result.warnings + (
            f"{rule_name} applied pairwise left to right; result depends on source order",
        ),
    )


# -- minC ---------------------------------------------------------------------

def _minc_recipients_a(frame, parts):
    """Unions of every non-empty subset of the conflict's parts."""
    return list(_subset_unions([part.element for part in parts if not part.element.is_empty]))


def _minc_recipients_b(frame, parts):
    """Every non-empty union over the hypotheses the conflict involves.

    The involved hypotheses are those in the parts' disjunctive forms;
    the recipients are all 2^k - 1 unions over them, zero-mass ones
    included (they simply draw no share).
    """
    seen, labels = 0, []
    for part in parts:
        new = part.mask & ~seen
        seen |= new
        labels += [frame.label(frame.names[i]) for i in range(new.bit_length()) if new >> i & 1]
    return list(_subset_unions(labels))


def minc(*sources, version="a"):
    """minC conflict redistribution.

    Each conflicting product is reallocated among recipients derived
    from its own structure, proportionally to the conjunctive masses
    those recipients already hold; if none holds anything the product
    is split equally among them.  Version "a" admits unions of the
    conflict's parts as recipients; version "b" admits every union over
    the hypotheses those parts involve.
    """
    if version not in ("a", "b"):
        raise ValueError(f"version must be 'a' or 'b', got {version!r}")
    if len(sources) > 2:
        return _pairwise_fold(
            lambda a, b: minc(a, b, version=version), f"minc-{version}", sources
        )
    ledger = Ledger(sources)
    recipients_fn = _minc_recipients_a if version == "a" else _minc_recipients_b

    def split(els, p, m12):
        parts = ledger.reductions.parts(els)
        if version == "a" and len(parts) == 2:
            # An empty part would be the one minimal part, so two parts of a
            # conflict are non-empty and disjoint: they and their union are
            # the distinct recipients.
            x, y = parts[0].element, parts[1].element
            recipients = (x, y, ledger.landing(x.mask | y.mask))
        else:
            recipients = recipients_fn(ledger.frame, parts)
            if not recipients:
                return None, ""
        # The recipients are distinct and non-empty, as ``_subset_unions`` yields them.
        shares = _proportional([(el, w) for el in recipients
                                if (w := m12.get(el.mask, 0.0)) > 0.0], p)
        if shares:
            return shares, "conjunctive masses of recipients"
        share = p / len(recipients)
        return tuple((el, share) for el in recipients), "equal split (no recipient mass)"

    return _split_each(ledger, f"minc-{version}", "no admissible recipients", split)
