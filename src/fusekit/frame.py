"""Frames of discernment and the Boolean algebra generated over them.

A frame names n hypotheses which may overlap.  Every element of the
generated algebra (closed under union, intersection and complement) is
identified with a set of Venn atoms: an atom is encoded as a bitmask
over hypothesis indices naming exactly the hypotheses that contain it.
A frame stores the atoms its model keeps; free models keep all 2^n - 1
candidate atoms, exclusivity models keep only the n single-hypothesis
atoms.  Atoms are only ever removed, never restored, so constraining a
frame yields a new frame.
"""

import functools
import itertools
import operator
import re
from dataclasses import dataclass

from .errors import (
    FrameMismatchError,
    FrameTooLargeError,
    NotASubsetError,
    ParseError,
    UndefinedDegreeError,
    UnknownLabelError,
)

# Expression trees are nested tuples:
#   ("label", name) | ("empty",) | ("not", expr)
#   | ("and", (expr, ...)) | ("or", (expr, ...)) | ("xor", (expr, ...))

EMPTY_EXPR = ("empty",)
EMPTY_DISPLAY = "∅"

# Exhaustive enumeration is exponential in 2^n; past this the caller
# almost certainly wanted something else.
ENUMERATION_GUARD = 4

# A free frame holds all 2^n - 1 atoms; past this it costs seconds and
# gigabytes before any rule runs.
FREE_FRAME_GUARD = 18

CONNECTIVES = {"and": operator.and_, "or": operator.or_, "xor": operator.xor}


def fold(op, operands):
    """Join operands (atom-sets or Elements) left to right by one connective."""
    try:
        join = CONNECTIVES[op]
    except KeyError:
        raise ValueError(f"bad expression node {op!r}") from None
    return functools.reduce(join, operands)

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[()&|~^]|\S")


class _ExprParser:
    """Recursive-descent parser for element expressions.

    Grammar: ``expr := term (('|' | '^') term)*``,
    ``term := factor ('&' factor)*``,
    ``factor := '~' factor | label | '(' expr ')'``.
    Union and exclusive union share a precedence level and associate
    left; labels are alphanumeric.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        if not self.tokens:
            raise ParseError("empty expression")
        expr = self.expr()
        if self.peek() is not None:
            raise ParseError(f"unexpected {self.peek()!r} in {self.text!r}")
        return expr

    def expr(self):
        node = self.term()
        while self.peek() in ("|", "^"):
            op = self.take()
            rhs = self.term()
            node = ("or" if op == "|" else "xor", (node, rhs))
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "&":
            self.take()
            node = ("and", (node, self.factor()))
        return node

    def factor(self):
        tok = self.peek()
        if tok == "~":
            self.take()
            return ("not", self.factor())
        if tok == "(":
            self.take()
            node = self.expr()
            if self.peek() != ")":
                raise ParseError(f"missing ')' in {self.text!r}")
            self.take()
            return node
        if tok is None or tok in ")&|^":
            raise ParseError(f"unexpected end or operator in {self.text!r}")
        self.take()
        if not tok.isalnum():
            raise ParseError(f"bad token {tok!r} in {self.text!r}")
        return ("label", tok)


def parse_expression_text(text):
    """Parse expression text into a raw tree without binding labels."""
    return _ExprParser(text).parse()


def render_expression(expr):
    op = expr[0]
    if op == "label":
        return expr[1]
    if op == "empty":
        return EMPTY_DISPLAY
    if op == "not":
        inner = render_expression(expr[1])
        if expr[1][0] in ("and", "or", "xor"):
            inner = f"({inner})"
        return "~" + inner
    sep = {"and": "&", "or": "|", "xor": "^"}[op]
    parts = []
    for child in expr[1]:
        text = render_expression(child)
        if op == "and" and child[0] in ("or", "xor"):
            text = f"({text})"
        elif op in ("or", "xor") and child[0] in ("or", "xor") and child[0] != op:
            text = f"({text})"
        parts.append(text)
    return sep.join(parts)


@dataclass(frozen=True)
class ModelConstraints:
    """Which candidate atoms the model declares empty, plus a kind tag."""

    kind: str  # "free" | "shafer" | "hybrid"
    empty_atoms: frozenset


class Frame:
    """A frame of discernment with emptiness constraints.

    Immutable.  Two frames are equal when they name the same hypotheses
    in the same order and keep the same atoms.
    """

    __slots__ = ("names", "kind", "_index", "_surviving", "_label_atoms",
                 "_empty_el", "_ignorance_el", "_hash")

    def __init__(self, names, surviving_atoms=None):
        names = tuple(names)
        if len(names) < 2:
            raise ValueError("a frame needs at least two hypotheses")
        if len(set(names)) != len(names):
            raise ValueError("hypothesis labels must be unique")
        for name in names:
            if not name or not name.isalnum():
                raise ValueError(f"hypothesis labels must be alphanumeric, got {name!r}")
        n = len(names)
        if surviving_atoms is None:
            if n > FREE_FRAME_GUARD:
                raise FrameTooLargeError(
                    f"free frames are limited to {FREE_FRAME_GUARD} hypotheses, "
                    f"frame has {n}"
                )
            surviving = frozenset(range(1, 1 << n))
        else:
            surviving = frozenset(surviving_atoms)
            if surviving and not 0 < min(surviving) <= max(surviving) < 1 << n:
                raise ValueError("surviving atoms outside the frame's atom universe")
        if len(surviving) == (1 << n) - 1:
            self.kind = "free"
        elif len(surviving) == n and all(a & (a - 1) == 0 for a in surviving):
            self.kind = "shafer"
        else:
            self.kind = "hybrid"
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._surviving = surviving
        self._label_atoms = tuple(
            frozenset(a for a in surviving if a & (1 << i)) for i in range(n)
        )
        self._empty_el = None
        self._ignorance_el = None
        self._hash = hash((names, surviving))

    # -- construction -------------------------------------------------

    @classmethod
    def free(cls, names):
        """All 2^n - 1 overlap atoms kept: hypotheses may overlap freely."""
        return cls(names)

    @classmethod
    def shafer(cls, names):
        """Pairwise-exclusive hypotheses: only the n single-hypothesis atoms."""
        names = tuple(names)
        return cls(names, (1 << i for i in range(len(names))))

    def constrain(self, *elements):
        """New frame with the given elements' atoms removed from the surviving set."""
        gone = set()
        for el in elements:
            el = self.parse(el) if isinstance(el, str) else el
            if el.frame != self:
                raise FrameMismatchError("constraint element from another frame")
            gone |= el.atoms
        return Frame(self.names, self._surviving - gone)

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        # The names fix the atoms of a free or a Shafer model.
        return self is other or (
            isinstance(other, Frame)
            and self.names == other.names
            and self.kind == other.kind
            and (self.kind != "hybrid" or self._surviving == other._surviving)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Frame({list(self.names)!r}, kind={self.kind!r})"

    # -- basic views ----------------------------------------------------

    @property
    def n(self):
        return len(self.names)

    @property
    def surviving_atoms(self):
        return self._surviving

    @property
    def empty_atoms(self):
        """The candidate atoms the model declares empty (built on each call).

        Past FREE_FRAME_GUARD hypotheses the 2^n candidates are not built.
        """
        if self.n > FREE_FRAME_GUARD:
            raise FrameTooLargeError(
                f"empty atoms are enumerated up to {FREE_FRAME_GUARD} hypotheses, "
                f"frame has {self.n}"
            )
        return frozenset(range(1, 1 << self.n)) - self._surviving

    @property
    def model(self):
        return ModelConstraints(self.kind, self.empty_atoms)

    @property
    def is_shafer(self):
        return self.kind == "shafer"

    # -- evaluation -----------------------------------------------------

    def eval_atoms(self, expr):
        op = expr[0]
        if op == "label":
            try:
                i = self._index[expr[1]]
            except KeyError:
                raise UnknownLabelError(
                    f"unknown hypothesis {expr[1]!r} (frame has {', '.join(self.names)})"
                ) from None
            return self._label_atoms[i]
        if op == "empty":
            return frozenset()
        if op == "not":
            return self._surviving - self.eval_atoms(expr[1])
        return fold(op, [self.eval_atoms(child) for child in expr[1]])

    # -- element constructors --------------------------------------------

    def element(self, expr):
        return Element(self, self.eval_atoms(expr), expr)

    def parse(self, text):
        """Parse expression text into an Element of this frame."""
        expr = parse_expression_text(text)
        return self.element(expr)

    def label(self, name):
        if name not in self._index:
            raise UnknownLabelError(f"unknown hypothesis {name!r}")
        return self.element(("label", name))

    def labels(self):
        return [self.label(name) for name in self.names]

    def empty(self):
        if self._empty_el is None:
            self._empty_el = Element(self, frozenset(), EMPTY_EXPR)
        return self._empty_el

    def ignorance(self):
        """Total ignorance: the union of all hypotheses."""
        if self._ignorance_el is None:
            expr = ("or", tuple(("label", nm) for nm in self.names))
            self._ignorance_el = Element(self, self._surviving, expr)
        return self._ignorance_el

    def from_atoms(self, atoms):
        """Element for a raw atom-set, with a readable display expression."""
        atoms = frozenset(atoms)
        if not atoms <= self._surviving:
            raise ValueError("atoms outside the surviving set")
        return Element(self, atoms, self._describe(atoms))

    def reevaluate(self, element):
        """Re-read an element's expression under this frame's model."""
        if self.names != element.frame.names:
            raise FrameMismatchError("element built over different hypotheses")
        return self.element(element.expr)

    # -- enumeration -----------------------------------------------------

    def superpower_set(self):
        """Every distinct element under the model, the empty set included.

        Exhaustive over subsets of surviving atoms, so guarded: frames
        beyond four hypotheses refuse.
        """
        if self.n > ENUMERATION_GUARD:
            raise FrameTooLargeError(
                f"enumeration limited to {ENUMERATION_GUARD} hypotheses, frame has {self.n}"
            )
        atoms = sorted(self._surviving)
        out = []
        for r in range(len(atoms) + 1):
            for combo in itertools.combinations(atoms, r):
                out.append(self.from_atoms(combo))
        out.sort(key=lambda el: (el.cardinality, el.display))
        return out

    # -- display helpers ---------------------------------------------------

    def _describe(self, atoms):
        """Pick a readable expression for an atom-set.

        Tries labels, then unions and intersections of labels, then
        complements of those, before falling back to a union of full
        minterms.
        """
        if not atoms:
            return EMPTY_EXPR
        n = self.n
        candidates = []
        for i, name in enumerate(self.names):
            candidates.append((("label", name), self._label_atoms[i]))
        for size in range(2, n + 1):
            for combo in itertools.combinations(range(n), size):
                exprs = tuple(("label", self.names[i]) for i in combo)
                for op in ("or", "and"):
                    cand = fold(op, (self._label_atoms[i] for i in combo))
                    candidates.append(((op, exprs), cand))
        for expr, cand in candidates:
            if cand == atoms:
                return expr
        for expr, cand in candidates:
            if self._surviving - cand == atoms:
                return ("not", expr)
        minterms = []
        for atom in sorted(atoms):
            parts = []
            for i, name in enumerate(self.names):
                leaf = ("label", name)
                parts.append(leaf if atom & (1 << i) else ("not", leaf))
            minterms.append(("and", tuple(parts)))
        if len(minterms) == 1:
            return minterms[0]
        return ("or", tuple(minterms))


class Element:
    """One member of a frame's algebra: an expression plus its atom-set.

    Semantic identity is the atom-set: two elements are equal exactly
    when they denote the same atoms of the same frame, whatever their
    expressions look like.  Instances are immutable by convention.  The
    expression of a ``canonical()`` element is reduced on first read of
    ``expr`` (or ``display``) and kept.
    """

    __slots__ = ("frame", "atoms", "_expr", "_unreduced")

    def __init__(self, frame, atoms, expr):
        self.frame = frame
        self.atoms = frozenset(atoms)
        self._expr = expr
        self._unreduced = None

    @property
    def expr(self):
        if self._unreduced is not None:
            self._expr = _canonical_expr(self.frame, self._unreduced)
            self._unreduced = None
        return self._expr

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.frame == other.frame
            and self.atoms == other.atoms
        )

    def __hash__(self):
        return hash((self.frame, self.atoms))

    def __repr__(self):
        return f"<Element {self.display}>"

    def __str__(self):
        return self.display

    @property
    def display(self):
        return render_expression(self.expr)

    @property
    def is_empty(self):
        return not self.atoms

    @property
    def cardinality(self):
        """Number of model-surviving atoms inside the element."""
        return len(self.atoms)

    def _check_peer(self, other):
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if other.frame != self.frame:
            raise FrameMismatchError("elements from different frames")

    def __and__(self, other):
        self._check_peer(other)
        return Element(self.frame, self.atoms & other.atoms, ("and", (self.expr, other.expr)))

    def __or__(self, other):
        self._check_peer(other)
        return Element(self.frame, self.atoms | other.atoms, ("or", (self.expr, other.expr)))

    def __xor__(self, other):
        self._check_peer(other)
        return Element(self.frame, self.atoms ^ other.atoms, ("xor", (self.expr, other.expr)))

    def __invert__(self):
        return Element(
            self.frame, self.frame.surviving_atoms - self.atoms, ("not", self.expr)
        )

    def canonical(self):
        """Same atoms, absorption-reduced expression.

        Within an intersection any operand that covers another is
        dropped; within a union any operand covered by another is
        dropped.  Nested chains of one connective are flattened first.
        The reduction runs on the first read of the new element's
        ``expr``, so landings nothing displays never pay for it.
        """
        el = Element(self.frame, self.atoms, None)
        el._unreduced = self.expr
        return el

    def disjunctive(self):
        """The disjunctive form: every connective replaced by union.

        Complement nodes have no native disjunctive reading; they are
        rewritten through their atom-set as the union of the hypotheses
        covering those atoms, which is the only model-consistent choice.
        """
        names = _disjunctive_labels(self.frame, self.expr)
        if not names:
            return self.frame.empty()
        exprs = tuple(("label", nm) for nm in names)
        expr = exprs[0] if len(exprs) == 1 else ("or", exprs)
        return self.frame.element(expr)


def _canonical_expr(frame, expr):
    op = expr[0]
    if op in ("label", "empty"):
        return expr
    if op == "not":
        return ("not", _canonical_expr(frame, expr[1]))
    kids = [_canonical_expr(frame, child) for child in expr[1]]
    if op == "xor":
        return ("xor", tuple(kids))
    flat = []
    for kid in kids:
        if kid[0] == op:
            flat.extend(kid[1])
        else:
            flat.append(kid)
    keyed = []
    for kid in flat:
        atoms = frame.eval_atoms(kid)
        if all(atoms != seen for seen, _ in keyed):
            keyed.append((atoms, kid))
    if op == "and":
        kept = [
            kid for atoms, kid in keyed
            if not any(other < atoms for other, _ in keyed)
        ]
    else:
        kept = [
            kid for atoms, kid in keyed
            if not any(other > atoms for other, _ in keyed)
        ]
    if len(kept) == 1:
        return kept[0]
    return (op, tuple(kept))


def _disjunctive_labels(frame, expr):
    """Ordered hypothesis names appearing in the disjunctive form."""
    op = expr[0]
    if op == "label":
        frame.eval_atoms(expr)  # validates the label
        return [expr[1]]
    if op == "empty":
        return []
    if op == "not":
        atoms = frame.eval_atoms(expr)
        bits = 0
        for atom in atoms:
            bits |= atom
        return [frame.names[i] for i in range(frame.n) if bits & (1 << i)]
    seen = []
    for child in expr[1]:
        for name in _disjunctive_labels(frame, child):
            if name not in seen:
                seen.append(name)
    return sorted(seen, key=frame.names.index)


# -- degrees -----------------------------------------------------------

def degree_intersection(x, y):
    """|x & y| / |x | y|, the share of the joint region two elements agree on.

    The ratio of the atom counts is one correctly rounded integer
    division.  Undefined when both elements are empty.
    """
    x._check_peer(y)
    union = x.atoms | y.atoms
    if not union:
        raise UndefinedDegreeError("degree of two empty elements is undefined")
    return len(x.atoms & y.atoms) / len(union)


def degree_union(x, y):
    """(|x | y| - |x & y|) / |x | y|; complement of degree_intersection."""
    return 1.0 - degree_intersection(x, y)


def degree_inclusion(x, y):
    """|x| / |y| for nested elements x inside y.

    The empty element is fully included in anything non-empty with
    degree 0, and in itself with degree 1.
    """
    x._check_peer(y)
    if not x.atoms <= y.atoms:
        raise NotASubsetError(f"{x.display} is not included in {y.display}")
    if not y.atoms:
        return 1.0
    if not x.atoms:
        return 0.0
    return len(x.atoms) / len(y.atoms)
