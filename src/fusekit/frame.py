"""Frames of discernment and the Boolean algebra generated over them.

A frame names n hypotheses which may overlap.  Every element of the
generated algebra (closed under union, intersection and complement) is
identified with a set of Venn atoms: an atom is encoded as a bitmask
over hypothesis indices naming exactly the hypotheses that contain it.
A model declares some atoms empty; free models keep all 2^n - 1
candidate atoms, exclusivity models keep only the n single-hypothesis
atoms.  Atoms are only ever removed, never restored, so constraining a
frame yields a new frame.
"""

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

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

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[()&|~^]|\S")


def tokenize(text):
    out = []
    for match in _TOKEN_RE.finditer(text):
        tok = match.group()
        if tok.isspace():
            continue
        out.append(tok)
    return out


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
        self.tokens = tokenize(text)
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
    in the same order and declare the same atoms empty.
    """

    __slots__ = ("names", "empty_atoms", "_index", "_surviving", "_label_atoms",
                 "_empty_el", "_ignorance_el", "_hash")

    def __init__(self, names, empty_atoms=frozenset()):
        names = tuple(names)
        if len(names) < 2:
            raise ValueError("a frame needs at least two hypotheses")
        if len(set(names)) != len(names):
            raise ValueError("hypothesis labels must be unique")
        for name in names:
            if not name or not name.isalnum():
                raise ValueError(f"hypothesis labels must be alphanumeric, got {name!r}")
        n = len(names)
        universe = range(1, 1 << n)
        empty_atoms = frozenset(empty_atoms)
        if not empty_atoms <= set(universe):
            raise ValueError("empty atoms outside the frame's atom universe")
        self.names = names
        self.empty_atoms = empty_atoms
        self._index = {name: i for i, name in enumerate(names)}
        self._surviving = frozenset(a for a in universe if a not in empty_atoms)
        self._label_atoms = tuple(
            frozenset(a for a in self._surviving if a & (1 << i)) for i in range(n)
        )
        self._empty_el = None
        self._ignorance_el = None
        self._hash = hash((names, empty_atoms))

    # -- construction -------------------------------------------------

    @classmethod
    def free(cls, names):
        """All 2^n - 1 overlap atoms kept: hypotheses may overlap freely."""
        return cls(names)

    @classmethod
    def shafer(cls, names):
        """Pairwise-exclusive hypotheses: every overlap atom is empty."""
        names = tuple(names)
        n = len(names)
        empty = frozenset(a for a in range(1, 1 << n) if a.bit_count() >= 2)
        return cls(names, empty)

    def constrain(self, *elements):
        """New frame with the given elements' atoms added to the empty set."""
        extra = set()
        for el in elements:
            el = self.parse(el) if isinstance(el, str) else el
            if el.frame != self:
                raise FrameMismatchError("constraint element from another frame")
            extra |= el.atoms
        return Frame(self.names, self.empty_atoms | extra)

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Frame)
            and self.names == other.names
            and self.empty_atoms == other.empty_atoms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Frame({list(self.names)!r}, kind={self.model.kind!r})"

    # -- basic views ----------------------------------------------------

    @property
    def n(self):
        return len(self.names)

    @property
    def surviving_atoms(self):
        return self._surviving

    @property
    def model(self):
        n = self.n
        if not self.empty_atoms:
            kind = "free"
        elif self.empty_atoms == frozenset(
            a for a in range(1, 1 << n) if a.bit_count() >= 2
        ):
            kind = "shafer"
        else:
            kind = "hybrid"
        return ModelConstraints(kind, self.empty_atoms)

    @property
    def is_shafer(self):
        return self.model.kind == "shafer"

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
        kids = [self.eval_atoms(child) for child in expr[1]]
        acc = kids[0]
        if op == "and":
            for k in kids[1:]:
                acc = acc & k
        elif op == "or":
            for k in kids[1:]:
                acc = acc | k
        elif op == "xor":
            for k in kids[1:]:
                acc = acc ^ k
        else:
            raise ValueError(f"bad expression node {op!r}")
        return acc

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
                union = frozenset().union(*(self._label_atoms[i] for i in combo))
                candidates.append((("or", exprs), union))
                inter = self._label_atoms[combo[0]]
                for i in combo[1:]:
                    inter = inter & self._label_atoms[i]
                candidates.append((("and", exprs), inter))
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
    expressions look like.  Instances are immutable by convention.
    """

    __slots__ = ("frame", "atoms", "expr")

    def __init__(self, frame, atoms, expr):
        self.frame = frame
        self.atoms = frozenset(atoms)
        self.expr = expr

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
        """
        return Element(self.frame, self.atoms, _canonical_expr(self.frame, self.expr))

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

def _as_pair(x, y):
    x._check_peer(y)


def degree_intersection(x, y):
    """|x & y| / |x | y|, the share of the joint region two elements agree on.

    Ratios are taken exactly over atom counts and converted to float
    once.  Undefined when both elements are empty.
    """
    _as_pair(x, y)
    union = x.atoms | y.atoms
    if not union:
        raise UndefinedDegreeError("degree of two empty elements is undefined")
    return float(Fraction(len(x.atoms & y.atoms), len(union)))


def degree_union(x, y):
    """(|x | y| - |x & y|) / |x | y|; complement of degree_intersection."""
    return 1.0 - degree_intersection(x, y)


def degree_inclusion(x, y):
    """|x| / |y| for nested elements x inside y.

    The empty element is fully included in anything non-empty with
    degree 0, and in itself with degree 1.
    """
    _as_pair(x, y)
    if not x.atoms <= y.atoms:
        raise NotASubsetError(f"{x.display} is not included in {y.display}")
    if not y.atoms:
        return 1.0
    if not x.atoms:
        return 0.0
    return float(Fraction(len(x.atoms), len(y.atoms)))
