"""Frames of discernment and the Boolean algebra generated over them.

A frame names n hypotheses which may overlap.  Every element of the
generated algebra (closed under union, intersection and complement) is
identified with a set of Venn atoms: an atom is encoded as a bitmask
over hypothesis indices naming exactly the hypotheses that contain it.
A frame keeps the atoms its model does not empty, in ascending order;
free models keep all 2^n - 1 candidate atoms, exclusivity models keep
only the n single-hypothesis atoms.  An element is one int mask over
its frame's surviving atoms (Smarandache's codification of the Venn
regions): bit k stands for the k-th surviving atom, so the connectives,
subset tests and cardinalities are int operations.  A free frame lists
its atoms as a ``range``, whose k-th atom is k + 1, and builds each
hypothesis's mask from a doubled bit pattern; any other frame lists them
in a tuple and reads hypothesis i's mask off column i of their binary
digits.  ``Element.atoms``, ``Frame.surviving_atoms``, ``empty_atoms``
and ``model`` are frozenset views in the atom encoding, built when read.
An element's hash is computed once, from its frame's hash and its mask.
A frame keeps, for as long as it lives, each display it has computed (a
union of cubes, label intersections with some labels negated, that
covers the atoms), each cube's term, each label intersection's
("meet's") survivor mask, the survivor mask and tree of each of the
first 256 distinct texts it parsed, and the reduced parts of each of the
first 256 distinct operand expressions it reduced.  Atoms are only ever
removed, never restored, so constraining a frame yields a new frame.  Real intervals
live on one frame of their own, ``INTERVAL_FRAME``, which parses them
but has no algebra.
"""

import functools
import itertools
import math
import operator
import re
from collections import namedtuple

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
    """Join survivor masks left to right by one connective."""
    return functools.reduce(CONNECTIVES[op], operands)

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[()&|~^]|\S")

# The distinct texts whose trees are kept, whose masks a frame keeps, and
# the distinct operand expressions whose reductions a frame keeps.
_TEXTS = 256


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


@functools.lru_cache(maxsize=_TEXTS)
def parse_expression_text(text):
    """Parse expression text into a raw tree without binding labels.  The
    tree is nested tuples, so it is kept for the text and shared by every
    caller: the last 256 distinct texts are parsed once each."""
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


@functools.lru_cache(maxsize=256)
def _expression_text(expr):
    """An expression tree's text, rendered once per tree: parsed trees are
    shared per text, so the last 256 distinct trees read are kept."""
    return render_expression(expr)


class Value:
    """An immutable record of the fields its class's ``__slots__`` name: equal,
    and hashed alike, by type and fields.  Unlike a named tuple it neither
    iterates nor equals a tuple.  ``_replace`` copies it with fields changed."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls.__slots__)  # self._key(self): the fields' tuple

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._key(self)), **changes))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), self._key(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ModelConstraints(namedtuple("ModelConstraints", "kind empty_atoms")):
    """Which candidate atoms the model declares empty, plus a kind tag
    ("free", "shafer" or "hybrid")."""

    __slots__ = ()


def _bit_indices(mask):
    """The indices of the set bits of ``mask``, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _free_hypotheses(n):
    """Each hypothesis's survivor mask on the free frame of n hypotheses.

    Bit k stands for atom k + 1, so hypothesis i holds runs of 2^i bits
    every 2^(i+1): one run is doubled up to the 2^n atoms.
    """
    out = []
    for i in range(n):
        run = 1 << i
        pattern, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << n:
            pattern |= pattern << width
            width *= 2
        out.append(pattern >> 1)
    return tuple(out)


def _hypotheses(atoms, n):
    """Each hypothesis's survivor mask over the ascending atoms of any frame.

    Hypothesis i's mask is column i of the atoms' binary digits, the last
    atom's digit highest: the rows are laid end to end in one string, so
    a column is one stride slice of it.
    """
    spec = f"0{n}b"
    digits = "".join([format(a, spec) for a in reversed(atoms)])
    return tuple(int(digits[n - 1 - i::n] or "0", 2) for i in range(n))


def _strictly_inside(a, b):
    """Whether survivor mask ``a`` is a proper subset of ``b``."""
    return a != b and not a & ~b


class Frame:
    """A frame of discernment with emptiness constraints.

    Immutable.  Two frames are equal when they name the same hypotheses
    in the same order and keep the same atoms; the kind follows from the
    atoms.  ``_atoms`` holds the surviving atoms in ascending order, a
    ``range`` on a free frame and a tuple otherwise; ``_hypotheses[i]``
    is hypothesis i's survivor mask and ``_full`` the mask of every
    survivor.  ``_parsed`` maps each text parsed into an element to its
    (mask, tree), and ``_reduced`` each operand expression ``Reductions``
    reduced to its parts' (mask, label mask, node) and its own label mask:
    ints and shared tuples that never refer back to the frame.
    """

    __slots__ = ("names", "kind", "_index", "_atoms", "_hypotheses", "_full", "_displays",
                 "_forms", "_meets", "_terms", "_parsed", "_reduced", "_hash")

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
        atoms = range(1, 1 << n)
        if surviving_atoms is not None:
            kept = tuple(sorted(set(surviving_atoms)))
            if kept and not 0 < kept[0] <= kept[-1] < 1 << n:
                raise ValueError("surviving atoms outside the frame's atom universe")
            if len(kept) < (1 << n) - 1:
                atoms = kept
        elif n > FREE_FRAME_GUARD:
            raise FrameTooLargeError(
                f"free frames are limited to {FREE_FRAME_GUARD} hypotheses, frame has {n}")
        if isinstance(atoms, range):
            self.kind = "free"
            self._hypotheses = _free_hypotheses(n)
        else:
            shafer = len(atoms) == n and all(a & (a - 1) == 0 for a in atoms)
            self.kind = "shafer" if shafer else "hybrid"
            self._hypotheses = _hypotheses(atoms, n)
        self._full = (1 << len(atoms)) - 1
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._atoms = atoms
        self._displays = {}
        self._forms = {}
        self._meets = {}
        self._terms = {}
        self._parsed = {}
        self._reduced = {}
        self._hash = hash((names, atoms))

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
        gone = 0
        for el in elements:
            el = self.parse(el) if isinstance(el, str) else el
            if el.frame != self:
                raise FrameMismatchError("constraint element from another frame")
            gone |= el.mask
        return Frame(self.names, self._values(self._full & ~gone))

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Frame)
            and self.names == other.names
            and self._atoms == other._atoms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Frame({list(self.names)!r}, kind={self.kind!r})"

    # -- basic views ----------------------------------------------------

    @property
    def n(self):
        return len(self.names)

    def _values(self, mask):
        """The atoms of a survivor mask, ascending."""
        return [self._atoms[k] for k in _bit_indices(mask)]

    @property
    def surviving_atoms(self):
        """The atoms the model keeps (a view, built on each call)."""
        return frozenset(self._atoms)

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
        if self.kind == "free":
            return frozenset()
        return frozenset(range(1, 1 << self.n)).difference(self._atoms)

    @property
    def model(self):
        return ModelConstraints(self.kind, self.empty_atoms)

    @property
    def is_shafer(self):
        return self.kind == "shafer"

    # -- evaluation -----------------------------------------------------

    def eval_mask(self, expr):
        """The survivor mask an expression tree denotes."""
        op = expr[0]
        if op == "label":
            try:
                i = self._index[expr[1]]
            except KeyError:
                raise UnknownLabelError(
                    f"unknown hypothesis {expr[1]!r} (frame has {', '.join(self.names)})"
                ) from None
            return self._hypotheses[i]
        if op == "empty":
            return 0
        if op == "not":
            return self._full ^ self.eval_mask(expr[1])
        return fold(op, [self.eval_mask(child) for child in expr[1]])

    # -- element constructors --------------------------------------------

    def element(self, expr):
        return Element(self, self.eval_mask(expr), expr)

    def parse(self, text):
        """Parse expression text into an Element of this frame: each text's
        mask is evaluated once, for the frame's first 256 distinct texts."""
        if (hit := self._parsed.get(text)) is None:
            expr = parse_expression_text(text)
            hit = self.eval_mask(expr), expr
            if len(self._parsed) < _TEXTS:
                self._parsed[text] = hit
        return Element(self, *hit)

    def label(self, name):
        return self.element(("label", name))

    def labels(self):
        return [self.label(name) for name in self.names]

    def empty(self):
        return Element(self, 0)

    def ignorance(self):
        """Total ignorance: the union of all hypotheses."""
        return Element(self, self._full)

    def from_atoms(self, atoms):
        """Element for a raw atom-set; it displays as every element of those atoms."""
        atoms = frozenset(atoms)
        positions = [k for k, a in enumerate(self._atoms) if a in atoms]
        if len(positions) != len(atoms):
            raise ValueError("atoms outside the surviving set")
        return Element(self, sum(1 << k for k in positions))

    def _label_union(self, labels):
        """The element of the union of the hypotheses in a label mask, its
        mask kept once built: every disjunctive form is built here.  A frame
        keeps no element of its own, so nothing it keeps refers back to it."""
        mask = self._forms.get(labels)
        if mask is None:
            mask = 0
            for i in _bit_indices(labels):
                mask |= self._hypotheses[i]
            self._forms[labels] = mask
        return Element(self, mask)

    def _meet(self, labels):
        """The survivor mask of the intersection of the hypotheses in a label
        mask (a cube of positive literals), kept once built."""
        meet = self._meets.get(labels)
        if meet is None:
            meet = self._full
            for i in _bit_indices(labels):
                meet &= self._hypotheses[i]
            self._meets[labels] = meet
        return meet

    def _display(self, mask):
        """The (expression, text) of every element of ``mask``, kept once computed."""
        if (entry := self._displays.get(mask)) is None:
            entry = self._displays[mask] = _display_expr(self, mask)
        return entry

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
        count = self._full.bit_count()
        out = [Element(self, sum(1 << k for k in combo))
               for r in range(count + 1) for combo in itertools.combinations(range(count), r)]
        out.sort(key=lambda el: (el.cardinality, el.display))
        return out


class Element:
    """One member of a frame's algebra: a set of surviving atoms, maybe with
    an expression.

    The set is ``mask``: bit k stands for the frame's k-th surviving atom
    in ascending order, so the connectives are int operations.  Semantic
    identity is the set: two elements are equal exactly when they denote
    the same atoms of the same frame, whatever their expressions look
    like.  The display is the frame's for those atoms; an element built
    without an expression (a rule's landing, say) reads the display's
    expression as its own.  Instances are immutable by convention.
    """

    __slots__ = ("frame", "mask", "_expr", "_hash")

    def __init__(self, frame, mask, expr=None):
        self.frame = frame
        self.mask = mask
        self._expr = expr
        self._hash = hash((frame._hash, mask))

    @property
    def atoms(self):
        """The atoms of the element (a frozenset view, built on each call)."""
        return frozenset(self.frame._values(self.mask))

    @property
    def expr(self):
        return self.frame._display(self.mask)[0] if self._expr is None else self._expr

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and (self.frame is other.frame or self.frame == other.frame)
            and self.mask == other.mask
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<Element {self.display}>"

    def __str__(self):
        return self.display

    @property
    def display(self):
        return self.frame._display(self.mask)[1]

    @property
    def text(self):
        """The expression's text: the display, unless built with an expression."""
        return self.display if self._expr is None else _expression_text(self._expr)

    @property
    def is_empty(self):
        return not self.mask

    @property
    def cardinality(self):
        """Number of model-surviving atoms inside the element."""
        return self.mask.bit_count()

    def _check_peer(self, other):
        if not isinstance(other, Element):
            raise TypeError(f"expected Element, got {type(other).__name__}")
        if other.frame is not self.frame and other.frame != self.frame:
            raise FrameMismatchError("elements from different frames")

    def __and__(self, other):
        self._check_peer(other)
        return Element(self.frame, self.mask & other.mask, ("and", (self.expr, other.expr)))

    def __or__(self, other):
        self._check_peer(other)
        return Element(self.frame, self.mask | other.mask, ("or", (self.expr, other.expr)))

    def __xor__(self, other):
        self._check_peer(other)
        return Element(self.frame, self.mask ^ other.mask, ("xor", (self.expr, other.expr)))

    def __invert__(self):
        return Element(self.frame, self.frame._full ^ self.mask, ("not", self.expr))

    def canonical(self):
        """Same atoms, with the frame's display expression for them."""
        return Element(self.frame, self.mask)

    def disjunctive(self):
        """The disjunctive form: every connective replaced by union.

        Complement nodes have no native disjunctive reading; they are
        rewritten through their atom-set as the union of the hypotheses
        covering those atoms, which is the only model-consistent choice.
        """
        return self.frame._label_union(_disjunctive_mask(self.frame, self.expr))


def _display_expr(frame, mask):
    """The one expression a survivor mask displays as, and its text: the
    set's cover when it negates no label (the set is up-closed), else ``~``
    of the complement's cover when that one negates none (the whole frame's
    cover never negates), else the set's cover.  The complement's cover is
    given up at its first negating cube."""
    if not mask:
        return EMPTY_EXPR, EMPTY_DISPLAY
    cubes = list(_cover(frame, mask))
    if any(negated for _, negated in cubes):
        outer = []
        for cube in _cover(frame, frame._full ^ mask):
            if cube[1]:
                break
            outer.append(cube)
        else:
            expr, text = _cubes_expr(frame, outer)
            return ("not", expr), f"~{text}" if expr[0] == "label" else f"~({text})"
    return _cubes_expr(frame, cubes)


def _cover(frame, mask):
    """The (labels, negated labels) masks of cubes whose union is the set,
    yielded one cube at a time.

    A cube is its labels' meet minus each negated hypothesis.  The lowest
    uncovered atom (its subsets are lower atoms) seeds its minterm: its
    labels, every other label negated.  The negated labels go at once if
    the labels' meet stays inside the set, else one by one, lowest first,
    while the cube stays inside; then the labels go one by one, highest
    first, while it stays inside and keeps a literal (Espresso's EXPAND).
    A label's drop test reads the union of the kept lower negated
    hypotheses and the suffix union of the higher ones.
    """
    meet, hypotheses, outside = frame._meet, frame._hypotheses, frame._full ^ mask
    rest = mask
    while rest:
        labels, negated, out = frame._atoms[(rest & -rest).bit_length() - 1], 0, 0
        if bad := meet(labels) & outside:
            tried = _bit_indices(((1 << frame.n) - 1) ^ labels)
            after = list(itertools.accumulate(
                [hypotheses[i] for i in reversed(tried)], operator.or_, initial=0))
            for i, later in zip(tried, reversed(after[:-1])):
                if bad & ~(out | later):
                    negated |= 1 << i
                    out |= hypotheses[i]
        if negated or labels & (labels - 1):  # else no literal can go
            for i in reversed(_bit_indices(labels)):
                if (labels ^ 1 << i or negated) and not meet(labels ^ 1 << i) & outside & ~out:
                    labels ^= 1 << i
        yield labels, negated
        rest &= out | ~meet(labels)


def _cubes_expr(frame, cubes):
    """The union of the cubes and its text: terms by literal count, then by
    their literals' codes (2i, or 2i + 1 negated, for label i), in label order.
    The frame keeps each cube's term (size, codes, expression, text), so the
    displays it keeps share their terms."""
    names, terms = frame.names, []
    for labels, negated in cubes:
        if (term := frame._terms.get((labels, negated))) is None:
            lits, bits = [], labels | negated
            while bits:
                low = bits & -bits
                i, bits = low.bit_length() - 1, bits ^ low
                lits.append((2 * i + 1, ("not", ("label", names[i])), "~" + names[i]) if negated & low
                            else (2 * i, ("label", names[i]), names[i]))
            term = frame._terms[labels, negated] = (
                len(lits), [code for code, *_ in lits],
                lits[0][1] if len(lits) == 1 else ("and", tuple([lit for _, lit, _ in lits])),
                "&".join([text for *_, text in lits]))
        terms.append(term)
    terms.sort()
    return (terms[0][2] if len(terms) == 1 else ("or", tuple([term[2] for term in terms])),
            "|".join([term[3] for term in terms]))


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
    keyed = {}
    for kid in flat:
        keyed.setdefault(frame.eval_mask(kid), kid)
    # An and-chain drops a term holding another term, an or-chain a term
    # inside another.
    kept = [kid for mask, kid in keyed.items()
            if not any(_strictly_inside(other, mask) if op == "and"
                       else _strictly_inside(mask, other) for other in keyed)]
    if len(kept) == 1:
        return kept[0]
    return (op, tuple(kept))


def _disjunctive_mask(frame, expr):
    """The label mask of an expression's disjunctive form (see Element.disjunctive)."""
    op = expr[0]
    if op == "label":
        frame.eval_mask(expr)  # validates the label
        return 1 << frame._index[expr[1]]
    if op == "empty":
        return 0
    if op == "not":
        mask = frame.eval_mask(expr)
        return sum(1 << i for i, hypothesis in enumerate(frame._hypotheses) if hypothesis & mask)
    return functools.reduce(operator.or_, (_disjunctive_mask(frame, child) for child in expr[1]))


# One part of a reduced intersection: the index of its atom set among the
# call's distinct part atom sets, its disjunctive form's label mask, and
# its element.
_Part = namedtuple("_Part", "index mask element")


class Reductions:
    """The absorption-reduced intersections of one call's conflicting products.

    dsmh sends a conflicting product to the disjunctive form of the
    reduced intersection of its operands' expressions, and minC takes
    its recipients from that intersection's parts.  Those parts are the
    operands' own reduced parts in operand order, with equal atom sets
    merged (the first one kept) and only the minimal ones kept.  So each
    distinct operand expression is reduced once per frame (its
    ``_reduced`` memo), a call only numbers its parts, and a product only
    merges its operands' parts.  Each distinct atom set of a part gets an
    index, and the indices of the atom sets strictly above it, as
    one int: a product's minimal parts are its part bits less those above
    any of them.  dsmh registers every focal element before the walk and
    folds their ``keys`` along it.  The minimal parts alone decide the
    disjunctive form, so their bits key it.  Only an atom set whose parts
    have two disjunctive forms (the first seen wins) is ambiguous, and a
    product whose minimal parts hold one is reduced afresh: registering
    early only widens ``_ambiguous``, so no product changes its route.

    The operand memos, the call's and the frame's, are keyed by
    expression, never by Element: elements compare by atoms, and on a
    Shafer frame A&B and C&D are one empty element with different
    disjunctive forms.
    """

    __slots__ = ("frame", "_operands", "_indices", "_above", "_forms", "_masks",
                 "_ambiguous", "_shift")

    def __init__(self, frame):
        self.frame = frame
        # expression -> (its reduced parts, their index bits, its own label mask)
        self._operands = {}
        self._indices = {}  # part survivor mask -> its index
        self._above = []  # index -> bits of the indices of its strict supersets
        self._forms = {}  # bits of a product's minimal parts -> its disjunctive form
        self._masks = []  # index -> the label mask of its first part
        self._ambiguous = 0  # bits of the indices seen with two label masks

    def _index_of(self, mask, labels):
        """The index of a part's atom set, given the part's label mask."""
        index = self._indices.get(mask)
        if index is None:
            index = len(self._above)
            above = 0
            for other, i in self._indices.items():
                if _strictly_inside(mask, other):
                    above |= 1 << i
                elif _strictly_inside(other, mask):
                    self._above[i] |= 1 << index
            self._indices[mask] = index
            self._above.append(above)
            self._masks.append(labels)
        elif self._masks[index] != labels:
            self._ambiguous |= 1 << index
        return index

    def _operand(self, el):
        """An operand's reduced parts, their index bits and its expression's
        own label mask."""
        expr = el.expr
        entry = self._operands.get(expr)
        if entry is None:
            frame, memo = self.frame, self.frame._reduced
            if (reduced := memo.get(expr)) is None:
                node = _canonical_expr(frame, expr)
                reduced = (tuple([(frame.eval_mask(n), _disjunctive_mask(frame, n), n)
                                  for n in (node[1] if node[0] == "and" else (node,))]),
                           _disjunctive_mask(frame, expr))
                if len(memo) < _TEXTS:
                    memo[expr] = reduced
            parts, bits = [], 0
            for mask, labels, node in reduced[0]:
                parts.append(_Part(self._index_of(mask, labels), labels,
                                   Element(frame, mask, node)))
                bits |= 1 << parts[-1].index
            entry = self._operands[expr] = (parts, bits, reduced[1])
        return entry

    def parts(self, els):
        """The parts of the operands' reduced intersection, first seen first."""
        present, seen = 0, []
        for el in els:
            for part in self._operand(el)[0]:
                if not present >> part.index & 1:
                    present |= 1 << part.index
                    seen.append(part)
        # Read after every operand is registered: a later part may lie inside an earlier one.
        above = fold("or", (self._above[part.index] for part in seen))
        return [part for part in seen if not above >> part.index & 1]

    def keys(self, operands):
        """Register every operand; the function giving each one's route key:
        bit 0 set unless it is empty, the bits above its parts from bit 1,
        and its part bits from ``_shift`` (set here), so ORed keys give a product's."""
        for el in operands:
            self._operand(el)
        self._shift = shift = len(self._above) + 1

        def key(el):
            bits = self._operand(el)[1]
            over = fold("or", (self._above[i] for i in _bit_indices(bits)))
            return (not el.is_empty) | over << 1 | bits << shift
        return key

    def form(self, key, els):
        """The disjunctive form of a product's reduced intersection, by the
        product's key: the union of its minimal parts' label masks."""
        minimal = key >> self._shift & ~(key >> 1)
        if minimal & self._ambiguous:
            return self.frame._label_union(fold("or", (part.mask for part in self.parts(els))))
        if (form := self._forms.get(minimal)) is None:
            form = self._forms[minimal] = self.frame._label_union(
                fold("or", map(self._masks.__getitem__, _bit_indices(minimal))))
        return form

    def joint_disjunctive(self, els):
        """The union of the operands' own disjunctive forms."""
        return self.frame._label_union(fold("or", (self._operand(el)[2] for el in els)))


# -- degrees -----------------------------------------------------------

def degree_intersection(x, y):
    """|x & y| / |x | y|, the share of the joint region two elements agree on.

    The ratio of the atom counts is one correctly rounded integer
    division.  Undefined when both elements are empty.
    """
    x._check_peer(y)
    union = x.mask | y.mask
    if not union:
        raise UndefinedDegreeError("degree of two empty elements is undefined")
    return (x.mask & y.mask).bit_count() / union.bit_count()


def degree_union(x, y):
    """(|x | y| - |x & y|) / |x | y|; complement of degree_intersection."""
    return 1.0 - degree_intersection(x, y)


def degree_inclusion(x, y):
    """|x| / |y| for nested elements x inside y.

    The empty element is fully included in anything non-empty with
    degree 0, and in itself with degree 1.
    """
    x._check_peer(y)
    if x.mask & ~y.mask:
        raise NotASubsetError(f"{x.display} is not included in {y.display}")
    if not y.mask:
        return 1.0
    if not x.mask:
        return 0.0
    return x.mask.bit_count() / y.mask.bit_count()


# -- intervals -----------------------------------------------------------

_INTERVAL_RE = re.compile(
    r"\[\s*([+-]?\d+(?:\.\d+)?)\s*,\s*([+-]?\d+(?:\.\d+)?)\s*\]\Z"
)


def _decimal_text(x):
    """The shortest decimal text, in the interval grammar, that reads back as ``x``."""
    text = repr(x)
    if "e" in text:
        # The grammar has no exponents; only the exponent-form floats pay
        # for importing decimal.
        from decimal import Decimal

        text = f"{Decimal(text):f}"
    return text.removesuffix(".0")


class _IntervalFrame:
    """The frame of closed real intervals; it has no element algebra."""

    __slots__ = ()

    def parse(self, text):
        """Parse ``[lo,hi]`` into an IntervalElement."""
        match = _INTERVAL_RE.match(text)
        if not match:
            raise ParseError(f"expected [lo,hi] interval, got {text!r}")
        try:
            return IntervalElement(float(match.group(1)), float(match.group(2)))
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def __repr__(self):
        return "INTERVAL_FRAME"


INTERVAL_FRAME = _IntervalFrame()


class IntervalElement(Value):
    """A closed real interval used as a focal element."""

    __slots__ = ("lo", "hi")
    frame = INTERVAL_FRAME
    is_empty = False  # lo <= hi always

    def __init__(self, lo, hi):
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval bounds must be finite")
        if lo > hi:
            raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
        self._set(lo, hi)

    def average(self, other):
        """The midpoint interval of self and other, bound by bound."""
        return IntervalElement((self.lo + other.lo) / 2, (self.hi + other.hi) / 2)

    @property
    def display(self):
        return f"[{_decimal_text(self.lo)},{_decimal_text(self.hi)}]"

    def __str__(self):
        return self.display
