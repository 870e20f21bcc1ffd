"""Line-oriented problem files: frame, model, sources, events, scenario.

The format is deliberately small and diff-friendly.  One declaration
per line; `#` starts a comment; commas separate assignments within a
line, except inside a param value.  Interval problems swap the label
frame for real intervals and exclude models, events, and scenarios.
"""

import functools
import math
import re

from .errors import FrameTooLargeError, ParseError
from .frame import INTERVAL_FRAME, Frame, IntervalElement, Value
from .mass import MassFunction

# Scenario case identifiers: each case's reliability mode and the routing
# (attitude kind) of its contested products, None where the case only
# sets the reliability.  Several cases share one routing; the case code
# is kept in the audit trail.
CASES = {
    "1": ("all-reliable", None),
    "2": ("at-least-one", None),
    "3": ("discounts", None),
    "1.1.1": ("all-reliable", "keep"),
    "1.3": ("all-reliable", "keep"),
    "1.1.2": ("all-reliable", "split"),
    "1.2.1": ("all-reliable", "split"),
    "1.2.2": ("all-reliable", "union"),
    "1.2.3": ("all-reliable", "union"),
    "1.2.4": ("all-reliable", "union"),
    "1.2.5.1": ("all-reliable", "ignorance"),
    "1.2.5.2": ("all-reliable", "empty"),
    "1.2.6": ("all-reliable", "right"),
    "1.2.7": ("all-reliable", "both-wrong"),
}
CASE_TO_KIND = {case: kind for case, (_, kind) in CASES.items() if kind}

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
# Commas inside [lo,hi] brackets do not separate assignments; the comma
# of an interval is the one that meets ']' before any ',' or '['.
_SEPARATOR_RE = re.compile(r",(?![^\[,]*\])")
# A param value may hold commas (weights=A:0.5,B:0.5); only a comma that
# starts another key=value pair separates params.
_PARAM_SEPARATOR_RE = re.compile(r",(?=[^,]*=)")
# The declarations an interval problem may not make, and what it lacks.
_LABEL_ONLY = {"model": "model", "event": "events", "scenario": "scenario"}


class ProblemFile(Value):
    """A parsed problem: one frame, its sources, and optional extras.

    ``sources`` is a list of (name, bba) pairs; each problem gets its
    own list and dicts.
    """

    __slots__ = ("frame", "model_kind", "model_constraints", "sources", "events", "scenario",
                 "params", "discounts")
    __hash__ = None  # the sources list is filled while parsing

    def __init__(self, frame=None, model_kind="free", model_constraints=(), sources=None,
                 events=(), scenario=None, params=None, discounts=None):
        self._set(frame, model_kind, model_constraints, [] if sources is None else sources,
                  events, scenario, {} if params is None else params,
                  {} if discounts is None else discounts)

    @property
    def interval(self):
        """Whether the sources are interval bbas."""
        return self.frame is INTERVAL_FRAME

    @property
    def source_masses(self):
        return [m for _, m in self.sources]

    def final_frame(self):
        """The frame after all dynamic constraint events, applied together."""
        return self.frame.constrain(*self.events) if self.events else self.frame

    def final_sources(self):
        """Sources re-evaluated under the post-event frame."""
        frame = self.final_frame()
        if frame == self.frame:
            return list(self.source_masses)
        return [m.on_frame(frame) for m in self.source_masses]

    def render(self):
        """The problem as text; parsing it back yields an equal problem."""
        lines = []
        if self.interval:
            lines.append("frame-intervals:")
        else:
            lines.append("frame: " + " ".join(self.frame.names))
            if self.model_kind == "constrain":
                parts = ", ".join(f"{e}=0" for e in self.model_constraints)
                lines.append(f"model: constrain {parts}")
            else:
                lines.append(f"model: {self.model_kind}")
        for name, m in self.sources:
            parts = ", ".join(
                f"{_render_focal(el)}={v!r}" for el, v in m.items()
            )
            lines.append(f"source {name}: {parts}")
        for expr in self.events:
            lines.append(f"event: constrain {expr}=0")
        if self.scenario is not None:
            bits = [f"case {self.scenario['case']}"]
            if self.scenario.get("recipients"):
                bits.append("recipients " + " ".join(self.scenario["recipients"]))
            if self.scenario.get("right"):
                bits.append("right " + self.scenario["right"])
            lines.append("scenario: " + " ".join(bits))
        for key, value in self.params.items():
            lines.append(f"param: {key}={value}")
        for name, factor in self.discounts.items():
            lines.append(f"discount: {name}={factor!r}")
        return "\n".join(lines) + "\n"


def _render_focal(el):
    if isinstance(el, IntervalElement):
        return el.display
    if el.expr == ("empty",):
        # The bare empty element has no surface syntax; any
        # contradiction over a declared label re-parses to it.
        name = el.frame.names[0]
        return f"{name}&~{name}"
    return el.text


def _fail(lineno, message):
    raise ParseError(f"line {lineno}: {message}")


def _split_assignments(body, lineno, lhs_form="<expr>", separator=_SEPARATOR_RE):
    """The (lhs, rhs) pairs of a comma-separated assignment list."""
    out = []
    for chunk in separator.split(body):
        chunk = chunk.strip()
        if not chunk:
            _fail(lineno, "empty assignment")
        if "=" not in chunk:
            _fail(lineno, f"expected {lhs_form}=<value>, got {chunk!r}")
        lhs, rhs = chunk.rsplit("=", 1)
        out.append((lhs.strip(), rhs.strip()))
    return out


def _constraint_clause(body, lineno):
    """The expressions of a 'constrain <expr>=0, ...' clause."""
    exprs = []
    for lhs, rhs in _split_assignments(body[len("constrain"):].strip(), lineno):
        if rhs != "0":
            _fail(lineno, f"constraints must read <expr>=0, got ={rhs}")
        exprs.append(lhs)
    return exprs


def _parse_float(text, lineno, what):
    try:
        return float(text)
    except ValueError:
        _fail(lineno, f"bad {what} {text!r}")


def parse_problem(text):
    """Parse problem text into a validated ProblemFile."""
    frame_labels = None
    interval = False
    model_kind = None
    model_constraints = ()
    raw_sources = []
    events = []
    scenario = None
    params = {}
    discounts = {}
    discount_lines = {}
    label_only = None  # the first model, event or scenario line, and its refusal

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            _fail(lineno, f"expected '<keyword>: ...', got {line!r}")
        head, _, body = line.partition(":")
        head = head.strip()
        body = body.strip()
        if head in ("frame", "frame-intervals") and (frame_labels is not None or interval):
            _fail(lineno, "frame already declared")
        if head in _LABEL_ONLY:
            label_only = label_only or (lineno, f"interval problems have no {_LABEL_ONLY[head]}")
            if interval:
                _fail(*label_only)

        if head == "frame":
            labels = body.split()
            if not labels:
                _fail(lineno, "frame needs at least one label")
            for nm in labels:
                if not _LABEL_RE.match(nm):
                    _fail(lineno, f"bad label {nm!r}")
            if len(set(labels)) != len(labels):
                _fail(lineno, "duplicate labels in frame")
            frame_labels, frame_lineno = tuple(labels), lineno
        elif head == "frame-intervals":
            if body:
                _fail(lineno, "frame-intervals takes no arguments")
            if label_only:  # a model, event or scenario line came first
                _fail(*label_only)
            interval = True
        elif head == "model":
            if model_kind is not None:
                _fail(lineno, "model already declared")
            if body in ("free", "shafer"):
                model_kind = body
            elif body.startswith("constrain"):
                model_kind = "constrain"
                model_constraints = tuple(_constraint_clause(body, lineno))
            else:
                _fail(lineno, f"model must be free, shafer, or constrain ..., got {body!r}")
        elif head.startswith("source"):
            name = head[len("source"):].strip()
            if not name:
                _fail(lineno, "source needs a name: 'source <name>: ...'")
            if any(name == seen for seen, _, _ in raw_sources):
                _fail(lineno, f"source {name!r} already declared")
            raw_sources.append((name, body, lineno))
        elif head == "event":
            if not body.startswith("constrain"):
                _fail(lineno, f"event must read 'constrain <expr>=0', got {body!r}")
            exprs = _constraint_clause(body, lineno)
            if len(exprs) != 1:
                _fail(lineno, "one constraint per event line")
            events += exprs
        elif head == "scenario":
            if scenario is not None:
                _fail(lineno, "scenario already declared")
            scenario = _parse_scenario(body, lineno)
        elif head == "param":
            pairs = dict(_split_assignments(body, lineno, separator=_PARAM_SEPARATOR_RE))
            if "" in pairs:
                _fail(lineno, "param needs a key")
            try:
                coerce_params(pairs)
            except ValueError as exc:
                _fail(lineno, f"bad param value: {exc}")
            params.update(pairs)
        elif head == "discount":
            for name, value in _split_assignments(body, lineno):
                factor = _parse_float(value, lineno, "discount factor")
                if not 0.0 <= factor <= 1.0:
                    _fail(lineno, f"discount factor must be in [0, 1], got {value}")
                discounts[name] = factor
                discount_lines[name] = lineno
        else:
            _fail(lineno, f"unknown declaration {head!r}")

    names = {name for name, _, _ in raw_sources}
    for name, lineno in discount_lines.items():
        if name not in names:
            _fail(lineno, f"discount names no declared source: {name!r}")
        if scenario is None or CASES[scenario["case"]][0] != "discounts":
            _fail(lineno, "discounts need 'scenario: case 3'")

    if frame_labels is None and not interval:
        raise ParseError("problem declares no frame")
    if not raw_sources:
        raise ParseError("problem declares no sources")
    model_kind = model_kind or "free"
    if interval:
        frame = INTERVAL_FRAME
    elif len(frame_labels) < 2:
        _fail(frame_lineno, "a frame needs at least two hypotheses")
    else:
        try:
            frame = _declared_frame(frame_labels, model_kind, model_constraints)
        except FrameTooLargeError as exc:
            _fail(frame_lineno, str(exc))

    problem = ProblemFile(
        frame=frame, model_kind=model_kind, model_constraints=model_constraints,
        events=tuple(events), scenario=scenario, params=params, discounts=discounts,
    )
    lhs_form = "[lo,hi]" if interval else "<expr>"
    for name, body, lineno in raw_sources:
        masses = {}
        for lhs, rhs in _split_assignments(body, lineno, lhs_form):
            try:
                el = frame.parse(lhs)
            except ParseError as exc:
                _fail(lineno, str(exc))
            v = _parse_float(rhs, lineno, "mass")
            if v < 0.0:
                _fail(lineno, f"negative mass {v} on {lhs}")
            masses[el] = masses.get(el, 0.0) + v
        try:
            problem.sources.append((name, MassFunction._parsed_source(frame, masses)))
        except ValueError as exc:
            _fail(lineno, str(exc))

    named = [(f"event constraint {e!r}", e) for e in problem.events]
    if scenario is not None:
        named += [(f"scenario recipient {e!r}", e) for e in scenario["recipients"]]
        if scenario["right"]:
            named.append(("scenario right element", scenario["right"]))
    for what, text in named:
        try:
            frame.parse(text)
        except ParseError as exc:
            raise ParseError(f"{what}: {exc}") from exc
    return problem


@functools.lru_cache(maxsize=8)
def _declared_frame(labels, kind, constraints):
    """The frame a declaration builds: its labels, its model kind and the
    texts of its constraints.  Problems of one declaration share the frame,
    and with it the displays, terms, forms and meets it keeps; the last 8
    distinct declarations are kept."""
    if kind == "shafer":
        return Frame.shafer(labels)
    frame = Frame(labels)
    return frame.constrain(*constraints) if kind == "constrain" else frame


def _parse_scenario(body, lineno):
    tokens = body.split()
    if len(tokens) < 2 or tokens[0] != "case":
        _fail(lineno, "scenario must read 'case <id> [recipients <expr>+] [right <expr>]'")
    out = {"case": tokens[1], "recipients": [], "right": None}
    i = 2
    while i < len(tokens):
        if tokens[i] == "recipients":
            i += 1
            while i < len(tokens) and tokens[i] != "right":
                out["recipients"].append(tokens[i])
                i += 1
            if not out["recipients"]:
                _fail(lineno, "recipients needs at least one element")
        elif tokens[i] == "right":
            i += 1
            if i >= len(tokens):
                _fail(lineno, "right needs an element")
            if out["right"] is not None:
                _fail(lineno, "right already given")
            out["right"] = tokens[i]
            i += 1
        else:
            _fail(lineno, f"unexpected scenario token {tokens[i]!r}")
    case = out["case"]
    if case not in CASES:
        _fail(lineno, f"unknown scenario case {case!r}")
    kind = CASES[case][1]
    # Only the right-side route reads a right element and only the
    # both-wrong route reads recipients; each needs its own.
    reads = {"right": "right", "both-wrong": "recipients"}.get(kind)
    for key in ("right", "recipients"):
        if key == reads and not out[key]:
            _fail(lineno, f"case {case} needs '{key} <expr>'")
        if key != reads and out[key]:
            _fail(lineno, f"case {case} does not read '{key}'")
    return out


def _finite(text, key):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {text.strip()}")
    return value


def coerce_params(raw):
    """Convert raw string parameters to typed values for the rules.

    Weights given as element:value pairs become a dict; bare
    comma-separated numbers become a list.  Unknown keys pass through
    as strings.
    """
    out = {}
    for key, value in raw.items():
        key = key.replace("-", "_")
        if isinstance(value, (int, float, bool, dict, list, tuple)):
            out[key] = value
            continue
        if key == "p":
            out[key] = _finite(value, key)
        elif key == "weights":
            if ":" in value:
                pairs = {}
                for chunk in value.split(","):
                    lhs, _, rhs = chunk.strip().partition(":")
                    pairs[lhs.strip()] = _finite(rhs, key)
                out[key] = pairs
            else:
                out[key] = [_finite(v, key) for v in value.split(",")]
        elif key == "dogmatic_bayesian":
            out[key] = value.strip().lower() in ("1", "true", "yes", "on")
        else:
            out[key] = value
    return out
