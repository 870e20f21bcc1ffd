"""Line-oriented problem files: frame, model, sources, events, scenario.

The format is deliberately small and diff-friendly.  One declaration
per line; `#` starts a comment; commas separate assignments within a
line.  Interval problems swap the label frame for real intervals and
exclude models, events, and scenarios.
"""

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .frame import Frame, parse_expression_text, render_expression
from .mass import MassFunction
from .special import IntervalElement, IntervalMassFunction

_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_INTERVAL_RE = re.compile(
    r"\[\s*([+-]?\d+(?:\.\d+)?)\s*,\s*([+-]?\d+(?:\.\d+)?)\s*\]\Z"
)


@dataclass
class ProblemFile:
    """A parsed problem: one frame, its sources, and optional extras."""

    frame: Frame = None
    model_kind: str = "free"
    model_constraints: tuple = ()
    interval: bool = False
    sources: list = field(default_factory=list)
    events: tuple = ()
    scenario: dict = None
    params: dict = field(default_factory=dict)
    discounts: dict = field(default_factory=dict)

    @property
    def source_masses(self):
        return [m for _, m in self.sources]

    def final_frame(self):
        """The frame after all dynamic constraint events."""
        frame = self.frame
        for expr in self.events:
            frame = frame.constrain(frame.parse(expr))
        return frame

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

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return (
            self.interval == other.interval
            and (self.frame == other.frame)
            and self.model_kind == other.model_kind
            and self.sources == other.sources
            and self.events == other.events
            and self.scenario == other.scenario
            and self.params == other.params
            and self.discounts == other.discounts
        )


def _render_focal(el):
    if isinstance(el, IntervalElement):
        return el.display
    if el.expr == ("empty",):
        # The bare empty element has no surface syntax; any
        # contradiction over a declared label re-parses to it.
        name = el.frame.names[0]
        return f"{name}&~{name}"
    return render_expression(el.expr)


def _fail(lineno, message):
    raise ParseError(f"line {lineno}: {message}")


def _split_assignments(body, lineno):
    out = []
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            _fail(lineno, "empty assignment")
        if "=" not in chunk:
            _fail(lineno, f"expected <expr>=<value>, got {chunk!r}")
        lhs, rhs = chunk.rsplit("=", 1)
        out.append((lhs.strip(), rhs.strip()))
    return out


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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            _fail(lineno, f"expected '<keyword>: ...', got {line!r}")
        head, _, body = line.partition(":")
        head = head.strip()
        body = body.strip()

        if head == "frame":
            if frame_labels is not None or interval:
                _fail(lineno, "frame already declared")
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
            if frame_labels is not None or interval:
                _fail(lineno, "frame already declared")
            if body:
                _fail(lineno, "frame-intervals takes no arguments")
            interval = True
        elif head == "model":
            if interval:
                _fail(lineno, "interval problems have no model")
            if model_kind is not None:
                _fail(lineno, "model already declared")
            if body in ("free", "shafer"):
                model_kind = body
            elif body.startswith("constrain"):
                model_kind = "constrain"
                rest = body[len("constrain"):].strip()
                constraints = []
                for lhs, rhs in _split_assignments(rest, lineno):
                    if rhs != "0":
                        _fail(lineno, f"constraints must read <expr>=0, got ={rhs}")
                    constraints.append(lhs)
                model_constraints = tuple(constraints)
            else:
                _fail(lineno, f"model must be free, shafer, or constrain ..., got {body!r}")
        elif head.startswith("source"):
            name = head[len("source"):].strip()
            if not name:
                _fail(lineno, "source needs a name: 'source <name>: ...'")
            raw_sources.append((name, body, lineno))
        elif head == "event":
            if interval:
                _fail(lineno, "interval problems have no events")
            if not body.startswith("constrain"):
                _fail(lineno, f"event must read 'constrain <expr>=0', got {body!r}")
            rest = body[len("constrain"):].strip()
            pairs = _split_assignments(rest, lineno)
            if len(pairs) != 1:
                _fail(lineno, "one constraint per event line")
            lhs, rhs = pairs[0]
            if rhs != "0":
                _fail(lineno, f"constraints must read <expr>=0, got ={rhs}")
            events.append(lhs)
        elif head == "scenario":
            if interval:
                _fail(lineno, "interval problems have no scenario")
            if scenario is not None:
                _fail(lineno, "scenario already declared")
            scenario = _parse_scenario(body, lineno)
        elif head == "param":
            pairs = _split_assignments(body, lineno)
            for key, value in pairs:
                if not key:
                    _fail(lineno, "param needs a key")
                params[key] = value
        elif head == "discount":
            for name, value in _split_assignments(body, lineno):
                discounts[name] = _parse_float(value, lineno, "discount factor")
        else:
            _fail(lineno, f"unknown declaration {head!r}")

    if interval:
        problem = ProblemFile(interval=True, params=params, discounts=discounts)
        if not raw_sources:
            raise ParseError("problem declares no sources")
        for name, body, lineno in raw_sources:
            problem.sources.append((name, _parse_interval_source(body, lineno)))
        return problem

    if frame_labels is None:
        raise ParseError("problem declares no frame")
    if not raw_sources:
        raise ParseError("problem declares no sources")
    if len(frame_labels) < 2:
        _fail(frame_lineno, "a frame needs at least two hypotheses")
    if model_kind is None:
        model_kind = "free"
    if model_kind == "shafer":
        frame = Frame.shafer(frame_labels)
    else:
        frame = Frame(frame_labels)
        if model_kind == "constrain":
            frame = frame.constrain(*(frame.parse(e) for e in model_constraints))

    problem = ProblemFile(
        frame=frame, model_kind=model_kind, model_constraints=model_constraints,
        interval=False, events=tuple(events), scenario=scenario, params=params,
        discounts=discounts,
    )
    for name, body, lineno in raw_sources:
        masses = {}
        for lhs, rhs in _split_assignments(body, lineno):
            try:
                el = frame.parse(lhs)
            except ParseError as exc:
                _fail(lineno, str(exc))
            v = _parse_float(rhs, lineno, "mass")
            if v < 0.0:
                _fail(lineno, f"negative mass {v} on {lhs}")
            masses[el] = masses.get(el, 0.0) + v
        try:
            problem.sources.append((name, MassFunction(frame, masses)))
        except ValueError as exc:
            _fail(lineno, str(exc))

    for expr in problem.events:
        try:
            frame.parse(expr)
        except ParseError as exc:
            raise ParseError(f"event constraint {expr!r}: {exc}") from exc
    if scenario is not None:
        for e in scenario.get("recipients", ()):
            try:
                frame.parse(e)
            except ParseError as exc:
                raise ParseError(f"scenario recipient {e!r}: {exc}") from exc
        if scenario.get("right"):
            try:
                frame.parse(scenario["right"])
            except ParseError as exc:
                raise ParseError(f"scenario right element: {exc}") from exc
    return problem


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
    return out


def _split_interval_assignments(body, lineno):
    # Commas inside [lo,hi] brackets do not separate assignments.
    parts = []
    depth = 0
    cur = []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    out = []
    for chunk in parts:
        chunk = chunk.strip()
        if not chunk:
            _fail(lineno, "empty assignment")
        if "=" not in chunk:
            _fail(lineno, f"expected [lo,hi]=<value>, got {chunk!r}")
        lhs, rhs = chunk.rsplit("=", 1)
        out.append((lhs.strip(), rhs.strip()))
    return out


def _parse_interval_source(body, lineno):
    masses = {}
    for lhs, rhs in _split_interval_assignments(body, lineno):
        match = _INTERVAL_RE.match(lhs)
        if not match:
            _fail(lineno, f"expected [lo,hi] interval, got {lhs!r}")
        try:
            el = IntervalElement(float(match.group(1)), float(match.group(2)))
        except ValueError as exc:
            _fail(lineno, str(exc))
        v = _parse_float(rhs, lineno, "mass")
        masses[el] = masses.get(el, 0.0) + v
    return IntervalMassFunction(masses)


def scenario_config(problem):
    """The ScenarioConfig a problem's scenario and discounts stand for."""
    from .uft import ScenarioConfig

    if problem.scenario is None:
        return ScenarioConfig()
    # Attitude elements must live on the same frame as the sources the
    # engine will see, which is the frame after constraint events.
    frame = problem.final_frame()
    case = problem.scenario["case"]
    right = problem.scenario.get("right")
    recipients = tuple(
        frame.parse(e) for e in problem.scenario.get("recipients", ())
    )
    discounts = None
    if case == "3" or problem.discounts:
        by_name = dict(problem.discounts)
        discounts = tuple(
            by_name.get(name, 1.0) for name, _ in problem.sources
        )
    return ScenarioConfig.for_case(
        case,
        right=frame.parse(right) if right else None,
        recipients=recipients,
        discounts=discounts,
    )


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
            out[key] = float(value)
        elif key == "weights":
            if ":" in value:
                pairs = {}
                for chunk in value.split(","):
                    lhs, _, rhs = chunk.strip().partition(":")
                    pairs[lhs.strip()] = float(rhs)
                out[key] = pairs
            else:
                out[key] = [float(v) for v in value.split(",")]
        elif key == "dogmatic_bayesian":
            out[key] = value.strip().lower() in ("1", "true", "yes", "on")
        else:
            out[key] = value
    return out
