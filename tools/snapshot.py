"""Record and compare the outputs of the mass-mode rules and ``xavg``.

    python3 tools/snapshot.py write OUT.jsonl
    python3 tools/snapshot.py diff A.jsonl B.jsonl
    python3 tools/snapshot.py displays OUT.txt

``write`` runs every mass-mode selector that takes no parameter over the
label problems of the golden cases and a fixed seeded sweep of free,
Shafer and hybrid problems with two or three sources, a quarter of them
with mass on the empty set.  It runs the selectors that take parameters
with fixed ones: ``inagaki`` with p = 0.5; ``conditional`` on the first
source, given the first label, with base ``dempster``; ``mixed`` with
``1|2`` on two sources and ``(1&2)|3`` on three; ``mixing`` with equal
weights; ``wo`` with weight 0.5 on total ignorance and 0.5 on the empty
set; ``consensus`` with the first label as focus.  It runs ``xavg`` over
the golden cases' interval problems.  It also runs every rule of the
quasi-associative store (selector ``store:<rule>``, in the order of
``fusekit.uft._STORE_RULES``), the nine that run on the stored product,
the four recomputed from the sources and the four pairwise folds
resumed one step per source, appending the sources in order, with the parameters above for ``wo`` and ``inagaki``; on the
interval problems it runs them with no parameters, where each one must
be refused.  Each run is one JSON line: the CLI table's ``render()`` and
``to_json_dict()``, or the error the run raised.

``displays`` writes the display of every mask of a fixed, seeded grid of
frames, one line each: the frame, the mask in hex, the display and its
expression tree.  The grid holds the free, Shafer and hybrid frames of 3
and 4 hypotheses, every mask of each, and those of 6, 8 and 16
hypotheses, 200 seeded masks of each.  A drawn mask is, alternately, a
random set of survivors (where the frame has at most 255) and the set
of a random expression: a union of up to three terms of up to three
literals, any of them negated, itself complemented half the time.  The
hybrid models come from ``bench/gen.py``.

``diff`` prints, per selector, how many records differ in ``render()``
and in the JSON, how many of those become equal once every display in
both is parsed into its atoms on the problem's frame (rows and shares
then compare in atom order), and the first difference of each kind.  It
exits 1 when any record differs and 0 when none does.

fusekit is imported from the path, so ``PYTHONPATH=<checkout>/src``
snapshots that checkout; ``diff`` reads the problems' frames through
it when two records differ.  The sweep's models and focal elements come from ``bench/gen.py``.
Standard library only.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402

SWEEP = 96
_KINDS = ("free", "shafer", "hybrid")
DISPLAY_DRAWS = 200


def _runs(problem):
    """(selector, problem, parameter overrides) of every recorded run."""
    from fusekit.registry import resolve, selectors
    from fusekit.uft import _STORE_RULES

    if problem.interval:
        return [("xavg", problem, {})] + [(f"store:{rule}", problem, {})
                                          for rule in _STORE_RULES]
    frame = problem.final_frame()
    first, n = problem.frame.names[0], len(problem.sources)
    runs = [(name, problem, {}) for name in selectors()
            if resolve(name).mode == "mass" and not resolve(name).needs]
    return runs + [
        ("inagaki", problem, {"p": 0.5}),
        ("conditional", problem._replace(sources=problem.sources[:1]),
         {"given": first, "base": "dempster"}),
        ("mixed", problem, {"expr": "1|2" if n == 2 else "(1&2)|3"}),
        ("mixing", problem, {"weights": [1.0] * n}),
        ("wo", problem, _store_params("wo", frame)),
        ("consensus", problem, {"focus": first}),
    ] + [(f"store:{rule}", problem, _store_params(rule, frame)) for rule in _STORE_RULES]


def _sweep():
    """The seeded problems as (name, text)."""
    rng = random.Random("fusekit-snapshot")
    out = []
    for i in range(SWEEP):
        kind, n, s = _KINDS[i % 3], 3 + (i // 3) % 2, 2 + (i // 6) % 2
        model = gen.make_model(rng, kind, n)
        pool = gen.focal_pool(model)
        lines = model.lines()
        for j in range(s):
            focal = gen.make_source(rng, pool, rng.randint(2, min(4, len(pool)))).focal
            entries = [(text, v) for text, _, v in focal]
            if i % 4 == j == 0:
                share = rng.uniform(0.05, 0.3)
                entries = [(text, v * (1.0 - share)) for text, v in entries]
                entries.append((f"{model.names[0]}&~{model.names[0]}", share))
            lines.append(f"source m{j + 1}: " + ", ".join(f"{t}={v!r}" for t, v in entries))
        out.append((f"sweep-{i:03d}-{kind}-n{n}-s{s}", "\n".join(lines) + "\n"))
    return out


def _problems():
    from fusekit.golden import GOLDEN_CASES

    seen = set()
    out = []
    for case in GOLDEN_CASES:
        if case.text not in seen:
            seen.add(case.text)
            out.append((f"golden-{case.name}", case.text))
    return out + _sweep()


def _store_params(rule, frame):
    if rule == "wo":
        return {"weights": {frame.ignorance(): 0.5, frame.empty(): 0.5}}
    return {"p": 0.5} if rule == "inagaki" else {}


def _store(problem, rule, params):
    """The store's result after appending the problem's sources in order."""
    from fusekit.registry import Outcome
    from fusekit.uft import quasi_associative_combine

    sources = problem.final_sources()
    state = sources[0]
    for m in sources[1:]:
        state, result = quasi_associative_combine(state, m, rule, **params)
    return Outcome("mass", frame=sources[0].frame, combined=result.combined, result=result,
                   warnings=result.warnings)


def write(path):
    from fusekit.cli import build_table
    from fusekit.errors import FusionError
    from fusekit.problem import parse_problem
    from fusekit.registry import execute_problem

    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for name, text in _problems():
            problem = parse_problem(text)
            for selector, run_on, params in _runs(problem):
                record = {"problem": name, "selector": selector}
                try:
                    if selector.startswith("store:"):
                        outcome = _store(run_on, selector.partition(":")[2], params)
                    else:
                        outcome = execute_problem(run_on, selector, overrides=params)
                    table = build_table(outcome, selector)
                    record["render"] = table.render()
                    record["json"] = table.to_json_dict(outcome)
                except (FusionError, ValueError) as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                fh.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
                count += 1
    print(f"{count} records to {path}")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {(r["problem"], r["selector"]): r for r in records}


def _first_json_difference(a, b, where="$"):
    if type(a) is not type(b) or not isinstance(a, (dict, list)):
        return None if a == b else f"{where}: {a!r} -> {b!r}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{where}.{key}: {a.get(key, '<absent>')!r} -> {b.get(key, '<absent>')!r}"
            found = _first_json_difference(a[key], b[key], f"{where}.{key}")
            if found:
                return found
        return None
    for i, (x, y) in enumerate(zip(a, b)):
        found = _first_json_difference(x, y, f"{where}[{i}]")
        if found:
            return found
    return None if len(a) == len(b) else f"{where}: length {len(a)} -> {len(b)}"


def _first_render_difference(a, b):
    la, lb = a.split("\n"), b.split("\n")
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x!r} -> {y!r}"
    return f"{len(la)} lines -> {len(lb)} lines"


def _by_atoms(record, frame):
    """The record with each display replaced by its sorted atoms, and rows
    and shares sorted; render lines outside the rows lose their padding,
    and the rule under the rows, whose width follows the displays, goes."""
    if "opinion" in record.get("json", {}):
        return record  # an opinion's rows name no elements

    def atoms(display):
        return sorted(frame.parse(display).atoms) if display != "∅" else []

    def rows(items):
        return sorted(items, key=json.dumps)

    out = {"error": record.get("error")}
    if "render" in record:
        lines = record["render"].split("\n")
        top = next(i for i, line in enumerate(lines) if line.startswith("element "))
        end = next(i for i, line in enumerate(lines) if line.startswith("---"))
        out["render"] = ([" ".join(line.split()) for line in lines[:top + 1] + lines[end + 1:]]
                         + rows([atoms(line.split()[0]), line.split()[1]]
                                for line in lines[top + 1:end]))
    doc = dict(record.get("json") or {})
    if "rows" in doc:
        doc["rows"] = rows({**r, "element": atoms(r["element"])} for r in doc["rows"])
    if "signed_masses" in doc:
        doc["signed_masses"] = rows({**r, "element": atoms(r["element"])}
                                    for r in doc["signed_masses"])
    doc["ledger"] = [
        {**p, "operands": [atoms(d) for d in p["operands"]],
         "shares": rows({**s, "to": s["to"] if s["to"] in (None, "divided out") else atoms(s["to"])}
                        for s in p["shares"])}
        for p in doc.get("ledger", [])
    ]
    out["json"] = doc
    return out


def _frames():
    """The final frame of every recorded label problem, by name."""
    from fusekit.problem import parse_problem

    problems = {name: parse_problem(text) for name, text in _problems()}
    return {name: p.final_frame() for name, p in problems.items() if not p.interval}


def diff(path_a, path_b):
    a, b = _load(path_a), _load(path_b)
    frames = None
    stats = {}
    for key in sorted(set(a) | set(b)):
        selector = key[1]
        entry = stats.setdefault(selector, {"records": 0, "render": [], "json": [], "atoms": 0})
        entry["records"] += 1
        ra, rb = a.get(key, {}), b.get(key, {})
        if ra != rb:
            frames = frames or _frames()
            frame = frames.get(key[0])
            entry["atoms"] += frame is not None and _by_atoms(ra, frame) == _by_atoms(rb, frame)
        if ra.get("render") != rb.get("render") or ra.get("error") != rb.get("error"):
            if "render" in ra and "render" in rb:
                what = _first_render_difference(ra["render"], rb["render"])
            else:
                what = f"{ra.get('error', '<no error>')} -> {rb.get('error', '<no error>')}"
            entry["render"].append(f"{key[0]}: {what}")
        if ra.get("json") != rb.get("json"):
            entry["json"].append(f"{key[0]}: {_first_json_difference(ra.get('json'), rb.get('json'))}")
    total = sum(e["records"] for e in stats.values())
    changed = sum(1 for e in stats.values() if e["render"] or e["json"])
    print(f"{total} records, {len(stats)} selectors, {changed} with differences")
    for selector, entry in stats.items():
        if not (entry["render"] or entry["json"]):
            continue
        print(f"{selector}: render {len(entry['render'])}, json {len(entry['json'])} "
              f"of {entry['records']}; equal by atoms {entry['atoms']}")
        for kind in ("render", "json"):
            if entry[kind]:
                print(f"  first {kind}: {entry[kind][0]}")
    return 1 if changed else 0


def _display_masks(rng, frame):
    """Every mask of a frame of at most four hypotheses, else DISPLAY_DRAWS
    seeded ones (see the module docstring)."""
    count = frame.ignorance().cardinality
    if frame.n <= 4:
        return range(1 << count)
    masks = []
    for i in range(DISPLAY_DRAWS):
        if i % 2 == 0 and count <= 255:
            masks.append(rng.getrandbits(count))
            continue
        terms = ["&".join(rng.choice(("", "~")) + name
                          for name in rng.sample(frame.names, rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 3))]
        text = "|".join(terms)
        masks.append(frame.parse(f"~({text})" if rng.random() < 0.5 else text).mask)
    return masks


def displays(path):
    from fusekit.frame import Element, Frame

    rng = random.Random("fusekit-displays")
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for n in (3, 4, 6, 8, 16):
            for kind in _KINDS:
                model = gen.make_model(rng, kind, n)
                frame = (Frame(model.names) if kind == "free"
                         else Frame(model.names, model.surviving()))
                for mask in _display_masks(rng, frame):
                    el = Element(frame, mask)
                    fh.write(f"{kind}-n{n} {mask:x} {el.display} {el.expr!r}\n")
                    count += 1
    print(f"{count} displays to {path}")


def main(argv):
    if len(argv) == 2 and argv[0] == "write":
        write(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    if len(argv) == 2 and argv[0] == "displays":
        displays(argv[1])
        return 0
    print("\n\n".join(__doc__.strip().split("\n\n")[:2]), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
