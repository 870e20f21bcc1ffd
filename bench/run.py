"""fusekit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pair-conflict --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The metric names, units and bounds are
those of BENCHMARK.json beside ``bench/``.  With ``--trace 0`` the run
prints every end-to-end metric; with ``--trace 1`` every per-layer
metric.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.  A full record, with the host reference and
the output digest, is written to ``--out`` (default ``bench/out``).

See bench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import calib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pair-conflict", "multi-source", "cli-wide")
# Set-up is repeated and its median reported.
SETUP_REPEATS = 9
# End-to-end child-process metrics take the median of this many runs,
# half before the worker and half after it.
PROCESS_REPEATS = 20
GOLDEN_CASES = 29
# No single child may outlive this.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_process(argv, env, root):
    return subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True,
                          encoding="utf-8", timeout=CHILD_TIMEOUT_S)


def _timed_process(argv, env, root):
    """(wall ns, calibration slice run just before, completed process)."""
    before = calib.slice_ns()
    t0 = time.perf_counter_ns()
    proc = _run_process(argv, env, root)
    return time.perf_counter_ns() - t0, before, proc


def _revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "fusekit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def host_reference(root, env, seed):
    bare = [_timed_process([sys.executable, "-c", "pass"], env, root)[0] for _ in range(5)]
    slices = [calib.slice_ns() for _ in range(20)]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "revision": _revision(root),
        "source_digest": _source_digest(root),
        "seed": seed,
        "python_pass_ms": statistics.median(bare) * 1e-6,
        "slice_ms": statistics.median(slices) * 1e-6,
    }


def _spawn_worker(args, env, root, out_dir, extra=()):
    """Start a worker; returns (process, set-up seconds, its slice ns).

    Set-up runs from the spawn to the worker's READY line, less the two
    calibration slices the worker ran and reported on that line.
    """
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out_dir, *extra]
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(argv, env=env, cwd=root, stdout=subprocess.PIPE,
                            text=True, encoding="utf-8")
    fields = proc.stdout.readline().split()
    elapsed = time.perf_counter_ns() - t0
    if len(fields) != 3 or fields[0] != "READY":
        _stop(proc)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    first, last = int(fields[1]), int(fields[2])
    return proc, (elapsed - first - last) * 1e-9, (first + last) / 2


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_worker(args, env, root, out_dir):
    """Set-up times of several workers, and the report of the last one."""
    flags = [f for f, on in (("--smoke", args.smoke),
                             ("--perturb-reference", args.perturb_reference)) if on]
    repeats = 1 if (args.smoke or args.trace) else SETUP_REPEATS
    setups = []  # (seconds, slice ns)
    for _ in range(repeats - 1):
        proc, *setup = _spawn_worker(args, env, root, out_dir, ["--setup-only", *flags])
        setups.append(setup)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            _stop(proc)
    proc, *setup = _spawn_worker(args, env, root, out_dir, flags)
    setups.append(setup)
    try:
        report, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        _stop(proc)
    if proc.returncode != 0 or not report.strip():
        raise BenchError(f"worker exited {proc.returncode} without a report")
    scaled = calib.calibrate([s for s, _ in setups], [ns for _, ns in setups])
    return [(s, c) for (s, _), c in zip(setups, scaled)], json.loads(report.strip().splitlines()[-1])


def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _op_metrics(lat_ns, pct):
    lat = sorted(lat_ns)
    return {
        "ops_per_s": len(lat) / (sum(lat) * 1e-9),
        "op_p50_ms": statistics.median(lat) * 1e-6,
        "op_tail_ms": _percentile(lat, pct) * 1e-6,
    }


def process_runs(env, root, count):
    """``count`` alternating pairs of ``import fusekit`` and ``fusekit verify``
    child processes, as (argv tail, raw ns, calibrated ns, process)."""
    runs = []
    for _ in range(count):
        for tail in (["-c", "import fusekit"], ["-m", "fusekit", "verify"]):
            runs.append((tail[-1], *_timed_process([sys.executable, *tail], env, root)))
    # Each child process is calibrated by the slices around it.
    scaled = calib.calibrate([r[1] for r in runs], [r[2] for r in runs])
    return [(what, raw, cal, proc) for (what, raw, _, proc), cal in zip(runs, scaled)]


def end_to_end(args, env, root, setups, report, runs):
    """Calibrated and raw end-to-end metrics, and how each was taken."""
    raw_lat = report["latencies_ns"]
    if not raw_lat:
        raise BenchError("no op completed")
    pct = report["tail_pct"]
    n = len(raw_lat)
    beyond = n - math.ceil(pct / 100 * n)
    imports = [(raw, cal) for what, raw, cal, _ in runs if what == "import fusekit"]
    verifies = [(raw, cal) for what, raw, cal, _ in runs if what == "verify"]
    verify_bad = sum(1 for what, _, _, proc in runs
                     if what == "verify" and (
                         proc.returncode != 0
                         or f"{GOLDEN_CASES} passed, 0 failed" not in proc.stdout))
    raw, cal = {}, {}
    for side, col in ((raw, 0), (cal, 1)):
        side["setup_s"] = statistics.median(s[col] for s in setups)
        side["verify_ms"] = statistics.median(v[col] for v in verifies) * 1e-6
        side["import_ms"] = statistics.median(i[col] for i in imports) * 1e-6
        side["peak_rss_mb"] = report["peak_rss_mb"]
    raw.update(_op_metrics(raw_lat, pct))
    cal.update(_op_metrics(calib.calibrate(raw_lat, report["slices_ns"]), pct))
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{n} ops in {report['cycles']} cycles of {report['ops_per_cycle']}",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{pct}, {beyond} samples beyond it, n={n}",
        "peak_rss_mb": "of the fusekit child processes" if args.workload == "cli-wide"
                       else "of the worker process",
        "verify_ms": f"median of {len(verifies)}; {verify_bad} runs not reporting "
                     f"{GOLDEN_CASES} passed",
        "import_ms": f"median of {len(imports)}",
    }
    return cal, raw, notes, len(verifies), verify_bad


def import_self_times(env, root):
    """Median self time of each fusekit module, from -X importtime."""
    runs = []
    for _ in range(3):
        proc = _run_process([sys.executable, "-X", "importtime", "-c", "import fusekit.cli"],
                            env, root)
        times = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("fusekit"):
                times[parts[2]] = int(parts[0].rsplit(":", 1)[-1])
        runs.append(times)
    return {mod: statistics.median(r.get(mod, 0) for r in runs) for mod in runs[0]}


def per_layer(env, root, report, wanted):
    metrics = dict(report["per_layer"])
    for module, us in import_self_times(env, root).items():
        short = module.split(".", 1)[1] if "." in module else module
        metrics[f"import.{short}_us"] = us
    # A module that no longer exists imports in no time at all.
    for m in wanted:
        if m["name"].startswith("import."):
            metrics.setdefault(m["name"], 0.0)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join("bench", "out"),
                    help="directory for the run record and spans")
    ap.add_argument("--smoke", action="store_true",
                    help="one cycle, one set-up, one process pair: checks the wiring, not the numbers")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="shift the reference results, so the output checks must fail")
    args = ap.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "fusekit", "__init__.py")):
        return _fail("run from the root of a fusekit checkout (no src/fusekit here)")
    if not os.path.isfile(spec_path):
        return _fail("BENCHMARK.json is missing")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    env = _child_env(root)
    # Every process of the run shares one CPU, so that each calibration
    # slice runs where the operation it scales runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    try:
        host = host_reference(root, env, args.seed)
        # Child processes before and after the worker sample the host over
        # the whole run, not one moment of it.
        half = 0 if args.trace else 1 if args.smoke else PROCESS_REPEATS // 2
        runs = process_runs(env, root, half)
        setups, report = run_worker(args, env, root, out_dir)
        runs += process_runs(env, root, half)
        attempted, failed = report["attempted"], report["failed"]
        if args.trace:
            metrics, raw, notes = per_layer(env, root, report, wanted), {}, {}
        else:
            metrics, raw, notes, verify_runs, verify_bad = end_to_end(
                args, env, root, setups, report, runs)
            attempted += verify_runs
            failed += verify_bad
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        return _fail(str(exc))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                             for k, v in host.items()))
    for m in wanted:
        name = m["name"]
        note = notes.get(name, "")
        if name in raw and raw[name] != metrics[name]:
            note = f"raw {raw[name]:.6g}; " + note
        print(f"  {name:<28} {metrics[name]:>14.6g} {m['unit']:<6} {note}")
    error_rate = failed / attempted
    print(f"  {'error_rate':<28} {error_rate:>14.6g} ratio  {failed} failed of {attempted}")
    print(f"  digest {report['digest']}")
    for line in report["errors"]:
        print(f"  FAIL {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.time(), "host": host,
        "digest": report["digest"], "attempted": attempted, "failed": failed,
        "error_rate": error_rate, "errors": report["errors"], "notes": notes,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "raw_metrics": raw, "setups_s": setups, "latencies_ns": report["latencies_ns"],
        "slices_ns": report["slices_ns"],
        "spans_file": report.get("spans_file"),
    }
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    with open(os.path.join(out_dir, f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
