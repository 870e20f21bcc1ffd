"""Self-test of the benchmark itself, in about a minute.

    python3 bench/selftest.py

Run from the root of a fusekit checkout.  It makes a one-cycle smoke run
(``--smoke``) of every workload, traced and untraced, and checks that:

- each run exits 0 and ends with one JSON result line;
- the untraced result holds every end-to-end metric of BENCHMARK.json,
  and the traced result every per-layer metric, each with its unit;
- every run reports correct output and no failed op;
- a run against a deliberately perturbed reference reports failed ops,
  so the output check bites;
- in a directory holding only BENCHMARK.json and ``bench/``, the
  benchmark exits non-zero without printing a result.

The smoke runs' numbers mean nothing; only the wiring is under test.
Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("pair-conflict", "multi-source", "cli-wide")
TIMEOUT_S = 170


def _run(args, cwd, out_dir):
    argv = [sys.executable, os.path.join("bench", "run.py"), "--seed", "1", "--seconds", "1",
            "--smoke", "--out", out_dir, *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(root, "bench", "out"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, "bench", "out"))
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    try:
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                proc = _run(["--workload", workload, "--trace", str(trace)], root, scratch)
                res = _result(proc)
                expect(res is not None, f"{workload} trace {trace}: exits 0 with a result line")
                if res is None:
                    print(proc.stderr[-2000:])
                    continue
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in res["metrics"].items()}
                expect(got == want, f"{workload} trace {trace}: every {key} metric, with its unit")
                expect(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                       f"{workload} trace {trace}: every value is a number")
                expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                       f"{workload} trace {trace}: correct, nothing failed")

        proc = _run(["--workload", "pair-conflict", "--trace", "0", "--perturb-reference"],
                    root, scratch)
        res = _result(proc)
        expect(res is not None and not res["correct"] and res["failed"] > 0,
               "a perturbed reference makes the output check fail")

        bare = os.path.join(scratch, "bare")
        shutil.copytree(os.path.join(root, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        proc = _run(["--workload", "pair-conflict", "--trace", "0"], bare,
                    os.path.join(bare, "bench", "out"))
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without fusekit's source: non-zero exit and no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
