"""Self-test of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, each in a separate short run of ``run.py``:

* every workload, with ``--trace 0`` and ``--trace 1``: exit code 0, a last
  line with exactly ``correct``, ``attempted``, ``failed`` and ``metrics``,
  no failed solve, and every metric ``BENCHMARK.json`` names for that mode
  present with its unit and no other;
* injected faults: one corrupted byte in a dumped replay log
  (``saga-async``) and a perturbed clone step (``saga-sync``) each make
  exactly that solve count as failed, while the run goes on and exits 0;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's files,
  the harness exits non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def parse_result(proc, lines):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"attempted/failed {result['attempted']}/{result['failed']}")
    return result


def check_metrics(workload, trace):
    result = parse_result(*run(workload, trace))
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        wrong = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        raise AssertionError(f"missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError(f"{k} is not a number: {v['value']!r}")
    if not result["correct"] or result["failed"]:
        raise AssertionError(f"{result['failed']} of {result['attempted']} solves failed")


def check_injected(workload, fault):
    result = parse_result(*run(workload, 0, "--inject", fault))
    if result["correct"] or result["failed"] != 1 or result["attempted"] < 2:
        raise AssertionError(
            f"expected exactly one failed solve and a finished run, got "
            f"{result['failed']} failed of {result['attempted']}, correct={result['correct']}"
        )


def check_bare_directory():
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = run("saga-sync", 0, cwd=bare)
        if proc.returncode == 0:
            raise AssertionError("exited 0 without the program's sources")
        if lines and lines[-1].startswith("{"):
            raise AssertionError(f"printed a result: {lines[-1]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    cases = [(f"{w['name']} --trace {t}: metrics and units", check_metrics, (w["name"], t))
             for w in SPEC["workloads"] for t in (0, 1)]
    cases += [
        ("saga-async: corrupted replay log fails one solve", check_injected,
         ("saga-async", "corrupt-log")),
        ("saga-sync: perturbed clone step fails one solve", check_injected,
         ("saga-sync", "perturb-clone")),
        ("bare directory: non-zero exit, no result", check_bare_directory, ()),
    ]
    failures = 0
    for label, fn, args in cases:
        try:
            fn(*args)
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            failures += 1
            print(f"[FAIL] {label}: {exc}", flush=True)
        else:
            print(f"[PASS] {label}", flush=True)
    print(f"{len(cases) - failures} of {len(cases)} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
