"""smartsolve benchmark: time to tolerance and iteration throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload saga-sync --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run solves generated problems back to back (a closed loop, one solve at a
time) until ``--seconds`` of set-up plus solve time is measured, checks
every solve outside the timed region, and prints a report.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, all medians over the run's
solves: ``solve_s``, ``iters_per_s``, ``setup_s`` (problem generation,
``bundle_for`` and ``weak_bound``, before the engine starts) and
``peak_rss_mb``.  The three times are scaled to a reference machine speed
measured next to each solve (see ``K_REF_S``); the raw medians are printed
too.  Failed solves (missed tolerance, raised, or failed a
check) are the ``failed`` count out of ``attempted``; the report prints
their fraction as ``failed_frac``.

``--trace 1`` is the separate traced run.  It solves untraced for part of
the time, then with spans around the program's public functions (see
``spans.py``), measures the replay log's memory with ``tracemalloc``, times
every preset at its default bundle, and reports the per-layer metrics.
Spans are written to ``.perfbench_out/`` at the end.

``--workload all`` runs each workload in its own process and prints one
table.  ``--inject`` makes the first solve fail on purpose; ``selftest.py``
uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("saga-sync", "svrg-sched", "finito-blocks", "saga-async")
MIN_SOLVES = 3
PLAIN_SHARE, TRACED_SHARE = 0.5, 0.3      # of --seconds, in the traced run
SWEEP_ITERS = 300

# The end-to-end times are scaled to a fixed machine speed.  On a shared
# two-vCPU host, other tenants change the speed of Python code by 20 to 40%
# for tens of seconds at a time, so raw medians of whole runs spread by 16 to
# 30% between runs.  Right before and right after every solve (outside the
# timed region) the harness times CAL_REPEATS runs of ``calibration_kernel``;
# the solve's times are multiplied by K_REF_S / (the median of those 2 x
# CAL_REPEATS timings) and its rate by the inverse.
# K_REF_S is the kernel's median on the reference machine (a 2-vCPU KVM guest
# on a 2.1 GHz Xeon), so scaled and raw figures agree there on a quiet host.
# The report prints the raw medians and the kernel's median next to them.
K_REF_S = 4.3e-3
CAL_REPEATS = 9

END_TO_END = {
    "solve_s": "s",
    "iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYERS = ("sampling", "schedule", "operators", "engine", "blockspace",
          "diagnostics", "asyncexec", "bench")
PER_LAYER = {
    "sampling.draw_us": "us/call",
    "schedule.delayed_read_us": "us/call",
    "schedule.history_reads_per_iter": "count",
    "schedule.log_append_us": "us/call",
    "schedule.log_mem_bytes_per_iter": "B/iter",
    "schedule.log_disk_bytes_per_iter": "B/iter",
    "schedule.dump_ms": "ms/call",
    "schedule.load_ms": "ms/call",
    "operators.block_evals_per_iter": "count",
    "operators.block_us": "us/call",
    "operators.observe_ms": "ms/row",
    "operators.block_share": "fraction",
    "engine.step_self_us": "us/iter",
    "engine.dual_commit_us": "us/call",
    "engine.dual_writes_per_iter": "count",
    "engine.init_state_ms": "ms/call",
    "engine.iters_per_solve": "count",
    "engine.replay_us_per_iter": "us/iter",
    "engine.clone_ratio": "ratio",
    "blockspace.vectors_per_iter": "count",
    "blockspace.norm_sq_us": "us/call",
    "asyncexec.record_us_per_commit": "us/commit",
    "asyncexec.evals_per_commit": "count",
    "asyncexec.max_primal_delay": "count",
    "asyncexec.max_dual_delay": "count",
    "problems.generate_ms": "ms/solve",
    "instances.bundle_ms": "ms/solve",
    "stepsize.weak_bound_ms": "ms/solve",
    **{f"share.{layer}": "fraction" for layer in LAYERS},
    "trace.traced_iters_per_s": "1/s",
    "trace.untraced_iters_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--first-side", default="unpaired",
                   help="for paired runs, which side ran first (recorded only)")
    p.add_argument("--inject", choices=("corrupt-log", "perturb-clone"), default=None,
                   help="make the first solve fail on purpose (self-test)")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


@dataclass
class Phase:
    """Solves of one measuring phase; lists hold successful solves only."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    setup_s: list = field(default_factory=list)
    solve_s: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)    # calibration kernel around each
    clone_us: list = field(default_factory=list)
    extras: list = field(default_factory=list)      # scalars the solve reported
    last: object = None                             # last outcome, when kept


def measure(wl, rng, seconds, workdir, inject=None, tracer=None, keep=False):
    """Solve back to back until ``seconds`` of set-up plus solve time."""
    region = tracer.region if tracer else (lambda name: nullcontext())
    paused = tracer.paused if tracer else nullcontext
    ph = Phase()
    while ph.busy_s < seconds or ph.attempted < MIN_SOLVES:
        seed = int(rng.integers(0, 2**31 - 1))
        ph.attempted += 1
        before = kernel_times()
        t0 = perf_counter()
        try:
            with region("bench.setup"):
                job = wl.setup(seed)
            t1 = perf_counter()
            with region("bench.solve"):
                out = wl.solve(job, workdir, inject)
            t2 = perf_counter()
            kernel_s = statistics.median(before + kernel_times())
            with paused():
                info = wl.check(job, out, workdir, inject, first=ph.attempted == 1)
        except Exception:  # a failed solve is counted and the run goes on
            ph.failed += 1
            ph.busy_s += perf_counter() - t0
            print(f"# solve with problem seed {seed} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            inject = None
            continue
        inject = None
        ph.busy_s += t2 - t0
        ph.setup_s.append(t1 - t0)
        ph.solve_s.append(t2 - t1)
        ph.rates.append(out.iterations / out.busy_s)
        ph.kernel_s.append(kernel_s)
        ph.iterations.append(out.iterations)
        if "clone_s" in info:
            ph.clone_us.append(info["clone_s"] / out.iterations * 1e6)
        ph.extras.append({k: v for k, v in out.extra.items() if k != "replayed"})
        ph.last = out if keep else None
    return ph


def calibration_kernel():
    """Fixed work shaped like an engine step: Python calls on small arrays."""
    x = np.zeros(20)
    cdf = np.cumsum(np.full(50, 0.02))
    for _ in range(300):
        y = np.asarray(x, dtype=np.float64)
        if np.any(y < -1.0):
            raise ArithmeticError("calibration kernel diverged")
        x = y - 0.001 * (0.5 * y - x + 1.0)
        int(np.searchsorted(cdf, 0.37, side="right"))


def kernel_times() -> list:
    """CAL_REPEATS timings of the calibration kernel, in seconds."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return times


def scaled(ph: Phase) -> dict:
    """Per-solve end-to-end times at the reference machine speed."""
    f = [K_REF_S / k for k in ph.kernel_s]
    return {
        "solve_s": [t * x for t, x in zip(ph.solve_s, f)],
        "iters_per_s": [r / x for r, x in zip(ph.rates, f)],
        "setup_s": [t * x for t, x in zip(ph.setup_s, f)],
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) >= 2 else [_median(xs)] * 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_record(args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "first_side": args.first_side,
    }


def end_to_end(ph: Phase) -> dict:
    return {**{k: _median(v) for k, v in scaled(ph).items()},
            "peak_rss_mb": peak_rss_mb()}


def print_end_to_end(name, ph: Phase, metrics):
    done = len(ph.solve_s)
    frac = ph.failed / ph.attempted
    print(f"# {name}: {ph.attempted} solves attempted, {ph.failed} failed, "
          f"failed_frac {frac:.4g} (fraction)")
    print(f"#   calibration kernel {_median(ph.kernel_s) * 1e3:.4g} ms "
          f"(reference {K_REF_S * 1e3:.4g} ms); times below at the reference speed")
    raw = {"solve_s": ph.solve_s, "iters_per_s": ph.rates, "setup_s": ph.setup_s}
    for key, series in scaled(ph).items():
        q1, _, q3 = _quartiles(series)
        print(f"#   {key:<12} {metrics[key]:.6g} {END_TO_END[key]}  "
              f"(median of {done}; quartiles {q1:.6g} .. {q3:.6g}; "
              f"raw median {_median(raw[key]):.6g})")
    print(f"#   {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.6g} MB")


# -- traced run -------------------------------------------------------------


def log_memory_per_iter(wl, seed, workdir) -> float:
    """Bytes the replay log keeps alive per iteration, by tracemalloc."""
    job = wl.setup(seed)
    tracemalloc.start()
    try:
        out = wl.solve(job, workdir)
        held = tracemalloc.get_traced_memory()[0]
        records = len(out.log)
        out.release_log()
        return (held - tracemalloc.get_traced_memory()[0]) / records
    finally:
        tracemalloc.stop()


def log_io(tracer, log, workdir) -> float:
    """Dump and load one solve's log under tracing; return bytes per record."""
    from smartsolve import schedule

    path = workdir / "replay.bin"
    with tracer.installed(), tracer.region("bench.logio"):
        with open(path, "wb") as fh:
            log.dump(fh)
        with open(path, "rb") as fh:
            schedule.ReplayLog.load(fh)
    return path.stat().st_size / len(log)


def per_layer(wl, summary, plain: Phase, traced: Phase, log_mem, log_disk):
    """The PER_LAYER metrics: spans of the traced phase, except the clone
    ratio and the untraced rate (untraced phase) and the log sizes."""
    s, solve = summary, "bench.solve"
    iters = sum(traced.iterations) or 1
    is_async = wl.kind == "async"
    observe = [r for name in ("operators.aggregate", "blockspace.norm_sq",
                              "diagnostics.oracle.dist_sq")
               for r in s.under(name, "engine.run", solve)]
    rows = len(s.under("operators.aggregate", "engine.run", solve)) or 1
    solve_ns = s.incl_ns(solve, solve) or 1
    layer_ns = s.layer_self_ns(solve)
    extras = plain.extras + traced.extras
    untraced, traced_rate = _median(plain.rates), _median(traced.rates)
    m = {
        "sampling.draw_us": s.mean_us("sampling.draw", solve),
        "schedule.delayed_read_us": s.mean_us("schedule.delayed_read", solve),
        "schedule.history_reads_per_iter":
            s.calls("schedule.HistoryBuffer.read", solve) / iters,
        "schedule.log_append_us": s.mean_us("schedule.ReplayLog.append", solve),
        "schedule.log_mem_bytes_per_iter": log_mem,
        "schedule.log_disk_bytes_per_iter": log_disk,
        "schedule.dump_ms": s.mean_us("schedule.ReplayLog.dump") / 1e3,
        "schedule.load_ms": s.mean_us("schedule.ReplayLog.load") / 1e3,
        "operators.block_evals_per_iter":
            s.calls("operators.BlockOperator.block", solve) / iters,
        "operators.block_us": s.mean_us("operators.BlockOperator.block", solve),
        "operators.observe_ms": sum(r[3] - r[2] for r in observe) / rows / 1e6,
        "operators.block_share": s.incl_ns("operators.BlockOperator.block", solve) / solve_ns,
        "engine.step_self_us": s.mean_us("engine.step", solve, self_time=True),
        "engine.dual_commit_us": s.mean_us("engine.DualTable.commit", solve),
        "engine.dual_writes_per_iter": s.counts["engine.DualTable.commit"] / iters,
        "engine.init_state_ms": s.mean_us("engine.init_state", solve) / 1e3,
        "engine.iters_per_solve": statistics.fmean(plain.iterations + traced.iterations)
            if plain.iterations + traced.iterations else 0.0,
        "engine.replay_us_per_iter":
            s.incl_ns("engine.run", solve) / iters / 1e3 if is_async else 0.0,
        "engine.clone_ratio": _median([1e6 / r for r in plain.rates])
            / _median(plain.clone_us) if plain.clone_us else 0.0,
        "blockspace.vectors_per_iter": s.calls("blockspace.BlockVector", solve) / iters,
        "blockspace.norm_sq_us": s.mean_us("blockspace.norm_sq", solve),
        "asyncexec.record_us_per_commit":
            s.incl_ns("asyncexec.run_async", solve) / iters / 1e3 if is_async else 0.0,
        "asyncexec.evals_per_commit":
            len(s.under("operators.BlockOperator.block", "asyncexec.run_async", solve))
            / iters if is_async else 0.0,
        "asyncexec.max_primal_delay":
            max((e.get("max_primal_delay", 0) for e in extras), default=0),
        "asyncexec.max_dual_delay":
            max((e.get("max_dual_delay", 0) for e in extras), default=0),
        "problems.generate_ms": s.mean_us("problems.ridge", "bench.setup") / 1e3,
        "instances.bundle_ms": s.mean_us("instances.bundle_for", "bench.setup") / 1e3,
        "stepsize.weak_bound_ms": s.mean_us("stepsize.weak_bound", "bench.setup") / 1e3,
        **{f"share.{layer}": layer_ns[layer] / solve_ns for layer in LAYERS},
        "trace.traced_iters_per_s": traced_rate,
        "trace.untraced_iters_per_s": untraced,
        "trace.overhead_ratio": untraced / traced_rate if traced_rate else 0.0,
    }
    return {k: float(v) for k, v in m.items()}


def preset_sweep():
    """Engine cost of every preset at its default bundle (informational)."""
    from smartsolve import engine, instances
    from smartsolve.blockspace import BlockVector
    from smartsolve.sampling import substream

    print(f"# preset sweep: default bundles, {SWEEP_ITERS} iterations, trace stride 50")
    for preset in instances.PRESET_PROBLEM_KINDS:
        try:
            b = instances.bundle_for(preset, seed=0)
            fam = b.family
            t0 = perf_counter()
            res = engine.run(BlockVector.zeros(fam.layout), fam, b.law, b.graph,
                             b.schedule, b.steps, max_iters=SWEEP_ITERS,
                             rng=substream(0, "sampling"), oracle=b.oracle,
                             trace_stride=50, dual_init=b.dual_init)
            us = (perf_counter() - t0) / res.iterations * 1e6
        except Exception as exc:  # informational only: report and go on
            print(f"#   {preset:<16} error: {type(exc).__name__}: {exc}")
            continue
        shape = f"{fam.n} x {fam.m} ({fam.layout.total_dim})"
        print(f"#   {preset:<16} {shape:<16} {us:10.1f} us/iter")


def print_layers(name, m, summary):
    print(f"# per-layer metrics, {name} (traced run; 0 where the workload does not "
          f"exercise the layer)")
    for key, unit in PER_LAYER.items():
        if not key.startswith("share."):
            print(f"#   {key:<34} {m[key]:14.6g} {unit}")
    shares = ", ".join(f"{layer} {m['share.' + layer]:.1%}" for layer in LAYERS)
    # worker-thread spans overlap in time, so on saga-async the shares sum above 1
    print(f"# self-time share of traced solve time: {shares}")
    print(f"# tracing overhead: traced {m['trace.traced_iters_per_s']:.6g} it/s "
          f"vs untraced {m['trace.untraced_iters_per_s']:.6g} it/s "
          f"(x{m['trace.overhead_ratio']:.3g})")
    print("# span totals (bench.solve phase): name, calls, inclusive ms, self ms")
    for (span, phase), (n, incl, self_ns) in sorted(summary.stats.items(),
                                                    key=lambda kv: -kv[1][2]):
        if phase == "bench.solve":
            print(f"#   {span:<34} {n:9d} {incl / 1e6:12.2f} {self_ns / 1e6:12.2f}")


# -- entry points -----------------------------------------------------------


def run_one(args, workdir) -> dict:
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    print("# run-record " + json.dumps(run_record(args)))
    if not args.trace:
        ph = measure(wl, rng, args.seconds, workdir, args.inject)
        metrics, units, phases = end_to_end(ph), END_TO_END, [ph]
        print_end_to_end(args.workload, ph, metrics)
    else:
        plain = measure(wl, rng, PLAIN_SHARE * args.seconds, workdir, args.inject)
        print_end_to_end(args.workload + " (untraced part)", plain, end_to_end(plain))
        tracer = spans.Tracer()
        with tracer.installed():
            traced = measure(wl, rng, TRACED_SHARE * args.seconds, workdir,
                             tracer=tracer, keep=True)
        # the replay-log measurements count as one more attempted solve
        logs = Phase(attempted=1)
        log_disk = log_mem = 0.0
        try:
            if wl.kind == "async":
                log_disk = statistics.fmean(e["log_bytes"] / n for e, n in
                                            zip(traced.extras, traced.iterations))
            elif traced.last is not None:
                log_disk = log_io(tracer, traced.last.log, workdir)
            traced.last = None
            log_mem = log_memory_per_iter(wl, int(rng.integers(0, 2**31 - 1)), workdir)
        except Exception:  # counted like a failed solve; the report goes on
            logs.failed = 1
            traceback.print_exc(file=sys.stderr)
        summary = tracer.summarize()
        metrics = per_layer(wl, summary, plain, traced, log_mem, log_disk)
        units, phases = PER_LAYER, [plain, traced, logs]
        print_layers(args.workload, metrics, summary)
        preset_sweep()
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_csv(out)
        print(f"# {len(tracer.records)} spans written to {out.relative_to(ROOT)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--first-side", args.first_side]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print("# summary, one row per workload")
    for name, res in results.items():
        cells = "" if args.trace else "  ".join(
            f"{k} {v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
        frac = res["failed"] / res["attempted"]
        print(f"#   {name:<14} {cells}  failed_frac {frac:.4g} fraction")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smartsolve" / "__init__.py").is_file():
        print(f"perfbench: no smartsolve sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_one(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass                        # another run still uses it
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
