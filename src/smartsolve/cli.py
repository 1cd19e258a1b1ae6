"""Command-line front end: generate problems, run presets, verify, report rates.

Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 numerical abort.  All randomness flows from one ``--seed`` through named
sub-streams, so identical configurations produce byte-identical traces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .asyncexec import AsyncConfig, WorkerFailure, run_async
from .blockspace import BlockVector
from .diagnostics import MIN_SEEDS, fit_rate
from .engine import EngineError, run
from .instances import PRESET_PROBLEM_KINDS, bundle_for
from .problems import GENERATORS, generate, load_problem, save_problem
from .sampling import substream
from .schedule import DelaySchedule, ReplayLog
from .stepsize import TABLE1_NAMES, linear_bound, table1_preset, weak_bound
from .verify import SUITES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything a run needs; round-trips through JSON unchanged."""

    preset: str
    problem_path: str | None = None
    seed: int = 0
    iters: int = 10_000
    stop_resid: float | None = None
    mode: str = "sync"            # sync | delay | async
    tau_p: int = 0
    tau_d: int = 0
    workers: int = 1
    lam: float | None = None
    trace_stride: int = 50
    out: str = "."
    preset_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.iters < 0:
            raise ConfigError(f"--iters must be >= 0, got {self.iters}")
        if self.trace_stride < 1:
            raise ConfigError(f"--trace-stride must be >= 1, got {self.trace_stride}")
        if self.lam is not None and not 0 < self.lam < np.inf:
            raise ConfigError(f"--lam must be finite and > 0, got {self.lam}")
        if self.stop_resid is not None and not 0 <= self.stop_resid < np.inf:
            raise ConfigError(f"--stop-resid must be finite and >= 0, got {self.stop_resid}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "RunConfig":
        return cls(**obj)


def _parse_params(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            parsed = int(val)
        except ValueError:
            try:
                parsed = float(val)
            except ValueError:
                parsed = val
        out[key] = parsed
    return out


def _build_bundle(cfg: RunConfig):
    problem = None
    if cfg.problem_path:
        problem = load_problem(cfg.problem_path)
    params = dict(cfg.preset_params)
    if cfg.lam is not None:
        params["lam"] = cfg.lam
    try:
        return bundle_for(cfg.preset, problem=problem, seed=cfg.seed, **params)
    except (KeyError, TypeError, ValueError) as exc:
        # unknown preset or parameter, a problem of the wrong kind, or a
        # parameter value the builder rejects
        raise ConfigError(str(exc)) from exc


def cmd_generate(args) -> int:
    params = _parse_params(args.param)
    if args.kind not in GENERATORS:
        print(f"unknown problem kind {args.kind!r}; have {sorted(GENERATORS)}",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        params["seed"] = args.seed
    try:
        problem = generate(args.kind, **params)
    except (TypeError, ValueError) as exc:
        # a parameter the generator does not take, or a value it rejects
        raise ConfigError(str(exc)) from exc
    save_problem(problem, args.out)
    print(json.dumps({"kind": problem.kind, "written": str(args.out),
                      "oracle_keys": sorted(problem.oracle)}))
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = RunConfig(
        preset=args.preset,
        problem_path=args.problem,
        seed=args.seed,
        iters=args.iters,
        stop_resid=args.stop_resid,
        mode=args.mode,
        tau_p=args.tau_p,
        tau_d=args.tau_d,
        workers=args.workers,
        lam=args.lam,
        trace_stride=args.trace_stride,
        out=args.out,
        preset_params=_parse_params(args.param),
    )
    # round-trip sanity: the stored config must reproduce itself
    assert RunConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
    bundle = _build_bundle(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    lam = bundle.steps.lo
    bound = weak_bound(bundle.family, bundle.law, cfg.tau_p, cfg.tau_d)
    bound_source = "delay-adjusted admissible bound"
    if lam > bound:
        print(
            f"warning: step {lam:.4g} exceeds the sufficient bound {bound:.4g} "
            "(the bound is sufficient, not necessary)",
            file=sys.stderr,
        )

    x0 = BlockVector.zeros(bundle.family.layout)
    env_cap = os.environ.get("SMART_THREADS")
    try:
        workers = cfg.workers if env_cap is None else min(cfg.workers, int(env_cap))
        if cfg.mode == "async":
            acfg = AsyncConfig(workers=workers, tau_p=cfg.tau_p, tau_d=cfg.tau_d)
        elif cfg.mode == "delay":
            sched = DelaySchedule(
                tau_p=cfg.tau_p, tau_d=cfg.tau_d, mode="uniform-random",
                m=bundle.family.m, n=bundle.family.n,
                rng=substream(cfg.seed, "delays"),
            )
        else:
            sched = bundle.schedule
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        if cfg.mode == "async":
            ares = run_async(
                acfg, bundle.family, bundle.law, bundle.graph, bundle.steps,
                x0, max_iters=cfg.iters, stop_resid=cfg.stop_resid, seed=cfg.seed,
            )
            log = ares.log
            sched = DelaySchedule(
                tau_p=cfg.tau_p, tau_d=cfg.tau_d, mode="recorded",
                m=bundle.family.m, n=bundle.family.n, log=log,
            )
            result = run(
                x0, bundle.family, bundle.law, bundle.graph, sched, bundle.steps,
                max_iters=ares.iterations, oracle=bundle.oracle,
                trace_stride=cfg.trace_stride, dual_init=bundle.dual_init,
                replay=log,
            )
            result.stopped_on = ares.stopped_on
            replay_gap = float(np.max(np.abs(result.x.flat() - ares.x.flat())))
        else:
            result = run(
                x0, bundle.family, bundle.law, bundle.graph, sched, bundle.steps,
                max_iters=cfg.iters, stop_resid=cfg.stop_resid,
                rng=substream(cfg.seed, "sampling"), oracle=bundle.oracle,
                trace_stride=cfg.trace_stride, dual_init=bundle.dual_init,
            )
            log = result.log
            replay_gap = None
    except (EngineError, WorkerFailure, ValueError) as exc:
        # the bundle, the schedule and the budget were already validated: a
        # diverged iterate, dual value or residual raises EngineError, and a
        # non-finite value from an operator that builds a BlockVector ValueError
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    with open(outdir / "trace.csv", "w") as fh:
        result.trace.to_csv(fh)
    with open(outdir / "replay.bin", "wb") as fh:
        log.dump(fh)

    fitted = None
    series = [v for v in result.trace.dist_sq if v is not None]
    if len(series) >= 30 and all(v is not None for v in result.trace.dist_sq):
        try:
            fitted = fit_rate(result.trace.iters, result.trace.dist_sq).factor
        except ValueError:
            fitted = None
    predicted = None
    if bundle.family.mu is not None:
        try:
            _, predicted, _ = linear_bound(
                bundle.family, bundle.law, bundle.graph, cfg.tau_p, cfg.tau_d,
                delta=cfg.tau_p,
            )
        except ValueError:
            predicted = None

    summary = {
        "config": cfg.to_json(),
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "final_dist_sq": result.trace.dist_sq[-1],
        "stopped_on": result.stopped_on,
        "lambda": lam,
        "lambda_bound": bound,
        "lambda_bound_source": bound_source,
        "fitted_factor": fitted,
        "predicted_factor": predicted,
        "replay_gap": replay_gap,
        "final_x": [b.tolist() for b in result.x.blocks],
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "stopped_on": result.stopped_on,
        "out": str(outdir),
    }))
    return EXIT_OK


def cmd_rates(args) -> int:
    params = _parse_params(args.param)
    try:
        row = table1_preset(args.preset, **params)
    except KeyError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps({"preset": args.preset, **row}))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; have {sorted(SUITES)}", file=sys.stderr)
        return EXIT_CONFIG
    kwargs = {"seed": args.seed}
    for name, suite, least in (("trials", "coherence", 1), ("seeds", "rates", MIN_SEEDS)):
        value = getattr(args, name)
        if args.suite == suite and value is not None:
            if value < least:
                raise ConfigError(f"--{name} must be >= {least}, got {value}")
            kwargs[name] = value
    ok, report = SUITES[args.suite](**kwargs)
    print(json.dumps({"suite": args.suite, "pass": ok, "report": report},
                     default=float))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_describe(args) -> int:
    bundle = _build_bundle(RunConfig(preset=args.preset, seed=args.seed,
                                     preset_params=_parse_params(args.param)))
    print(json.dumps(bundle.describe(), default=float, indent=1))
    return EXIT_OK


def cmd_verify_replay(args) -> int:
    with open(args.summary) as fh:
        summary = json.load(fh)
    cfg = RunConfig.from_json(summary["config"])
    bundle = _build_bundle(cfg)
    log_path = Path(args.summary).parent / "replay.bin"
    with open(log_path, "rb") as fh:
        log = ReplayLog.load(fh)
    sched = DelaySchedule(
        tau_p=log.tau_p, tau_d=log.tau_d, mode="recorded",
        m=bundle.family.m, n=bundle.family.n, log=log,
    )
    x0 = BlockVector.zeros(bundle.family.layout)
    result = run(
        x0, bundle.family, bundle.law, bundle.graph, sched, bundle.steps,
        max_iters=len(log), dual_init=bundle.dual_init, replay=log,
    )
    stored = [np.asarray(b) for b in summary["final_x"]]
    gap = max(
        float(np.max(np.abs(a - b))) if a.size else 0.0
        for a, b in zip(result.x.blocks, stored)
    )
    ok = gap <= 1e-12
    print(json.dumps({"replay_gap": gap, "pass": ok}))
    return EXIT_OK if ok else EXIT_VERIFY


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smartsolve",
        description="randomized operator-splitting runs, verification, and rates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a problem file with its oracle")
    g.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--param", action="append", metavar="KEY=VALUE")
    g.set_defaults(fn=cmd_generate)

    r = sub.add_parser("run", help="run a preset on a problem")
    r.add_argument("--preset", required=True, choices=sorted(PRESET_PROBLEM_KINDS))
    r.add_argument("--problem", default=None)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--iters", type=int, default=10_000)
    r.add_argument("--stop-resid", type=float, default=None)
    r.add_argument("--mode", choices=("sync", "delay", "async"), default="sync")
    r.add_argument("--tau-p", type=int, default=0)
    r.add_argument("--tau-d", type=int, default=0)
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--lam", type=float, default=None)
    r.add_argument("--trace-stride", type=int, default=50)
    r.add_argument("--out", default="out")
    r.add_argument("--param", action="append", metavar="KEY=VALUE")
    r.set_defaults(fn=cmd_run)

    t = sub.add_parser("rates", help="print the published step/rate table row")
    t.add_argument("--preset", required=True, choices=TABLE1_NAMES)
    t.add_argument("--param", action="append", metavar="KEY=VALUE")
    t.set_defaults(fn=cmd_rates)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seeds", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("describe", help="print a preset's configuration")
    d.add_argument("--preset", required=True, choices=sorted(PRESET_PROBLEM_KINDS))
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--param", action="append", metavar="KEY=VALUE")
    d.set_defaults(fn=cmd_describe)

    vr = sub.add_parser("verify-replay", help="replay a recorded run and compare")
    vr.add_argument("--summary", required=True)
    vr.set_defaults(fn=cmd_verify_replay)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EngineError, WorkerFailure) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
