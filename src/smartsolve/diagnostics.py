"""Convergence measurement: residuals, distances, rate fits, envelope checks.

The residual ``|S(x)|`` is the observable that tracks progress when the
solution set is unknown; when it is known (generated instances keep their
direct-solver solution), the squared metric distance to the solution set is
the quantity the linear-rate theory bounds in expectation.  Envelope tests
therefore compare the *mean over seeds* against the predicted geometric
envelope; per-run bounds are not claimed.  The unknown additive constant in
the theoretical envelope is handled as a fitted intercept, never computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockspace import BlockVector, Metric, norm_sq, product_metric
from .operators import OperatorFamily, aggregate

__all__ = [
    "residual",
    "PointOracle",
    "AffineOracle",
    "RateFit",
    "fit_rate",
    "envelope_test",
    "EnvelopeReport",
]

MIN_SEEDS = 30      # fewest seed traces envelope_test accepts by default


def residual(family: OperatorFamily, x: BlockVector) -> float:
    """Norm of the aggregated operator value in the family metric."""
    return float(np.sqrt(norm_sq(family.metric, aggregate(family, x))))


class PointOracle:
    """Solution set is a single known point."""

    def __init__(self, x_star: BlockVector, metric: Metric | None = None):
        self.x_star = x_star
        self.metric = metric or product_metric(x_star.layout)

    def project(self, x: BlockVector) -> BlockVector:
        return self.x_star

    def dist_sq(self, x: BlockVector) -> float:
        return norm_sq(self.metric, x - self.x_star)


class AffineOracle:
    """Solution set is an affine subspace ``{x : A x = b}``.

    Projection is the least-norm correction ``x - pinv(A) (A x - b)``,
    valid in the product metric.
    """

    def __init__(self, A, b, layout):
        self.A = np.asarray(A, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        self.layout = layout
        self._pinv = np.linalg.pinv(self.A)
        self.metric = product_metric(layout)

    def project(self, x: BlockVector) -> BlockVector:
        flat = x.flat()
        corrected = flat - self._pinv @ (self.A @ flat - self.b)
        return BlockVector.from_flat(self.layout, corrected)

    def dist_sq(self, x: BlockVector) -> float:
        return norm_sq(self.metric, x - self.project(x))


@dataclass(frozen=True)
class RateFit:
    """Log-linear least-squares fit of a decaying positive sequence."""

    factor: float          # fitted per-iteration contraction
    value_at_zero: float   # exp(intercept) of the fit
    window: tuple[int, int]
    r_squared: float


def fit_rate(iters, values, window: int = 0) -> RateFit:
    """Fit ``values[k] ~ C * factor^k`` over the trailing ``window`` points.

    ``window = 0`` uses the whole sequence.  At least 30 points are
    required; zero or negative values are excluded before taking logs
    (a sequence that hits exact zero has effectively converged).
    """
    iters = np.asarray(iters, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if window:
        iters, values = iters[-window:], values[-window:]
    keep = values > 0.0
    iters, values = iters[keep], values[keep]
    if iters.size < 30:
        raise ValueError(f"rate fit needs >= 30 usable points, got {iters.size}")
    logs = np.log(values)
    slope, icept = np.polyfit(iters, logs, 1)
    pred = slope * iters + icept
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        factor=float(np.exp(slope)),
        value_at_zero=float(np.exp(icept)),
        window=(int(iters[0]), int(iters[-1])),
        r_squared=r2,
    )


@dataclass
class EnvelopeReport:
    ok: bool
    max_violation_iter: int | None
    fitted_factor: float
    predicted_factor: float
    intercept: float
    detail: str = ""

    def __bool__(self):
        return self.ok

    def to_json(self) -> dict:
        return {
            "pass": self.ok,
            "max_violation_iter": self.max_violation_iter,
            "fitted_factor": self.fitted_factor,
            "predicted_factor": self.predicted_factor,
        }


def envelope_test(
    iters,
    traces,
    predicted_factor: float,
    slack: float = 0.05,
    burn_in: int = 0,
    window: int = 1,
    min_seeds: int = MIN_SEEDS,
) -> EnvelopeReport:
    """Check the mean-over-seeds distance trace against a geometric envelope.

    ``traces`` is (seeds, len(iters)); the test asserts, for every recorded
    iteration past ``burn_in``,

        mean_dsq(k) <= predicted_factor^(k / window) * (dsq0 + C) * (1 + slack)

    where the intercept ``C >= 0`` absorbs the theory's unknown additive
    constant and is fitted from the mean trace itself (log-linear fit).
    """
    traces = np.asarray(traces, dtype=np.float64)
    if traces.ndim != 2 or traces.shape[0] < min_seeds:
        raise ValueError(f"need at least {min_seeds} seed traces")
    iters = np.asarray(iters)
    mean = traces.mean(axis=0)
    d0 = float(mean[0])
    fit = fit_rate(iters, mean)
    intercept = max(fit.value_at_zero - d0, 0.0)
    envelope = (
        predicted_factor ** (iters / window) * (d0 + intercept) * (1.0 + slack)
    )
    bad = np.nonzero((mean > envelope) & (iters >= burn_in))[0]
    return EnvelopeReport(
        ok=bad.size == 0,
        max_violation_iter=None if bad.size == 0 else int(iters[bad[np.argmax(mean[bad] / envelope[bad])]]),
        fitted_factor=fit.factor,
        predicted_factor=float(predicted_factor),
        intercept=intercept,
    )
