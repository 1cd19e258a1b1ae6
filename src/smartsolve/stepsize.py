"""Closed-form step-size bounds and the published rate table.

Two regimes are exposed.  ``weak_bound`` gives the largest admissible step
band for plain almost-sure convergence; it depends on the quasi-cocoercivity
constants, the sampling law, the metric sandwich constants and the delay
caps, and splits on whether the operator values at a root all vanish (the
common-zero case admits a step twice as large).  ``linear_bound`` gives the
step and the per-window contraction factor in the linearly convergent
regime, which additionally needs the quasi-monotonicity modulus and the
trigger probabilities.  ``table1_preset`` reproduces the published
three-column table (largest step, best-rate step, rate at the best step)
for the named classical instantiations; those closed forms are stored
verbatim as the contract rather than re-derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperatorFamily
from .sampling import SamplingLaw, TriggerGraph, min_trigger_prob

__all__ = ["RatePlan", "weak_bound", "linear_bound", "table1_preset", "TABLE1_NAMES"]


@dataclass(frozen=True)
class RatePlan:
    """Free parameters of the linear-rate bound.

    ``eta`` must lie strictly below the smallest effective trigger
    probability ``rho * p^T``; ``alpha`` trades contraction against step
    size and defaults to 1/2, which reproduces the published table rows.
    """

    eta: float
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")

    @classmethod
    def default_for(cls, law: SamplingLaw, graph: TriggerGraph, alpha: float = 0.5):
        cap = law.rho * min_trigger_prob(law, graph)
        return cls(eta=0.99 * cap, alpha=alpha)


def _supported_pairs(family: OperatorFamily, law: SamplingLaw):
    for i in range(family.n):
        for j in range(family.m):
            if law.p[i, j] > 0.0 and family.beta[i, j] > 0.0:
                yield i, j


def weak_bound(
    family: OperatorFamily,
    law: SamplingLaw,
    tau_p: int,
    tau_d: int,
    lambda_lo: float | None = None,
) -> float:
    """Upper step bound for almost-sure convergence under bounded delays.

    With ``lambda_lo`` given, returns the largest ``lambda_hi`` so that the
    band ``[lambda_lo, lambda_hi]`` is admissible; with ``lambda_lo=None``
    the constant-step bound (the fixed point ``lambda_lo == lambda_hi``) is
    returned.  Non-increasing in both delay caps.
    """
    n, m = family.n, family.m
    q_lo = float(np.min(law.q))
    m_hi = family.metric.m_hi
    star_zero = not family.star_pattern.any()

    best = math.inf
    for i, j in _supported_pairs(family, law):
        core = n * n * law.p[i, j] * family.beta[i, j]
        if star_zero:
            den = 3.0 * m_hi[j] * tau_p / (m * math.sqrt(q_lo)) + 2.0 * m_hi[j] / (q_lo * m)
            val = 2.0 * core / den
        else:
            den = (
                m_hi[j] * tau_p * math.sqrt(2.0 * (tau_d + 2.0)) / (m * math.sqrt(q_lo))
                + m_hi[j] * (tau_d + 2.0) / (m * q_lo)
            )
            val = core / den
        best = min(best, val)
    if not math.isfinite(best):
        raise ValueError("family has no supported (operator, block) pairs")
    if lambda_lo is None:
        return best
    if lambda_lo <= 0:
        raise ValueError("lambda_lo must be positive")
    return math.sqrt(lambda_lo * best)


def linear_bound(
    family: OperatorFamily,
    law: SamplingLaw,
    graph: TriggerGraph,
    tau_p: int,
    tau_d: int,
    delta: int,
    plan: RatePlan | None = None,
):
    """Step and contraction factor in the linear regime.

    Returns ``(lam, factor, window)``: the expected squared distance to the
    solution set contracts by ``factor`` every ``window`` iterations when
    running at step ``lam``.  When both caps are zero the dedicated
    synchronous bound applies, ``window`` is 1 and ``factor`` is
    ``1 - 2 alpha mu lam / m``; otherwise ``window`` is ``tau_p + 1`` and
    ``factor`` is ``1 - 2 alpha mu lam / (tau_p + 1)``.
    """
    if family.mu is None:
        raise ValueError("linear bound needs the quasi-monotonicity modulus")
    mu = family.mu
    n, m = family.n, family.m
    if plan is None:
        plan = RatePlan.default_for(law, graph)
    eta, alpha = plan.eta, plan.alpha
    eta_cap = law.rho * min_trigger_prob(law, graph)
    if eta > eta_cap + 1e-15:
        raise ValueError(f"eta={eta} exceeds min effective trigger probability {eta_cap}")
    m_hi = family.metric.m_hi
    q_lo = float(np.min(law.q))
    m_hi_min = float(np.min(m_hi))
    star_zero = not family.star_pattern.any()

    best = math.inf
    if tau_p == 0 and tau_d == 0:
        for i, j in _supported_pairs(family, law):
            core = family.beta[i, j] * n * n * law.p[i, j] * law.q[j]
            if star_zero:
                val = (1.0 - alpha) * core * m / m_hi[j]
            else:
                val = (eta * (1.0 - alpha) * core * m) / (
                    2.0 * m_hi[j] * eta + 2.0 * mu * alpha * (1.0 - alpha) * core
                )
            best = min(best, val)
        lam = best
        factor = 1.0 - 2.0 * alpha * mu * lam / m
        return lam, max(factor, 0.0), 1
    root_term = math.sqrt(2.0 * (tau_d + 2.0))
    for i, j in _supported_pairs(family, law):
        core = n * n * law.p[i, j] * family.beta[i, j]
        stale = (2.0 * m_hi[j] * eta * (tau_d + 2.0) / (law.q[j] * m)) * (
            1.0
            + delta * eta / (tau_d + 1.0)
            + 5.0 * root_term * alpha * alpha * delta
            / (m * m_hi_min * (root_term + tau_p * math.sqrt(q_lo)))
        )
        if tau_p > 0:
            if eta >= 1.0:
                raise ValueError("eta must be < 1 when primal delays are present")
            stale += (
                m_hi[j] * eta * tau_p * root_term / (m * math.sqrt(q_lo))
            ) * (2.0 + eta / (1.0 - eta))
        den = stale + 4.0 * mu * (tau_d + 1.0) * alpha * (1.0 - alpha) * core
        best = min(best, 2.0 * eta * (1.0 - alpha) * core / den)
    lam = best
    window = tau_p + 1
    factor = 1.0 - 2.0 * alpha * mu * lam / window
    return lam, max(factor, 0.0), window


TABLE1_NAMES = (
    "SAGA",
    "SVRG-avg",
    "SVRG-sched",
    "Finito",
    "SDCA",
    "AltProj",
    "Kaczmarz",
    "ProxSAGA",
)


def table1_preset(name: str, **params) -> dict:
    """Published (largest step, best-rate step, rate) for a named method.

    Required parameters by name:

    * ``SAGA``:        L, mu, N
    * ``SVRG-avg``:    L, mu, tau
    * ``SVRG-sched``:  L, mu, tau
    * ``Finito``:      L, mu_hat, N
    * ``SDCA``:        L, mu0, N
    * ``AltProj``:     N, mu_hat, eps, L
    * ``Kaczmarz``:    N, inv_norm  (smallest-gain constant of the row matrix)
    * ``ProxSAGA``:    L, mu_f, mu_g, N
    """
    if name == "SAGA":
        L, mu, N = params["L"], params["mu"], params["N"]
        return {
            "largest": 1.0 / (2.0 * L),
            "best": 1.0 / (4.0 * L + mu * N),
            "rate": 1.0 - mu / (4.0 * L + mu * N),
        }
    if name == "SVRG-avg":
        L, mu, tau = params["L"], params["mu"], params["tau"]
        return {
            "largest": 1.0 / (2.0 * L),
            "best": 1.0 / (4.0 * L + mu * tau),
            "rate": 1.0 - mu / (4.0 * L + mu * tau),
        }
    if name == "SVRG-sched":
        L, mu, tau = params["L"], params["mu"], params["tau"]
        return {
            "largest": 1.0 / ((tau + 2.0) * L),
            "best": 1.0 / (2.0 * L * (tau + 2.0) + mu * (tau + 1.0)),
            "rate": 1.0 - mu / (2.0 * L * (tau + 2.0) + mu * (tau + 1.0)),
        }
    if name == "Finito":
        L, mu_hat, N = params["L"], params["mu_hat"], params["N"]
        return {
            "largest": 0.5,
            "largest_gamma": 2.0 / L,
            "best": 0.25,
            "best_gamma": 1.0 / L,
            "rate": 1.0 - (1.0 - math.sqrt(1.0 - mu_hat / L)) / (4.0 * N),
        }
    if name == "SDCA":
        L, mu0, N = params["L"], params["mu0"], params["N"]
        return {
            "largest": 0.75,
            "best": 0.375,
            "rate": 1.0 - 3.0 * mu0 / (8.0 * (L + mu0 * N)),
        }
    if name == "AltProj":
        N, mu_hat, eps, L = params["N"], params["mu_hat"], params["eps"], params["L"]
        return {
            "largest": 1.0,
            "best": 0.5,
            "rate": 1.0 - min(1.0, eps * eps / (L * L)) / (2.0 * N * mu_hat),
        }
    if name == "Kaczmarz":
        N, inv_norm = params["N"], params["inv_norm"]
        return {
            "largest": 1.0,
            "best": 0.5,
            "rate": 1.0 - 1.0 / (2.0 * N * inv_norm * inv_norm),
        }
    if name == "ProxSAGA":
        L, mu_f, mu_g, N = params["L"], params["mu_f"], params["mu_g"], params["N"]
        r = math.sqrt(1.0 - mu_f / L)
        s = 1.0 + mu_g / L
        return {
            "largest": (N + 1.0) / 8.0,
            "best": (N + 1.0) * s / ((16.0 + 2.0 * N) * s - 2.0 * N * r),
            "rate": 1.0 - (s - r) / ((8.0 + N) * s - N * r),
        }
    raise KeyError(f"unknown rate-table entry {name!r}; names: {TABLE1_NAMES}")
