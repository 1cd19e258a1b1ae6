"""Named factory builders: each returns a ready-to-run engine configuration.

Every builder assembles an operator family, a sampling law, a trigger
graph, a delay schedule, and a step-size choice that are mutually
consistent, plus (when the instance admits one) a solution oracle and the
map transporting an engine-space root to a solution of the original
problem.  The ``provenance`` string states which update rule the bundle
realizes and under which sampling/trigger conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import StepSizes
from ..operators import OperatorFamily
from ..sampling import SamplingLaw, TriggerGraph
from ..schedule import DelaySchedule

__all__ = [
    "PresetBundle",
    "build_saga",
    "build_svrg",
    "build_finito",
    "build_sdca",
    "build_projection",
    "build_kaczmarz",
    "build_prox_saga",
    "build_coordinate_saga",
    "build_minibatch",
    "build_lin_saga",
    "build_lin_saga_affine",
    "build_super_saga",
    "build_tropic",
    "build_prox_smart",
    "build_prox_smart_plus",
    "build_mono",
    "build_saddle",
]


@dataclass
class PresetBundle:
    """A mutually consistent (family, law, graph, schedule, steps) pack."""

    name: str
    family: OperatorFamily
    law: SamplingLaw
    graph: TriggerGraph
    schedule: DelaySchedule
    steps: StepSizes
    oracle: object = None
    transport: object = None          # engine root -> problem solution
    transport_target: object = None   # expected problem solution
    provenance: str = ""
    dual_init: str = "operator-values"
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        fam, law = self.family, self.law
        if law.n != fam.n or law.m != fam.m:
            raise ValueError(
                f"law shape ({law.n}, {law.m}) does not match family "
                f"({fam.n}, {fam.m})"
            )
        if self.graph.n != fam.n:
            raise ValueError("trigger graph size does not match operator count")
        if self.schedule.m != fam.m or self.schedule.n != fam.n:
            raise ValueError("schedule shaped for a different family")
        # sampling must reach every operator/block pair that can move
        for i, op in enumerate(fam.ops):
            for j in range(fam.m):
                if j not in op.zero_blocks and law.p[i, j] <= 0.0:
                    raise ValueError(
                        f"operator {i} is active in block {j} but p[{i},{j}] = 0"
                    )

    def describe(self) -> dict:
        return {
            "name": self.name,
            "n": self.family.n,
            "m": self.family.m,
            "dims": list(self.family.layout.dims),
            "rho": self.law.rho,
            "block_mode": self.law.block_mode,
            "metric": self.family.metric.kind,
            "mu": self.family.mu,
            "lambda": [self.steps.lo, self.steps.hi],
            "tau_p": self.schedule.tau_p,
            "tau_d": self.schedule.tau_d,
            "provenance": self.provenance,
            "extras": {
                k: v for k, v in self.extras.items() if np.isscalar(v) or isinstance(v, str)
            },
        }


from .classic import (  # noqa: E402
    build_finito,
    build_kaczmarz,
    build_projection,
    build_saga,
    build_sdca,
    build_svrg,
)
from .composite import build_coordinate_saga, build_minibatch, build_prox_saga  # noqa: E402
from .structured import (  # noqa: E402
    build_lin_saga,
    build_lin_saga_affine,
    build_mono,
    build_prox_smart,
    build_prox_smart_plus,
    build_saddle,
    build_super_saga,
    build_tropic,
)
