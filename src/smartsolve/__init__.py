"""Randomized operator-splitting for root finding over block spaces.

The package solves ``(1/n) sum_i S_i(x) = 0`` by sampling one operator and
a set of coordinate blocks per iteration, with stored (possibly stale) dual
values standing in for the unsampled operators.  Classical variance-reduced
gradient methods, randomized projections, and several primal-dual schemes
arrive as preset configurations of the same engine.
"""

from .blockspace import (
    BlockLayout,
    BlockVector,
    Metric,
    gram_metric,
    inner,
    norm_sq,
    product_metric,
)
from .engine import RunResult, SmartState, StepSizes, init_state, run, step
from .operators import (
    BlockOperator,
    OperatorFamily,
    aggregate,
    gradient_op,
    subgradient_projector,
    verify_coherence,
    verify_quasi_monotone,
)
from .sampling import SamplingLaw, TriggerGraph, draw, importance_law, substream, trigger_prob
from .schedule import DelaySchedule, HistoryBuffer, ReplayLog, delayed_read, inconsistency
from .stepsize import RatePlan, linear_bound, table1_preset, weak_bound

__version__ = "0.1.0"
