"""Private triangle estimation over a noisy-degree ordering.

The shared front half of the protocol (ordering, randomized response,
degree clipping, projection) lives in :mod:`ldpcount.protocol`; this module
adds the per-user fork sums and their noise scale.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .mechanisms import (
    INF,
    STAGE_COUNT,
    ObfuscatedGraph,
    PrivacyBudget,
    add_noise,
    substream,
    unbias_span,
)
from .protocol import (
    EstimateReport,
    resolve_mode,
    run_ordered_stage,
    split_forks,
)


def user_triangle_estimate(i: int, projected_row, obf: ObfuscatedGraph) -> float:
    """Sum of unbiased entries over fork pairs (j, k) with j < i < k."""
    below, above = split_forks(projected_row, i)
    if not (len(below) and len(above)):
        return 0.0
    return float(obf.unbiased[below[:, None], above].sum())


def user_triangle_noise(t_hat, d_hat, eps1: float, eps2: float, u=None):
    """Add Laplace noise at the restricted-sensitivity scale, elementwise.

    Scale is 3 * span(eps1) * max(d_hat, 0) / eps2; a non-positive clipped
    degree means the projected row is empty and the noise is exactly zero.
    """
    scale = 3.0 * unbias_span(eps1) * np.maximum(d_hat, 0.0) / eps2
    return add_noise(t_hat, scale, u)


def estimate_triangles(
    graph: Graph,
    budget: PrivacyBudget | None,
    seed: int,
    mode: str = "noisy",
    *,
    trial: int = 0,
) -> EstimateReport:
    """Full private triangle count: ordering, randomized response, fork sums.

    In no-noise mode the result equals the exact triangle count: every
    triangle {a < b < c} is charged to its middle rank exactly once.
    """
    budget = resolve_mode(mode, budget)
    stage = run_ordered_stage(graph, budget, seed, trial)
    n = graph.n
    per_user = np.array(
        [user_triangle_estimate(i, stage.projected[i], stage.obf) for i in range(n)]
    )
    if budget.eps2 != INF:  # at eps2=inf the count noise is the identity
        u = [substream(stage.seed, stage.trial, STAGE_COUNT, i).random() for i in range(n)]
        per_user = user_triangle_noise(
            per_user, stage.clipped_degrees, budget.eps1, budget.eps2, u
        )
    return stage.report(per_user, mode)
