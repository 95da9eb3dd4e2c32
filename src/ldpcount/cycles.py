"""Private odd-length cycle estimation (k >= 5).

Per user, the fork pairs of the shared protocol stage are extended into sums
over admissible length-(k-2) vertex tuples between the fork endpoints; the
noise scale couples the clipped degree with a server-side walk sum over the
unbiased matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .graphs import Graph
from .mechanisms import (
    STAGE_COUNT,
    ObfuscatedGraph,
    PrivacyBudget,
    substream,
    unbias_span,
)
from .protocol import (
    EstimateReport,
    add_noise,
    resolve_mode,
    run_ordered_stage,
    split_forks,
)

PATH_TUPLE_LIMIT = 10**9


def require_odd_k(k: int) -> None:
    """Reject a cycle length the estimator does not handle (odd k >= 5 only)."""
    if k % 2 == 0 or k < 5:
        raise ValidationError(f"cycle length must be odd and >= 5, got {k}")


def _check_path_tuples(forks: int, n: int, k: int, who: str) -> None:
    """Refuse a sum over more than PATH_TUPLE_LIMIT admissible-path tuples."""
    if n ** (k - 3) * forks > PATH_TUPLE_LIMIT:
        raise ResourceLimitError(
            f"{who}: {forks} forks x n^{k - 3} tuples exceeds "
            f"{PATH_TUPLE_LIMIT}; shrink n or k"
        )


def server_walk_sum(obf: ObfuscatedGraph, k: int) -> float:
    """Sum over all (k-3)-vertex tuples of products of unbiased entries.

    Tuples may repeat vertices, so this equals ones @ A^(k-4) @ ones for the
    unbiased matrix A (zero diagonal) and costs k-4 matrix-vector products.
    It is a noise scale, not a path count.
    """
    require_odd_k(k)
    a = obf.unbiased
    v = np.ones(obf.n, dtype=np.float64)
    for _ in range(k - 4):
        v = a @ v
    return float(v.sum())


def canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/reflect a cyclic vertex tuple to its canonical form."""
    pivot = seq.index(min(seq))
    rot = seq[pivot:] + seq[:pivot]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + tuple(reversed(rot[1:]))
    return rot


def admissible(u, v, w, i):
    """Whether the consecutive triple (u, v, w) may lie on a cycle user i counts.

    A monotone triple needs its center ranked above i, else a lower-ranked
    center would count the same cycle again.  Elementwise on arrays; valid on
    distinct vertices, where (u < v) == (v < w) means monotone.
    """
    return ((u < v) != (v < w)) | (v > i)


def _admissible_sum_dfs(
    i: int,
    j: int,
    kappa: int,
    k: int,
    rows,
    collector: dict | None = None,
) -> float:
    """Enumerate distinct-vertex tuples from j to kappa, k-2 edges long.

    ``rows`` is the unbiased matrix read as rows[u][v]; Python rows
    (``ahat.tolist()``) are the fast form.  Products with a zero factor are
    pruned, which makes the no-noise mode walk only real edges.
    ``collector`` (no-noise instrumentation) counts each tuple with product
    exactly 1 under its canonical cycle key.
    """
    used = bytearray(len(rows))
    used[i] = used[j] = used[kappa] = 1
    path = [j]
    total = 0.0

    def extend(prev2: int, prev1: int, prod: float) -> None:
        nonlocal total
        if len(path) == k - 2:
            p = prod * rows[prev1][kappa]
            if p == 0.0 or not (
                admissible(prev2, prev1, kappa, i) and admissible(prev1, kappa, i, i)
            ):
                return
            total += p
            if collector is not None and p == 1.0:
                key = canonical_cycle((i, *path, kappa))
                collector[key] = collector.get(key, 0) + 1
            return
        for v, entry in enumerate(rows[prev1]):
            if used[v]:
                continue
            p = prod * entry
            if p == 0.0 or not admissible(prev2, prev1, v, i):
                continue
            used[v] = 1
            path.append(v)
            extend(prev1, v, p)
            path.pop()
            used[v] = 0

    extend(i, j, 1.0)
    return total


def _admissible_sum_k5_grid(i: int, j: int, kappa: int, ahat: np.ndarray) -> float:
    """Vectorized k=5 case: cycles (i, j, l2, l3, kappa) over the (l2, l3) grid."""
    ids = np.arange(ahat.shape[0])
    # distinct vertices: l2 and l3 outside {i, j, kappa}, and l2 != l3
    outside = (ids != i) & (ids != j) & (ids != kappa)
    allowed = np.outer(outside, outside)
    np.fill_diagonal(allowed, False)
    cycle = (i, j, ids[:, None], ids[None, :], kappa, i)
    for u, v, w in zip(cycle, cycle[1:], cycle[2:]):
        allowed &= admissible(u, v, w, i)
    weights = np.multiply.outer(ahat[j], ahat[:, kappa]) * ahat
    return float(weights[allowed].sum())


def user_cycle_estimate(
    i: int,
    projected_row,
    obf: ObfuscatedGraph,
    k: int,
    *,
    collector: dict | None = None,
) -> float:
    """Sum admissible path products over all fork pairs of user i."""
    require_odd_k(k)
    below, above = split_forks(tuple(projected_row), i)
    fork_count = len(below) * len(above)
    if fork_count == 0:
        return 0.0
    _check_path_tuples(fork_count, obf.n, k, f"user {i}")
    ahat = obf.unbiased
    grid = k == 5 and collector is None
    rows = None if grid else ahat.tolist()
    total = 0.0
    for j in below:
        for kappa in above:
            if grid:
                total += _admissible_sum_k5_grid(i, j, kappa, ahat)
            else:
                total += _admissible_sum_dfs(i, j, kappa, k, rows, collector)
    return total


def user_cycle_noise(c_hat, d_hat, walk_sum: float, eps1: float, eps2: float, u=None):
    """Laplace noise scaled by 3 * span(eps1)^2 * max(d_hat,0) * |walk_sum| / eps2.

    Elementwise over users.  The walk sum enters through its magnitude:
    unbiased entries can be negative, and a negative scale would be
    meaningless.
    """
    scale = (
        3.0 * unbias_span(eps1) ** 2 * np.maximum(d_hat, 0.0) * abs(walk_sum) / eps2
    )
    return add_noise(c_hat, scale, u)


def estimate_odd_cycles(
    graph: Graph,
    k: int,
    budget: PrivacyBudget | None,
    seed: int,
    mode: str = "noisy",
    *,
    trial: int = 0,
    multiplicity_out: dict | None = None,
) -> EstimateReport:
    """Full private k-cycle count for odd k >= 5.

    In no-noise mode the result equals the exact cycle count; passing
    ``multiplicity_out`` (no-noise only) records how many times each cycle
    was counted, keyed by canonical vertex tuple in original node ids.
    """
    require_odd_k(k)
    budget = resolve_mode(mode, budget)
    if multiplicity_out is not None and mode == "noisy":
        raise ValidationError("multiplicity instrumentation needs no-noise mode")
    stage = run_ordered_stage(graph, budget, seed, trial)
    n = graph.n
    forks = (split_forks(row, i) for i, row in enumerate(stage.projected))
    _check_path_tuples(sum(len(b) * len(a) for b, a in forks), n, k, "all users")
    walk_sum = server_walk_sum(stage.obf, k)
    collector: dict | None = {} if multiplicity_out is not None else None
    per_user = np.array(
        [
            user_cycle_estimate(i, row, stage.obf, k, collector=collector)
            for i, row in enumerate(stage.projected)
        ]
    )
    if mode == "noisy":
        u = np.array(
            [substream(seed, trial, STAGE_COUNT, i).random() for i in range(n)]
        )
        per_user = user_cycle_noise(
            per_user, stage.clipped_degrees, walk_sum, budget.eps1, budget.eps2, u
        )
    if multiplicity_out is not None:
        node_of_rank = stage.ordering.node_of_rank()
        for key, count in collector.items():
            original = canonical_cycle(tuple(int(node_of_rank[r]) for r in key))
            multiplicity_out[original] = multiplicity_out.get(original, 0) + count
    return stage.report(per_user, budget, seed, mode, k=k, walk_sum=walk_sum)
