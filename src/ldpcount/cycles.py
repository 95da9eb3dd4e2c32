"""Private odd-length cycle estimation (k >= 5).

Per user, the fork pairs of the shared protocol stage are extended into sums
over admissible length-(k-2) vertex tuples between the fork endpoints; the
noise scale couples the clipped degree with a server-side walk sum over the
unbiased matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .graphs import Graph, require_integer
from .mechanisms import (
    INF,
    STAGE_COUNT,
    ObfuscatedGraph,
    PrivacyBudget,
    add_noise,
    raw_uniforms,
    require_dense_bytes,
    substream,
    unbias_span,
)
from .protocol import (
    EstimateReport,
    resolve_mode,
    run_ordered_stage,
    split_forks,
)

PATH_TUPLE_LIMIT = 10**9
# Dense bytes per cell of the k=5 route at its traced peak: the RR bits 1,
# the unbiased matrix 8, _k5_scratch 9 and a pair's gathered cells up to 8.
K5_BYTES_PER_CELL = 26
# Cells of one path-extension grid; a larger frontier is split into row blocks.
_BLOCK_CELLS = 1 << 16


def require_odd_k(k: int) -> int:
    """``k`` as an ``int``, rejecting a length the estimator does not handle.

    Only odd integers k >= 5 are handled.
    """
    k = require_integer(k, "cycle length")
    if k % 2 == 0 or k < 5:
        raise ValidationError(f"cycle length must be odd and >= 5, got {k}")
    return k


def server_walk_sum(obf: ObfuscatedGraph, k: int) -> float:
    """Sum over all (k-3)-vertex tuples of products of unbiased entries.

    Tuples may repeat vertices, so this equals ones @ A^(k-4) @ ones for the
    unbiased matrix A (zero diagonal) and costs k-4 matrix-vector products.
    It is a noise scale, not a path count.
    """
    k = require_odd_k(k)
    a = obf.unbiased
    v = np.ones(obf.n, dtype=np.float64)
    for _ in range(k - 4):
        v = a @ v
    return float(v.sum())


def admissible(u, v, w, i):
    """Whether the consecutive triple (u, v, w) may lie on a cycle user i counts.

    A monotone triple needs its center ranked above i, else a lower-ranked
    center would count the same cycle again.  Elementwise on arrays; valid on
    distinct vertices, where (u < v) == (v < w) means monotone.
    """
    return ((u < v) != (v < w)) | (v > i)


def _path_grids(i: int, paths: np.ndarray, prods: np.ndarray, levels: int, ahat):
    """Yield (paths, ext, keep, own) grids: the paths ``levels`` vertices longer.

    Rows of ``paths`` are distinct-vertex paths (i, j, ...); the last vertex
    v is a grid column, ext[r, v] is row r's product times Â[last, v],
    own[r, v] marks v on row r's path (one scatter per grid), and ``keep``
    drops zero products, inadmissible triples and each row's own vertices.
    Grids: lexicographic, _BLOCK_CELLS cells at most.
    """
    v = np.arange(ahat.shape[0])
    step = max(1, _BLOCK_CELLS // ahat.shape[0])
    for lo in range(0, len(prods), step):
        block = paths[lo : lo + step]
        ext = prods[lo : lo + step, None] * ahat[block[:, -1]]
        own = np.zeros(ext.shape, dtype=bool)
        own[np.arange(len(block))[:, None], block] = True
        keep = (ext != 0.0) & admissible(block[:, -2:-1], block[:, -1:], v, i)
        keep &= ~own
        if levels == 1:
            yield block, ext, keep, own
            continue
        rows, cols = np.nonzero(keep)
        more = np.column_stack((block[rows], cols))
        yield from _path_grids(i, more, ext[rows, cols], levels - 1, ahat)


def _admissible_sum(i: int, below, above, k: int, ahat) -> float:
    """Sum admissible products of distinct-vertex tuples (j, l2, ..., kappa).

    Bit for bit a depth-first sum: tuples in lexicographic order, products
    formed left to right from 1.0, zero terms dropped, each (j, kappa) pair
    summed sequentially from 0.0, pair totals added in below x above order.
    The closing rule is checked once per grid; (v, kappa, i) always holds.
    Each kappa's mask clears column kappa and the rows whose path holds
    kappa (the grid's ``own`` column), and its terms are gathered by
    ``np.compress``: the same cells in the same row-major order as p[mask].
    """
    v = np.arange(ahat.shape[0])
    total = 0.0
    for j in below:
        pair = dict.fromkeys(above, 0.0)
        start = np.array([[i, j]]), np.array([1.0])
        for paths, ext, keep, own in _path_grids(i, *start, k - 3, ahat):
            # every kappa in above exceeds i, so the rule is the same for all
            keep &= admissible(paths[:, -1:], v, above[0], i)
            for kappa in above:
                p = ext * ahat[:, kappa]
                m = keep & (p != 0.0)
                m[:, kappa] = False
                m[own[:, kappa]] = False
                # on such irregular masks compress is several times faster
                p = np.compress(m.ravel(), p.ravel())
                if len(p):  # the running total rides on the first new term
                    p[0] += pair[kappa]
                    pair[kappa] = float(np.add.accumulate(p, out=p)[-1])
        for kappa in above:
            total += pair[kappa]
    return total


def _k5_scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n buffers of ``_k5_user_sum``: the weights and the mask.

    Reusing them across users keeps an estimate from allocating, and
    refaulting, n^2 blocks per user.
    """
    return np.empty((n, n)), np.empty((n, n), dtype=bool)


def _k5_pair_masks(i: int, below, above, mask):
    """Yield (j, kappa, rows, cells): fork pair (j, kappa)'s (l2, l3) mask.

    For j < i < kappa the distinctness and ``admissible`` rules of the cycle
    (i, j, l2, l3, kappa) reduce to a closed form: l2 > j, l2 not in
    {i, kappa}, l3 not in {i, j, kappa}, l2 != l3, and l3 < l2 or l2 > i.
    ``mask`` gets the clauses free of j and kappa, once; ``cells`` is its
    rows l2 > j, those ``rows``, narrowed in place: column j cleared once per
    j, row and column kappa once per pair, each restored after use.  Rows
    l2 <= j hold no masked cell, so they are left out.
    """
    n = mask.shape[0]
    ids = np.arange(n)
    np.greater(ids[:, None], ids, out=mask)  # l3 < l2
    mask[i] = False  # l2 != i
    mask[i + 1 :] = True  # or l2 > i
    mask[:, i] = False  # l3 != i
    np.fill_diagonal(mask, False)  # l2 != l3
    for j in below:
        rows = slice(j + 1, n)
        cells = mask[rows]
        column_j = cells[:, j].copy()
        cells[:, j] = False
        for kappa in above:
            row, column = cells[kappa - j - 1].copy(), cells[:, kappa].copy()
            cells[kappa - j - 1] = cells[:, kappa] = False
            yield j, kappa, rows, cells
            cells[kappa - j - 1], cells[:, kappa] = row, column
        cells[:, j] = column_j


def _k5_user_sum(i: int, below, above, ahat: np.ndarray, scratch=None) -> float:
    """k=5 case: cycles (i, j, l2, l3, kappa) over (l2, l3) grids, all fork pairs.

    Each pair's masked cells are taken in row-major (l2, l3) order, their
    products formed as (Â[j,l2]·Â[l3,kappa])·Â[l2,l3] and summed by numpy's
    pairwise ``sum``; pair totals are added from 0.0 in below x above order.
    ``scratch`` is ``_k5_scratch(n)``; without it the call allocates its own.
    """
    weights, mask = _k5_scratch(ahat.shape[0]) if scratch is None else scratch
    total = 0.0
    for j, kappa, rows, cells in _k5_pair_masks(i, below, above, mask):
        grid = weights[rows]
        # Â is symmetric, so its contiguous row kappa is column kappa.  einsum's
        # outer product beats broadcasting and np.multiply.outer; it writes a
        # -0.0 product as +0.0, which moves no sum with a nonzero term, and
        # the total starts at +0.0
        np.einsum("i,j->ij", ahat[j, rows], ahat[kappa], out=grid)
        grid *= ahat[rows]
        total += float(grid[cells].sum())
    return total


def user_cycle_estimate(
    i: int, projected_row, obf: ObfuscatedGraph, k: int, *, scratch=None
) -> float:
    """Sum admissible path products over all fork pairs of user i.

    For k = 5, ``scratch`` may hold ``_k5_scratch(n)`` buffers to reuse;
    without it the call allocates its own.
    """
    k = require_odd_k(k)
    below, above = split_forks(projected_row, i)
    if not (len(below) and len(above)):
        return 0.0
    ahat = obf.unbiased
    if k == 5:
        return _k5_user_sum(i, below, above, ahat, scratch)
    return _admissible_sum(i, below, above, k, ahat)


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
) -> EstimateReport:
    """Full private k-cycle count for odd k >= 5.

    In no-noise mode the result equals the exact cycle count: user i counts
    each cycle whose lowest-ranked monotone centre is i.
    """
    k = require_odd_k(k)
    budget = resolve_mode(mode, budget)
    if k == 5:
        require_dense_bytes(graph.n, K5_BYTES_PER_CELL)
    stage = run_ordered_stage(graph, budget, seed, trial)
    n = graph.n
    splits = map(split_forks, stage.projected, range(n))
    forks = sum(len(below) * len(above) for below, above in splits)
    # a fork pair needs n >= 2, so past the limit's bit length the power
    # is over the limit already: capping it keeps the decision in bounded time
    limit = PATH_TUPLE_LIMIT
    if n ** min(k - 3, limit.bit_length()) * forks > limit:
        raise ResourceLimitError(
            f"all users: {forks} forks x n^{k - 3} tuples exceeds {limit}; shrink n or k"
        )
    if (k - 4) * n * n > limit:  # the walk sum's k - 4 matrix-vector products
        raise ResourceLimitError(
            f"the walk sum: (k - 4) x n^2 = {(k - 4) * n * n} cells exceeds {limit}; "
            f"shrink n or k"
        )
    walk_sum = server_walk_sum(stage.obf, k)
    scratch = _k5_scratch(n) if k == 5 else None
    per_user = np.array(
        [
            user_cycle_estimate(i, row, stage.obf, k, scratch=scratch)
            for i, row in enumerate(stage.projected)
        ]
    )
    if budget.eps2 != INF:  # at eps2=inf the count noise is the identity
        u = [raw_uniforms(substream(stage.seed, stage.trial, STAGE_COUNT, i)) for i in range(n)]
        per_user = user_cycle_noise(
            per_user, stage.clipped_degrees, walk_sum, budget.eps1, budget.eps2, u
        )
    return stage.report(per_user, mode, k=k, walk_sum=walk_sum)
