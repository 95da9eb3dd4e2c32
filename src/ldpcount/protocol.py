"""The protocol's shared front half and its report type.

Every estimator runs the same ordering query, randomized response, degree
clipping and projection; only the per-user sums and their noise scale differ.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .documents import Document
from .errors import ValidationError
from .graphs import Graph, require_integer
from .mechanisms import (
    INF,
    STAGE_DEGREE,
    STAGE_RR,
    ObfuscatedGraph,
    PrivacyBudget,
    assemble_obfuscated,
    project_mu,
    raw_uniforms,
    require_dense_bytes,
    substream,
)
from .ordering import apply_ordering, get_ordering

MODES = ("noisy", "no-noise")


def resolve_mode(mode: str, budget: PrivacyBudget | None) -> PrivacyBudget:
    """The budget a run spends: the given one; no-noise makes every eps infinite."""
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "noisy":
        if budget is None:
            raise ValidationError("a PrivacyBudget is required in noisy mode")
        return budget
    return PrivacyBudget(eps0=INF, eps1=INF, eps2=INF, zeta=1.0)


def clipped_degree(noisy_degree, eps0: float, n: int, zeta: float):
    """Noisy degree shifted up by ln(n/zeta)/eps0 so it rarely undershoots.

    Takes a scalar or an array; at eps0=inf the shift is 0.  Real-valued
    on purpose: callers floor and clamp when they need an integer cap.
    """
    if n / zeta == math.inf:
        raise ValidationError(f"zeta={zeta} is too small for n={n}: n/zeta overflows float64")
    return noisy_degree + math.log(n / zeta) / eps0


def split_forks(row: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a sorted neighbor row into partners below and above rank i."""
    cut = bisect_left(row, i)  # on a short row, faster than np.searchsorted
    return row[:cut], row[cut:]


@dataclass(frozen=True)
class EstimateReport(Document):
    """Outcome of one protocol run, JSON-serializable.

    ``estimate`` always equals the sum of ``per_user``.  ``clipped_users``
    counts users whose floored clipped degree fell below their true degree.
    Cycle runs additionally carry ``k`` and the server walk sum.
    """

    estimate: float
    per_user: tuple[float, ...]
    budget: PrivacyBudget | None
    seed: int
    clipped_users: int
    mode: str
    k: int | None = None
    walk_sum: float | None = None


@dataclass(frozen=True)
class OrderedStage:
    """Everything both estimators need after the first two queries."""

    budget: PrivacyBudget
    seed: int
    trial: int
    reordered: Graph  # relabelled by rank
    clipped_degrees: np.ndarray  # real-valued, per rank
    projected: tuple[np.ndarray, ...]  # per rank: intp views
    clipped_users: int

    @cached_property
    def obf(self) -> ObfuscatedGraph:
        """The RR release, built on first read: after any guard priced from the projection."""
        streams = partial(substream, self.seed, self.trial, STAGE_RR)
        return assemble_obfuscated(self.reordered, self.budget.eps1, streams)

    def report(self, per_user, mode, **cycle_fields) -> EstimateReport:
        """The run's report over its per-user sums; no-noise runs carry no budget."""
        return EstimateReport(
            estimate=float(per_user.sum()),
            per_user=tuple(float(x) for x in per_user),
            budget=self.budget if mode == "noisy" else None,
            seed=self.seed,
            clipped_users=self.clipped_users,
            mode=mode,
            **cycle_fields,
        )


def run_ordered_stage(
    graph: Graph, budget: PrivacyBudget, seed: int, trial: int
) -> OrderedStage:
    """Ordering query, degree clipping and projection; RR when ``obf`` is read.

    User i's draws come from substreams keyed (seed, trial, stage, i), so
    users could run concurrently and any schedule reproduces the same
    output: the first uniform of its degree stream, the first i raw words
    of its RR stream.  No stream is built for a mechanism at eps=inf.
    ``seed`` and ``trial`` follow the integer rule and are kept as ``int``.
    """
    seed, trial = require_integer(seed, "seed"), require_integer(trial, "trial")
    n = graph.n
    if n == 0:
        raise ValidationError("the graph has 0 nodes; the protocol needs at least one")
    require_dense_bytes(n, 9)  # the release it hands out: bits 1, unbiased 8
    u = None
    if budget.eps0 != INF:
        u = np.array(
            [raw_uniforms(substream(seed, trial, STAGE_DEGREE, i)) for i in range(n)]
        )
    ordering = get_ordering(graph, budget.eps0, u)
    reordered = apply_ordering(graph, ordering)
    noisy_by_rank = np.empty(n, dtype=np.float64)
    noisy_by_rank[ordering.phi] = ordering.noisy_degrees
    d_hat = clipped_degree(noisy_by_rank, budget.eps0, n, budget.zeta)
    floors = np.floor(d_hat)
    indices = reordered.indices.astype(np.intp)  # fork sums index intp fastest
    ends = reordered.indptr.tolist()
    rows = (indices[a:b] for a, b in zip(ends, ends[1:]))
    return OrderedStage(
        budget=budget,
        seed=seed,
        trial=trial,
        reordered=reordered,
        clipped_degrees=d_hat,
        projected=tuple(map(project_mu, rows, floors.tolist())),
        clipped_users=int(np.sum(floors < reordered.degrees)),
    )
