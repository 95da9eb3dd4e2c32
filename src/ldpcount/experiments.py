"""Monte-Carlo harness, bound measurements, scaling studies, serialization.

Trials are independent given (master seed, trial index), so they can run on
any number of threads; aggregation keeps trial order and the outputs are
byte-identical for a fixed configuration.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .cycles import estimate_odd_cycles, require_odd_k
from .documents import Document
from .errors import ValidationError
from .graphs import (
    Graph,
    gen_ba,
    gen_er,
    gen_ktree,
    graph_stats,
    load_edge_list,
    require_integer,
)
from .mechanisms import (
    CORES,
    PrivacyBudget,
    derive_seed,
    raw_uniforms,
    require_eps,
    substream,
)
from .oracles import count_cycles, count_low2stars, count_monotone_cycles, count_triangles
from .ordering import apply_ordering, get_ordering
from .protocol import EstimateReport, resolve_mode
from .triangles import estimate_triangles

TASKS = ("triangles", "cycles")
SUMMARY_COLUMNS = ("exact", "mean", "rmse", "bias", "stderr", "clipped_fraction")


def make_graph(spec: str, seed: int) -> Graph:
    """Build a graph from a generator spec: er:<n>:<p> | ba:<n>:<m0> | ktree:<n>:<k>."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"generator spec must have 3 fields, got {spec!r}")
    kind, a, b = parts
    try:
        if kind == "er":
            return gen_er(int(a), float(b), seed)
        if kind == "ba":
            return gen_ba(int(a), int(b), seed)
        if kind == "ktree":
            return gen_ktree(int(a), int(b), seed)
    except ValueError as exc:
        raise ValidationError(f"bad generator spec {spec!r}: {exc}") from None
    raise ValidationError(f"unknown generator kind {kind!r} in {spec!r}")


def load_graph(graph_path: str | None, gen: str | None, seed: int) -> Graph:
    """The edge list at ``graph_path``, else ``gen`` built from the graph seed of ``seed``."""
    if graph_path is not None:
        with open(graph_path, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    return make_graph(gen, derive_seed(seed, "graph"))


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte-Carlo run: graph source, task, budget, trial count."""

    task: str
    trials: int
    seed: int
    mode: str = "noisy"
    graph_path: str | None = None
    gen: str | None = None
    k: int | None = None
    budget: PrivacyBudget | None = None
    threads: int = 1
    keep_estimates: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValidationError(f"task must be one of {TASKS}, got {self.task!r}")
        require_integer(self.seed, "seed")
        if require_integer(self.trials, "trials") < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if (self.graph_path is None) == (self.gen is None):
            raise ValidationError("exactly one of graph_path or gen is required")
        if self.task == "cycles":
            if self.k is None:
                raise ValidationError("cycle experiments need k")
            require_odd_k(self.k)
        elif self.k is not None:
            raise ValidationError(f"k applies only to the cycles task, got k={self.k}")
        resolve_mode(self.mode, self.budget)
        if require_integer(self.threads, "threads") < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class TrialSummary(Document):
    """Summary statistics of repeated estimates against the exact count.

    ``rmse`` is the empirical l2-error; ``clipped_fraction`` is the share of
    trials in which at least one user was clipped.
    """

    exact: float
    mean: float
    rmse: float
    bias: float
    stderr: float
    clipped_fraction: float
    estimates: tuple[float, ...] | None = None

    def csv_row(self) -> str:
        return ",".join(repr(getattr(self, c)) for c in SUMMARY_COLUMNS)

    def to_csv(self) -> str:
        return ",".join(SUMMARY_COLUMNS) + "\n" + self.csv_row() + "\n"


def standard_error(x: np.ndarray) -> float:
    """std(ddof=1) / sqrt(len(x)), the standard error of the mean; 0 for one sample."""
    t = len(x)
    return float(x.std(ddof=1) / math.sqrt(t)) if t > 1 else 0.0


def summarize(exact: float, reports: list[EstimateReport]) -> TrialSummary:
    estimates = np.array([r.estimate for r in reports], dtype=np.float64)
    mean = float(estimates.mean())
    rmse = float(np.sqrt(np.mean((estimates - exact) ** 2)))
    clipped = float(np.mean([r.clipped_users > 0 for r in reports]))
    return TrialSummary(
        exact=float(exact),
        mean=mean,
        rmse=rmse,
        bias=mean - float(exact),
        stderr=standard_error(estimates),
        clipped_fraction=clipped,
    )


def run_trials(config: ExperimentConfig) -> TrialSummary:
    """Exact count once, then independent estimation trials, then summary."""
    graph = load_graph(config.graph_path, config.gen, config.seed)
    if config.task == "triangles":
        exact = count_triangles(graph)
        run: Callable[[int], EstimateReport] = lambda t: estimate_triangles(
            graph, config.budget, config.seed, config.mode, trial=t
        )
    else:
        exact = count_cycles(graph, config.k)
        run = lambda t: estimate_odd_cycles(
            graph, config.k, config.budget, config.seed, config.mode, trial=t
        )
    # each running trial holds its own dense release, so no more run at once
    # than there are trials or cores to run them
    workers = min(config.threads, config.trials, CORES)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run, range(config.trials)))
    else:
        reports = [run(t) for t in range(config.trials)]
    summary = summarize(exact, reports)
    if config.keep_estimates:
        summary = replace(
            summary, estimates=tuple(r.estimate for r in reports)
        )
    return summary


@dataclass(frozen=True)
class BoundReport(Document):
    """Measured ordered-structure counts against their analytic envelopes.

    The two ratio fields divide the measured means by degeneracy^2 * n and
    degeneracy^3 * n; they are reported, never asserted, because the
    analytic constants are asymptotic.
    """

    n: int
    m: int
    d_max: int
    degeneracy: int
    chiba_sum: int
    eps0: float
    orderings: int
    mean_low2stars: float
    stderr_low2stars: float
    mean_monotone_c4: float
    stderr_monotone_c4: float
    low2star_ratio: float
    monotone_c4_ratio: float
    low2star_bound_rhs: float  # chiba_sum + m / eps0
    chiba_bound_ok: bool  # chiba_sum <= 2 * m * degeneracy (provable form)
    chiba_within_m_delta: bool  # chiba_sum <= m * degeneracy (often false; reported)
    edge_count_ok: bool  # m <= degeneracy * n


def require_orderings(orderings, eps0: float) -> int:
    """``orderings`` as an ``int``, once it and ``eps0`` pass ``verify_bounds``' rules."""
    require_eps("eps0", eps0)
    if require_integer(orderings, "orderings") < 1:
        raise ValidationError(f"orderings must be >= 1, got {orderings}")
    return int(orderings)


def verify_bounds(graph: Graph, orderings: int, eps0: float, seed: int) -> BoundReport:
    """Measure low-2-star and monotone-4-cycle counts over repeated orderings.

    The provable deterministic inequalities (chiba_sum <= 2*m*degeneracy,
    m <= degeneracy*n) are checked outright; failure would mean a counting
    bug.  The tighter chiba_sum <= m*degeneracy variant does not hold in
    general and is only reported.
    """
    orderings = require_orderings(orderings, eps0)
    seed = require_integer(seed, "seed")
    stats = graph_stats(graph)
    chiba_ok = stats.chiba_sum <= 2 * stats.m * stats.degeneracy
    edge_ok = stats.m <= stats.degeneracy * stats.n
    if not (chiba_ok and edge_ok):
        raise ValidationError(
            "deterministic degeneracy bounds violated; counting bug"
        )
    # At eps0=inf every ordering ranks the exact degrees, so one stands for all,
    # with their mean and a standard error of 0, and, by the stream rule, it
    # draws from no stream.
    rounds = orderings if eps0 != math.inf else 1
    s2 = np.empty(rounds, dtype=np.float64)
    c4 = np.empty(rounds, dtype=np.float64)
    for r in range(rounds):
        u = None if eps0 == math.inf else raw_uniforms(substream(seed, "ordering", r), graph.n)
        reordered = apply_ordering(graph, get_ordering(graph, eps0, u))
        s2[r] = count_low2stars(reordered)
        c4[r] = count_monotone_cycles(reordered, 4)
    delta = max(stats.degeneracy, 1)
    return BoundReport(
        n=stats.n,
        m=stats.m,
        d_max=stats.d_max,
        degeneracy=stats.degeneracy,
        chiba_sum=stats.chiba_sum,
        eps0=eps0,
        orderings=orderings,
        mean_low2stars=float(s2.mean()),
        stderr_low2stars=standard_error(s2),
        mean_monotone_c4=float(c4.mean()),
        stderr_monotone_c4=standard_error(c4),
        low2star_ratio=float(s2.mean() / (delta**2 * max(stats.n, 1))),
        monotone_c4_ratio=float(c4.mean() / (delta**3 * max(stats.n, 1))),
        low2star_bound_rhs=stats.chiba_sum + stats.m / eps0,
        chiba_bound_ok=chiba_ok,
        chiba_within_m_delta=stats.chiba_sum <= stats.m * stats.degeneracy,
        edge_count_ok=edge_ok,
    )


@dataclass(frozen=True)
class ScalingReport(Document):
    """Per-size error summaries plus the fitted log-log slope of the RMSE."""

    task: str
    gen_template: str
    sizes: tuple[int, ...]
    summaries: tuple[TrialSummary, ...]
    slope: float | None  # None when any RMSE is exactly zero: log 0 has no fit

    def to_csv(self) -> str:
        rows = (f"{n},{s.csv_row()}\n" for n, s in zip(self.sizes, self.summaries))
        return "n," + ",".join(SUMMARY_COLUMNS) + "\n" + "".join(rows)


def error_scaling(config: ExperimentConfig, sizes) -> ScalingReport:
    """RMSE at each size plus a least-squares slope of log RMSE vs log n.

    ``config.gen`` is a template with an ``{n}`` placeholder, e.g.
    ``ba:{n}:3``.  Size number idx runs ``config`` with ``{n}`` replaced by
    the size and the seed derived from (config.seed, "size", idx).  The
    slope is None when any size's RMSE is exactly zero (always so in
    no-noise mode), since log 0 has no fit.
    """
    sizes = tuple(require_integer(n, "size") for n in sizes)
    if len(sizes) < 3 or list(sizes) != sorted(set(sizes)):
        raise ValidationError("need at least 3 strictly ascending sizes")
    if "{n}" not in (config.gen or ""):
        raise ValidationError("generator template must contain '{n}'")
    summaries = [
        run_trials(replace(
            config,
            seed=derive_seed(config.seed, "size", idx),
            gen=config.gen.replace("{n}", str(n)),
        ))
        for idx, n in enumerate(sizes)
    ]
    rmses = np.array([s.rmse for s in summaries], dtype=np.float64)
    if np.all(rmses > 0):
        slope = float(
            np.polyfit(np.log(np.asarray(sizes, dtype=np.float64)), np.log(rmses), 1)[0]
        )
    else:
        slope = None
    return ScalingReport(
        task=config.task,
        gen_template=config.gen,
        sizes=sizes,
        summaries=tuple(summaries),
        slope=slope,
    )
