"""Unbiasedness and randomized-response variance, by exact enumeration.

On a graph of n nodes there are 2^C(n,2) randomized-response (RR) outcomes.
With the ordering and projection fixed (eps0 = inf and zeta = 1, so no user
is clipped), the expectation of an estimate over RR is a finite sum: every
outcome, weighted by its probability, through the production per-user sums.
Unbiasedness is then an equality to rounding, with no statistical slack.
Past n = 6 the outcomes are too many, and each user's sum is checked
instead to be affine in every single unbiased entry.
"""

import math
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest

from ldpcount import (
    PrivacyBudget,
    make_graph,
    unbias_variance,
    user_cycle_estimate,
    user_triangle_estimate,
)
from ldpcount.mechanisms import ObfuscatedGraph, rr_keep_probability
from ldpcount.oracles import count_cycles, count_triangles
from ldpcount.protocol import run_ordered_stage

INF = math.inf

# At graph seed 3, er:5:0.7 holds 4 triangles and 4 five-cycles, and
# er:6:0.6 holds 9 and 20 over its 2^15 RR outcomes.
GRAPHS = {"er:5:0.7": make_graph("er:5:0.7", 3), "er:6:0.6": make_graph("er:6:0.6", 3)}
EXACT = {"er:5:0.7": {"triangles": 4, "c5": 4}, "er:6:0.6": {"triangles": 9, "c5": 20}}
CASES = [("er:5:0.7", 0.5), ("er:5:0.7", 2.0), ("er:6:0.6", 0.5)]
CASE_IDS = ["0.5", "2.0", "n6-0.5"]


def rr_moments(graph, eps1: float, user_sum) -> tuple[float, float]:
    """Mean and variance over every RR outcome of sum_i user_sum(i, row, obf).

    The ordering and the projection are those of eps0 = inf and zeta = 1, so
    every projected row is the user's whole row in rank order.
    """
    stage = run_ordered_stage(graph, PrivacyBudget(INF, INF, INF, 1.0), 0, 0)
    truth = stage.obf.bits
    assert [len(row) for row in stage.projected] == truth.sum(1).tolist()  # unclipped
    pairs = list(combinations(range(graph.n), 2))
    keep = rr_keep_probability(eps1)
    mean = second = 0.0
    for outcome in product((0, 1), repeat=len(pairs)):
        bits = np.zeros((graph.n, graph.n), dtype=np.uint8)
        prob = 1.0
        for (j, k), bit in zip(pairs, outcome):
            bits[j, k] = bits[k, j] = bit
            prob *= keep if bit == truth[j, k] else 1.0 - keep
        obf = ObfuscatedGraph(bits, eps1)
        total = sum(user_sum(i, row, obf) for i, row in enumerate(stage.projected))
        mean += prob * total
        second += prob * total * total
    return mean, second - mean * mean


TASKS = {
    "triangles": (user_triangle_estimate, count_triangles),
    "c5": (
        lambda i, row, obf: user_cycle_estimate(i, row, obf, 5),
        lambda g: count_cycles(g, 5),
    ),
}


@pytest.mark.parametrize("spec, eps1", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("task", sorted(TASKS))
def test_expectation_over_every_rr_outcome_is_the_exact_count(task, spec, eps1):
    user_sum, oracle = TASKS[task]
    graph = GRAPHS[spec]
    exact = oracle(graph)
    assert exact == EXACT[spec][task]
    mean, _ = rr_moments(graph, eps1, user_sum)
    assert mean == pytest.approx(exact, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("spec, eps1", CASES, ids=CASE_IDS)
def test_triangle_rr_variance_is_the_sum_of_squared_fork_counts(spec, eps1):
    # The triangle estimate is linear in independent unbiased entries: entry
    # (j, k) enters once per user i with j < i < k in its row, so the
    # variance is sum c_jk^2 * unbias_variance(eps1) over those counts c_jk.
    graph = GRAPHS[spec]
    stage = run_ordered_stage(graph, PrivacyBudget(INF, INF, INF, 1.0), 0, 0)
    counts = np.zeros((graph.n, graph.n))
    for i, row in enumerate(stage.projected):
        below, above = row[row < i], row[row > i]
        counts[np.ix_(below, above)] += 1
    predicted = float((counts**2).sum()) * unbias_variance(eps1)
    _, variance = rr_moments(graph, eps1, user_triangle_estimate)
    assert variance == pytest.approx(predicted, rel=1e-9)


# At graph seed 1, er:8:0.5 holds 6 triangles, 19 five-cycles and 26
# seven-cycles; C7 needs n >= 7, and 2^28 RR outcomes are too many to sum.
AFFINE_GRAPH = make_graph("er:8:0.5", 1)
USER_SUMS = {
    3: user_triangle_estimate,
    5: lambda i, row, obf: user_cycle_estimate(i, row, obf, 5),
    7: lambda i, row, obf: user_cycle_estimate(i, row, obf, 7),
}


@pytest.mark.parametrize("k", sorted(USER_SUMS))
def test_each_user_sum_is_affine_in_every_single_unbiased_entry(k):
    # Hold Â at random values and set one pair's entry to three equally
    # spaced values: each user's sum has a zero second difference.  Every
    # product then takes each entry at most once, so with independent
    # unbiased entries and no-noise exactness, E = count.
    graph = AFFINE_GRAPH
    exact = {3: count_triangles(graph), 5: count_cycles(graph, 5), 7: count_cycles(graph, 7)}
    assert exact == {3: 6, 5: 19, 7: 26}
    stage = run_ordered_stage(graph, PrivacyBudget(INF, INF, INF, 1.0), 0, 0)
    assert [len(row) for row in stage.projected] == stage.obf.bits.sum(1).tolist()
    held = np.triu(np.random.default_rng(k).normal(size=(graph.n, graph.n)), 1)
    held += held.T
    user_sum, moved = USER_SUMS[k], 0
    for j, l in combinations(range(graph.n), 2):
        sums = []
        for value in (-1.5, 0.25, 2.0):
            ahat = held.copy()
            ahat[j, l] = ahat[l, j] = value
            obf = SimpleNamespace(unbiased=ahat)  # the user sums read Â alone
            sums.append([user_sum(i, row, obf) for i, row in enumerate(stage.projected)])
        f0, f1, f2 = np.array(sums)
        scale = np.abs(f0) + 2 * np.abs(f1) + np.abs(f2)
        assert np.all(np.abs(f0 - 2 * f1 + f2) <= 1e-12 * scale), (j, l)
        moved += np.count_nonzero(f0 != f2)
    assert moved >= exact[k]  # a counted cycle moves its user's sum with its fork entry
