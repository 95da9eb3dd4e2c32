import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcount import (
    Graph,
    NodeOrdering,
    ValidationError,
    apply_ordering,
    gen_ba,
    gen_er,
    get_ordering,
    graph_stats,
    relabel,
    star_graph,
    substream,
)
from ldpcount.oracles import count_low2stars, count_triangles

INF = math.inf


def _graph_with_degrees_3_1_2() -> Graph:
    # degrees: node0=3, node1=1, node2=2 on 5 nodes
    return Graph.from_edges(5, [(0, 1), (0, 3), (0, 4), (2, 3), (2, 4)])


def test_exact_mode_ranks_by_degree():
    g = _graph_with_degrees_3_1_2()
    o = get_ordering(g, INF)
    assert o.phi[0] == 0  # largest degree gets rank 0
    assert o.phi[2] < o.phi[1]
    assert list(o.noisy_degrees) == [3.0, 1.0, 2.0, 2.0, 2.0]
    # ties among nodes 2, 3, 4 (all degree 2) break by node id
    assert o.phi[2] < o.phi[3] < o.phi[4]


def test_exact_mode_equal_degrees_gives_identity():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    o = get_ordering(g, INF)
    assert list(o.phi) == [0, 1, 2, 3]


def test_rejects_nonpositive_eps0():
    g = star_graph(4)
    with pytest.raises(ValidationError):
        get_ordering(g, 0.0, substream(0).random(g.n))
    with pytest.raises(ValidationError):
        get_ordering(g, -1.0, substream(0).random(g.n))
    with pytest.raises(ValidationError):
        get_ordering(g, 1.0, None)


def test_per_user_generator_list():
    g = gen_er(10, 0.3, seed=2)
    u = np.array([substream(3, 0, 0, i).random() for i in range(10)])
    a = get_ordering(g, 1.0, u)
    b = get_ordering(g, 1.0, [substream(3, 0, 0, i).random() for i in range(10)])
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.noisy_degrees, b.noisy_degrees)
    with pytest.raises(ValidationError):
        get_ordering(g, 1.0, u[:5])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 20), seed=st.integers(0, 10**6))
def test_phi_is_always_a_permutation(n, seed):
    g = gen_er(n, 0.3, seed)
    o = get_ordering(g, 0.7, substream(seed, "phi").random(n))
    assert sorted(o.phi) == list(range(n))


def test_exact_mode_new_ids_have_monotone_degrees():
    g = gen_er(30, 0.25, seed=6)
    h = apply_ordering(g, get_ordering(g, INF))
    d = h.degrees
    assert all(d[i] >= d[i + 1] for i in range(g.n - 1))


def test_apply_ordering_star_center_becomes_zero():
    g = relabel(star_graph(6), [3, 0, 1, 2, 4, 5])  # center is node 3
    o = get_ordering(g, INF)
    h = apply_ordering(g, o)
    assert h.degrees[0] == 5
    assert count_triangles(h) == count_triangles(g)


def test_apply_ordering_size_mismatch():
    g = star_graph(4)
    o = get_ordering(star_graph(5), INF)
    with pytest.raises(ValidationError):
        apply_ordering(g, o)


def test_ordering_rejects_non_integer_phi():
    # an int64 cast once made [1.7, 0.2, 2.9] the permutation [1, 0, 2]
    degrees = np.array([1.0, 2.0, 0.5])
    with pytest.raises(ValidationError, match="must be integers"):
        NodeOrdering(phi=np.array([1.7, 0.2, 2.9]), noisy_degrees=degrees, eps0=1.0)
    o = NodeOrdering(phi=np.array([1, 0, 2]), noisy_degrees=degrees, eps0=1.0)
    assert o.phi.tolist() == [1, 0, 2]


def test_ordering_rejects_noisy_degrees_of_the_wrong_length():
    # both used to be accepted, with n taken from phi alone
    with pytest.raises(ValidationError, match="need 3 noisy degrees"):
        NodeOrdering(phi=np.array([1, 0, 2]), noisy_degrees=np.ones(1), eps0=1.0)
    with pytest.raises(ValidationError, match="need 2 noisy degrees"):
        NodeOrdering(phi=np.array([1, 0]), noisy_degrees=np.ones(3), eps0=1.0)
    with pytest.raises(ValidationError, match="need 2 noisy degrees"):
        NodeOrdering(phi=np.array([1, 0]), noisy_degrees=np.ones((2, 1)), eps0=1.0)
    assert NodeOrdering(phi=np.array([1, 0]), noisy_degrees=np.ones(2), eps0=1.0).n == 2


def test_degree_deviation_bound_small_scale():
    # P(any |noisy - true| >= ln(n/zeta)/eps0) <= zeta, small-sample version
    g = gen_er(50, 0.1, seed=3)
    eps0, zeta, runs = 1.0, 0.2, 1500
    thr = math.log(g.n / zeta) / eps0
    fails = 0
    for r in range(runs):
        o = get_ordering(g, eps0, substream(17, "dev", r).random(g.n))
        if np.max(np.abs(o.noisy_degrees - g.degrees)) >= thr:
            fails += 1
    frac = fails / runs
    assert frac <= zeta + 3 * math.sqrt(zeta * (1 - zeta) / runs)


def test_noisy_degree_expected_low2star_bound():
    # mean over orderings of the low-2-star count stays within
    # chiba_sum + m/eps0 plus Monte-Carlo allowance
    g = gen_ba(500, 3, seed=11)
    s = graph_stats(g)
    eps0, runs = 1.0, 200
    vals = np.empty(runs)
    for r in range(runs):
        o = get_ordering(g, eps0, substream(23, "s2", r).random(g.n))
        vals[r] = count_low2stars(apply_ordering(g, o))
    stderr = vals.std(ddof=1) / math.sqrt(runs)
    assert vals.mean() <= s.chiba_sum + s.m / eps0 + 3 * stderr


def test_low_degree_ordering_beats_random_on_average():
    # measured, not asserted per instance: the noisy-degree ordering yields
    # fewer low 2-stars than uniformly random permutations on average
    g = gen_ba(300, 3, seed=2)
    runs = 80
    ours = np.empty(runs)
    rand = np.empty(runs)
    rng = substream(31, "perm")
    for r in range(runs):
        o = get_ordering(g, 1.0, substream(31, "ord", r).random(g.n))
        ours[r] = count_low2stars(apply_ordering(g, o))
        rand[r] = count_low2stars(relabel(g, rng.permutation(g.n)))
    print(f"low2stars mean: ordered {ours.mean():.1f} vs random {rand.mean():.1f}")
    assert ours.mean() < rand.mean()
