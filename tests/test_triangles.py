import math

import numpy as np
import pytest

from ldpcount import (
    Graph,
    PrivacyBudget,
    ValidationError,
    clipped_degree,
    complete_graph,
    cycle_graph,
    estimate_triangles,
    gen_er,
    petersen_graph,
    star_graph,
    substream,
    user_triangle_estimate,
    user_triangle_noise,
)
from ldpcount.experiments import make_graph
from ldpcount.mechanisms import assemble_obfuscated, derive_seed
from ldpcount.oracles import count_triangles
from ldpcount.protocol import resolve_mode, run_ordered_stage

from _brute import _fork_sum_ix

INF = math.inf


def test_clipped_degree_examples():
    assert clipped_degree(5.0, 1.0, 3, 3 / math.e) == pytest.approx(6.0, abs=1e-12)
    assert clipped_degree(4.2, 1.0, 50, 50) == 4.2  # degenerate zeta=n: ln 1 = 0
    assert clipped_degree(3.0, 0.5, 100, 0.1) == pytest.approx(3.0 + 2 * math.log(1000))
    assert clipped_degree(3.0, INF, 100, 0.1) == 3.0


@pytest.mark.parametrize("eps0", [1.0, INF])
def test_clipped_degree_rejects_an_overflowing_n_over_zeta(eps0):
    with pytest.raises(ValidationError, match=r"zeta=1e-320 .* n=60"):
        clipped_degree(3.0, eps0, 60, 1e-320)
    assert math.isfinite(clipped_degree(3.0, eps0, 60, 1e-300))


@pytest.mark.parametrize("eps0", [0.5, INF])
def test_clipped_degree_of_an_array_matches_scalars(eps0):
    noisy = np.array([-1.5, 0.0, 3.25, 7.0])
    got = clipped_degree(noisy, eps0, 40, 0.05)
    assert got.tolist() == [clipped_degree(float(d), eps0, 40, 0.05) for d in noisy]


def test_resolve_mode_returns_the_budget_the_run_spends():
    budget = PrivacyBudget(eps0=0.5, eps1=1.0, eps2=1.0, zeta=0.05)
    assert resolve_mode("noisy", budget) is budget
    unlimited = PrivacyBudget(eps0=INF, eps1=INF, eps2=INF, zeta=1.0)
    assert resolve_mode("no-noise", None) == unlimited
    assert resolve_mode("no-noise", budget) == unlimited
    with pytest.raises(ValidationError, match="mode must be one of"):
        resolve_mode("bogus", budget)
    with pytest.raises(ValidationError, match="required in noisy mode"):
        resolve_mode("noisy", None)


def test_fork_sums_on_triangle():
    tri = complete_graph(3)
    obf = assemble_obfuscated(tri, INF)
    assert user_triangle_estimate(0, tri.row(0), obf) == 0.0
    assert user_triangle_estimate(1, tri.row(1), obf) == 1.0
    assert user_triangle_estimate(2, tri.row(2), obf) == 0.0


def test_fork_sums_on_star_all_zero():
    g = star_graph(5)
    obf = assemble_obfuscated(g, INF)
    assert all(user_triangle_estimate(i, g.row(i), obf) == 0.0 for i in range(5))


def test_fork_sums_on_k4_total_is_triangle_count():
    k4 = complete_graph(4)
    obf = assemble_obfuscated(k4, INF)
    total = sum(user_triangle_estimate(i, k4.row(i), obf) for i in range(4))
    assert total == 4.0


def test_user_noise_identity_without_budget_pressure():
    assert user_triangle_noise(2.5, 4.0, INF, INF) == 2.5
    # non-positive clipped degree means zero scale, exactly zero noise
    assert user_triangle_noise(0.0, -3.0, 1.0, 1.0) == 0.0


def test_user_noise_scale_formula():
    # span((ln 3)) = 2, so the scale is 3 * 2 * d_hat / eps2 = 12 for d_hat=2
    eps1, eps2, d_hat = math.log(3), 1.0, 2.0
    scale = 3.0 * 2.0 * d_hat / eps2
    draws = np.array(
        [
            user_triangle_noise(0.0, d_hat, eps1, eps2, substream(5, "n", i).random())
            for i in range(10**5)
        ]
    )
    assert abs(draws.var() / (2 * scale**2) - 1.0) < 0.05


def test_no_noise_exactness_random_graphs():
    for idx in range(15):
        g = gen_er(5 + 1 * idx, 0.25, seed=idx)
        r = estimate_triangles(g, None, seed=idx, mode="no-noise")
        assert r.estimate == count_triangles(g)
        assert r.clipped_users == 0
        assert r.estimate == sum(r.per_user)


def test_no_noise_exactness_named_graphs():
    for g in (complete_graph(4), cycle_graph(5), petersen_graph()):
        r = estimate_triangles(g, None, seed=1, mode="no-noise")
        assert r.estimate == count_triangles(g)


def test_empty_graph_estimates_zero():
    g = Graph.from_edges(6, [])
    assert estimate_triangles(g, None, seed=0, mode="no-noise").estimate == 0.0
    b = PrivacyBudget(0.5, 1.0, 1.0, 0.1)
    r = estimate_triangles(g, b, seed=0)
    assert np.isfinite(r.estimate)


def test_rejects_empty_vertex_set_and_bad_mode():
    with pytest.raises(ValidationError):
        estimate_triangles(Graph.from_edges(0, []), None, 0, "no-noise")
    with pytest.raises(ValidationError):
        estimate_triangles(complete_graph(3), None, 0, "loud")
    with pytest.raises(ValidationError):
        estimate_triangles(complete_graph(3), None, 0, "noisy")  # budget required


def test_determinism_and_trial_sensitivity():
    g = gen_er(20, 0.2, seed=4)
    b = PrivacyBudget(0.5, 1.0, 1.0, 0.05)
    a = estimate_triangles(g, b, seed=9, trial=3)
    bb = estimate_triangles(g, b, seed=9, trial=3)
    c = estimate_triangles(g, b, seed=9, trial=4)
    assert a == bb
    assert a.estimate != c.estimate


def test_unbiased_conditional_on_no_clipping():
    g = gen_er(30, 0.15, seed=5)
    exact = count_triangles(g)
    b = PrivacyBudget(1.0, 1.5, 1.5, 0.2)
    kept = []
    for t in range(500):
        r = estimate_triangles(g, b, seed=77, trial=t)
        if r.clipped_users == 0:
            kept.append(r.estimate)
    kept = np.array(kept)
    assert len(kept) > 300
    stderr = kept.std(ddof=1) / math.sqrt(len(kept))
    assert abs(kept.mean() - exact) <= 3 * stderr


def test_clipping_bias_stays_within_corollary_envelope():
    # With aggressive zeta the clipping bias must stay within 10x the
    # analytic zeta/(eps0 n) * exact envelope; eps2 is inf so trial noise
    # comes only from randomized response and the MC allowance stays small.
    g = gen_er(40, 0.3, seed=8)
    exact = count_triangles(g)
    zeta, eps0 = 0.5, 0.5
    b = PrivacyBudget(eps0, 2.0, INF, zeta)
    ests = np.array(
        [estimate_triangles(g, b, seed=13, trial=t).estimate for t in range(500)]
    )
    stderr = ests.std(ddof=1) / math.sqrt(len(ests))
    envelope = 10.0 * (zeta / (eps0 * g.n)) * exact
    measured = abs(ests.mean() - exact)
    print(f"clipping bias: measured {measured:.2f}, envelope {envelope:.2f}")
    assert measured <= envelope + 3 * stderr


@pytest.mark.parametrize("spec", ["ba:300:3", "er:600:0.02"])
@pytest.mark.parametrize(
    "budget", [PrivacyBudget(0.5, 1.0, 1.0, 0.05), PrivacyBudget(INF, INF, INF, 1.0)]
)
def test_fork_sums_match_the_ix_block_bit_for_bit(spec, budget):
    stage = run_ordered_stage(make_graph(spec, derive_seed(0, "graph")), budget, 9, 0)
    unbiased = stage.obf.unbiased
    for i, row in enumerate(stage.projected):
        got = user_triangle_estimate(i, row, stage.obf)
        assert got.hex() == _fork_sum_ix(i, row, unbiased).hex(), i
