import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ldpcount import (
    ExperimentConfig,
    PrivacyBudget,
    ValidationError,
    complete_graph,
    cycle_graph,
    derive_seed,
    error_scaling,
    estimate_odd_cycles,
    estimate_triangles,
    gen_ba,
    make_graph,
    run_trials,
    verify_bounds,
)
from ldpcount import cycles, experiments, mechanisms, protocol, triangles
from ldpcount.graphs import gen_ktree, path_graph, petersen_graph
from ldpcount.oracles import count_low2stars
from ldpcount.protocol import run_ordered_stage

INF = math.inf

BUDGET = PrivacyBudget(0.5, 1.0, 1.0, 0.05)


def test_make_graph_grammar():
    assert make_graph("er:30:0.2", 1).n == 30
    assert make_graph("ba:40:3", 1).m == 3 * 36 + 3
    assert make_graph("ktree:10:2", 1).n == 10
    for bad in ("er:30", "zz:1:2", "ba:x:3", "er:10:0.2:9"):
        with pytest.raises(ValidationError):
            make_graph(bad, 1)


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(task="nope", trials=5, seed=0, gen="er:5:0.2")
    with pytest.raises(ValidationError):
        ExperimentConfig(task="triangles", trials=0, seed=0, gen="er:5:0.2", budget=BUDGET)
    with pytest.raises(ValidationError):
        ExperimentConfig(task="triangles", trials=1, seed=0)  # no source
    with pytest.raises(ValidationError):
        ExperimentConfig(task="cycles", trials=1, seed=0, gen="er:5:0.2", budget=BUDGET)
    with pytest.raises(ValidationError):  # noisy without budget
        ExperimentConfig(task="triangles", trials=1, seed=0, gen="er:5:0.2")
    with pytest.raises(ValidationError, match="mode"):
        ExperimentConfig(
            task="triangles", trials=1, seed=0, mode="bogus", gen="er:5:0.2",
            budget=BUDGET,
        )
    with pytest.raises(ValidationError, match="k="):  # k means nothing to triangles
        ExperimentConfig(
            task="triangles", trials=1, seed=0, gen="er:5:0.2", k=5, budget=BUDGET
        )
    for seed in ("abc", True, 2.0):  # refused here, not later in run_trials
        with pytest.raises(ValidationError, match="^seed must be an integer, got"):
            ExperimentConfig(
                task="triangles", trials=1, seed=seed, gen="er:5:0.2", budget=BUDGET
            )


NO_NOISE_C5 = dict(task="cycles", trials=1, seed=0, gen="er:8:0.5", k=5, mode="no-noise")


def _config(**kw):
    return ExperimentConfig(**(NO_NOISE_C5 | kw))


@pytest.mark.parametrize("call, what", [
    (lambda: estimate_odd_cycles(cycle_graph(5), 5.0, None, 0, "no-noise"),
     "cycle length"),
    (lambda: _config(k=5.0), "cycle length"),
    (lambda: _config(k=7.0), "cycle length"),
    (lambda: _config(k=True), "cycle length"),
    (lambda: _config(trials=2.5), "trials"),
    (lambda: _config(trials=True), "trials"),
    (lambda: _config(threads=1.5), "threads"),
    (lambda: _config(threads=True), "threads"),
    (lambda: verify_bounds(path_graph(4), 2.5, 1.0, 0), "orderings"),
    (lambda: error_scaling(_config(gen="er:{n}:0.5"), [8.9, 9.2, 10.7]), "size"),
], ids=["estimate-k", "config-k5", "config-k7", "config-k-bool", "trials",
        "trials-bool", "threads", "threads-bool", "orderings", "sizes"])
def test_config_and_study_counts_must_be_integers(call, what):
    with pytest.raises(ValidationError, match=f"{what} must be an integer"):
        call()


@pytest.mark.parametrize("call, what", [
    (lambda: _config(trials=0), "trials"),
    (lambda: _config(threads=0), "threads"),
    (lambda: verify_bounds(path_graph(4), 0, 1.0, 0), "orderings"),
], ids=["trials", "threads", "orderings"])
def test_config_and_study_counts_must_be_positive(call, what):
    with pytest.raises(ValidationError, match=f"^{what} must be >= 1, got 0$"):
        call()


@pytest.mark.parametrize("mode", ["noisy", "no-noise"])
@pytest.mark.parametrize("estimate", [
    lambda g, budget, seed, mode, trial: estimate_triangles(
        g, budget, seed, mode, trial=trial),
    lambda g, budget, seed, mode, trial: estimate_odd_cycles(
        g, 5, budget, seed, mode, trial=trial),
], ids=["triangles", "cycles"])
def test_seed_and_trial_follow_the_integer_rule(estimate, mode):
    # a numpy seed used to stay in the report, which json.dumps then refused
    g, budget = cycle_graph(5), BUDGET if mode == "noisy" else None
    want = json.dumps(estimate(g, budget, 3, mode, 1).to_json_dict())
    got = estimate(g, budget, np.int64(3), mode, np.int64(1))
    assert json.dumps(got.to_json_dict()) == want and type(got.seed) is int
    for bad in (3.5, True):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            estimate(g, budget, bad, mode, 1)
        with pytest.raises(ValidationError, match="trial must be an integer"):
            estimate(g, budget, 3, mode, bad)


@pytest.mark.parametrize("call", [
    lambda bad: verify_bounds(petersen_graph(), 2, 1.0, bad),
    lambda bad: run_ordered_stage(petersen_graph(), BUDGET, bad, 0),
], ids=["verify-bounds", "ordered-stage"])
def test_the_bounds_study_and_the_stage_apply_the_integer_rule_to_seed(call):
    for bad in ("abc", 2.5, True):
        with pytest.raises(ValidationError, match="^seed must be an integer, got"):
            call(bad)


def test_the_stage_applies_the_integer_rule_to_trial():
    for bad in (True, "x", 1.0):
        with pytest.raises(ValidationError, match="^trial must be an integer, got"):
            run_ordered_stage(petersen_graph(), BUDGET, 0, bad)
    stage = run_ordered_stage(petersen_graph(), BUDGET, np.int64(4), np.int64(2))
    assert (type(stage.seed), type(stage.trial)) == (int, int)


@pytest.mark.parametrize("estimate, user_sum", [
    (lambda g, budget: estimate_triangles(g, budget, 5, trial=1),
     triangles.user_triangle_estimate),
    (lambda g, budget: estimate_odd_cycles(g, 5, budget, 5, trial=1),
     lambda i, row, obf: cycles.user_cycle_estimate(i, row, obf, 5)),
], ids=["triangles", "cycles"])
def test_no_count_stream_is_built_at_infinite_eps2(monkeypatch, estimate, user_sum):
    built = []

    def counting(*path):
        built.append(path[2])  # the stage tag of (seed, trial, stage, user)
        return mechanisms.substream(*path)

    for module in (protocol, triangles, cycles):
        monkeypatch.setattr(module, "substream", counting)
    g = make_graph("ba:30:2", derive_seed(0, "graph"))
    estimate(g, BUDGET)
    assert np.bincount(built).tolist() == [g.n] * 3
    built.clear()
    budget = replace(BUDGET, eps2=INF)
    report = estimate(g, budget)
    assert np.bincount(built).tolist() == [g.n] * 2  # degree and RR streams only
    stage = run_ordered_stage(g, budget, 5, 1)
    sums = [user_sum(i, row, stage.obf) for i, row in enumerate(stage.projected)]
    assert report.per_user == tuple(sums) and report.budget == budget


def test_numpy_integer_k_gives_a_json_report():
    report = estimate_odd_cycles(cycle_graph(5), np.int64(5), None, 0, "no-noise")
    assert type(report.k) is int
    assert json.loads(json.dumps(report.to_json_dict()))["k"] == 5


def test_run_trials_no_noise_has_zero_error():
    config = ExperimentConfig(
        task="triangles", trials=5, seed=3, mode="no-noise", gen="er:20:0.2"
    )
    s = run_trials(config)
    assert s.rmse == 0.0 and s.bias == 0.0
    assert s.clipped_fraction == 0.0


def test_run_trials_single_trial_definitions():
    config = ExperimentConfig(
        task="triangles", trials=1, seed=3, gen="er:20:0.2", budget=BUDGET
    )
    s = run_trials(config)
    assert s.rmse == abs(s.mean - s.exact)
    assert s.stderr == 0.0


def test_rmse_decomposes_into_bias_and_variance():
    config = ExperimentConfig(
        task="triangles", trials=60, seed=5, gen="er:25:0.2", budget=BUDGET,
        keep_estimates=True,
    )
    s = run_trials(config)
    var = np.mean((np.array(s.estimates) - s.mean) ** 2)
    assert s.rmse**2 == pytest.approx(s.bias**2 + var, rel=1e-9)
    assert np.isfinite([s.exact, s.mean, s.rmse, s.bias, s.stderr]).all()


def test_run_trials_threads_do_not_change_results():
    base = dict(task="cycles", k=5, trials=8, seed=7, gen="er:14:0.3", budget=BUDGET)
    s1 = run_trials(ExperimentConfig(**base, threads=1, keep_estimates=True))
    s4 = run_trials(ExperimentConfig(**base, threads=4, keep_estimates=True))
    assert s1 == s4


def test_verify_bounds_k4_exact_mode():
    report = verify_bounds(complete_graph(4), orderings=3, eps0=INF, seed=0)
    assert report.mean_low2stars == 12.0
    assert report.low2star_ratio == pytest.approx(12 / (9 * 4))
    assert report.degeneracy == 3
    assert report.chiba_bound_ok and report.edge_count_ok
    assert report.low2star_bound_rhs == report.chiba_sum  # eps0=inf adds nothing


@pytest.mark.parametrize("graph, orderings, digest", [
    (complete_graph(4), 3, "d42ebae006c954c7edf2baf6dc8877679ebbebe339e78d1aff936e69efd96cd2"),
    (gen_ba(400, 3, 0), 20, "e175ac33e7c0d5e2baea8dbe75e2a017dee8d6ea2d7e261362d9a554bb74038c"),
], ids=["k4", "ba:400:3"])
def test_verify_bounds_builds_no_stream_at_infinite_eps0(monkeypatch, graph, orderings, digest):
    # every ordering at eps0=inf is the same; the digests are of reports that
    # counted every one, each after building a stream it did not use
    def no_stream(*path):
        raise AssertionError("built a stream at eps0=inf")

    monkeypatch.setattr(experiments, "substream", no_stream)
    report = verify_bounds(graph, orderings, INF, seed=7)
    text = json.dumps(report.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert report.orderings == orderings and report.stderr_low2stars == 0.0


def test_verify_bounds_at_infinite_eps0_holds_one_ordering_in_memory():
    # copying the one ordering's counts 10**6 times peaked at 45.8 MiB
    tracemalloc.start()
    try:
        report = verify_bounds(complete_graph(4), 10**6, INF, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.orderings, report.mean_low2stars, report.stderr_low2stars) == (10**6, 12.0, 0.0)
    assert peak < 2**20


def test_verify_bounds_tree_has_no_cycles():
    report = verify_bounds(path_graph(12), orderings=5, eps0=1.0, seed=2)
    assert report.mean_monotone_c4 == 0.0


def test_verify_bounds_small_ba_report():
    g = gen_ba(120, 3, seed=4)
    report = verify_bounds(g, orderings=20, eps0=1.0, seed=9)
    assert np.isfinite(report.low2star_ratio)
    assert np.isfinite(report.monotone_c4_ratio)
    assert report.chiba_bound_ok and report.edge_count_ok
    # the 1x variant is reported as data; on this graph it is falsified
    assert report.chiba_within_m_delta == (
        report.chiba_sum <= report.m * report.degeneracy
    )
    assert (report.chiba_sum, report.m, report.degeneracy) == (1858, 351, 3)
    assert report.chiba_within_m_delta is False
    stderr = report.stderr_low2stars
    assert report.mean_low2stars <= report.low2star_bound_rhs + 3 * stderr
    doc = report.to_json_dict()
    assert doc["schema"] == 1 and doc["orderings"] == 20


def test_verify_bounds_matches_direct_low2star_mean():
    from ldpcount import apply_ordering, get_ordering, substream

    g = gen_ktree(15, 2, seed=5)
    report = verify_bounds(g, orderings=4, eps0=2.0, seed=31)
    direct = np.mean(
        [
            count_low2stars(
                apply_ordering(
                    g, get_ordering(g, 2.0, substream(31, "ordering", r).random(g.n))
                )
            )
            for r in range(4)
        ]
    )
    assert report.mean_low2stars == direct


def scaling_config(task="triangles", gen="ba:{n}:2", **kw):
    return ExperimentConfig(task=task, gen=gen, **kw)


def test_error_scaling_validation_and_exact_mode():
    exact = scaling_config(trials=2, seed=0, mode="no-noise")
    with pytest.raises(ValidationError):
        error_scaling(exact, [10, 20])
    with pytest.raises(ValidationError):
        error_scaling(replace(exact, gen="ba:30:2"), [10, 20, 30])
    report = error_scaling(replace(exact, trials=3, seed=4), [12, 16, 20])
    assert report.slope is None
    assert all(s.rmse == 0.0 for s in report.summaries)
    csv = report.to_csv()
    assert csv.splitlines()[0] == "n,exact,mean,rmse,bias,stderr,clipped_fraction"
    assert len(csv.splitlines()) == 4


def test_error_scaling_noisy_slope_is_finite():
    report = error_scaling(
        scaling_config(trials=10, seed=11, budget=BUDGET), [20, 30, 40]
    )
    assert report.slope is not None and np.isfinite(report.slope)
    doc = report.to_json_dict()
    assert doc["sizes"] == [20, 30, 40]
    assert len(doc["summaries"]) == 3


def test_error_scaling_runs_one_config_per_size():
    config = scaling_config(task="cycles", k=5, trials=3, seed=4, budget=BUDGET)
    report = error_scaling(config, [12, 16, 20])
    assert (report.task, report.gen_template) == ("cycles", "ba:{n}:2")
    for idx, n in enumerate(report.sizes):
        size_config = replace(config, seed=derive_seed(4, "size", idx), gen=f"ba:{n}:2")
        assert report.summaries[idx] == run_trials(size_config)


@pytest.mark.parametrize("config", [
    scaling_config(trials=2, seed=0, mode="no-noise", gen=None, graph_path="g.el"),
    scaling_config(trials=2, seed=0, mode="no-noise", gen="ba:{n}:{m}"),
    scaling_config(trials=2, seed=0, mode="no-noise", gen="ba:{n}:{0}"),
], ids=["graph-path", "named-field", "positional-field"])
def test_error_scaling_rejects_templates_without_a_lone_n(config):
    with pytest.raises(ValidationError):
        error_scaling(config, [10, 20, 30])
