"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criterion 7 asserts the provable Chiba-Nishizeki form of the
edge-minimum-degree bound, ``chiba_sum <= 2 * m * degeneracy``, and pins the
graphs on which the factor-free form ``chiba_sum <= m * degeneracy`` fails
(the 4-node path: 4 > 3).
"""

import json
import math
import time

import numpy as np
from scipy import stats as sps

from ldpcount import (
    ExperimentConfig,
    Graph,
    PrivacyBudget,
    apply_ordering,
    complete_graph,
    cycle_graph,
    degeneracy,
    error_scaling,
    estimate_odd_cycles,
    estimate_triangles,
    gen_ba,
    gen_er,
    gen_ktree,
    get_ordering,
    graph_stats,
    path_graph,
    petersen_graph,
    randomize_response_row,
    run_trials,
    sample_laplace,
    substream,
    unbias,
    unbias_variance,
    verify_bounds,
)
from ldpcount.cli import main as cli_main
from ldpcount.oracles import count_cycles, count_triangles, enumerate_cycles

from _brute import charged_user

BUDGET = PrivacyBudget(0.5, 1.0, 1.0, 0.05)


def _charges(g: Graph, k: int) -> list[int]:
    """Each rank's no-noise count of k-cycles under the charge rule."""
    ranked = apply_ordering(g, get_ordering(g, math.inf))
    charged = [charged_user(c) for c in enumerate_cycles(ranked, k)]
    return np.bincount(charged, minlength=g.n).tolist()


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_1_mechanism_distributions():
    t0 = time.time()
    keep = randomize_response_row(
        np.ones(10**5, dtype=np.uint8), math.log(3), substream(1, "rr").random(10**5)
    ).mean()
    rr_ok = abs(keep - 0.75) <= 0.01

    eps = 1.0
    bits = randomize_response_row(
        np.ones(10**5, dtype=np.uint8), eps, substream(1, "ub").random(10**5)
    )
    vals = np.where(bits == 1, unbias(1, eps), unbias(0, eps))
    mean_ok = abs(vals.mean() - 1.0) <= 0.02
    var_ok = abs(vals.var() / unbias_variance(eps) - 1.0) <= 0.05

    x = sample_laplace(2.0, substream(1, "ks"), size=10**5)
    ks_p = sps.kstest(x, sps.laplace(scale=2.0).cdf).pvalue
    ks_ok = ks_p > 0.01

    elapsed = time.time() - t0
    _report(
        1,
        "mechanism distributions",
        rr_ok and mean_ok and var_ok and ks_ok and elapsed < 10,
        f"keep={keep:.4f}, mean={vals.mean():.4f}, "
        f"var_ratio={vals.var() / unbias_variance(eps):.4f}, "
        f"ks_p={ks_p:.3f}, {elapsed:.1f}s",
    )


def test_criterion_2_no_noise_triangle_exactness(tmp_path, capsys):
    t0 = time.time()
    graphs = [gen_er(5 + idx % 26, 0.2, seed=1000 + idx) for idx in range(50)]
    graphs += [complete_graph(4), cycle_graph(5), petersen_graph()]
    mismatches = 0
    for idx, g in enumerate(graphs):
        r = estimate_triangles(g, None, seed=idx, mode="no-noise")
        # each triangle {a < i < c} is charged to its middle rank i
        if r.estimate != count_triangles(g) or list(r.per_user) != _charges(g, 3):
            mismatches += 1
    # same check once through the CLI surface
    path = tmp_path / "c2.el"
    path.write_text("0 1\n0 2\n1 2\n")
    code = cli_main(
        ["estimate-triangles", "--graph", str(path), "--mode", "no-noise"]
    )
    out = capsys.readouterr().out
    cli_ok = code == 0 and json.loads(out)["estimate"] == 1.0
    elapsed = time.time() - t0
    _report(
        2,
        "no-noise triangle exactness",
        mismatches == 0 and cli_ok and elapsed < 30,
        f"{len(graphs)} graphs, mismatches={mismatches}, {elapsed:.1f}s",
    )


def test_criterion_3_no_noise_cycle_exactness():
    # Every cycle counted exactly once, by one user: per user, the sums equal
    # the cycles charged to that rank, its lowest monotone centre.
    t0 = time.time()
    cases = [(gen_er(8 + idx % 7, 0.3, seed=2000 + idx), 5) for idx in range(30)]
    cases += [(cycle_graph(5), 5), (petersen_graph(), 5)]
    cases += [(gen_er(7 + idx % 4, 0.35, seed=3000 + idx), 7) for idx in range(10)]
    mism = 0
    bad_charge = 0
    for idx, (g, k) in enumerate(cases):
        r = estimate_odd_cycles(g, k, None, seed=idx, mode="no-noise")
        if r.estimate != count_cycles(g, k):
            mism += 1
        if list(r.per_user) != _charges(g, k):
            bad_charge += 1
    elapsed = time.time() - t0
    _report(
        3,
        "no-noise cycle exactness, counted once per cycle",
        mism == 0 and bad_charge == 0 and elapsed < 300,
        f"{len(cases)} graphs, mismatches={mism}, bad charge={bad_charge}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_triangle_unbiasedness():
    t0 = time.time()
    summary = run_trials(
        ExperimentConfig(
            task="triangles", trials=2000, seed=404, gen="er:50:0.1", budget=BUDGET
        )
    )
    elapsed = time.time() - t0
    ok = abs(summary.bias) <= 3 * summary.stderr
    _report(
        4,
        "triangle unbiasedness over 2000 trials",
        ok and elapsed < 120,
        f"exact={summary.exact:.0f}, mean={summary.mean:.2f}, "
        f"bias={summary.bias:.2f}, 3*stderr={3 * summary.stderr:.2f}, {elapsed:.1f}s",
    )


def test_criterion_5_cycle_unbiasedness():
    t0 = time.time()
    summary = run_trials(
        ExperimentConfig(
            task="cycles", k=5, trials=1000, seed=505, gen="er:30:0.2", budget=BUDGET
        )
    )
    elapsed = time.time() - t0
    ok = abs(summary.bias) <= 3 * summary.stderr
    _report(
        5,
        "k=5 cycle unbiasedness over 1000 trials",
        ok and elapsed < 600,
        f"exact={summary.exact:.0f}, mean={summary.mean:.1f}, "
        f"bias={summary.bias:.1f}, 3*stderr={3 * summary.stderr:.1f}, {elapsed:.1f}s",
    )


def test_criterion_6_degree_clipping_guarantee():
    t0 = time.time()
    g = gen_er(100, 0.05, seed=606)
    eps0, zeta, runs = 1.0, 0.1, 10**4
    threshold = math.log(g.n / zeta) / eps0
    degrees = g.degrees
    failures = 0
    for r in range(runs):
        o = get_ordering(g, eps0, substream(606, "clip", r).random(g.n))
        if np.max(np.abs(o.noisy_degrees - degrees)) >= threshold:
            failures += 1
    frac = failures / runs
    allowed = zeta + 3 * math.sqrt(zeta * (1 - zeta) / runs)
    elapsed = time.time() - t0
    _report(
        6,
        "degree deviation bound over 10^4 orderings",
        frac <= allowed and elapsed < 30,
        f"fraction={frac:.4f}, allowed={allowed:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_deterministic_bounds():
    quartet = {
        "tree": (gen_ba(10, 1, seed=3), 1),
        "C6": (cycle_graph(6), 2),
        "K5": (complete_graph(5), 4),
        "Petersen": (petersen_graph(), 3),
    }
    deg_ok = all(degeneracy(g) == want for g, want in quartet.values())

    roster = [g for g, _ in quartet.values()]
    roster += [
        complete_graph(4),
        cycle_graph(5),
        gen_er(30, 0.2, seed=1),
        gen_er(50, 0.1, seed=1),
        gen_er(14, 0.3, seed=2),
        gen_ba(200, 3, seed=9),
        gen_ba(1000, 3, seed=7),
        gen_ba(40, 2, seed=4),
        gen_ktree(40, 3, seed=2),
    ]
    edge_ok = True
    recount_ok = True
    chiba_violations = []
    for g in roster:
        s = graph_stats(g)
        d = g.degrees
        if s.chiba_sum != sum(min(int(d[u]), int(d[v])) for u, v in g.edges):
            recount_ok = False
        if s.m > s.degeneracy * s.n:
            edge_ok = False
        if s.chiba_sum > 2 * s.m * s.degeneracy:
            chiba_violations.append(
                f"n={s.n},m={s.m}: chiba={s.chiba_sum} > 2*m*delta="
                f"{2 * s.m * s.degeneracy}"
            )
    chiba_ok = not chiba_violations

    # The 1x form chiba_sum <= m*delta is not a theorem: these graphs break it.
    def _triple(g):
        s = graph_stats(g)
        return s.chiba_sum, s.m, s.degeneracy

    counterexamples = {
        "P4": (_triple(path_graph(4)), (4, 3, 1)),
        "BA(10,1) tree": (_triple(gen_ba(10, 1, seed=3)), (13, 9, 1)),
    }
    pinned_ok = all(got == want for got, want in counterexamples.values())
    k4_sum, k4_m, k4_delta = _triple(complete_graph(4))
    tight_ok = k4_sum == k4_m * k4_delta == 18
    _report(
        7,
        "deterministic bounds (chiba<=2*m*delta, m<=delta*n, degeneracy quartet)",
        deg_ok and edge_ok and recount_ok and chiba_ok and pinned_ok and tight_ok,
        f"degeneracy quartet ok={deg_ok}, m<=delta*n ok={edge_ok}, "
        f"chiba recount ok={recount_ok}; "
        f"chiba_sum<=2*m*delta (Chiba-Nishizeki) falsified on "
        f"{len(chiba_violations)}/{len(roster)} graphs"
        f"{', e.g. ' + chiba_violations[0] if chiba_violations else ''}; "
        f"1x form chiba_sum<=m*delta pinned false ok={pinned_ok}: "
        + ", ".join(f"{k} (chiba,m,delta)={v[0]}" for k, v in counterexamples.items())
        + f"; K4 tight {k4_sum}=={k4_m * k4_delta} ok={tight_ok}",
    )


def test_criterion_8_ordered_structure_bounds():
    t0 = time.time()
    g = gen_ba(1000, 3, seed=7)
    report = verify_bounds(g, orderings=100, eps0=1.0, seed=808)
    finite = np.isfinite([report.low2star_ratio, report.monotone_c4_ratio]).all()
    bound_ok = (
        report.mean_low2stars
        <= report.low2star_bound_rhs + 3 * report.stderr_low2stars
    )
    elapsed = time.time() - t0
    _report(
        8,
        "ordered low-2-star / monotone-C4 bounds on BA(1000,3)",
        bool(finite) and bound_ok and elapsed < 120,
        f"mean_S2*={report.mean_low2stars:.0f} <= {report.low2star_bound_rhs:.0f}"
        f"+3*{report.stderr_low2stars:.1f}, ratios=({report.low2star_ratio:.3f}, "
        f"{report.monotone_c4_ratio:.4f}), {elapsed:.1f}s",
    )


def test_criterion_9_error_scaling_slopes():
    t0 = time.time()
    tri = error_scaling(
        ExperimentConfig(
            task="triangles", trials=200, seed=909, gen="ba:{n}:3", budget=BUDGET
        ),
        [200, 400, 800, 1600],
    )
    cyc = error_scaling(
        ExperimentConfig(
            task="cycles", trials=50, seed=910, gen="ba:{n}:2", k=5, budget=BUDGET
        ),
        [40, 80, 160],
    )
    elapsed = time.time() - t0
    tri_ok = tri.slope is not None and tri.slope < 1.25
    cyc_ok = cyc.slope is not None and cyc.slope < 2.5
    _report(
        9,
        "RMSE log-log slopes (triangles < 1.25, k=5 cycles < 2.5)",
        tri_ok and cyc_ok and elapsed < 1800,
        f"triangle slope={tri.slope:.3f}, cycle slope={cyc.slope:.3f}, "
        f"rmse_tri={[round(s.rmse) for s in tri.summaries]}, "
        f"rmse_cyc={[round(s.rmse) for s in cyc.summaries]}, {elapsed:.0f}s",
    )


def test_criterion_10_budget_accounting_and_determinism(tmp_path, capsys):
    code_bad = cli_main(
        ["estimate-triangles", "--gen", "er:10:0.2", "--eps0", "1", "--eps1", "1",
         "--eps2", "1", "--eps-total", "2", "--seed", "3"]
    )
    capsys.readouterr()
    reject_ok = code_bad == 1

    ok_budget = ["--eps0", ".5", "--eps1", "1", "--eps2", ".5", "--eps-total", "2"]
    code_good = cli_main(
        ["estimate-triangles", "--gen", "er:10:0.2", *ok_budget, "--seed", "3"]
    )
    accept_ok = code_good == 0
    capsys.readouterr()

    exp = ["experiment", "--task", "triangles", "--gen", "ba:80:3", "--trials",
           "30", "--seed", "11", *ok_budget, "--zeta", ".05"]
    outs = []
    for extra in ([], [], ["--threads", "4"]):
        code = cli_main(exp + extra + ["--format", "csv"])
        outs.append(capsys.readouterr().out)
        assert code == 0
    json_outs = []
    for extra in ([], ["--threads", "3"]):
        code = cli_main(exp + extra + ["--format", "json"])
        json_outs.append(capsys.readouterr().out)
        assert code == 0
    deterministic = (
        outs[0] == outs[1] == outs[2] and json_outs[0] == json_outs[1]
    )
    _report(
        10,
        "budget accounting and byte-identical determinism",
        reject_ok and accept_ok and deterministic,
        f"over-budget exit={code_bad}, csv bytes identical across runs/threads="
        f"{outs[0] == outs[2]}",
    )
