import itertools
import math
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from ldpcount import (
    Graph,
    PrivacyBudget,
    ResourceLimitError,
    ValidationError,
    complete_graph,
    cycle_graph,
    estimate_odd_cycles,
    gen_ba,
    gen_er,
    gen_ktree,
    petersen_graph,
    server_walk_sum,
    substream,
    user_cycle_estimate,
    user_cycle_noise,
)
from ldpcount import (
    apply_ordering, cycles, derive_seed, get_ordering, make_graph, mechanisms, protocol,
)
from ldpcount.cli import main
from ldpcount.cycles import admissible
from ldpcount.mechanisms import assemble_obfuscated
from ldpcount.oracles import count_cycles, enumerate_cycles
from ldpcount.protocol import run_ordered_stage, split_forks

from _brute import (
    _admissible_sum_dfs,
    _admissible_sum_k5_grid,
    _k5_grid_mask,
    charged_user,
)

INF = math.inf


def _noisy_obf(graph, eps, seed):
    return assemble_obfuscated(graph, eps, partial(substream, seed, "rr"))


# ------------------------------------------------------------ walk sum


def test_walk_sum_k5_is_twice_edge_count_without_noise():
    obf = assemble_obfuscated(complete_graph(3), INF)
    assert server_walk_sum(obf, 5) == 6.0  # ordered pairs: 2m


def test_walk_sum_empty_graph_no_noise():
    obf = assemble_obfuscated(Graph.from_edges(5, []), INF)
    assert server_walk_sum(obf, 5) == 0.0


def test_walk_sum_matches_matrix_power_oracle():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])  # path 0-1-2
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    ones = np.ones(3)
    # independent oracle: explicit matrix powers
    assert ones @ a @ ones == 4.0
    assert ones @ np.linalg.matrix_power(a, 3) @ ones == 8.0
    assert server_walk_sum(assemble_obfuscated(g, INF), 5) == 4.0
    assert server_walk_sum(assemble_obfuscated(g, INF), 7) == 8.0


def test_walk_sum_matches_matrix_power_with_noise():
    g = gen_er(9, 0.4, seed=3)
    obf = _noisy_obf(g, 1.0, seed=5)
    ahat = obf.unbiased
    ones = np.ones(g.n)
    for k in (5, 7, 9):
        oracle = ones @ np.linalg.matrix_power(ahat, k - 4) @ ones
        assert server_walk_sum(obf, k) == pytest.approx(oracle, rel=1e-12)


def test_walk_sum_rejects_bad_k():
    obf = assemble_obfuscated(complete_graph(3), INF)
    for k in (3, 4, 6):
        with pytest.raises(ValidationError):
            server_walk_sum(obf, k)


# ----------------------------------------------------- per-user estimates


def test_c5_graph_counted_exactly_once_total():
    g = cycle_graph(5)
    obf = assemble_obfuscated(g, INF)
    total = sum(user_cycle_estimate(i, g.row(i), obf, 5) for i in range(5))
    assert total == 1.0


def test_triangle_graph_has_no_5_cycles():
    g = complete_graph(3)
    obf = assemble_obfuscated(g, INF)
    assert sum(user_cycle_estimate(i, g.row(i), obf, 5) for i in range(3)) == 0.0


def test_petersen_5_cycles_no_noise():
    g = petersen_graph()
    obf = assemble_obfuscated(g, INF)
    total = sum(user_cycle_estimate(i, g.row(i), obf, 5) for i in range(10))
    assert total == 12.0


def test_admissible_matches_its_definition():
    # a monotone triple needs its center ranked above i
    triples = list(itertools.permutations(range(6), 3))
    u, v, w = (np.array(t) for t in zip(*triples))
    for i in range(6):
        expected = [not (a < b < c or a > b > c) or b > i for a, b, c in triples]
        assert [admissible(a, b, c, i) for a, b, c in triples] == expected
        assert admissible(u, v, w, i).tolist() == expected


def test_the_closing_rule_is_the_same_for_every_kappa():
    # The k >= 7 route applies admissible(last, v, kappa, i) once per grid,
    # with kappa = above[0], for every kappa in above: all exceed i.
    for i, u, v in itertools.permutations(range(8), 3):
        rules = {admissible(u, v, w, i) for w in range(i + 1, 8)}
        assert len(rules) <= 1, (u, v, i)


def test_grid_route_matches_dfs_on_noisy_entries():
    g = gen_er(12, 0.35, seed=9)
    obf = _noisy_obf(g, 1.0, seed=4)
    ahat = obf.unbiased
    for i in range(g.n):
        below = [j for j in g.row(i) if j < i]
        above = [k for k in g.row(i) if k > i]
        for j in below:
            for kappa in above:
                dfs = _admissible_sum_dfs(i, j, kappa, 5, ahat)
                grid = user_cycle_estimate(i, (j, kappa), obf, 5)
                assert grid == pytest.approx(dfs, rel=1e-9, abs=1e-9)


def test_k5_closed_form_masks_equal_their_definition():
    # The k=5 route builds each fork pair's mask from a closed form; for
    # every n <= 9, user i and pair j < i < kappa it must equal the
    # distinctness-plus-admissible grid of the reference.  The one mask is
    # narrowed in place, so each later pair also checks the restore.
    for n in range(3, 10):
        mask = np.empty((n, n), dtype=bool)
        for i in range(1, n - 1):
            below, above = range(i), range(i + 1, n)
            pairs = cycles._k5_pair_masks(i, below, above, mask)
            for j, kappa, rows, cells in pairs:
                got = np.zeros((n, n), dtype=bool)
                got[rows] = cells
                want = _k5_grid_mask(i, j, kappa, n)
                assert np.array_equal(got, want), (n, i, j, kappa)


@pytest.mark.parametrize("eps1", [0.1, 1.0, INF], ids=["eps0.1", "eps1", "no-noise"])
@pytest.mark.parametrize(
    "spec", ["er:6:0.9", "er:10:0.4", "ba:12:2", "er:11:0.35", "ba:24:2", "er:8:1.0"]
)
def test_k5_route_matches_per_pair_grid_bit_for_bit(spec, eps1):
    # The per-user route keeps each fork pair's masked cells, products and
    # pairwise sum, and adds the pair totals from 0.0 in below x above order.
    # er:8:1.0 is K8: every user has the pairs j = i - 1, kappa = i + 1 and
    # kappa = n - 1.
    g = make_graph(spec, derive_seed(5, "graph"))
    obf = _noisy_obf(g, eps1, seed=5)
    ahat = obf.unbiased
    nonzero = 0
    for i in range(g.n):
        below, above = split_forks(g.row(i), i)
        want = 0.0
        for j in below:
            for kappa in above:
                pair = _admissible_sum_k5_grid(i, j, kappa, ahat)
                got = user_cycle_estimate(i, (j, kappa), obf, 5)
                assert got.hex() == pair.hex(), (i, j, kappa)
                want += pair
        got = user_cycle_estimate(i, g.row(i), obf, 5)
        assert got.hex() == want.hex(), i
        nonzero += got != 0.0
    assert nonzero > 0


def test_k5_route_memory_does_not_grow_with_the_forks():
    # 16 x 16 fork pairs on noisy K256: masks or weights kept for every j or
    # every kappa would add 16 n^2 bytes or more.  n is large enough that
    # numpy's fixed iterator buffers are a small part of n^2.
    n = 256
    i = n // 2
    obf = _noisy_obf(complete_graph(n), 1.0, seed=3)
    obf.unbiased  # built before the measurement
    row = (*range(i - 16, i), *range(i + 1, i + 17))
    tracemalloc.start()
    try:
        total = user_cycle_estimate(i, row, obf, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total != 0.0
    assert peak < 24 * n * n


@pytest.mark.parametrize("k", [5, 7])
def test_k5_scratch_is_allocated_once_per_estimate(monkeypatch, k):
    # One set of n^2 buffers serves every user of a k=5 estimate; the k>=7
    # route needs none, and a direct per-user call allocates its own.
    made, seen = [], set()
    scratch, estimate = cycles._k5_scratch, cycles.user_cycle_estimate

    def counting_scratch(n):
        made.append(n)
        return scratch(n)

    def recording_estimate(*args, scratch=None):
        seen.add(id(scratch))
        return estimate(*args, scratch=scratch)

    monkeypatch.setattr(cycles, "_k5_scratch", counting_scratch)
    monkeypatch.setattr(cycles, "user_cycle_estimate", recording_estimate)
    g = make_graph("ba:30:3", derive_seed(0, "graph"))
    report = estimate_odd_cycles(g, k, PrivacyBudget(0.5, 1.0, 1.0, 0.05), 0)
    assert made == ([g.n] if k == 5 else [])
    assert len(seen) == 1 and (id(None) in seen) == (k != 5)
    assert report.estimate != 0.0
    made.clear()
    estimate(2, (0, 1, 3, 4), assemble_obfuscated(g, INF), k)
    assert made == ([g.n] if k == 5 else [])


@pytest.mark.parametrize("k", [7, 9])
@pytest.mark.parametrize(
    "eps1",
    [
        pytest.param(1.0, id="noisy"),
        pytest.param(700.0, id="noisy-700"),
        pytest.param(INF, id="no-noise"),
    ],
)
@pytest.mark.parametrize("spec", ["er:6:0.9", "er:10:0.4", "ba:12:2", "er:11:0.35"])
def test_path_route_matches_dfs_bit_for_bit(spec, eps1, k):
    # The vectorized route keeps the DFS's tuples, products and additions,
    # so every fork pair and every user agrees to the last bit.  er:6:0.9
    # has n < k: every sum is 0.0.  At eps1 = 700 a non-edge unbiases to
    # about -9.86e-305, so a product with two of them underflows to +-0.0:
    # zero terms arise on the noisy route too, and dropping them must not
    # move a sum that starts at +0.0.
    g = make_graph(spec, derive_seed(k, "graph"))
    fork_users, nonzero = _route_matches_dfs(g, eps1, k)
    assert 0 < fork_users < g.n  # some users have an empty below or above
    assert (nonzero > 0) == (g.n >= k)


def _route_matches_dfs(g, eps1, k):
    """Assert every fork pair's and user's sum equals the DFS's to the bit.

    Returns the count of users with fork pairs and of nonzero user sums.
    """
    obf = _noisy_obf(g, eps1, seed=5)  # the streams go unused at eps1 = inf
    rows = obf.unbiased.tolist()
    fork_users = nonzero = 0
    for i in range(g.n):
        below, above = split_forks(g.row(i), i)
        fork_users += bool(len(below) and len(above))
        dfs_total = 0.0
        for j in below:
            for kappa in above:
                dfs = _admissible_sum_dfs(i, j, kappa, k, rows)
                pair = user_cycle_estimate(i, (j, kappa), obf, k)
                assert pair.hex() == dfs.hex(), (i, j, kappa)
                dfs_total += dfs
        got = user_cycle_estimate(i, g.row(i), obf, k)
        assert got.hex() == dfs_total.hex(), i
        nonzero += got != 0.0
    return fork_users, nonzero


@pytest.mark.parametrize("k", [7, 9])
@pytest.mark.parametrize("eps1", [1.0, 700.0, INF], ids=["noisy", "noisy-700", "no-noise"])
@pytest.mark.parametrize("rows", [1, 3], ids=["one-row-blocks", "three-row-blocks"])
def test_path_route_matches_dfs_across_row_blocks(monkeypatch, rows, eps1, k):
    # With _BLOCK_CELLS = n each grid holds one path, and with 3n + 1 three:
    # every frontier splits into several blocks, each with its own own-vertex
    # grid, and the sums still keep the DFS's terms and order to the last bit.
    g = make_graph("er:10:0.4", derive_seed(k, "graph"))
    monkeypatch.setattr(cycles, "_BLOCK_CELLS", rows * g.n + (rows > 1))
    assert _route_matches_dfs(g, eps1, k)[1] > 0


def test_path_route_memory_does_not_grow_with_the_paths():
    # k=9 with one fork pair on the noisy complete graph K22: no product is
    # zero, and expanding each frontier whole peaks near 390 MiB traced.
    n = 22
    obf = _noisy_obf(complete_graph(n), 1.0, seed=3)
    obf.unbiased  # built before the measurement
    tracemalloc.start()
    try:
        total = user_cycle_estimate(n // 2, (0, n - 1), obf, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total != 0.0
    assert peak < 32 * 2**20


def test_user_cycle_noise_rules():
    assert user_cycle_noise(1.5, 3.0, 10.0, INF, INF) == 1.5
    assert user_cycle_noise(1.5, -1.0, 10.0, 1.0, 1.0) == 1.5  # clamped degree
    assert user_cycle_noise(1.5, 3.0, 0.0, 1.0, 1.0) == 1.5  # zero walk sum


def test_user_cycle_noise_variance():
    # span(ln 3)^2 = 4, so scale = 12 * d_hat * |walk| / eps2
    eps1, eps2, d_hat, walk = math.log(3), 1.0, 2.0, -5.0
    scale = 12.0 * d_hat * abs(walk) / eps2
    draws = np.array(
        [
            user_cycle_noise(
                0.0, d_hat, walk, eps1, eps2, substream(8, "cn", i).random()
            )
            for i in range(10**5)
        ]
    )
    assert abs(draws.var() / (2 * scale**2) - 1.0) < 0.05


# ------------------------------------------------------------- estimates


def test_no_noise_exactness_k5():
    # every graph family: ER, BA, k-tree, and named graphs (C7 has no 5-cycle)
    graphs = [gen_er(8 + idx % 5, 0.3, seed=idx) for idx in range(8)]
    graphs += [gen_ba(40, 2, seed=4), gen_ba(30, 3, seed=9), gen_ktree(30, 3, seed=2)]
    graphs += [petersen_graph(), cycle_graph(5), cycle_graph(7), complete_graph(7)]
    for idx, g in enumerate(graphs):
        r = estimate_odd_cycles(g, 5, None, seed=idx, mode="no-noise")
        assert r.estimate == count_cycles(g, 5), idx


def test_no_noise_exactness_k7():
    for idx in range(4):
        g = gen_er(8 + idx % 3, 0.35, seed=100 + idx)
        r = estimate_odd_cycles(g, 7, None, seed=idx, mode="no-noise")
        assert r.estimate == count_cycles(g, 7)


@pytest.mark.parametrize("k, cycles_found", [(5, 12), (9, 20)])
def test_each_petersen_cycle_is_charged_to_its_lowest_monotone_centre(k, cycles_found):
    # Per user, not only in total: user i's no-noise sum counts exactly the
    # cycles whose lowest monotone centre is rank i.
    g = petersen_graph()
    ranked = apply_ordering(g, get_ordering(g, INF))
    charges = [charged_user(c) for c in enumerate_cycles(ranked, k)]
    r = estimate_odd_cycles(g, k, None, seed=3, mode="no-noise")
    assert r.estimate == len(charges) == cycles_found
    assert list(r.per_user) == np.bincount(charges, minlength=g.n).tolist()


def test_rejects_bad_k():
    for k in (3, 4, 6):
        with pytest.raises(ValidationError):
            estimate_odd_cycles(cycle_graph(5), k, None, 0, "no-noise")


def test_rejects_empty_vertex_set_in_both_modes():
    empty = Graph.from_edges(0, [])
    with pytest.raises(ValidationError, match="0 nodes"):
        estimate_odd_cycles(empty, 5, None, 0, "no-noise")
    with pytest.raises(ValidationError, match="0 nodes"):
        estimate_odd_cycles(empty, 5, PrivacyBudget(0.5, 1.0, 1.0, 0.1), 0)


def test_resource_guard_trips_before_enumerating():
    g = gen_er(60, 0.5, seed=0)
    with pytest.raises(ResourceLimitError, match="shrink"):
        estimate_odd_cycles(g, 9, None, 0, "no-noise")


@pytest.mark.parametrize("spec", ["ba:100:3", "er:60:0.1"])
def test_path_guard_counts_all_users_before_any_sum(monkeypatch, spec):
    # A per-user check alone lets ba:100:3 run about 1e9 tuples in users
    # 0-2 before user 3 trips, and never trips on er:60:0.1, whose users
    # need 5.2e9 tuples together; the total is checked before any sum.
    calls = []

    def counting_stub(*args, **kwargs):
        calls.append(args[0])
        return 0.0

    monkeypatch.setattr(cycles, "user_cycle_estimate", counting_stub)
    g = make_graph(spec, derive_seed(0, "graph"))
    with pytest.raises(ResourceLimitError, match="all users"):
        estimate_odd_cycles(g, 7, PrivacyBudget(0.5, 1.0, 1.0, 0.05), 0)
    assert calls == []


@pytest.mark.parametrize("k", [5, 7])
def test_path_tuple_limit_refuses_one_below_its_price(monkeypatch, k):
    # The guard prices n^(k-3) tuples per fork of the projected rows.
    g = gen_er(16, 0.3, seed=3)
    budget = PrivacyBudget(0.5, 1.0, 1.0, 0.05)
    stage = run_ordered_stage(g, budget, 0, 0)
    forks = sum(len(b) * len(a) for b, a in map(split_forks, stage.projected, range(g.n)))
    price = g.n ** (k - 3) * forks
    assert forks > 0
    expected = estimate_odd_cycles(g, k, budget, 0)

    def must_not_run(*args, **kwargs):
        raise AssertionError("work done past the tuple limit")

    with monkeypatch.context() as m:
        m.setattr(cycles, "PATH_TUPLE_LIMIT", price - 1)
        m.setattr(cycles, "user_cycle_estimate", must_not_run)
        # priced from the projection, before any RR stream or n x n cell
        m.setattr(protocol, "assemble_obfuscated", must_not_run)
        with pytest.raises(ResourceLimitError, match=f"^all users: {forks} forks x n"):
            estimate_odd_cycles(g, k, budget, 0)
    monkeypatch.setattr(cycles, "PATH_TUPLE_LIMIT", price)
    assert estimate_odd_cycles(g, k, budget, 0) == expected


def test_a_huge_k_is_refused_in_bounded_time(capsys):
    # n^(k-3) as a big integer took 11-14 s to refuse at k = 10^7 + 1 on a
    # 2-vCPU guest, and over 120 s at 10^8 + 1
    g = make_graph("er:20:0.2", derive_seed(0, "graph"))
    k = 10**7 + 1
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=rf"forks x n\^{k - 3} tuples"):
        estimate_odd_cycles(g, k, PrivacyBudget(0.5, 1.0, 1.0, 0.05), 0)
    assert time.perf_counter() - start < 1.0
    argv = ["estimate-cycles", "--gen", "er:20:0.2", "--k", "100000001",
            "--eps0", ".5", "--eps1", "1", "--eps2", "1", "--zeta", ".05"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "n^99999998 tuples exceeds" in captured.err and captured.out == ""


def test_the_walk_sum_is_priced_before_its_products(monkeypatch):
    # With no fork pair the tuple price is 0, and the walk sum ran its k - 4
    # n x n products for any k: 1.05 s at k = 10^6 + 1 on these 20 nodes.
    g = Graph.from_edges(20, [(0, 1), (2, 3)])
    budget = PrivacyBudget(0.5, 1.0, 1.0, 0.05)

    def must_not_run(*args, **kwargs):
        raise AssertionError("work done past the walk price")

    with monkeypatch.context() as m:
        m.setattr(cycles, "server_walk_sum", must_not_run)
        m.setattr(protocol, "assemble_obfuscated", must_not_run)
        for mode in ("noisy", "no-noise"):
            with pytest.raises(ResourceLimitError, match=r"^the walk sum: \(k - 4\) x n\^2"):
                estimate_odd_cycles(g, 10**8 + 1, budget, 0, mode)
        # one cell under the price of k = 7, (7 - 4) * 20^2 = 1,200
        m.setattr(cycles, "PATH_TUPLE_LIMIT", 3 * 20 * 20 - 1)
        with pytest.raises(ResourceLimitError, match="= 1200 cells exceeds 1199"):
            estimate_odd_cycles(g, 7, None, 0, "no-noise")
    monkeypatch.setattr(cycles, "PATH_TUPLE_LIMIT", 3 * 20 * 20)
    assert estimate_odd_cycles(g, 7, None, 0, "no-noise").estimate == 0.0


def test_c5_dense_price_checked_before_the_stage(monkeypatch):
    # Between the stage's 9 n^2 and the k=5 route's 26 n^2 bytes, the stage
    # alone would pass and the route would allocate its scratch.
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the dense price was checked")

    g = gen_er(30, 0.2, seed=1)
    n = g.n
    budget = PrivacyBudget(0.5, 1.0, 1.0, 0.05)
    monkeypatch.setattr(mechanisms, "DENSE_BYTES_LIMIT", 20 * n * n)
    assert estimate_odd_cycles(g, 7, None, 0, "no-noise").estimate == count_cycles(g, 7)
    monkeypatch.setattr(cycles, "run_ordered_stage", must_not_run)
    monkeypatch.setattr(cycles, "_k5_scratch", must_not_run)
    price = cycles.K5_BYTES_PER_CELL * n * n
    for args in ((None, 0, "no-noise"), (budget, 0)):
        with pytest.raises(ResourceLimitError, match=f"^n={n} needs {price} dense"):
            estimate_odd_cycles(g, 5, *args)
    monkeypatch.undo()
    monkeypatch.setattr(mechanisms, "DENSE_BYTES_LIMIT", price)
    assert estimate_odd_cycles(g, 5, None, 0, "no-noise").estimate == count_cycles(g, 5)


def test_c5_dense_price_covers_the_traced_peak():
    # The bits, the unbiased matrix, the scratch and a pair's gathered cells
    # are 26 bytes per cell; the rest is O(n), about 85 bytes per node.  The
    # peak read 25.6 n^2 (noisy) and 26.1 n^2 (no-noise) bytes.
    n = 1000
    g = Graph.from_edges(n, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for args in ((None, 0, "no-noise"), (PrivacyBudget(1.0, 1.0, 1.0, 0.1), 0)):
        tracemalloc.start()
        try:
            estimate_odd_cycles(g, 5, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 25 * n * n < peak <= cycles.K5_BYTES_PER_CELL * n * n + 128 * n


def test_linearity_in_single_unbiased_entry():
    # Per-user sums are linear in each unbiased edge estimate holding the
    # others fixed: a product visits each edge {u, v} at most once.  The
    # library's k=5 route is checked against the DFS on every bumped matrix.
    g = gen_er(10, 0.4, seed=6)
    obf = _noisy_obf(g, 1.0, seed=2)
    base = obf.unbiased.copy()
    i = 5
    below, above = split_forks(g.row(i), i)
    assert len(below) and len(above)

    def dfs(matrix):
        s = 0.0
        for j in below:
            for kappa in above:
                s += _admissible_sum_dfs(i, j, kappa, 5, matrix)
        return s

    def library(matrix):
        return cycles._k5_user_sum(i, below, above, matrix)

    u, v = 1, 7
    bumped = [base, _bump(base, u, v, 1.0), _bump(base, u, v, 2.0)]
    for route in (dfs, library):
        f0, f1, f2 = map(route, bumped)
        assert f1 != f0
        assert f2 - f0 == pytest.approx(2 * (f1 - f0), rel=1e-9, abs=1e-9)
    for matrix in bumped:
        assert library(matrix) == pytest.approx(dfs(matrix), rel=1e-9, abs=1e-9)


def _bump(matrix, u, v, h):
    """Add h to the edge estimate {u, v}, keeping the matrix symmetric."""
    out = matrix.copy()
    out[u, v] += h
    out[v, u] += h
    return out


def test_estimate_deterministic_and_report_fields():
    g = gen_er(14, 0.3, seed=3)
    b = PrivacyBudget(0.5, 1.0, 1.0, 0.05)
    a = estimate_odd_cycles(g, 5, b, seed=11, trial=2)
    bb = estimate_odd_cycles(g, 5, b, seed=11, trial=2)
    assert a == bb
    assert a.k == 5
    assert a.walk_sum is not None
    assert a.estimate == pytest.approx(sum(a.per_user))
    doc = a.to_json_dict()
    assert doc["k"] == 5 and "walk_sum" in doc
