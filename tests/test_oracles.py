import math
import time
import tracemalloc

import numpy as np
import pytest

from ldpcount import (
    Graph,
    ResourceLimitError,
    ValidationError,
    complete_graph,
    cycle_graph,
    degeneracy,
    exact_counts,
    gen_ba,
    gen_er,
    get_ordering,
    apply_ordering,
    path_graph,
    petersen_graph,
    relabel,
    star_graph,
)
from ldpcount import oracles
from ldpcount.oracles import (
    count_cycles,
    count_low2stars,
    count_monotone_cycles,
    count_paths,
    count_triangles,
    enumerate_cycles,
    has_monotone_triple,
)

from _brute import (
    brute_count_cycles,
    brute_count_monotone_cycles,
    brute_count_paths,
    brute_count_triangles,
    walker_steps,
)
from test_graphs import ROSTER, ROSTER_IDS


def test_triangles_known():
    assert count_triangles(complete_graph(4)) == 4
    assert count_triangles(cycle_graph(5)) == 0
    assert count_triangles(petersen_graph()) == 0  # girth 5


def test_cycles_known():
    assert count_cycles(cycle_graph(5), 5) == 1
    # frozen from the subset/permutation brute force
    assert brute_count_cycles(complete_graph(4), 4) == 3
    assert count_cycles(complete_graph(4), 4) == 3
    assert brute_count_cycles(petersen_graph(), 5) == 12
    assert count_cycles(petersen_graph(), 5) == 12


def test_cycles_guards():
    with pytest.raises(ValidationError):
        count_cycles(cycle_graph(4), 2)
    # no length cap: only the walk price refuses a cycle length
    assert count_cycles(cycle_graph(12), 10) == 0
    # at the call, not at the first next()
    with pytest.raises(ValidationError):
        enumerate_cycles(complete_graph(4), 2)
    assert list(enumerate_cycles(complete_graph(4), 12)) == []


@pytest.mark.parametrize("n", [8, 9, 10])
def test_cycles_on_complete_graphs_match_the_closed_form(n):
    # C(n, k) vertex sets, each closing (k - 1)!/2 cycles; C10 on K10 is priced at 5.6e7
    g = complete_graph(n)
    for k in range(3, n + 1):
        assert count_cycles(g, k) == math.comb(n, k) * math.factorial(k - 1) // 2


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_a_cycle_graph_holds_one_cycle_of_its_own_length(n):
    g = cycle_graph(n)
    assert [count_cycles(g, k) for k in range(3, n + 1)] == [0] * (n - 3) + [1]


def test_a_long_cycle_is_refused_by_its_walk_price_before_the_walk(monkeypatch):
    def walker_must_not_run(*args):
        raise AssertionError("walked before the price was checked")

    monkeypatch.setattr(oracles, "_simple_paths", walker_must_not_run)
    with pytest.raises(ResourceLimitError, match="WALK_LIMIT"):  # priced at 2.87e8
        count_cycles(complete_graph(11), 10)


def test_partial_path_guard_trips_on_every_walker_route(monkeypatch):
    g = complete_graph(6)
    assert count_cycles(g, 4) == 45 and count_paths(g, 3) == 180
    # both walk to depth 3, priced at 30 + 150 + 600: the paths' exact steps
    assert oracles._require_walks(g, 3) == 780 == walker_steps(g, 3, False)

    def walker_must_not_run(*args):
        raise AssertionError("walked before the price was checked")

    monkeypatch.setattr(oracles, "_simple_paths", walker_must_not_run)
    monkeypatch.setattr(oracles, "WALK_LIMIT", 779)
    for count in (
        lambda: enumerate_cycles(g, 4),
        lambda: count_cycles(g, 4),
        lambda: count_paths(g, 3),
        lambda: count_monotone_cycles(g, 4),
    ):
        with pytest.raises(ResourceLimitError, match="WALK_LIMIT=779 "):
            count()
    monkeypatch.undo()
    monkeypatch.setattr(oracles, "WALK_LIMIT", 780)
    assert count_cycles(g, 4) == 45 and count_paths(g, 3) == 180


def test_walk_guard_refuses_er60_at_k9_in_milliseconds():
    # the step counter it replaced raised only after 32 s of walking
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="walks exceed WALK_LIMIT=100000000 "):
        count_cycles(gen_er(60, 0.5, seed=1), 9)
    assert time.perf_counter() - start < 1.0


WALKER_ROUTES = [
    *((count_cycles, k) for k in range(3, 10)),
    *((count_monotone_cycles, k) for k in (4, 6, 8)),
    *((count_paths, k) for k in range(1, 9)),
]


@pytest.mark.parametrize("graph", ROSTER + [complete_graph(3)], ids=ROSTER_IDS + ["K3"])
def test_walk_bound_covers_the_walker_steps(monkeypatch, graph):
    # Each route prices the walk it runs, and the price bounds the steps of
    # the walker with its old counter.  On K3 the paths of 3 edges need the
    # third level: the price to 2 edges is 18, the steps 30.  Cases priced
    # above 3e5 take too long to step through.
    calls = []
    monkeypatch.setattr(
        oracles,
        "_simple_paths",
        lambda g, edges, rising: calls.append((edges, rising)) or iter(()),
    )
    monkeypatch.setattr(oracles, "WALK_LIMIT", math.inf)
    priced = []
    price = oracles._require_walks
    monkeypatch.setattr(
        oracles,
        "_require_walks",
        lambda g, depth: priced.append(depth) or price(g, depth),
    )
    stepped = 0
    for route, k in WALKER_ROUTES:
        route(graph, k)
        (edges, rising), priced_at = calls.pop(), priced.pop()
        assert priced_at == edges
        bound = price(graph, edges)
        if bound <= 3e5:
            assert walker_steps(graph, edges, rising) <= bound, (route.__name__, k)
            stepped += 1
    assert stepped >= 6
    if graph.n == 3:
        assert walker_steps(graph, 3, False) == 30 == price(graph, 3)
        assert price(graph, 2) == 18


def test_walk_limit_holds_the_tightest_route_under_a_minute():
    # Paths of 2 edges walk exactly their price, 2m + sum of d^2, so there
    # WALK_LIMIT is the step cap itself.  Timed near a price of 1e6, the
    # fastest of 3 runs, scaled to the limit, is 17-28 s on a 2-vCPU guest.
    g = gen_er(2000, 0.01, seed=1)
    price = oracles._require_walks(g, 2)
    assert walker_steps(g, 2, False) == price == 2 * g.m + (g.degrees**2).sum()

    def seconds():
        start = time.perf_counter()
        count_paths(g, 2)
        return time.perf_counter() - start

    assert min(seconds() for _ in range(3)) / price * oracles.WALK_LIMIT < 60


def test_paths_known():
    assert count_paths(path_graph(3), 2) == 1
    assert count_paths(complete_graph(3), 2) == 3
    # 4 middles x C(3,2) end pairs, frozen from the brute force
    assert brute_count_paths(complete_graph(4), 2) == 12
    assert count_paths(complete_graph(4), 2) == 12
    with pytest.raises(ValidationError):
        count_paths(path_graph(3), 0)


def test_low2stars_examples():
    assert count_low2stars(path_graph(3)) == 1
    assert count_low2stars(star_graph(5)) == 0
    assert count_low2stars(complete_graph(4)) == 12  # sum over i of i*(3-1)


def test_monotone_cycle_examples():
    assert count_monotone_cycles(cycle_graph(4), 4) == 1
    scrambled = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert count_monotone_cycles(scrambled, 4) == 0
    # K4 has three 4-cycles; the 0-2-1-3 one has no monotone triple
    assert brute_count_monotone_cycles(complete_graph(4), 4) == 2
    assert count_monotone_cycles(complete_graph(4), 4) == 2
    with pytest.raises(ValidationError):
        count_monotone_cycles(cycle_graph(5), 5)
    with pytest.raises(ValidationError):
        count_monotone_cycles(cycle_graph(4), 2)


def test_has_monotone_triple():
    assert has_monotone_triple((0, 1, 2, 3))
    assert not has_monotone_triple((0, 2, 1, 3))


@pytest.mark.parametrize("seed", range(4))
def test_counters_match_brute_force_on_random_graphs(seed):
    g = gen_er(8, 0.45, seed=seed)
    assert count_triangles(g) == brute_count_triangles(g)
    for k in (3, 4, 5, 6):
        assert count_cycles(g, k) == brute_count_cycles(g, k)
    for k in (1, 2, 3, 4):
        assert count_paths(g, k) == brute_count_paths(g, k)
    for length in (4, 6):
        assert count_monotone_cycles(g, length) == brute_count_monotone_cycles(g, length)


@pytest.mark.parametrize("graph", ROSTER + [complete_graph(3)], ids=ROSTER_IDS + ["K3"])
def test_isolated_nodes_change_no_count(monkeypatch, graph):
    # ids spread over 3n + 2 nodes: an isolated node before, between and
    # after every node with edges
    spread = Graph.from_edges(3 * graph.n + 2, 3 * graph.edges.astype(np.int64) + 1)
    assert count_triangles(spread) == count_triangles(graph)
    for k in (3, 4, 5, 6):
        cycles = [tuple(3 * x + 1 for x in c) for c in enumerate_cycles(graph, k)]
        assert list(enumerate_cycles(spread, k)) == cycles
        assert count_cycles(spread, k) == len(cycles)
    for k in (1, 2, 3, 4):
        assert count_paths(spread, k) == count_paths(graph, k)
    for length in (4, 6):
        assert count_monotone_cycles(spread, length) == count_monotone_cycles(graph, length)
    assert degeneracy(spread) == degeneracy(graph)
    # every walker route prices the same walk, to the bit
    priced, price = [], oracles._require_walks
    monkeypatch.setattr(oracles, "_simple_paths", lambda *args, rising: iter(()))
    monkeypatch.setattr(oracles, "WALK_LIMIT", math.inf)
    monkeypatch.setattr(
        oracles, "_require_walks", lambda g, depth: priced.append(price(g, depth))
    )
    for g in (graph, spread):
        for route, k in WALKER_ROUTES:
            route(g, k)
    assert priced[: len(WALKER_ROUTES)] == priced[len(WALKER_ROUTES) :]


def test_oracles_do_no_work_per_isolated_node():
    # One edge among 10^6 nodes.  Built for every node, the oracles' sets
    # and lists took 1.4-4.6 s and peaked at 62-277 MiB (tracemalloc); over
    # the nodes with edges each count takes milliseconds and well under 1 MiB.
    g = Graph.from_edges(10**6, [(0, 1)])
    for count, expected in [
        (count_triangles, 0),
        (lambda g: count_paths(g, 1), 1),
        (lambda g: count_paths(g, 2), 0),
        (lambda g: count_cycles(g, 5), 0),
        (lambda g: count_monotone_cycles(g, 4), 0),
    ]:
        start = time.perf_counter()
        tracemalloc.start()
        try:
            assert count(g) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.5
        assert peak < 2**20


def test_cycles_3_equals_triangles():
    for seed in range(3):
        g = gen_er(10, 0.4, seed=seed)
        assert count_cycles(g, 3) == count_triangles(g)


def test_enumerate_cycles_canonical_form():
    for c in enumerate_cycles(petersen_graph(), 5):
        assert c[0] == min(c)
        assert c[1] < c[-1]
        assert len(set(c)) == 5


@pytest.mark.parametrize("seed", range(3))
def test_counts_invariant_under_relabel(seed):
    g = gen_er(9, 0.4, seed=seed)
    phi = np.random.default_rng(seed + 100).permutation(9)
    h = relabel(g, phi)
    assert count_triangles(h) == count_triangles(g)
    assert count_cycles(h, 4) == count_cycles(g, 4)
    assert count_paths(h, 3) == count_paths(g, 3)


def test_ordering_sensitive_counts_change_under_relabel():
    g = path_graph(3)  # low2stars = 1 with the middle node ranked last
    assert count_low2stars(g) == 1
    assert count_low2stars(relabel(g, [1, 0, 2])) == 0
    c = cycle_graph(4)
    assert count_monotone_cycles(c, 4) == 1
    assert count_monotone_cycles(relabel(c, [0, 2, 1, 3]), 4) == 0


def test_monotone_never_exceeds_total_cycles():
    for seed in range(3):
        g = gen_er(10, 0.35, seed=seed)
        for length in (4, 6):
            assert count_monotone_cycles(g, length) <= count_cycles(g, length)


def test_exact_counts_bundle_json():
    g = complete_graph(4)
    c = exact_counts(g, cycle_lengths=(3, 4), path_lengths=(2,), monotone_lengths=(4,))
    doc = c.to_json_dict()
    assert doc["triangles"] == 4
    assert doc["cycles"] == {"3": 4, "4": 3}
    assert doc["paths"] == {"2": 12}
    assert doc["monotone_cycles"] == {"4": 2}
    assert c.cycles[3] == c.triangles


@pytest.mark.parametrize("lengths", [
    {"cycle_lengths": (2,)},
    {"cycle_lengths": (3.5,)},
    {"path_lengths": (0,)},
    {"monotone_lengths": (5,)},
    {"monotone_lengths": (2,)},
    {"cycle_lengths": (4,), "path_lengths": (2,), "monotone_lengths": (4.0,)},
], ids=["cycle-2", "cycle-3.5", "path-0", "monotone-5", "monotone-2", "last-of-many"])
def test_exact_counts_refuses_a_bad_length_before_the_first_count(monkeypatch, lengths):
    # the triangle count ran first: 6.3 s on gen_ba(10**6, 3)
    def must_not_count(graph):
        raise AssertionError("counted before every length was checked")

    monkeypatch.setattr(oracles, "count_triangles", must_not_count)
    with pytest.raises(ValidationError):
        exact_counts(complete_graph(4), **lengths)


@pytest.mark.parametrize("count", [count_cycles, count_paths, count_monotone_cycles])
@pytest.mark.parametrize("length", [4.5, 4.0, 2.5, True, "4"], ids=repr)
def test_lengths_must_be_integers(count, length):
    # a float or bool once ran as its truncation: count_cycles(g, 4.5) was
    # the 4-cycle count and count_paths(g, 2.5) the 2-edge path count
    with pytest.raises(ValidationError, match="must be an integer"):
        count(complete_graph(6), length)
    with pytest.raises(ValidationError, match="must be an integer"):
        enumerate_cycles(complete_graph(6), length)  # at the call, not at next()


def test_numpy_integer_lengths_give_int_keys():
    g = complete_graph(6)
    four = np.int64(4)
    assert count_cycles(g, four) == count_cycles(g, 4) == 45
    assert count_paths(g, np.int64(2)) == count_paths(g, 2)
    c = exact_counts(g, cycle_lengths=(four,), path_lengths=(four,),
                     monotone_lengths=(four,))
    for counts in (c.cycles, c.paths, c.monotone_cycles):
        assert [type(k) for k in counts] == [int]
    assert c == exact_counts(g, cycle_lengths=(4,), path_lengths=(4,),
                             monotone_lengths=(4,))
    with pytest.raises(ValidationError, match="cycle length must be an integer"):
        exact_counts(g, cycle_lengths=(4.0,))


def test_ordered_structure_constants_reported():
    # Analytic envelopes scale as degeneracy^2*n (low 2-stars) and
    # degeneracy^3*n (monotone 4-cycles); print the measured constants on a
    # preferentially-attached graph after one noisy-degree ordering.
    g = gen_ba(200, 2, seed=4)
    ordering = get_ordering(g, 1.0, np.random.default_rng(0).random(g.n))
    h = apply_ordering(g, ordering)
    delta = degeneracy(g)
    n = g.n
    c_s2 = count_low2stars(h) / (delta**2 * n)
    c_c4 = count_monotone_cycles(h, 4) / (delta**3 * n)
    c_c5 = count_cycles(h, 5) / (delta**3 * n**2)
    print(f"ordered-structure constants: low2stars {c_s2:.3f}, "
          f"monotone-C4 {c_c4:.3f}, C5 {c_c5:.3g}")
    assert np.isfinite([c_s2, c_c4, c_c5]).all()
