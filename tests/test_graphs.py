import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpcount import (
    Graph,
    graphs,
    ParseError,
    ResourceLimitError,
    ValidationError,
    complete_graph,
    derive_seed,
    cycle_graph,
    degeneracy,
    dump_edge_list,
    gen_ba,
    gen_er,
    gen_ktree,
    graph_stats,
    load_edge_list,
    path_graph,
    petersen_graph,
    relabel,
    star_graph,
)
from ldpcount.graphs import EDGE_LIMIT, NODE_LIMIT, _lemire, _raw_halves
from ldpcount.oracles import count_cycles, count_triangles

from _brute import (
    _gen_ba_integers,
    _gen_ktree_tuples,
    _graph_from_edge_set,
    _relabel_from_edges,
    assert_same_graph,
    has_edge,
)


def test_load_basic_path():
    g = load_edge_list("0 1\n1 2")
    assert (g.n, g.m) == (3, 2)
    assert [g.row(i).tolist() for i in range(3)] == [[1], [0, 2], [1]]
    assert g.row(-1).tolist() == [1]  # an index, as a sequence takes it
    with pytest.raises(IndexError):
        g.row(3)


def test_load_comments_and_blanks():
    g = load_edge_list("# a comment\n\n0 1\n  \n# trailing\n1 2\n")
    assert (g.n, g.m) == (3, 2)
    g = load_edge_list("0 1  # note\n")
    assert g.edges.tolist() == [[0, 1]]


def test_load_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        load_edge_list("0 0")


def test_load_duplicate_rejected_both_orientations():
    with pytest.raises(ValidationError, match="duplicate"):
        load_edge_list("0 1\n1 0")
    with pytest.raises(ValidationError, match="line 3"):
        load_edge_list("0 1\n1 2\n0 1")


def test_load_names_the_line_of_the_offending_pair():
    # comments and blank lines count toward the line number
    with pytest.raises(ValidationError, match="^line 4: self-loop at node 2$"):
        load_edge_list("0 1\n# note\n\n2 2\n1 2\n")
    with pytest.raises(ValidationError, match=r"^line 5: duplicate edge \(1, 2\)$"):
        load_edge_list("0 1\n1 2\n\n2 3  # ok\n2 1\n")


def test_load_malformed_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list("0 1\n0 1 2")
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list("a b")
    with pytest.raises(ParseError, match="negative"):
        load_edge_list("-1 2")
    # int() would read these as 10 and 3
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list("0 1\n1_0 2")
    with pytest.raises(ParseError, match="line 3"):
        load_edge_list("0 1\n\n\u0663 1")
    assert load_edge_list("+0 1\n01 2") == path_graph(3)


def test_load_gap_warns_not_errors():
    with pytest.warns(UserWarning, match="unused"):
        g = load_edge_list("0 1\n3 4")
    assert g.n == 5
    assert g.degrees[2] == 0


def test_edge_list_round_trip_bit_exact():
    g = gen_er(20, 0.3, seed=5)
    text = dump_edge_list(g)
    assert load_edge_list(text) == g
    assert dump_edge_list(load_edge_list(text)) == text
    # emitted u<v, lexicographically sorted
    assert text.splitlines() == sorted(text.splitlines(), key=lambda s: tuple(map(int, s.split())))


def test_from_edges_validation():
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError, match="node count"):
        Graph.from_edges(-1, [])


def test_load_keeps_its_error_order_past_int64_and_on_crlf():
    # an id at or past the int64 maximum is refused by the node count, after
    # every parse error
    for big in (2**63 - 1, 2**70):
        with pytest.raises(ResourceLimitError, match=f"^n={big + 1} nodes > NODE_LIMIT="):
            load_edge_list(f"0 1\n1 {big}\n2 3\n")
    with pytest.raises(ParseError, match="line 3"):
        load_edge_list(f"0 1\n1 {big}\nx y\n")
    assert load_edge_list("0 1\r\n1 2\r\n") == path_graph(3)


@pytest.mark.parametrize("end", ["\r", "\v", "\f", "\x1c", "\x85", "\u2028", "\u2029"])
def test_load_ends_lines_where_splitlines_does(monkeypatch, end):
    assert load_edge_list(f"0 1{end}1 2{end}") == path_graph(3)
    with pytest.raises(ParseError, match="line 3"):
        load_edge_list(f"0 1{end}# c\r\n1 x\n")
    # each end is priced as a line, a CRLF once
    monkeypatch.setattr(graphs, "EDGE_LIMIT", 3)
    assert load_edge_list(f"0 1{end}1 2\r\n2 3") == path_graph(4)
    with pytest.raises(ResourceLimitError, match="^m=4 edges > EDGE_LIMIT=3;"):
        load_edge_list(f"0 1{end}1 2\r\n2 3\n")


def test_edge_list_priced_by_its_lines_before_parsing(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("built before the price was checked")

    monkeypatch.setattr(graphs, "EDGE_LIMIT", 100)
    monkeypatch.setattr(graphs, "_canonical", must_not_run)
    # a parse would stop at line 1; 101 newlines make 102 lines
    with pytest.raises(ResourceLimitError, match="^m=102 edges > EDGE_LIMIT=100;"):
        load_edge_list("x y\n" + "0 1\n" * 100)
    with pytest.raises(ParseError, match="line 1"):
        load_edge_list("x y\n" + "0 1\n" * 98)


def test_node_limit_refused_before_any_array_of_n():
    # 10**12 nodes once asked numpy for 7.28 TiB and raised MemoryError
    tracemalloc.start()
    with pytest.raises(ResourceLimitError, match="NODE_LIMIT"):
        Graph.from_edges(10**12, [])
    with pytest.raises(ResourceLimitError, match="NODE_LIMIT"):
        Graph.from_edges(NODE_LIMIT + 1, np.array([[0, NODE_LIMIT]]))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "build",
    [
        lambda n: Graph.from_edges(n, [(0, n - 1)]),
        lambda n: load_edge_list(f"0 1\n1 {n - 1}\n"),
        lambda n: gen_er(n, 0.5, 1),
        lambda n: gen_ba(n, 3, 1),
        lambda n: gen_ktree(n, 2, 1),
        lambda n: path_graph(n),
        lambda n: cycle_graph(n),
        lambda n: complete_graph(n),
        lambda n: star_graph(n),
    ],
    ids=[
        "from_edges", "load_edge_list", "gen_er", "gen_ba", "gen_ktree", "path",
        "cycle", "complete", "star",
    ],
)
def test_every_constructor_refuses_n_above_node_limit_first(monkeypatch, build):
    def no_draws(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(graphs, "NODE_LIMIT", 10)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="^n=2000 nodes > NODE_LIMIT=10;"):
            build(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14  # a list of n pairs takes about 2**18 bytes


@pytest.mark.parametrize(
    "build, m",
    [
        (lambda: gen_er(2000, 0.5, 1), 999500),
        (lambda: gen_ba(2000, 3, 1), 5991),
        (lambda: gen_ktree(2000, 2, 1), 3997),
        (lambda: complete_graph(2000), 1999000),
        (lambda: path_graph(2000), 1999),
        (lambda: cycle_graph(2000), 2000),
        (lambda: star_graph(2000), 1999),
    ],
    ids=["gen_er", "gen_ba", "gen_ktree", "complete", "path", "cycle", "star"],
)
def test_generators_refuse_m_above_edge_limit_first(monkeypatch, build, m):
    # gen_er(2000, 1.0) once peaked at 575 MB over 28 s before any guard
    def no_draws(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(graphs, "EDGE_LIMIT", 100)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"^m={m} edges > EDGE_LIMIT=100;"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14


_BA_TEXT = dump_edge_list(gen_ba(2 * 10**4, 3, 1))
# Every constructor that makes its own edges, and the edge-list reader, at
# about the largest size that builds within a second or two under tracemalloc.
LARGE_BUILDS = {
    "load_edge_list": lambda: load_edge_list(_BA_TEXT),
    "gen_er": lambda: gen_er(3000, 0.05, 1),
    "gen_ba": lambda: gen_ba(2 * 10**4, 3, 1),
    "gen_ktree": lambda: gen_ktree(2 * 10**4, 3, 1),
    "gen_ktree-k40": lambda: gen_ktree(2000, 40, 1),
    "path": lambda: path_graph(10**6),
    "cycle": lambda: cycle_graph(10**6),
    "star": lambda: star_graph(10**6),
    "complete": lambda: complete_graph(1500),
}


@pytest.mark.parametrize("name", sorted(LARGE_BUILDS))
def test_every_constructor_peaks_within_the_edge_limit_price(name):
    # EDGE_LIMIT is priced at 128 bytes per edge; the k-tree's lists of edge
    # and clique tuples peaked at 244 (571 at k = 40), the named graphs' edge
    # tuples at 153-232, an edge list's tuples and line list at 246
    tracemalloc.start()
    try:
        g = LARGE_BUILDS[name]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * g.m


def test_a_faulty_edge_list_peaks_within_the_edge_limit_price():
    # A repeat on the last line once sent the whole file through a list of
    # pairs and a set of tuples: 266 bytes per edge at 10**5 nodes.
    g = load_edge_list(_BA_TEXT)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=rf"^line {g.m + 1}: duplicate edge \(0, 1\)$"):
            load_edge_list(_BA_TEXT + "0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * g.m


def test_gen_ba_graph_is_small_read_only_and_sorted():
    # the tuples of Python ints it replaced held 62 MiB; a Python list of
    # edge ends, in place of the int32 buffer, peaked at 39 MiB
    tracemalloc.start()
    try:
        g = gen_ba(10**5, 3, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 8 * 2**20
    assert peak <= 32 * 2**20
    assert (g.edges.dtype, g.indices.dtype, type(g.n)) == (np.int32, np.int32, int)
    for a in (g.edges, g.indptr, g.indices, g.row(0)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    assert all((np.diff(g.row(i)) > 0).all() for i in range(g.n))


FAULTS = [
    (3, [(0, 1), (2, 2), (0, 5)], "self-loop at node 2"),
    (3, [(0, 1), (1, 1), (2, 2)], "self-loop at node 1"),  # every id in range
    (3, [(0, 5), (1, 1)], r"edge \(0, 5\) out of range for n=3"),
    # 1*3 + 2 == 0*3 + 5: the sort key alone would take this for (1, 2)
    (3, [(1, 2), (0, 5)], r"edge \(0, 5\) out of range for n=3"),
    (3, [(0, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
    (3, [(2, 1), (0, 1), (1, 2)], r"duplicate edge \(1, 2\)"),
    (3, [(-1, 2)], r"edge \(-1, 2\) out of range for n=3"),
    (0, [(0, 1)], r"edge \(0, 1\) out of range for n=0"),
]
FAULT_IDS = [
    "self-loop", "loop-in-range", "range", "key-collision", "duplicate", "flipped",
    "negative", "n0",
]


@pytest.mark.parametrize(
    "n, pairs, message",
    [
        *FAULTS,
        (3, [(0, 1), ("0", 5)], r"non-integer node id in edge \('0', 5\)"),
        # these raised a bare TypeError or ValueError from unpacking
        (4, [1, 2], "edge 1 is not a pair of node ids"),
        (4, [(0, 1), (1, 2, 3)], r"edge \(1, 2, 3\) is not a pair of node ids"),
        (4, [(0,), (1, 1)], r"edge \(0,\) is not a pair of node ids"),
    ],
    ids=[*FAULT_IDS, "str", "flat", "triple", "single"],
)
def test_from_edges_reports_the_first_fault_in_input_order(n, pairs, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Graph.from_edges(n, pairs)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize(
    "n, pairs, message",
    [
        *FAULTS,
        (4, [1, 2, 3], "edge 1 is not a pair of node ids"),
        (4, [(0, 1, 2), (1, 2, 3)], r"edge \[0, 1, 2\] is not a pair of node ids"),
    ],
    ids=[*FAULT_IDS, "flat", "rows-of-3"],
)
def test_from_edges_array_reports_like_its_list_form(n, pairs, message, dtype):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Graph.from_edges(n, np.array(pairs, dtype=dtype))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 6),
    pairs=st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)), max_size=10),
)
def test_an_array_names_the_fault_its_list_form_names(n, pairs):
    # the array route's argsort marks against the list route's set of tuples
    fault = graphs._first_fault(n, pairs)
    array = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    if fault:
        assert graphs._array_fault(n, array) == fault
    else:
        assert Graph.from_edges(n, array) == Graph.from_edges(n, pairs)


@pytest.mark.parametrize(
    "pairs",
    [
        [(0.9, 2.7)],
        [("0", "2")],
        [(True, 2)],
        [(0, np.bool_(True))],
        np.array([(0.9, 2.7)]),
        np.array([(0.0, 2.0)]),
        np.array([(False, True)]),
    ],
)
def test_from_edges_rejects_non_integer_ids(pairs):
    # int() used to coerce these to (0, 2), (0, 2) and (1, 2)
    with pytest.raises(ValidationError, match="non-integer node id"):
        Graph.from_edges(3, pairs)


def test_from_edges_accepts_python_and_numpy_integers():
    g = Graph.from_edges(3, [(np.int64(2), np.uint8(0)), (1, np.int32(2))])
    assert_same_graph(g, _graph_from_edge_set(3, [(0, 2), (1, 2)]))
    with pytest.raises(ValidationError, match="out of range"):
        Graph.from_edges(3, [(0, 2**70)])  # not an OverflowError
    for dtype in (np.int64, np.int8, np.uint64):
        got = Graph.from_edges(3, np.array([(2, 0), (1, 2)], dtype=dtype))
        assert_same_graph(got, g)
    empty = np.empty((0, 2), dtype=np.int64)
    assert Graph.from_edges(3, empty) == Graph.from_edges(3, [])
    with pytest.raises(ValidationError, match="out of range"):
        Graph.from_edges(3, np.array([(0, 2**63)], dtype=np.uint64))


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_edges(3.5, [(0, 1)]),
        lambda: Graph.from_edges(3.0, []),
        lambda: Graph.from_edges("3", [(0, 1)]),
        lambda: Graph.from_edges(True, []),
        lambda: gen_ba(10, 2.5, 1),
        lambda: gen_ba(10.0, 2, 1),
        lambda: gen_ba(10, True, 1),
        lambda: gen_er(10.0, 0.5, 1),
        lambda: gen_ktree(10, 2.0, 1),
        lambda: path_graph(3.0),
        lambda: cycle_graph(np.float64(4)),
        lambda: complete_graph("3"),
        lambda: star_graph(False),
    ],
)
def test_counts_must_be_integers(build):
    with pytest.raises(ValidationError, match="must be an integer, got"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gen_ba(10, 0, 1), "edges per new node must be >= 1, got 0"),
        (lambda: gen_ktree(10, 0, 1), "k must be >= 1, got 0"),
        (lambda: gen_ktree(3, 3, 1), "need n > k, got n=3, k=3"),
        (lambda: cycle_graph(2), "cycle needs >= 3 nodes, got 2"),
        (lambda: path_graph(-1), "node count must be >= 0, got -1"),
    ],
    ids=["ba-m0", "ktree-k", "ktree-n", "cycle-n", "path-n"],
)
def test_generator_shapes_out_of_range_refused(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


def test_numpy_integer_counts_become_int():
    g = Graph.from_edges(np.int64(3), [(0, 1)])
    assert type(g.n) is int and g == Graph.from_edges(3, [(0, 1)])
    for got, want in [
        (gen_ba(np.int32(10), np.uint8(2), 1), gen_ba(10, 2, 1)),
        (gen_er(np.int64(10), 0.5, 1), gen_er(10, 0.5, 1)),
        (gen_ktree(np.int64(10), np.int64(2), 1), gen_ktree(10, 2, 1)),
        (cycle_graph(np.int16(5)), cycle_graph(5)),
    ]:
        assert type(got.n) is int and got == want


def test_gen_er_extremes():
    assert gen_er(5, 0.0, seed=1).m == 0
    assert gen_er(5, 1.0, seed=1).m == 10
    with pytest.raises(ValidationError):
        gen_er(5, 1.5, seed=1)


def test_gen_er_draws_row_by_row_with_the_same_bytes():
    # The digest is of the graph that one draw over all n(n-1)/2 pairs gave,
    # which held about 763 MiB at its peak; row-by-row draws keep it small.
    tracemalloc.start()
    try:
        g = gen_er(8000, 1e-3, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 32321
    digest = hashlib.sha256(dump_edge_list(g).encode()).hexdigest()
    assert digest == "bf9de0760a300502622b1132904b8190f2fe3c94b0203ac59818a0c6acfd0204"
    assert peak < 32 * 2**20


def test_gen_er_edge_count_within_3_sigma():
    # binomial over C(1000,2) pairs at p=0.01
    g = gen_er(1000, 0.01, seed=7)
    pairs = 1000 * 999 // 2
    mean = pairs * 0.01
    sigma = np.sqrt(pairs * 0.01 * 0.99)
    assert abs(g.m - mean) <= 3 * sigma


def test_gen_ba_tree_when_m0_is_1():
    g = gen_ba(10, 1, seed=3)
    assert g.m == 9
    assert degeneracy(g) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gen_ba_degeneracy_at_most_m0(seed):
    g = gen_ba(100, 3, seed=seed)
    assert degeneracy(g) <= 3


def test_gen_ba_rejects_small_n():
    with pytest.raises(ValidationError):
        gen_ba(5, 5, seed=0)


@pytest.mark.parametrize(
    "n, m0", [(2, 1), (4, 3), (10, 1), (200, 3), (1000, 10), (6400, 3)]
)
@pytest.mark.parametrize("seed", [0, *(derive_seed(s, "graph") for s in range(4))])
def test_gen_ba_matches_the_integers_reference(n, m0, seed):
    assert_same_graph(gen_ba(n, m0, seed), _gen_ba_integers(n, m0, seed))


@pytest.mark.parametrize("high", [3 * 2**30 + 1, 2**31 + 1, 2**32 - 1, 7, 2])
def test_lemire_draws_are_generator_integers(high):
    # 3*2**30 + 1 rejects about a quarter of all words, 2**31 + 1 half
    ours = np.random.default_rng(11)
    theirs = np.random.default_rng(11)
    halves = _raw_halves(ours.bit_generator)
    for _ in range(4):
        for _ in range(2000):
            assert _lemire(halves, high) == int(theirs.integers(high))
        # same words taken: integers(2**32) hands out the next half as is
        assert next(halves) == int(theirs.integers(2**32))


def test_gen_ba_refuses_bounds_from_2_32_before_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for n, m0 in [(2**31 + 1, 1), (2**30 + 2, 2), (2**31 + 1, 2**31), (2**40, 3)]:
        assert 2 * m0 * (n - m0) >= 2**32 and n > NODE_LIMIT
        with pytest.raises(ResourceLimitError, match="NODE_LIMIT"):
            gen_ba(n, m0, seed=0)
    # at most NODE_LIMIT nodes, the edge limit refuses every draw bound
    # 2*m0*(n - m0) from 2*EDGE_LIMIT < 2**32 on
    assert 2 * EDGE_LIMIT < 2**32
    inside = EDGE_LIMIT // 3 + 3
    for n, m0 in [(2**27, 2**25), (2**26 + 64, 64), (inside + 1, 3)]:
        assert m0 * (n - m0) > EDGE_LIMIT and n <= NODE_LIMIT
        with pytest.raises(ResourceLimitError, match="EDGE_LIMIT"):
            gen_ba(n, m0, seed=0)
    with pytest.raises(AssertionError, match="drew"):  # just inside the limit
        gen_ba(inside, 3, seed=0)


def test_gen_ktree_degeneracy_exact():
    g = gen_ktree(40, 3, seed=2)
    assert degeneracy(g) == 3


@pytest.mark.parametrize("n, k", [(2, 1), (30, 1), (50, 3), (300, 7), (1000, 4), (60, 40)])
@pytest.mark.parametrize("seed", [0, *(derive_seed(s, "graph") for s in range(2))])
def test_gen_ktree_matches_the_clique_tuple_reference(n, k, seed):
    assert_same_graph(gen_ktree(n, k, seed), _gen_ktree_tuples(n, k, seed))


# sha256 of each graph's dump_edge_list, pinned while the k-tree and the
# named graphs were still built from Python tuples; "e3b0c442..." is the
# empty edge list
GRAPH_DIGESTS = [
    (lambda: gen_er(300, 0.1, 1), "14fcf3498f924dca25e7bda055dcecd58d5a37a4c54a1c0f44ed408e6fcfa018"),
    (lambda: gen_er(1, 0.5, 1), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: gen_ba(300, 3, 1), "d0d3f47e33cb65b8d53501abe97dc35eae62cca4df46d08e287d33b7ccab0bef"),
    (lambda: gen_ktree(50, 3, 1), "ad964fe0b4592fba990869064571be591e395243b80aa6c477e78cfd051f5f45"),
    (lambda: gen_ktree(10**3, 4, 2), "52f4ff4eb46c24cf1d69f97766975b4b936873aa28582bb14f6ca48cd880e5c0"),
    (lambda: gen_ktree(10**5, 3, 3), "fc68b079d70fdf665e2e72452ba863269ca6875ef3632abac27e839328c399d1"),
    (lambda: gen_ktree(60, 40, 4), "39019c36fb222739af1886ddee6ff0713722caf7c55911ad5ecc9f7f0e81f400"),
    (lambda: path_graph(10**5), "b444ad978ad8a685b660bca029991e09874c2a4a9ec30f0671c59eca66c69046"),
    (lambda: path_graph(1), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: cycle_graph(10**5), "d5b5a2ad169f695c33e207e749e2319e3b11619f271e63a7896560e18b6118e4"),
    (lambda: star_graph(10**5), "42b4d068703692fc2da923bc8a82cc9ff6cb34c0262d7c38687313ac20289e21"),
    (lambda: star_graph(1), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: complete_graph(300), "cdb5b39467b2b66d0235922d58e30fc916ae5d25279b8f3e13a54bd3adb8cfc3"),
    (lambda: complete_graph(1), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (lambda: petersen_graph(), "5e831e4e971b87aaa20e92099ed3002faad1fae5f6606d0fa214cfdfee658023"),
]
GRAPH_DIGEST_IDS = [
    "er", "er-n1", "ba", "ktree-50-3", "ktree-1e3-4", "ktree-1e5-3", "ktree-k40",
    "path", "path-n1", "cycle", "star", "star-n1", "complete", "complete-n1", "petersen",
]


@pytest.mark.parametrize("build, digest", GRAPH_DIGESTS, ids=GRAPH_DIGEST_IDS)
def test_every_constructor_builds_the_same_graph_on_the_array_path(
    monkeypatch, build, digest
):
    def no_pair_loop(n, pairs):
        raise AssertionError("a constructor's edges reached the pair loop")

    monkeypatch.setattr(graphs, "_first_fault", no_pair_loop)
    g = build()
    assert hashlib.sha256(dump_edge_list(g).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "graph,expected",
    [
        (gen_ba(10, 1, seed=3), 1),
        (cycle_graph(6), 2),
        (complete_graph(5), 4),
        (petersen_graph(), 3),
    ],
)
def test_degeneracy_known_values(graph, expected):
    delta = degeneracy(graph)
    assert type(delta) is int and delta == expected


def test_relabel_identity_and_isomorphism():
    tri = complete_graph(3)
    assert relabel(tri, [0, 1, 2]) == tri
    assert count_triangles(relabel(tri, [2, 0, 1])) == 1
    k4 = complete_graph(4)
    for phi in ([1, 3, 0, 2], [3, 2, 1, 0]):
        assert count_cycles(relabel(k4, phi), 4) == 3


def test_relabel_rejects_non_bijection():
    with pytest.raises(ValidationError):
        relabel(path_graph(3), [0, 0, 1])


ROSTER = [
    gen_ba(120, 3, seed=2),
    gen_er(90, 0.08, seed=3),
    gen_ktree(40, 3, seed=4),
    petersen_graph(),
    path_graph(9),
    complete_graph(7),
    Graph.from_edges(6, []),
    Graph.from_edges(0, []),
    Graph.from_edges(1, []),
]
ROSTER_IDS = [
    "ba", "er", "ktree", "petersen", "path", "complete", "edgeless", "n0", "n1"
]


@pytest.mark.parametrize("graph", ROSTER, ids=ROSTER_IDS)
def test_from_edges_matches_the_set_based_reference(graph):
    assert_same_graph(graph, _graph_from_edge_set(graph.n, graph.edges))
    # any order and orientation of the input gives the same graph
    rng = np.random.default_rng(graph.m)
    flips = rng.choice([1, -1], size=graph.m)
    shuffled = [graph.edges[t][:: flips[t]] for t in rng.permutation(graph.m)]
    got = Graph.from_edges(graph.n, shuffled)
    assert_same_graph(got, _graph_from_edge_set(graph.n, shuffled))
    assert_same_graph(got, graph)


@pytest.mark.parametrize("graph", ROSTER, ids=ROSTER_IDS)
def test_relabel_is_a_canonical_graph(graph):
    rng = np.random.default_rng(graph.n + graph.m)
    for _ in range(3):
        phi = rng.permutation(graph.n)
        got = relabel(graph, phi)
        assert_same_graph(got, Graph.from_edges(graph.n, got.edges))
        assert_same_graph(got, _relabel_from_edges(graph, phi))
    if graph.n >= 2:
        clash = np.arange(graph.n)
        clash[-1] = 0
        with pytest.raises(ValidationError, match="bijection"):
            relabel(graph, clash)
    with pytest.raises(ValidationError, match="bijection"):
        relabel(graph, np.arange(graph.n + 1))


def test_relabel_rejects_non_integer_phi():
    # the int64 cast used to truncate these to the identity
    for phi in ([0.9, 1.5, 2.2], [2.0, 1.0, 0.0], ["0", "1", "2"], [True, False, True]):
        with pytest.raises(ValidationError, match="must be integers"):
            relabel(path_graph(3), phi)
    got = relabel(path_graph(3), np.array([2, 1, 0], dtype=np.uint8))
    assert got.edges.tolist() == [[0, 1], [1, 2]]


def test_graph_stats_examples():
    s = graph_stats(path_graph(3))
    assert s.chiba_sum == 2
    k4 = graph_stats(complete_graph(4))
    assert (k4.chiba_sum, k4.degeneracy) == (18, 3)
    assert k4.chiba_sum == k4.m * k4.degeneracy  # this form happens to be tight on K4
    # the provable bound carries a factor 2: sum of edge-minimum degrees is
    # at most 2 * arboricity * m <= 2 * degeneracy * m
    ba = graph_stats(gen_ba(200, 3, seed=9))
    assert ba.chiba_sum <= 2 * ba.m * ba.degeneracy


def test_graph_stats_arboricity_range():
    assert graph_stats(complete_graph(4)).arboricity_range == (2, 3)
    assert graph_stats(path_graph(5)).arboricity_range == (1, 1)
    assert graph_stats(Graph.from_edges(3, [])).arboricity_range == (0, 0)


def test_graph_stats_peels_only_the_nodes_with_edges():
    # One edge among 10^6 nodes.  A heap entry and a removal for every
    # isolated node took 2.7-4.7 s; the degree list per node stays.
    g = Graph.from_edges(10**6, [(0, 1)])
    start = time.perf_counter()
    s = graph_stats(g)
    assert time.perf_counter() - start < 0.5
    assert (s.n, s.m, s.d_max, s.degeneracy, s.chiba_sum) == (10**6, 1, 1, 1, 1)
    assert s.arboricity_range == (1, 1)


def test_star_graph_shape():
    g = star_graph(5)
    assert g.degrees.tolist() == [4, 1, 1, 1, 1]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
)
def test_generated_graph_invariants(n, p, seed):
    g = gen_er(n, p, seed)
    assert g.m == int(g.degrees.sum()) // 2
    for u, v in g.edges.tolist():
        assert u < v
        assert has_edge(g, u, v) and has_edge(g, v, u)
    for i in range(g.n):
        assert (np.diff(g.row(i)) > 0).all()
    s = graph_stats(g)
    assert s.degeneracy <= s.d_max
    assert s.m <= s.degeneracy * s.n
    assert s.chiba_sum <= 2 * s.m * max(s.degeneracy, 1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 10**6), perm_seed=st.integers(0, 10**6))
def test_degeneracy_invariant_under_relabel(n, seed, perm_seed):
    g = gen_er(n, 0.4, seed)
    phi = np.random.default_rng(perm_seed).permutation(n)
    assert degeneracy(relabel(g, phi)) == degeneracy(g)
