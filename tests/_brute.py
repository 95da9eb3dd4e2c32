"""Independent brute-force references for the library's counters and sums.

The counters enumerate subsets and permutations; they deliberately avoid the
library's path walker so the two routes act as oracles for each other.
``charged_user`` is the no-noise charge rule: the one user whose sum counts
a given cycle, read off the cycle's ranks alone.
``_admissible_sum_dfs`` is the depth-first, one-term-at-a-time admissible
path sum whose float result the vectorized cycle route reproduces bit for
bit, and ``_admissible_sum_k5_grid`` is the one-grid-per-fork-pair k=5 sum
whose float result the per-user k=5 route reproduces bit for bit; its mask,
``_k5_grid_mask``, is the definition the route's closed-form masks equal.  The
server-layer references (``_assemble_bits_lower_plus_transpose``,
``_unbiased_one_shot``, ``_relabel_from_edges``, ``_fork_sum_ix``) are the
direct forms that the library's RR row parts, array relabel and fork sums
reproduce bit for bit: ``_assemble_bits_lower_plus_transpose`` is the
per-row RR loop and one whole-matrix mirror that the library's block-wise
flips, and each part's mirror of its own columns panel by panel, reproduce.
``_graph_from_edge_set`` is the set-and-lists build whose arrays the
library's one sorted-key constructor reproduces (``assert_same_graph``), and
``has_edge`` reads an edge off a row.
``derive_seed_one_shot`` hashes a derivation path's whole text in one
blake2b call, the digest the library's cached-head ``derive_seed``
reproduces, and ``_substream_key_route`` builds each stream from it the way
numpy documents, ``Philox(key=...)``, whose state and draws the library's
entropy-free ``substream`` reproduces bit for bit.  ``_gen_ba_integers`` is
preferential attachment with one ``Generator.integers`` call per draw, whose
graphs the library's raw-stream ``gen_ba`` reproduces, and
``_gen_ktree_tuples`` the random k-tree grown from lists of edge and clique
tuples, whose graphs the library's array ``gen_ktree`` reproduces.
``given_rows`` is a stream function of fixed draws for
``assemble_obfuscated``, beside ``partial(substream, ...)``: it serves the
raw words the draws are made from.
``walker_steps`` is the oracle's simple-path walker with the step counter it
once checked in its loop; the library's walk bound must cover its count.
Only usable at tiny sizes.
"""

import hashlib
from types import SimpleNamespace
from itertools import combinations, permutations

import numpy as np

from ldpcount import (
    Graph,
    ValidationError,
    randomize_response_row,
    unbias,
)
from ldpcount.cycles import admissible
from ldpcount.oracles import has_monotone_triple


def cyclic_arrangements(vertices):
    """Each cyclic order of a vertex set once, up to rotation and reflection."""
    first, *rest = sorted(vertices)
    for perm in permutations(rest):
        if perm[0] < perm[-1]:
            yield (first, *perm)


def has_edge(graph: Graph, u: int, v: int) -> bool:
    """Whether {u, v} is an edge: v appears in u's row."""
    return v in graph.row(u).tolist()


def _is_cycle(graph: Graph, seq) -> bool:
    k = len(seq)
    return all(has_edge(graph, seq[t], seq[(t + 1) % k]) for t in range(k))


def brute_count_triangles(graph: Graph) -> int:
    return sum(
        1
        for a, b, c in combinations(range(graph.n), 3)
        if has_edge(graph, a, b) and has_edge(graph, b, c) and has_edge(graph, a, c)
    )


def brute_count_cycles(graph: Graph, k: int) -> int:
    total = 0
    for subset in combinations(range(graph.n), k):
        total += sum(1 for seq in cyclic_arrangements(subset) if _is_cycle(graph, seq))
    return total


def brute_count_paths(graph: Graph, k: int) -> int:
    total = 0
    for subset in combinations(range(graph.n), k + 1):
        for perm in permutations(subset):
            if perm[0] > perm[-1]:
                continue  # endpoint-unordered: count each path once
            if all(has_edge(graph, perm[t], perm[t + 1]) for t in range(k)):
                total += 1
    return total


def brute_count_monotone_cycles(graph: Graph, length: int) -> int:
    total = 0
    for subset in combinations(range(graph.n), length):
        for seq in cyclic_arrangements(subset):
            if _is_cycle(graph, seq) and has_monotone_triple(seq):
                total += 1
    return total


def charged_user(cycle) -> int:
    """The rank whose no-noise sum counts ``cycle``: its lowest monotone centre.

    ``cycle`` lists the ranks of a cycle in cyclic order.  A monotone centre
    has one cycle neighbour ranked below it and one above.  Every odd cycle
    has one: a cycle without one alternates peaks and valleys, so its length
    is even.  For a triangle a < b < c the rule picks the middle rank b.
    """
    k = len(cycle)
    return min(
        v for t, v in enumerate(cycle) if (cycle[t - 1] < v) != (cycle[(t + 1) % k] < v)
    )


def _admissible_sum_dfs(i: int, j: int, kappa: int, k: int, rows) -> float:
    """Enumerate distinct-vertex tuples from j to kappa, k-2 edges long.

    ``rows`` is the unbiased matrix read as rows[u][v].  Products with a zero
    factor are pruned, which makes the no-noise mode walk only real edges.
    """
    used = bytearray(len(rows))
    used[i] = used[j] = used[kappa] = 1
    path = [j]
    total = 0.0

    def extend(prev2: int, prev1: int, prod: float) -> None:
        nonlocal total
        if len(path) == k - 2:
            p = prod * rows[prev1][kappa]
            if p == 0.0 or not (
                admissible(prev2, prev1, kappa, i) and admissible(prev1, kappa, i, i)
            ):
                return
            total += p
            return
        for v, entry in enumerate(rows[prev1]):
            if used[v]:
                continue
            p = prod * entry
            if p == 0.0 or not admissible(prev2, prev1, v, i):
                continue
            used[v] = 1
            path.append(v)
            extend(prev1, v, p)
            path.pop()
            used[v] = 0

    extend(i, j, 1.0)
    return total


def _k5_grid_mask(i: int, j: int, kappa: int, n: int) -> np.ndarray:
    """The (l2, l3) cells of cycles (i, j, l2, l3, kappa) user i may count."""
    ids = np.arange(n)
    # distinct vertices: l2 and l3 outside {i, j, kappa}, and l2 != l3
    outside = (ids != i) & (ids != j) & (ids != kappa)
    allowed = np.outer(outside, outside)
    np.fill_diagonal(allowed, False)
    cycle = (i, j, ids[:, None], ids[None, :], kappa, i)
    for u, v, w in zip(cycle, cycle[1:], cycle[2:]):
        allowed &= admissible(u, v, w, i)
    return allowed


def _admissible_sum_k5_grid(i: int, j: int, kappa: int, ahat: np.ndarray) -> float:
    """Vectorized k=5 case: cycles (i, j, l2, l3, kappa) over the (l2, l3) grid."""
    allowed = _k5_grid_mask(i, j, kappa, ahat.shape[0])
    weights = np.multiply.outer(ahat[j], ahat[:, kappa]) * ahat
    return float(weights[allowed].sum())


def _assemble_bits_lower_plus_transpose(graph: Graph, eps: float, streams):
    """The RR matrix as one ``lower + lower.T``: user i randomizes row i below i.

    One ``randomize_response_row`` call per user, then the mirror.
    """
    n = graph.n
    lower = np.zeros((n, n), dtype=np.uint8)
    edges = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    lower[edges[:, 1], edges[:, 0]] = 1
    if eps != float("inf"):
        for i in range(n):
            lower[i, :i] = randomize_response_row(lower[i, :i], eps, streams(i).random(i))
    return lower + lower.T


def given_rows(draws):
    """Stream function of fixed draws, served as the raw words they are made from.

    Stream i's ``bit_generator.random_raw`` returns the words (u * 2**53) << 11
    of ``draws[i]``, from which ``(w >> 11) * 2**-53`` gives back each draw
    exactly when it lies on the 2**-53 grid, as every test's draws do.
    """
    return lambda i: raw_stream(lambda size: _words(draws[i]))


def raw_stream(random_raw):
    """A stream whose bit generator's ``random_raw(size)`` is ``random_raw``."""
    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))


def _words(u) -> np.ndarray:
    """The raw words whose draws are ``u``, for draws on the 2**-53 grid."""
    return (np.asarray(u) * 2.0**53).astype(np.uint64) << np.uint64(11)


def _unbiased_one_shot(bits: np.ndarray, eps: float) -> np.ndarray:
    """One ``unbias`` over the whole bit matrix, diagonal zeroed."""
    a = unbias(bits, eps)
    np.fill_diagonal(a, 0.0)
    return a


def _graph_from_edge_set(n: int, edges) -> Graph:
    """The canonical graph built from a set of pairs and per-node lists."""
    if n < 0:
        raise ValidationError(f"node count must be >= 0, got {n}")
    canon: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValidationError(f"self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in canon:
            raise ValidationError(f"duplicate edge {key}")
        canon.add(key)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in canon:
        neighbors[u].append(v)
        neighbors[v].append(u)
    indptr = [0]
    for a in neighbors:
        indptr.append(indptr[-1] + len(a))
    arrays = (
        np.array(sorted(canon), dtype=np.int32).reshape(-1, 2),
        np.array(indptr, dtype=np.int64),
        np.array([v for a in neighbors for v in sorted(a)], dtype=np.int32),
    )
    for a in arrays:
        a.flags.writeable = False
    return Graph(n, *arrays)


def assert_same_graph(got: Graph, want: Graph) -> None:
    """``got`` equals ``want`` in every field: same values, dtypes, read-only."""
    assert type(got.n) is int and got.n == want.n
    for name in ("edges", "indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
        assert not a.flags.writeable, name


def _relabel_from_edges(graph: Graph, phi) -> Graph:
    """Rename node i to phi[i] through the set-based reference build."""
    return _graph_from_edge_set(
        graph.n, ((int(phi[u]), int(phi[v])) for u, v in graph.edges)
    )


def _fork_sum_ix(i: int, projected_row, unbiased: np.ndarray) -> float:
    """Pairwise sum of the (below i) x (above i) block taken with ``np.ix_``."""
    below = [j for j in projected_row if j < i]
    above = [k for k in projected_row if k > i]
    if not below or not above:
        return 0.0
    return float(unbiased[np.ix_(below, above)].sum())


def derive_seed_one_shot(master, *path) -> int:
    """blake2b over the whole text "master|p0|p1|...", in one call; no checks."""
    text = "|".join(map(str, (master, *path))).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


def _substream_key_route(master: int, *path) -> np.random.Generator:
    """The derivation path's stream through ``Philox(key=...)``."""
    return np.random.Generator(np.random.Philox(key=derive_seed_one_shot(master, *path)))


def _gen_ba_integers(n: int, m0: int, seed: int) -> Graph:
    """Preferential attachment drawing each target with ``rng.integers``."""
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = [(0, j) for j in range(1, m0 + 1)]
    repeated: list[int] = [0] * m0 + list(range(1, m0 + 1))
    for source in range(m0 + 1, n):
        targets: set[int] = set()
        while len(targets) < m0:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        picked = sorted(targets)
        edges.extend((source, t) for t in picked)
        repeated.extend(picked)
        repeated.extend([source] * m0)
    return Graph.from_edges(n, edges)


def _gen_ktree_tuples(n: int, k: int, seed: int) -> Graph:
    """Random k-tree: each clique a sorted tuple, each new one from a set."""
    rng = np.random.default_rng(seed)
    edges = list(combinations(range(k + 1), 2))
    cliques = [tuple(c) for c in combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = cliques[int(rng.integers(len(cliques)))]
        edges.extend((u, v) for u in base)
        for drop in base:
            cliques.append(tuple(sorted((set(base) - {drop}) | {v})))
    return Graph.from_edges(n, edges)


def walker_steps(graph: Graph, edges: int, rising: bool) -> int:
    """Neighbors the oracle's walker scans to reach every path of ``edges`` edges.

    The walker of ``oracles._simple_paths`` with its step counter: each
    neighbor scanned at the end of a partial path is one step.
    """
    steps = 0
    adj = [graph.row(u).tolist() for u in range(graph.n)]
    on_path = bytearray(graph.n)
    for s in range(graph.n):
        path = [s]
        on_path[s] = 1
        frontier = [iter(adj[s])]
        while frontier:
            for w in frontier[-1]:
                steps += 1
                if on_path[w] or (rising and w < s):
                    continue
                path.append(w)
                if len(path) > edges:
                    path.pop()
                    continue
                on_path[w] = 1
                frontier.append(iter(adj[w]))
                break
            else:
                frontier.pop()
                on_path[path.pop()] = 0
    return steps
