"""Simple undirected graphs: edge and CSR arrays, file I/O, generators.

Node ids are 0-based contiguous integers.  Neighbor lists are kept sorted
ascending by node id; degree-cap projection downstream truncates against
exactly this fixed order, so the order is part of the contract.
"""

from __future__ import annotations

import heapq
import re
from array import array
import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import IO, Iterable, Iterator

import numpy as np

from .documents import Document
from .errors import ParseError, ResourceLimitError, ValidationError

# One memory budget prices NODE_LIMIT, EDGE_LIMIT and mechanisms.DENSE_BYTES_LIMIT.
MEMORY_BUDGET = 4 * 2**30
# At 16 bytes per node of an edgeless build (tracemalloc), half the budget;
# ids fit int32, pair keys lo*n + hi 2**54.
NODE_LIMIT = MEMORY_BUDGET // 2 // 16
# Build peaks per edge (tracemalloc): _canonical 80 over its int64 input;
# gen_er 114, gen_ba 92, gen_ktree 83 (k = 3; 80 at k = 40), path_graph,
# cycle_graph and star_graph 92, complete_graph 88, load_edge_list 100.
# At 128, the budget; and 2*EDGE_LIMIT < 2**32.
EDGE_LIMIT = MEMORY_BUDGET // 128


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph on nodes ``0..n-1``, in read-only arrays.

    ``edges`` (m x 2, int32) holds each edge once as (u, v), u < v, sorted;
    ``indptr`` (int64) and ``indices`` (int32) are CSR rows, each ascending.
    Safe to share across threads; compared by (n, edges); not hashable.
    """

    n: int
    edges: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "Graph":
        """Build a graph, validating simplicity (no self-loops, no duplicates).

        ``edges`` may be an iterable of pairs or a (k, 2) ndarray; an integer
        array is validated in a few vectorized passes.
        """
        n = require_node_count(n)
        return _canonical(n, edges if isinstance(edges, np.ndarray) else list(edges))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row(self, i: int) -> np.ndarray:
        """Node i's neighbors, ascending: a read-only view of ``indices``."""
        i = range(self.n)[i]  # a sequence index: -1 is the last node
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


def _is_integer(x) -> bool:
    """The integer rule for node ids and counts: Python or numpy, never bool."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def require_integer(value, what: str) -> int:
    """``value`` as an ``int``, raising ValidationError unless it is an integer."""
    if not _is_integer(value):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_node_count(n) -> int:
    """``n`` as an ``int``: the node-count rule that opens every graph constructor."""
    n = require_integer(n, "node count")
    if n < 0:
        raise ValidationError(f"node count must be >= 0, got {n}")
    if n > NODE_LIMIT:
        raise ResourceLimitError(f"n={n} nodes > NODE_LIMIT={NODE_LIMIT}; shrink n")
    return n


def require_edge_count(m: int) -> None:
    """Refuse more than EDGE_LIMIT edges: the rule generators apply before drawing."""
    if m > EDGE_LIMIT:
        raise ResourceLimitError(f"m={m} edges > EDGE_LIMIT={EDGE_LIMIT}; shrink n")


def _first_fault(n: int, pairs: list) -> tuple[int, str] | None:
    """Index and reason of the first pair that breaks the simple-graph rules.

    In input order, each must be a pair of integer ids in ``[0, n)``, then
    neither a self-loop nor a repeat in either orientation.  Pairs from a
    caller reach it; constructors and files hand over int arrays.
    """
    seen: set[tuple[int, int]] = set()
    for index, pair in enumerate(pairs):
        try:
            u, v = pair
        except (TypeError, ValueError):
            return index, f"edge {pair!r} is not a pair of node ids"
        if type(u) is not int or type(v) is not int:
            if not (_is_integer(u) and _is_integer(v)):
                return index, f"non-integer node id in edge ({u!r}, {v!r})"
            u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            return index, f"edge ({u}, {v}) out of range for n={n}"
        if u == v:
            return index, f"self-loop at node {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return index, f"duplicate edge {key}"
        seen.add(key)
    return None


def _array_fault(n: int, pairs: np.ndarray) -> tuple[int, str]:
    """``_first_fault`` of an integer (k, 2) array that has one, from its arrays.

    A stable argsort of the pair keys marks each repeat after its first
    occurrence (a row out of range has a meaningless key, but it only marks
    later rows).  The first row out of range, a self-loop or so marked is
    the fault, which ``_first_fault`` names from the row given twice.
    """
    u, v = pairs.astype(np.int64, copy=False).T  # ids past int64 wrap negative
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    faulty = (lo < 0) | (hi >= n) | (lo == hi)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    faulty[order[1:][keys[1:] == keys[:-1]]] = True
    index = int(np.argmax(faulty))
    row = tuple(pairs[index].tolist())
    return index, _first_fault(n, [row, row])[1]


def _canonical(n: int, pairs: list | np.ndarray, lines: array | None = None) -> Graph:
    """The one place a ``Graph`` is made, and the one place pairs are checked.

    An integer (k, 2) array is checked on its pair keys lo*n + hi, sorted once:
    range first, so the keys are distinct exactly when the edges are, then
    self-loops, then a repeat.  ``_array_fault``, or for other input
    ``_first_fault``, names the first fault in input order, on ``lines[i]``
    for pair i.  The keys give ``edges``, both directions' keys the CSR rows.
    """
    keys = None
    is_array = isinstance(pairs, np.ndarray)
    if is_array and pairs.dtype.kind in "iu" and pairs.shape[1:] == (2,):
        if not pairs.size or (pairs.min() >= 0 and pairs.max() < n):
            lo, hi = np.sort(pairs.astype(np.int64), axis=1).T
            keys = np.sort(lo * n + hi)
            if (lo == hi).any() or (keys[1:] == keys[:-1]).any():
                keys = None
        fault = None if keys is not None else _array_fault(n, pairs)
    elif not (fault := _first_fault(n, pairs.tolist() if is_array else pairs)):
        return _canonical(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    if fault:
        line = f"line {lines[fault[0]]}: " if lines else ""
        raise ValidationError(line + fault[1])
    arcs = np.sort(np.concatenate([keys, hi * n + lo]))  # both directions
    indptr = np.concatenate([[0], np.cumsum(np.bincount(arcs // n, minlength=n))])
    edges = np.column_stack(np.divmod(keys, n)).astype(np.int32)
    indices = (arcs % n).astype(np.int32)
    for a in (edges, indptr, indices):
        a.flags.writeable = False
    return Graph(n=n, edges=edges, indptr=indptr, indices=indices)


_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # str.splitlines' line ends
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}]|\\Z)")


def load_edge_list(source: str | IO[str]) -> Graph:
    """Parse whitespace-separated "u v" lines into a graph.

    ``#`` starts a comment that runs to the end of its line, and lines left
    blank are skipped.  Node ids are decimal integers in ASCII digits, mapped
    verbatim (no compaction); unused ids below the maximum only raise a
    warning and become isolated nodes.  Lines end where ``str.splitlines``
    ends them.
    """
    text = source if isinstance(source, str) else source.read()
    # the lines, before any is parsed
    require_edge_count(sum(map(text.count, _BREAKS)) - text.count("\r\n") + 1)
    ids, lines, huge = array("q"), array("q"), -1  # huge: the largest id past int64
    for ln, match in enumerate(_LINE.finditer(text), start=1):
        line = match[1].split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=ln)
        if not all(re.fullmatch(r"[+-]?[0-9]+", p) for p in parts):
            raise ParseError(f"non-integer node id in {line!r}", line=ln)
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {line!r}", line=ln)
        if (u | v) >> 63:
            huge = max(huge, u, v)
            continue
        ids.extend((u, v))
        lines.append(ln)
    pairs = np.frombuffer(ids, dtype=np.int64).reshape(-1, 2)
    n = require_node_count(max(huge, int(pairs.max(initial=-1))) + 1)
    graph = _canonical(n, pairs, lines)
    if unused := int(np.count_nonzero(graph.degrees == 0)):
        warnings.warn(
            f"edge list leaves {unused} node id(s) below {n - 1} "
            "unused; they become isolated nodes",
            stacklevel=2,
        )
    return graph


def dump_edge_list(graph: Graph) -> str:
    """Serialize to the same text format, edges as "u v" with u < v, sorted."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges.tolist())


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each unordered pair kept independently.

    Pairs (u, v), u < v, take one uniform draw each in row-major order,
    drawn one row u at a time: memory is O(n + m), but time is still
    O(n^2) draws.  The edge guard checks the mean n(n-1)p/2; by Bernstein, a draw
    tops it by 7*sqrt(mean) edges (0.12% at EDGE_LIMIT) with probability < 1e-10.
    """
    n = require_node_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    require_edge_count(round(n * (n - 1) / 2 * p))
    rng = np.random.default_rng(seed)
    kept = [np.flatnonzero(rng.random(n - 1 - u) < p) + (u + 1) for u in range(n - 1)]
    rows = np.repeat(np.arange(len(kept), dtype=np.int64), [v.size for v in kept])
    cols = np.concatenate(kept) if kept else rows  # n < 2: no pairs to draw
    return Graph.from_edges(n, np.column_stack((rows, cols)))


_RAW_WORDS = 1 << 12  # raw words read at a time: a few per draw of a small graph


def _raw_halves(bit_generator: np.random.BitGenerator) -> Iterator[int]:
    """PCG64's 32-bit outputs in the order ``next_uint32`` hands them out.

    Each 64-bit raw word gives its low half, then its high half; the
    explicit little-endian view keeps that order on any host.
    """
    while True:
        words = bit_generator.random_raw(_RAW_WORDS)
        yield from words.astype("<u8", copy=False).view("<u4").tolist()


def _lemire(halves: Iterator[int], high: int) -> int:
    """One ``Generator.integers(high)`` draw, 1 < high < 2**32, from ``halves``.

    Lemire's rule as numpy applies it to a 32-bit bound: m = x*high, a word
    whose low 32 bits of m fall below (2**32 - high) % high is rejected for
    the next, and the draw is m >> 32.  It takes the same words numpy does.
    """
    threshold = (0x1_0000_0000 - high) % high
    while True:
        m = next(halves) * high
        if m & 0xFFFF_FFFF >= threshold:
            return m >> 32


def gen_ba(n: int, m0: int, seed: int) -> Graph:
    """Preferential attachment: every new node attaches to m0 distinct nodes.

    Seeded with a star on m0+1 nodes, so the result is connected and each
    node beyond the seed contributes exactly m0 edges, which caps the
    degeneracy at m0.

    Each target is drawn uniformly from ``repeated``, which lists every
    edge end so far, by the draw ``Generator.integers(len(repeated))``
    would make, read from the PCG64 raw stream (``_lemire``).  That takes
    every bound below 2**32: EDGE_LIMIT keeps 2*m0*(n - m0) below it.
    """
    n = require_node_count(n)
    m0 = require_integer(m0, "edges per new node")
    if m0 < 1:
        raise ValidationError(f"edges per new node must be >= 1, got {m0}")
    if n <= m0:
        raise ValidationError(f"need n > m0, got n={n}, m0={m0}")
    require_edge_count(m0 * (n - m0))
    halves = _raw_halves(np.random.default_rng(seed).bit_generator)
    repeated = array("i", [0] * m0 + list(range(1, m0 + 1)))  # ids fit int32
    for source in range(m0 + 1, n):
        high = len(repeated)
        targets: set[int] = set()
        while len(targets) < m0:
            targets.add(repeated[_lemire(halves, high)])
        picked = sorted(targets)
        repeated.extend(picked)
        repeated.extend([source] * m0)
    # repeated runs in blocks of 2*m0 ends: the star's m0 zeros, then its
    # leaves; each source's picks, then the source m0 times.  Block t's
    # i-th and (m0+i)-th ends make one edge.
    ends = np.frombuffer(repeated, dtype=np.intc).reshape(-1, 2, m0)
    return Graph.from_edges(n, ends.transpose(0, 2, 1).reshape(-1, 2))


def gen_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree: new nodes attach to a uniformly chosen k-clique.

    Degeneracy is exactly k for n >= k+1.  The first k+1 nodes form a
    clique; its k-subsets, in lexicographic order, are cliques 0..k.  Node
    v = k+1+t draws one of the cliques so far, by ``gen_ba``'s raw-stream
    rule (``_lemire``), and joins it: that clique is v's base, row t of an
    int32 view into the edge array.  v's k new cliques are its base minus
    one entry, with v appended, so clique k+1 + k*t + j is read back from
    row t without entry j, then v: no clique is stored apart from the edges.
    """
    n, k = require_node_count(n), require_integer(k, "k")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValidationError(f"need n > k, got n={n}, k={k}")
    m_first = k * (k + 1) // 2  # the first clique's edges, then k per node
    require_edge_count(m := m_first + k * (n - k - 1))
    halves = _raw_halves(np.random.default_rng(seed).bit_generator)
    edges = np.empty((m, 2), dtype=np.int32)
    edges[:m_first] = np.column_stack(np.triu_indices(k + 1, 1))
    edges[m_first:, 1] = np.repeat(np.arange(k + 1, n, dtype=np.int32), k)
    bases = edges[m_first:, 0].reshape(-1, k)  # a view: row t is node k+1+t's base
    first_clique = np.arange(k + 1)
    for t in range(n - k - 1):
        c = _lemire(halves, k + 1 + k * t)
        if c <= k:  # the first clique's subsets drop entries k, k-1, ..., 0
            bases[t] = np.delete(first_clique, k - c)
        else:
            s, j = divmod(c - k - 1, k)
            bases[t, :j] = bases[s, :j]
            bases[t, j:-1] = bases[s, j + 1 :]
            bases[t, -1] = k + 1 + s
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    n = require_node_count(n)
    require_edge_count(n - 1)
    i = np.arange(n - 1, dtype=np.int32)
    return Graph.from_edges(n, np.column_stack((i, i + 1)))


def cycle_graph(n: int) -> Graph:
    n = require_node_count(n)
    if n < 3:
        raise ValidationError(f"cycle needs >= 3 nodes, got {n}")
    require_edge_count(n)
    i = np.arange(n, dtype=np.int32)
    return Graph.from_edges(n, np.column_stack((i, (i + 1) % n)))


def complete_graph(n: int) -> Graph:
    n = require_node_count(n)
    require_edge_count(n * (n - 1) // 2)
    return Graph.from_edges(n, np.column_stack(np.triu_indices(n, 1)))


def star_graph(n: int) -> Graph:
    """Star on n nodes: center 0, leaves 1..n-1."""
    n = require_node_count(n)
    require_edge_count(n - 1)
    leaves = np.arange(1, n, dtype=np.int32)
    return Graph.from_edges(n, np.column_stack((np.zeros_like(leaves), leaves)))


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, np.array(edges))


def degeneracy(graph: Graph) -> int:
    """Min-degree peeling: the largest induced min-degree ever removed.

    Lazy-deletion heap keyed (degree, node id).  A node of degree 0 would peel
    first and lower no neighbour, so only the nodes with edges enter the heap.
    """
    deg = graph.degrees.tolist()
    heap = [(d, i) for i, d in enumerate(deg) if d]
    heapq.heapify(heap)
    removed = [False] * graph.n
    delta = 0
    while heap:
        d, u = heapq.heappop(heap)
        if removed[u] or d != deg[u]:
            continue
        removed[u] = True
        delta = max(delta, d)
        for v in graph.row(u).tolist():  # each row is read once, at its removal
            if not removed[v]:
                deg[v] -= 1
                heapq.heappush(heap, (deg[v], v))
    return delta


def require_permutation(phi, n: int) -> np.ndarray:
    """``phi`` as int64, raising ValidationError unless it permutes 0..n-1.

    Entries must have an integer type: a float would be truncated by the cast.
    """
    arr = np.asarray(phi)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValidationError(f"phi entries must be integers, got {arr.dtype}")
    arr = arr.astype(np.int64)
    if not np.array_equal(np.sort(arr), np.arange(n)):
        raise ValidationError("phi is not a bijection on [0, n)")
    return arr


def relabel(graph: Graph, phi) -> Graph:
    """Rename node i to phi(i): an isomorphic graph."""
    return _canonical(graph.n, require_permutation(phi, graph.n)[graph.edges])


@dataclass(frozen=True)
class GraphStats(Document):
    n: int
    m: int
    d_max: int
    degeneracy: int
    chiba_sum: int
    arboricity_range: tuple[int, int]  # ceil((delta+1)/2) <= arboricity <= delta


def graph_stats(graph: Graph) -> GraphStats:
    """Exact size, degree, degeneracy and edge-minimum-degree statistics."""
    d = graph.degrees
    delta = degeneracy(graph)
    chiba = int(np.minimum(d[graph.edges[:, 0]], d[graph.edges[:, 1]]).sum())
    return GraphStats(
        n=graph.n,
        m=graph.m,
        d_max=int(d.max()) if graph.n else 0,
        degeneracy=delta,
        chiba_sum=chiba,
        arboricity_range=((delta + 2) // 2, delta) if delta else (0, 0),
    )
