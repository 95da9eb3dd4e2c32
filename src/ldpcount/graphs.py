"""Simple undirected graphs: adjacency structure, file I/O, generators.

Node ids are 0-based contiguous integers.  Neighbor lists are kept sorted
ascending by node id; degree-cap projection downstream truncates against
exactly this fixed order, so the order is part of the contract.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import IO, Iterable

import numpy as np

from .documents import Document
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on nodes ``0..n-1``.

    ``edges`` holds each edge once as ``(u, v)`` with ``u < v``, sorted
    lexicographically.  ``adj`` holds per-node neighbor lists sorted
    ascending.  Instances are safe to share across threads.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, validating simplicity (no self-loops, no duplicates)."""
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
        return cls(
            n=n,
            edges=tuple(sorted(canon)),
            adj=tuple(tuple(sorted(a)) for a in neighbors),
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.adj[i])

    @cached_property
    def degrees(self) -> np.ndarray:
        d = np.array([len(a) for a in self.adj], dtype=np.int64)
        d.flags.writeable = False
        return d

    @cached_property
    def adj_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(a) for a in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj_sets[u]


def load_edge_list(source: str | IO[str]) -> Graph:
    """Parse whitespace-separated "u v" lines into a graph.

    ``#`` starts a comment that runs to the end of its line, and lines left
    blank are skipped.  Node ids are mapped verbatim (no compaction); unused
    ids below the maximum only raise a warning and become isolated nodes.
    """
    text = source if isinstance(source, str) else source.read()
    pairs: list[tuple[int, int]] = []
    first_line: dict[tuple[int, int], int] = {}
    seen_ids: set[int] = set()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=ln)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {line!r}", line=ln) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {line!r}", line=ln)
        if u == v:
            raise ValidationError(f"line {ln}: self-loop at node {u}")
        key = (u, v) if u < v else (v, u)
        if key in first_line:
            raise ValidationError(
                f"line {ln}: duplicate edge {key[0]} {key[1]}"
                f" (first seen on line {first_line[key]})"
            )
        first_line[key] = ln
        pairs.append(key)
        seen_ids.update(key)
    n = max(seen_ids) + 1 if seen_ids else 0
    if len(seen_ids) < n:
        warnings.warn(
            f"edge list leaves {n - len(seen_ids)} node id(s) below {n - 1} "
            "unused; they become isolated nodes",
            stacklevel=2,
        )
    return Graph.from_edges(n, pairs)


def dump_edge_list(graph: Graph) -> str:
    """Serialize to the same text format, edges as "u v" with u < v, sorted."""
    return "".join(f"{u} {v}\n" for u, v in graph.edges)


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p): each unordered pair kept independently.

    Pairs (u, v), u < v, take one uniform draw each in row-major order,
    drawn one row u at a time: memory is O(n + m), but time is still
    O(n^2) draws.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    if n < 0:
        raise ValidationError(f"node count must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n - 1):
        kept = np.flatnonzero(rng.random(n - 1 - u) < p) + (u + 1)
        edges.extend((u, v) for v in kept.tolist())
    return Graph.from_edges(n, edges)


def gen_ba(n: int, m0: int, seed: int) -> Graph:
    """Preferential attachment: every new node attaches to m0 distinct nodes.

    Seeded with a star on m0+1 nodes, so the result is connected and each
    node beyond the seed contributes exactly m0 edges, which caps the
    degeneracy at m0.
    """
    if m0 < 1:
        raise ValidationError(f"edges per new node must be >= 1, got {m0}")
    if n <= m0:
        raise ValidationError(f"need n > m0, got n={n}, m0={m0}")
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


def gen_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree: new nodes attach to a uniformly chosen k-clique.

    Degeneracy is exactly k for n >= k+1.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if n <= k:
        raise ValidationError(f"need n > k, got n={n}, k={k}")
    rng = np.random.default_rng(seed)
    edges = list(combinations(range(k + 1), 2))
    cliques = [tuple(c) for c in combinations(range(k + 1), k)]
    for v in range(k + 1, n):
        base = cliques[int(rng.integers(len(cliques)))]
        edges.extend((u, v) for u in base)
        for drop in base:
            cliques.append(tuple(sorted((set(base) - {drop}) | {v})))
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError(f"cycle needs >= 3 nodes, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def star_graph(n: int) -> Graph:
    """Star on n nodes: center 0, leaves 1..n-1."""
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def degeneracy(graph: Graph) -> tuple[int, list[int]]:
    """Min-degree peeling.

    Returns the degeneracy (largest induced min-degree ever removed) and the
    removal order.  Lazy-deletion heap keyed (degree, node id), so the order
    is deterministic.
    """
    n = graph.n
    if n == 0:
        return 0, []
    deg = [graph.degree(i) for i in range(n)]
    heap = [(d, i) for i, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * n
    order: list[int] = []
    delta = 0
    while heap:
        d, u = heapq.heappop(heap)
        if removed[u] or d != deg[u]:
            continue
        removed[u] = True
        order.append(u)
        delta = max(delta, d)
        for v in graph.adj[u]:
            if not removed[v]:
                deg[v] -= 1
                heapq.heappush(heap, (deg[v], v))
    return delta, order


def edge_array(graph: Graph) -> np.ndarray:
    """``graph.edges`` as an (m, 2) int64 array, same order."""
    flat = chain.from_iterable(graph.edges)
    return np.fromiter(flat, dtype=np.int64, count=2 * graph.m).reshape(-1, 2)


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
    """Rename node i to phi(i); the result is isomorphic to the input.

    The renamed edges are a simple graph by construction, so the canonical
    ``edges`` and ``adj`` are built by sorting pair keys lo*n + hi, without
    ``from_edges``'s per-edge validation.
    """
    n = graph.n
    phi = require_permutation(phi, n)
    ends = np.sort(phi[edge_array(graph)], axis=1)
    lo, hi = ends.T
    keys = np.sort(lo * n + hi)
    arcs = np.sort(np.concatenate([keys, hi * n + lo]))  # both directions
    width = max(n, 1)  # no keys to decode when n = 0
    edges = tuple(zip((keys // width).tolist(), (keys % width).tolist()))
    targets = (arcs % width).tolist()
    stops = np.cumsum(np.bincount(arcs // width, minlength=n)).tolist()
    adj = tuple(
        tuple(targets[start:stop]) for start, stop in zip([0, *stops], stops)
    )
    return Graph(n=n, edges=edges, adj=adj)


@dataclass(frozen=True)
class GraphStats(Document):
    n: int
    m: int
    d_max: int
    degeneracy: int
    chiba_sum: int

    @property
    def arboricity_range(self) -> tuple[int, int]:
        """Interval implied by degeneracy: ceil((delta+1)/2) <= arboricity <= delta."""
        if self.degeneracy == 0:
            return (0, 0)
        return ((self.degeneracy + 2) // 2, self.degeneracy)

    def to_json_dict(self) -> dict:
        return {**super().to_json_dict(), "arboricity_range": list(self.arboricity_range)}


def graph_stats(graph: Graph) -> GraphStats:
    """Exact size, degree, degeneracy and edge-minimum-degree statistics."""
    d = graph.degrees
    delta, _ = degeneracy(graph)
    chiba = int(sum(min(int(d[u]), int(d[v])) for u, v in graph.edges))
    return GraphStats(
        n=graph.n,
        m=graph.m,
        d_max=int(d.max()) if graph.n else 0,
        degeneracy=delta,
        chiba_sum=chiba,
    )
