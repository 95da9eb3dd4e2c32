"""Exact brute-force subgraph counters used as ground truth.

Everything here enumerates explicitly and is meant for desk-scale inputs.
Cycles, paths and monotone cycles share one simple-path walker; each call
is priced by a bound on its steps before the walker starts (``_require_walks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .documents import Document
from .errors import ResourceLimitError, ValidationError
from .graphs import Graph, require_edge_count, require_integer

# The price is never below the walker's steps, and equals them on paths of 1-2
# edges, at 1.7e-7 to 6.5e-7 s a step (ER, mean degree 30 down to 2): 1e8, the
# old step counter's cap, admits about 20 s, and up to a minute when sparse.
WALK_LIMIT = 10**8
MAX_CYCLE_LENGTH = 9


def count_triangles(graph: Graph) -> int:
    """Number of triangles, one count per vertex set."""
    u, v = graph.edges.T  # sorted by u: each node's higher neighbors are a run of v
    heads, tails = v.tolist(), u.tolist()
    starts = np.flatnonzero(np.diff(u, prepend=-1)).tolist()  # only nodes with a run
    runs = zip(starts, [*starts[1:], len(heads)])
    above = {tails[a]: set(heads[a:b]) for a, b in runs}
    # each triangle {a<b<c} is counted once, at (a, b): c is above both
    return sum(len(s & above[b]) for s in above.values() for b in s if b in above)


def _linked(graph: Graph) -> tuple[list[int], Graph]:
    """The nodes with edges, ascending, and the graph over their positions.

    A position keeps the order of its id, so a walk that compares ids walks
    the same over positions, and an isolated node costs it nothing.
    """
    require_edge_count(graph.m)  # the same edges, renamed
    nodes, positions = np.unique(graph.edges, return_inverse=True)
    return nodes.tolist(), Graph.from_edges(len(nodes), positions.reshape(-1, 2))


def _require_walks(graph: Graph, depth: int) -> float:
    """A bound on the walker's steps to ``depth`` edges; refused past WALK_LIMIT.

    ``graph`` is the walker's own, from ``_linked``: every node has edges.

    Each step scans a neighbor of the end of a simple path of t < depth
    edges: 2m steps from the one-node paths.  From the S_t paths of t >= 1
    edges there are at most S_t*dmax, and at most S_t backtracks plus the
    non-backtracking walks of t + 1 edges, x_{t+1} = A x_t - (d - [t > 1]) x_{t-1}.
    S_t is at most those walks of t edges, and at most S_{t-1}*min(dmax - 1,
    nodes - t).  The levels stop once S_t is 0 or the total passes the limit.
    """
    u, w, size = *graph.edges.T, graph.n
    deg = graph.degrees.astype(float)
    top, limit = deg.max(initial=0.0), WALK_LIMIT
    back, walks = np.ones(size), deg  # non-backtracking walks of t - 1 and t edges
    total = paths = walks.sum()  # the one-node paths' steps; S_1 = 2m
    for t in range(1, min(depth, size)):
        ahead = np.bincount(u, walks[w], size) + np.bincount(w, walks[u], size)
        back, walks = walks, ahead - (deg - (t > 1)) * back
        total += min(paths + walks.sum(), paths * top)
        paths = min(walks.sum(), paths * min(top - 1, size - t - 1))
        if total > limit or not paths:
            break
    if total > limit:
        raise ResourceLimitError(
            f"oracle walks exceed WALK_LIMIT={limit} (at least {total:.3g}); "
            "shrink the instance"
        )
    return total


def _simple_paths(graph: Graph, edges: int, rising: bool) -> Iterator[list[int]]:
    """Yield every simple path with ``edges`` edges, start vertex ascending.

    With ``rising`` every later vertex must exceed the start.  The yielded
    list is the walker's own and changes as it goes on.  Callers price it
    first, and pass the graph of ``_linked``.
    """
    adj = [graph.row(u).tolist() for u in range(graph.n)]  # once per call
    on_path = bytearray(graph.n)
    for s in range(graph.n):
        path = [s]
        on_path[s] = 1
        # one iterator over the unscanned neighbors of each path vertex
        frontier = [iter(adj[s])]
        while frontier:
            for w in frontier[-1]:
                if on_path[w] or (rising and w < s):
                    continue
                path.append(w)
                if len(path) > edges:
                    yield path
                    path.pop()
                    continue
                on_path[w] = 1
                frontier.append(iter(adj[w]))
                break
            else:
                frontier.pop()
                on_path[path.pop()] = 0


def enumerate_cycles(graph: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Each k-cycle once, as a canonical vertex tuple, from a lazy iterator.

    Canonical form: minimum vertex first, then the direction whose second
    vertex is smaller than the last.  ``k`` and the walk price are checked
    at the call, before any cycle is drawn.
    """
    k = require_integer(k, "cycle length")
    if k < 3:
        raise ValidationError(f"cycle length must be >= 3, got {k}")
    if k > MAX_CYCLE_LENGTH:
        raise ResourceLimitError(
            f"cycle length {k} exceeds the desk-scale cap of {MAX_CYCLE_LENGTH}"
        )
    nodes, linked = _linked(graph)
    _require_walks(linked, k - 1)
    closes = [set(linked.row(u).tolist()) for u in range(linked.n)]
    paths = _simple_paths(linked, k - 1, rising=True)
    return (
        tuple(map(nodes.__getitem__, p))
        for p in paths
        if p[1] < p[-1] and p[0] in closes[p[-1]]
    )


def count_cycles(graph: Graph, k: int) -> int:
    """Number of distinct k-cycles (vertex sets with cyclic order)."""
    return sum(1 for _ in enumerate_cycles(graph, k))


def count_paths(graph: Graph, k: int) -> int:
    """Number of simple paths with k edges, endpoint-unordered."""
    k = require_integer(k, "path edge count")
    if k < 1:
        raise ValidationError(f"path edge count must be >= 1, got {k}")
    linked = _linked(graph)[1]
    _require_walks(linked, k)
    paths = _simple_paths(linked, k, rising=False)
    return sum(1 for path in paths if path[0] < path[-1])


def count_low2stars(graph: Graph) -> int:
    """Sum over nodes of (lower-id neighbor count) * (degree - 1).

    Ordering-sensitive by design: node ids must already be the ranks.
    """
    lower = np.bincount(graph.edges[:, 1], minlength=graph.n)  # u < v: v is the higher
    return int((lower * (graph.degrees - 1)).sum())


def has_monotone_triple(cycle: tuple[int, ...]) -> bool:
    """True if some cyclically consecutive triple has monotone ids."""
    L = len(cycle)
    for t in range(L):
        a, b, c = cycle[t], cycle[(t + 1) % L], cycle[(t + 2) % L]
        if a < b < c or a > b > c:
            return True
    return False


def count_monotone_cycles(graph: Graph, length: int) -> int:
    """Even-length cycles containing at least one monotone consecutive triple.

    Ordering-sensitive: node ids must already be the ranks.  Every length
    filters the cycles of ``enumerate_cycles``.
    """
    length = require_integer(length, "length")
    if length % 2 != 0 or length < 4:
        raise ValidationError(f"length must be even and >= 4, got {length}")
    return sum(1 for c in enumerate_cycles(graph, length) if has_monotone_triple(c))


@dataclass(frozen=True)
class ExactCounts(Document):
    """Bundle of exact counts, JSON-serializable for the CLI."""

    triangles: int
    low2stars: int
    cycles: dict[int, int] = field(default_factory=dict)
    paths: dict[int, int] = field(default_factory=dict)
    monotone_cycles: dict[int, int] = field(default_factory=dict)


def exact_counts(
    graph: Graph,
    cycle_lengths: tuple[int, ...] = (),
    path_lengths: tuple[int, ...] = (),
    monotone_lengths: tuple[int, ...] = (),
) -> ExactCounts:
    # each counter refuses a length that is not an integer, so int() only
    # turns an integer such as np.int64(5) into the key 5
    return ExactCounts(
        triangles=count_triangles(graph),
        low2stars=count_low2stars(graph),
        cycles={int(k): count_cycles(graph, k) for k in cycle_lengths},
        paths={int(k): count_paths(graph, k) for k in path_lengths},
        monotone_cycles={
            int(k): count_monotone_cycles(graph, k) for k in monotone_lengths
        },
    )
