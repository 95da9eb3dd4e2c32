"""Noisy-degree publication and the low-degree node ordering built from it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graphs import Graph, relabel, require_permutation
from .mechanisms import add_noise, require_eps

# Publishing a degree has global sensitivity 1: adding or removing one edge
# changes it by exactly 1.
DEGREE_SENSITIVITY = 1.0


@dataclass(frozen=True)
class NodeOrdering:
    """Ranks from noisy degrees: rank 0 is the largest noisy degree.

    ``phi[i]`` is the rank assigned to node i.  Ties (which only occur in
    the no-noise mode) break toward the smaller node id.  The noisy degrees
    are retained so later stages reuse them without spending extra budget.
    """

    phi: np.ndarray
    noisy_degrees: np.ndarray
    eps0: float

    def __post_init__(self):
        require_permutation(self.phi, len(self.phi))
        if (shape := self.noisy_degrees.shape) != (self.n,):
            raise ValidationError(f"need {self.n} noisy degrees, got shape {shape}")
        self.phi.flags.writeable = False
        self.noisy_degrees.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.phi)


def get_ordering(graph: Graph, eps0: float, u=None) -> NodeOrdering:
    """Publish degrees with Laplace noise of scale 1/eps0 and rank them.

    Node i's noise is the Laplace quantile of its uniform draw ``u[i]``, added
    by ``add_noise``.  At eps0=inf the scale is 0, so the degrees are published
    exactly and ``u`` is unused.
    """
    require_eps("eps0", eps0)
    n = graph.n
    noisy = add_noise(graph.degrees, DEGREE_SENSITIVITY / eps0, u)
    order = np.lexsort((np.arange(n), -noisy))
    phi = np.empty(n, dtype=np.int64)
    phi[order] = np.arange(n)
    return NodeOrdering(phi=phi, noisy_degrees=noisy, eps0=eps0)


def apply_ordering(graph: Graph, ordering: NodeOrdering) -> Graph:
    """Relabel so the node with the largest noisy degree becomes id 0."""
    if ordering.n != graph.n:
        raise ValidationError(
            f"ordering covers {ordering.n} nodes, graph has {graph.n}"
        )
    return relabel(graph, ordering.phi)
