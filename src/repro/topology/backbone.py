"""Backbone router topologies.

:func:`fig5_backbone` reconstructs the 19-router backbone of the
paper's Fig. 5.  The figure is a drawing without an adjacency list, so
we hand-code a 19-node two-level mesh with the same flavour: a richly
connected core ring with chords, plus peripheral routers hanging off
core nodes (a substitution: DSCT only needs router-locality and
heterogeneous RTTs, not an exact adjacency).

:func:`waxman_backbone` generates classic Waxman random backbones for
scaling studies beyond the paper's fixed topology.

Graphs are :class:`networkx.Graph` with a ``latency`` edge attribute in
seconds (one-way propagation).
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_positive

__all__ = ["fig5_backbone", "waxman_backbone", "validate_backbone"]

#: Hand-coded adjacency approximating the paper's Fig. 5 (node 0 is the
#: router the figure draws at the centre-left; numbering follows the
#: figure's labels 0..18).  Edges are (u, v, relative_length); relative
#: lengths are scaled by ``core_latency``.
_FIG5_EDGES: list[tuple[int, int, float]] = [
    # Core ring
    (0, 1, 1.0), (1, 2, 1.2), (2, 3, 1.0), (3, 4, 1.1), (4, 5, 1.0),
    (5, 6, 1.3), (6, 7, 1.0), (7, 8, 1.2), (8, 0, 1.1),
    # Chords across the core
    (0, 4, 1.6), (1, 5, 1.7), (2, 6, 1.5), (3, 7, 1.8), (2, 8, 1.4),
    # Peripheral routers
    (9, 0, 0.8), (10, 1, 0.7), (11, 2, 0.9), (12, 3, 0.8),
    (13, 4, 0.7), (14, 5, 0.9), (15, 6, 0.8), (16, 7, 0.7),
    (17, 8, 0.9), (18, 2, 0.6),
    # A couple of peripheral cross-links for path diversity
    (9, 10, 1.1), (13, 14, 1.2), (16, 17, 1.0),
]


def fig5_backbone(core_latency: float = 0.010) -> nx.Graph:
    """The 19-router backbone approximating the paper's Fig. 5.

    Parameters
    ----------
    core_latency:
        One-way propagation latency of a unit-length core link, in
        seconds (10 ms default -- metropolitan/continental mix).

    Returns
    -------
    networkx.Graph
        Nodes ``0..18`` with ``latency`` edge attributes.
    """
    check_positive(core_latency, "core_latency")
    g = nx.Graph(name="fig5-backbone")
    for u, v, w in _FIG5_EDGES:
        g.add_edge(u, v, latency=w * core_latency)
    validate_backbone(g)
    return g


def waxman_backbone(
    n_routers: int,
    *,
    alpha: float = 0.4,
    beta: float = 0.25,
    core_latency: float = 0.010,
    rng: RandomSource = None,
) -> nx.Graph:
    """A Waxman random backbone for scaling studies.

    Routers are placed uniformly in the unit square; routers ``u, v``
    connect with probability ``alpha * exp(-d(u,v) / (beta * L))`` where
    ``L`` is the maximum distance.  Edge latency is proportional to
    Euclidean distance (``core_latency`` per unit).  Extra edges are
    added if needed so the graph is connected.
    """
    if n_routers < 2:
        raise ValueError(f"n_routers must be >= 2, got {n_routers}")
    check_positive(alpha, "alpha")
    check_positive(beta, "beta")
    check_positive(core_latency, "core_latency")
    gen = ensure_rng(rng)
    pos = gen.random((n_routers, 2))
    g = nx.Graph(name=f"waxman-{n_routers}")
    g.add_nodes_from(range(n_routers))
    diffs = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    l_max = dist.max()
    prob = alpha * np.exp(-dist / (beta * l_max))
    draws = gen.random((n_routers, n_routers))
    for u in range(n_routers):
        for v in range(u + 1, n_routers):
            if draws[u, v] < prob[u, v]:
                g.add_edge(u, v, latency=float(dist[u, v]) * core_latency)
    # Stitch components together through their closest router pair.
    comps = [list(c) for c in nx.connected_components(g)]
    while len(comps) > 1:
        a, b = comps[0], comps[1]
        best = min(
            ((u, v) for u in a for v in b), key=lambda uv: dist[uv[0], uv[1]]
        )
        g.add_edge(*best, latency=float(dist[best[0], best[1]]) * core_latency)
        comps = [list(c) for c in nx.connected_components(g)]
    validate_backbone(g)
    return g


def validate_backbone(g: nx.Graph) -> None:
    """Invariants every backbone must satisfy."""
    if g.number_of_nodes() < 2:
        raise ValueError("backbone needs at least two routers")
    if not nx.is_connected(g):
        raise ValueError("backbone must be connected")
    for u, v, data in g.edges(data=True):
        lat = data.get("latency")
        if lat is None or lat <= 0:
            raise ValueError(f"edge ({u},{v}) lacks a positive latency")
