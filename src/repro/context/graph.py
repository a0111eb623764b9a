"""The context graph of Section 5.2.

Vertices are all contexts over the schema; an edge joins two contexts at
Hamming distance 1, so the graph is the ``t``-dimensional hypercube
``Q_t`` (every vertex has degree exactly ``t``).  The graph is *implicit* —
samplers only ever expand neighbourhoods on demand — but an explicit
:mod:`networkx` export is provided for analysis and for the locality
experiments, restricted to small ``t``.  networkx is imported only by those
two exports, so releases never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, List, Optional

from repro.context.context import Context
from repro.exceptions import EnumerationError
from repro.schema import Schema

if TYPE_CHECKING:
    import networkx as nx

# Above this many vertices we refuse to materialise the hypercube.
MATERIALIZE_LIMIT = 1 << 16


class ContextGraph:
    """Implicit hypercube graph over contexts, with optional materialisation."""

    def __init__(self, schema: Schema):
        self.schema = schema

    @property
    def degree(self) -> int:
        """Every vertex of ``Q_t`` has degree ``t``."""
        return self.schema.t

    @property
    def n_vertices(self) -> int:
        return 1 << self.schema.t

    def neighbors(self, context: Context) -> Iterator[Context]:
        """The ``t`` contexts connected to ``context`` (Hamming distance 1)."""
        return context.neighbors()

    def neighbors_bits(self, bits: int) -> List[int]:
        """Neighbour bitmasks without Context wrapping (hot path for samplers)."""
        return [bits ^ (1 << b) for b in range(self.schema.t)]

    def are_connected(self, a: Context, b: Context) -> bool:
        return a.is_connected_to(b)

    def shortest_path_length(self, a: Context, b: Context) -> int:
        """Hypercube geodesic distance = Hamming distance."""
        return a.hamming_distance(b)

    def shortest_path(self, a: Context, b: Context) -> List[Context]:
        """One geodesic from ``a`` to ``b``: flip differing bits low-to-high."""
        path = [a]
        current = a
        diff = a.bits ^ b.bits
        bit = 0
        while diff:
            if diff & 1:
                current = current.flip_bit(bit)
                path.append(current)
            diff >>= 1
            bit += 1
        return path

    # ----------------------------------------------------------- exploration

    def ball(self, center: Context, radius: int) -> Iterator[Context]:
        """All contexts within Hamming distance ``radius`` of ``center``."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        seen = {center.bits}
        frontier = [center.bits]
        yield center
        for _ in range(radius):
            next_frontier: List[int] = []
            for bits in frontier:
                for nb in self.neighbors_bits(bits):
                    if nb not in seen:
                        seen.add(nb)
                        next_frontier.append(nb)
                        yield Context(self.schema, nb)
            frontier = next_frontier

    def locality_profile(
        self,
        matcher: Callable[[int], bool],
        center: Context,
        max_radius: int,
    ) -> List[float]:
        """Fraction of matching contexts at each Hamming radius from ``center``.

        This quantifies the paper's *locality hypothesis* (Section 5.2): if
        ``V`` is an outlier in ``C``, connected contexts are likelier to be
        matching than random ones.  Entry ``r`` of the result is the match
        rate among contexts at exactly distance ``r``.
        """
        if max_radius < 0:
            raise ValueError(f"max_radius must be non-negative, got {max_radius}")
        totals = [0] * (max_radius + 1)
        matches = [0] * (max_radius + 1)
        for ctx in self.ball(center, max_radius):
            r = center.hamming_distance(ctx)
            totals[r] += 1
            if matcher(ctx.bits):
                matches[r] += 1
        return [m / t if t else 0.0 for m, t in zip(matches, totals)]

    # -------------------------------------------------------- materialisation

    def to_networkx(self, limit: Optional[int] = MATERIALIZE_LIMIT) -> nx.Graph:
        """Materialise the full hypercube as a :class:`networkx.Graph`.

        Nodes are context bitmasks (ints).  Refused above ``limit`` vertices.
        """
        if limit is not None and self.n_vertices > limit:
            raise EnumerationError(
                f"context graph has {self.n_vertices} vertices (> limit {limit})"
            )
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.n_vertices))
        for bits in range(self.n_vertices):
            for b in range(self.schema.t):
                nb = bits ^ (1 << b)
                if nb > bits:
                    graph.add_edge(bits, nb)
        return graph

    def induced_subgraph(
        self, matcher: Callable[[int], bool], limit: Optional[int] = MATERIALIZE_LIMIT
    ) -> nx.Graph:
        """Subgraph induced by contexts accepted by ``matcher``.

        Useful for studying whether the matching region is connected — the
        implicit assumption behind walking/searching from a starting context.
        """
        if limit is not None and self.n_vertices > limit:
            raise EnumerationError(
                f"context graph has {self.n_vertices} vertices (> limit {limit})"
            )
        import networkx as nx

        graph = nx.Graph()
        matching = [bits for bits in range(self.n_vertices) if matcher(bits)]
        graph.add_nodes_from(matching)
        matching_set = set(matching)
        for bits in matching:
            for b in range(self.schema.t):
                nb = bits ^ (1 << b)
                if nb > bits and nb in matching_set:
                    graph.add_edge(bits, nb)
        return graph
