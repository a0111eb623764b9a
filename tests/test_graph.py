"""Unit tests for the context graph (hypercube structure, search helpers)."""

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.coe_structure import COEStructure, analyze_coe
from repro.context import Context, ContextGraph
from repro.exceptions import EnumerationError
from repro.schema import CategoricalAttribute, MetricAttribute, Schema


@pytest.fixture(scope="module")
def schema() -> Schema:
    return Schema(
        attributes=[
            CategoricalAttribute("A", ["a1", "a2"]),
            CategoricalAttribute("B", ["b1", "b2"]),
        ],
        metric=MetricAttribute("M"),
    )


@pytest.fixture(scope="module")
def graph(schema) -> ContextGraph:
    return ContextGraph(schema)


class TestStructure:
    def test_degree_is_t(self, graph, schema):
        assert graph.degree == schema.t == 4

    def test_n_vertices(self, graph):
        assert graph.n_vertices == 16

    def test_neighbors_bits(self, graph):
        nbs = graph.neighbors_bits(0b0000)
        assert sorted(nbs) == [0b0001, 0b0010, 0b0100, 0b1000]

    def test_are_connected(self, graph, schema):
        a = Context(schema, 0b0001)
        b = Context(schema, 0b0011)
        c = Context(schema, 0b0111)
        assert graph.are_connected(a, b)
        assert not graph.are_connected(a, c)


class TestPaths:
    def test_shortest_path_length_is_hamming(self, graph, schema):
        a = Context(schema, 0b0000)
        b = Context(schema, 0b1011)
        assert graph.shortest_path_length(a, b) == 3

    def test_shortest_path_is_geodesic(self, graph, schema):
        a = Context(schema, 0b0101)
        b = Context(schema, 0b1010)
        path = graph.shortest_path(a, b)
        assert path[0] == a
        assert path[-1] == b
        assert len(path) == a.hamming_distance(b) + 1
        for u, v in zip(path, path[1:]):
            assert u.hamming_distance(v) == 1

    def test_shortest_path_same_node(self, graph, schema):
        a = Context(schema, 0b0101)
        assert graph.shortest_path(a, a) == [a]


class TestBall:
    def test_ball_radius_zero(self, graph, schema):
        center = Context(schema, 0b0101)
        assert [c.bits for c in graph.ball(center, 0)] == [0b0101]

    def test_ball_radius_one_is_closed_neighborhood(self, graph, schema):
        center = Context(schema, 0b0000)
        ball = {c.bits for c in graph.ball(center, 1)}
        assert ball == {0b0000, 0b0001, 0b0010, 0b0100, 0b1000}

    def test_ball_counts_match_binomials(self, graph, schema):
        center = Context(schema, 0b0000)
        # |ball(r)| = sum_{i<=r} C(t, i)
        assert len(list(graph.ball(center, 2))) == 1 + 4 + 6

    def test_full_radius_ball_covers_space(self, graph, schema):
        center = Context(schema, 0b1111)
        assert len(list(graph.ball(center, schema.t))) == graph.n_vertices

    def test_negative_radius_rejected(self, graph, schema):
        with pytest.raises(ValueError):
            list(graph.ball(Context(schema, 0), -1))


class TestLocalityProfile:
    def test_matcher_everything_gives_ones(self, graph, schema):
        profile = graph.locality_profile(lambda b: True, Context(schema, 0), 2)
        assert profile == [1.0, 1.0, 1.0]

    def test_matcher_nothing_gives_zeros_beyond_center(self, graph, schema):
        profile = graph.locality_profile(lambda b: False, Context(schema, 0), 2)
        assert profile == [0.0, 0.0, 0.0]

    def test_local_matcher_decays(self, graph, schema):
        center = Context(schema, 0b0000)
        # Match only contexts within distance 1 of the center.
        profile = graph.locality_profile(
            lambda b: b.bit_count() <= 1, center, 3
        )
        assert profile[0] == 1.0
        assert profile[1] == 1.0
        assert profile[2] == 0.0


class TestMaterialisation:
    def test_to_networkx_is_hypercube(self, graph):
        g = graph.to_networkx()
        assert g.number_of_nodes() == 16
        assert g.number_of_edges() == 16 * 4 // 2
        assert nx.is_connected(g)
        assert all(d == 4 for _, d in g.degree())

    def test_to_networkx_respects_limit(self, graph):
        with pytest.raises(EnumerationError):
            graph.to_networkx(limit=8)

    def test_induced_subgraph(self, graph):
        g = graph.induced_subgraph(lambda b: b.bit_count() <= 1)
        assert set(g.nodes) == {0b0000, 0b0001, 0b0010, 0b0100, 0b1000}
        assert g.number_of_edges() == 4  # star around 0


def networkx_analyze_coe(reference, record_id: int) -> COEStructure:
    """The networkx implementation ``analyze_coe`` replaced, kept as an oracle."""
    matching = reference.matching_contexts(record_id)
    t = reference.schema.t
    graph = nx.Graph()
    graph.add_nodes_from(matching)
    matching_set = set(matching)
    for bits in matching:
        for b in range(t):
            nb = bits ^ (1 << b)
            if nb > bits and nb in matching_set:
                graph.add_edge(bits, nb)
    components = sorted(
        (sorted(c) for c in nx.connected_components(graph)),
        key=len,
        reverse=True,
    )

    pops = {bits: reference.population_size(bits) for bits in matching}
    max_population = max(pops.values())
    best_overall = max(matching, key=lambda b: pops[b])
    max_component = next(c for c in components if best_overall in c)
    expected_reachable = 0.0
    distances = []
    for comp in components:
        comp_best = max(comp, key=lambda b: pops[b])
        expected_reachable += (len(comp) / len(matching)) * pops[comp_best]
        for bits in comp:
            distances.append((bits ^ comp_best).bit_count())
    return COEStructure(
        record_id=record_id,
        n_matching=len(matching),
        n_components=len(components),
        component_sizes=tuple(len(c) for c in components),
        max_component_coverage=len(max_component) / len(matching),
        max_population=max_population,
        expected_reachable_max=expected_reachable,
        mean_distance_to_best=float(np.mean(distances)),
    )


class DrawnReference:
    """The part of a ReferenceFile ``analyze_coe`` reads, over one drawn COE."""

    def __init__(self, t: int, populations: dict):
        self.schema = SimpleNamespace(t=t)
        self._populations = populations

    def matching_contexts(self, record_id: int) -> list:
        return list(self._populations)

    def population_size(self, bits: int) -> int:
        return self._populations[bits]


@st.composite
def drawn_coes(draw):
    """A matching set in ``Q_t`` (t <= 14) in drawn order, with tied populations."""
    t = draw(st.integers(min_value=1, max_value=14))
    matching = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << t) - 1),
            min_size=1,
            max_size=min(1 << t, 300),
            unique=True,
        )
    )
    pops = draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=len(matching),
            max_size=len(matching),
        )
    )
    return DrawnReference(t, dict(zip(matching, pops)))


class TestAnalyzeCOEOracle:
    """``analyze_coe`` equals the networkx version, float for float."""

    def test_mini_reference_records(self, mini_reference):
        records = mini_reference.outlier_records()
        assert records
        for rid in records:
            assert analyze_coe(mini_reference, rid) == networkx_analyze_coe(
                mini_reference, rid
            )

    @given(drawn_coes())
    @settings(max_examples=200, deadline=None)
    def test_drawn_matching_sets(self, reference):
        assert analyze_coe(reference, 0) == networkx_analyze_coe(reference, 0)
