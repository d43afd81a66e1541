"""Graphs, Laplacians, rewrites, cycles, reachability, interchange formats."""

import random

import pytest

from forestsolve import (
    Edge,
    Laplacian,
    Multidigraph,
    Polynomial,
    bordered_laplacian,
    canonical_graph,
    graph_from_json,
    graph_to_json,
    laplacian_of,
    merge_parallel_negative,
    parse_poly,
    reaches_avoiding,
    simple_cycles,
    split_edge,
    to_dot,
)
from forestsolve.multigraph import node_cycles, random_multidigraph

from conftest import ZERO, C, brute_force_cycles, zvar

P = parse_poly


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Multidigraph.from_edges(2, [(1, 1, C(1))])

    def test_rejects_zero_label(self):
        with pytest.raises(ValueError):
            Multidigraph.from_edges(2, [(1, 2, ZERO)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Multidigraph.from_edges(2, [(1, 3, C(1))])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Multidigraph(2, [Edge(1, 1, 2, C(1)), Edge(1, 2, 1, C(1))])


class TestLaplacian:
    def test_golden_four_node(self, three_var_system):
        lap = bordered_laplacian(three_var_system)
        graph = canonical_graph(lap)
        assert len(graph.edges) == 6
        assert laplacian_of(graph) == lap
        assert lap.entry(4, 1) == P("z1 + 2*z2")
        assert lap.entry(2, 1) == P("-z1")

    def test_empty_graph_zero_matrix(self):
        graph = Multidigraph.from_edges(3, [])
        lap = laplacian_of(graph)
        assert all(p.is_zero() for row in lap.rows for p in row)

    def test_parallel_edges_sum(self):
        graph = Multidigraph.from_edges(
            4, [(1, 4, zvar(1)), (1, 4, 2 * zvar(2))]
        )
        assert laplacian_of(graph).entry(4, 1) == P("z1 + 2*z2")

    def test_nonzero_column_sum_rejected(self):
        with pytest.raises(ValueError):
            Laplacian([[C(1), ZERO], [ZERO, ZERO]])

    def test_canonical_zero_matrix(self):
        graph = canonical_graph(Laplacian([[ZERO, ZERO], [ZERO, ZERO]]))
        assert len(graph.edges) == 0

    def test_canonical_keeps_mixed_entry_as_one_edge(self):
        lap = Laplacian(
            [
                [-zvar(2), zvar(3), ZERO, ZERO],
                [C(-1), C(-1), ZERO, zvar(1)],
                [ZERO, zvar(3), -zvar(4), zvar(5)],
                [C(1) + zvar(2), C(1) - 2 * zvar(3), zvar(4), -zvar(1) - zvar(5)],
            ]
        )
        graph = canonical_graph(lap)
        mixed = graph.parallel_edges(2, 4)
        assert len(mixed) == 1
        assert mixed[0].label == P("1 - 2*z3")
        assert laplacian_of(graph) == lap

    def test_canonical_no_parallels_no_self_loops(self):
        rng = random.Random(11)
        for _ in range(25):
            graph = random_multidigraph(rng)
            lap = laplacian_of(graph)
            canon = canonical_graph(lap)
            arcs = [(e.source, e.target) for e in canon.edges]
            assert len(arcs) == len(set(arcs))
            assert all(s != t for s, t in arcs)
            assert laplacian_of(canon) == lap


class TestRewrites:
    def test_split_reproduces_two_parallel_edges(self, three_var_system):
        graph = canonical_graph(bordered_laplacian(three_var_system))
        target = next(e for e in graph.edges if e.label == P("z1 + 2*z2"))
        new_graph, new_ids = split_edge(graph, target.eid, [zvar(1), 2 * zvar(2)])
        assert len(new_ids) == 2
        labels = sorted(str(new_graph.edge(i).label) for i in new_ids)
        assert labels == ["2*z2", "z1"]
        assert laplacian_of(new_graph) == laplacian_of(graph)

    def test_split_single_part_keeps_label(self):
        graph = Multidigraph.from_edges(2, [(1, 2, zvar(1))])
        new_graph, ids = split_edge(graph, 1, [zvar(1)])
        assert new_graph.edge(ids[0]).label == zvar(1)
        assert laplacian_of(new_graph) == laplacian_of(graph)

    def test_split_sum_mismatch(self):
        graph = Multidigraph.from_edges(2, [(1, 2, zvar(1))])
        with pytest.raises(ValueError):
            split_edge(graph, 1, [zvar(1), zvar(2)])

    def test_split_invariance_random(self):
        rng = random.Random(12)
        for _ in range(20):
            graph = random_multidigraph(rng)
            if not graph.edges:
                continue
            edge = rng.choice(graph.edges)
            value = edge.label.evaluate({})
            pieces = [C(value - 1), C(1)] if value != 1 else [C(2), C(-1)]
            new_graph, _ = split_edge(graph, edge.eid, pieces)
            assert laplacian_of(new_graph) == laplacian_of(graph)

    def test_merge_negative_parallels(self):
        graph = Multidigraph.from_edges(
            6, [(3, 6, -zvar(3)), (3, 6, -zvar(3)), (3, 5, zvar(1))]
        )
        merged, mapping = merge_parallel_negative(graph)
        assert set(mapping) == {1, 2}
        new_edge = merged.edge(mapping[1])
        assert new_edge.label == P("-2*z3")
        assert laplacian_of(merged) == laplacian_of(graph)

    def test_merge_no_negatives_unchanged(self):
        graph = Multidigraph.from_edges(3, [(1, 2, zvar(1)), (1, 2, zvar(2))])
        merged, mapping = merge_parallel_negative(graph)
        assert mapping == {}
        assert merged is graph

    def test_merge_invariance_random(self):
        rng = random.Random(13)
        for _ in range(20):
            graph = random_multidigraph(rng)
            merged, _ = merge_parallel_negative(graph)
            assert laplacian_of(merged) == laplacian_of(graph)


class TestCycles:
    def test_golden_cycles(self, three_var_system):
        graph = canonical_graph(bordered_laplacian(three_var_system))
        node_paths = {tuple(e.source for e in cycle) for cycle in simple_cycles(graph)}
        assert (1, 2, 3) in node_paths
        assert (1, 4, 2, 3) in node_paths
        assert (1, 3) in node_paths
        assert len(node_paths) == 3

    def test_acyclic(self):
        graph = Multidigraph.from_edges(3, [(1, 2, C(1)), (2, 3, C(1))])
        assert simple_cycles(graph) == []

    def test_antiparallel_pair(self):
        graph = Multidigraph.from_edges(2, [(1, 2, C(1)), (2, 1, C(2))])
        cycles = simple_cycles(graph)
        assert len(cycles) == 1
        assert len(cycles[0]) == 2

    def test_parallel_edges_multiply_cycles(self):
        graph = Multidigraph.from_edges(
            2, [(1, 2, C(1)), (1, 2, C(2)), (2, 1, C(3))]
        )
        assert len(simple_cycles(graph)) == 2

    def test_against_brute_force(self):
        rng = random.Random(14)
        for _ in range(40):
            graph = random_multidigraph(rng, max_nodes=5, max_edges=8)
            got = {frozenset(e.eid for e in cycle) for cycle in simple_cycles(graph)}
            assert got == brute_force_cycles(graph)

    def test_cycles_are_closed_walks(self):
        rng = random.Random(15)
        for _ in range(20):
            graph = random_multidigraph(rng, max_nodes=5, max_edges=8)
            for cycle in simple_cycles(graph):
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    assert a.target == b.source
                sources = [e.source for e in cycle]
                assert len(sources) == len(set(sources))

    def test_node_cycles_anchor_is_minimum(self):
        graph = Multidigraph.from_edges(
            3, [(2, 3, C(1)), (3, 2, C(1)), (1, 2, C(1))]
        )
        assert node_cycles(graph) == [(2, 3)]


class TestReachability:
    def test_trivial_identity(self):
        graph = Multidigraph.from_edges(3, [])
        assert reaches_avoiding(graph, 1, 1, 3)

    def test_edgeless_distinct(self):
        graph = Multidigraph.from_edges(3, [])
        assert not reaches_avoiding(graph, 1, 2, 3)

    def test_avoid_blocks_path(self):
        graph = Multidigraph.from_edges(
            3, [(1, 3, C(1)), (3, 2, C(1))]
        )
        assert not reaches_avoiding(graph, 1, 2, 3)

    def test_detour(self):
        graph = Multidigraph.from_edges(
            4, [(1, 3, C(1)), (3, 2, C(1)), (1, 4, C(1)), (4, 2, C(1))]
        )
        assert reaches_avoiding(graph, 1, 2, 3)

    def test_endpoint_equal_avoid_rejected(self):
        graph = Multidigraph.from_edges(2, [])
        with pytest.raises(ValueError):
            reaches_avoiding(graph, 1, 2, 1)


class TestFormats:
    def test_json_round_trip(self, three_var_system):
        graph = canonical_graph(bordered_laplacian(three_var_system))
        data = graph_to_json(graph)
        back = graph_from_json(data)
        assert laplacian_of(back) == laplacian_of(graph)
        assert graph_to_json(back) == data

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"edges": []}, "nodes"),
            ({"nodes": 2}, "edges"),
            ({"nodes": 2, "edges": [{"src": 1, "tgt": 2}]}, "label"),
        ],
    )
    def test_missing_key_is_a_value_error_naming_it(self, data, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            graph_from_json(data)

    def test_dot_deterministic_and_marked(self, three_var_system):
        graph = canonical_graph(bordered_laplacian(three_var_system))
        dot = to_dot(graph)
        assert dot == to_dot(graph)
        assert "4 [shape=doublecircle];" in dot
        assert '1 -> 2 [label="-z1", style=dashed];' in dot
        assert '1 -> 4 [label="z1 + 2*z2"];' in dot
