"""Forest enumeration, forest sums, and the minor identity."""

import itertools
import random

import pytest

from forestsolve import (
    ForestSums,
    Polynomial,
    all_minors_check,
    bordered_laplacian,
    canonical_graph,
    enumerate_forests,
    enumerate_rooted_forests,
    forest_from_edges,
    forest_label,
    inversion_count,
    laplacian_of,
    parse_poly,
    upsilon,
    upsilon_rooted,
    upsilon_signed,
)
from forestsolve.multigraph import Multidigraph, random_multidigraph
from forestsolve.symring import det_matrix

from conftest import C, brute_force_rooted_forests, zvar

P = parse_poly


@pytest.fixture
def golden_graph(three_var_system):
    return canonical_graph(bordered_laplacian(three_var_system))


class TestEnumeration:
    def test_matches_brute_force(self):
        rng = random.Random(21)
        for _ in range(30):
            graph = random_multidigraph(rng, max_nodes=4, max_edges=8)
            nodes = list(graph.nodes)
            for size in range(1, len(nodes) + 1):
                for roots in itertools.combinations(nodes, size):
                    got = {
                        frozenset(f.edge_ids)
                        for f in enumerate_rooted_forests(graph, roots)
                    }
                    assert got == brute_force_rooted_forests(graph, roots)

    def test_edge_count_invariant(self, golden_graph):
        for size in range(1, 5):
            for roots in itertools.combinations(range(1, 5), size):
                for f in enumerate_rooted_forests(golden_graph, roots):
                    assert len(f.edge_ids) == 4 - len(roots)

    def test_all_nodes_rooted_gives_empty_forest(self, golden_graph):
        forests = enumerate_forests(golden_graph, (1, 2, 3, 4), (1, 2, 3, 4))
        assert len(forests) == 1
        assert forests[0].edge_ids == ()

    def test_disconnected_graph_has_no_spanning_tree(self):
        graph = Multidigraph.from_edges(3, [(1, 2, C(1))])
        assert enumerate_rooted_forests(graph, (2,)) == []
        assert upsilon_rooted(graph, 2).is_zero()

    def test_marked_node_filter(self, golden_graph):
        plain = enumerate_rooted_forests(golden_graph, (2, 4))
        marked = enumerate_forests(golden_graph, (2, 4), (2, 4))
        assert {f.edge_ids for f in marked} <= {f.edge_ids for f in plain}
        for f in marked:
            assert f.root_of(2) != f.root_of(4)

    def test_size_mismatch_rejected(self, golden_graph):
        with pytest.raises(ValueError):
            enumerate_forests(golden_graph, (1,), (1, 2))

    def test_deterministic_order(self, golden_graph):
        forests = enumerate_rooted_forests(golden_graph, (2,))
        assert [f.edge_ids for f in forests] == sorted(f.edge_ids for f in forests)

    def test_forest_from_edges_rejects_cycle(self, golden_graph):
        cyclic = [e.eid for e in golden_graph.edges if e.source in (1, 3) and e.target in (1, 3)]
        with pytest.raises(ValueError):
            forest_from_edges(golden_graph, cyclic)


class TestForestSums:
    def test_golden_tree_sums(self, golden_graph):
        assert upsilon_rooted(golden_graph, 2) == P("2*z2*z4*z5")
        assert upsilon_rooted(golden_graph, 4) == P("(z1 + 2*z2)*z3*z4")
        assert upsilon(golden_graph, (4,), (4,)) == P("(z1 + 2*z2)*z3*z4")

    def test_empty_family_sums_to_zero(self):
        graph = Multidigraph.from_edges(3, [(1, 2, C(1))])
        assert upsilon(graph, (1,), (3,)).is_zero()

    def test_single_node_graph(self):
        graph = Multidigraph.from_edges(1, [])
        assert upsilon_rooted(graph, 1) == Polynomial.one()

    def test_signed_equals_unsigned_for_single_root(self):
        rng = random.Random(22)
        for _ in range(25):
            graph = random_multidigraph(rng)
            for j in graph.nodes:
                assert upsilon(graph, (j,), (j,)) == upsilon_signed(graph, (j,), (j,))

    def test_inversion_count(self, golden_graph):
        for f in enumerate_forests(golden_graph, (1, 2), (2, 3)):
            images = (f.root_of(1), f.root_of(2))
            expected = 1 if images[0] > images[1] else 0
            assert inversion_count(f, (1, 2)) == expected

    def test_label_of_empty_forest_is_one(self, golden_graph):
        f = enumerate_forests(golden_graph, (1, 2, 3, 4), (1, 2, 3, 4))[0]
        assert forest_label(golden_graph, f) == Polynomial.one()


class TestMinorIdentity:
    def test_determinant_relation_at_border_node(self, three_var_system, golden_graph):
        det_a = det_matrix([list(row) for row in three_var_system.a])
        m = three_var_system.m
        expected = upsilon_rooted(golden_graph, m + 1)
        assert det_a == (expected if m % 2 == 0 else -expected)
        assert all_minors_check(golden_graph, (m + 1,), (m + 1,))

    def test_full_sets_give_empty_minor(self, golden_graph):
        assert all_minors_check(golden_graph, (1, 2, 3, 4), (1, 2, 3, 4))
        lap = laplacian_of(golden_graph)
        nodes = (1, 2, 3, 4)
        assert ForestSums(lap, nodes).signed_minor(dict(zip(nodes, nodes))) == (
            1, Polynomial.one()
        )

    def test_random_suite(self):
        rng = random.Random(23)
        for _ in range(60):
            graph = random_multidigraph(rng, max_nodes=5, max_edges=10)
            nodes = list(graph.nodes)
            for size in range(0, min(3, len(nodes)) + 1):
                for f_set in itertools.combinations(nodes, size):
                    for b_set in itertools.combinations(nodes, size):
                        assert all_minors_check(graph, f_set, b_set)

    def test_symbolic_labels(self, golden_graph):
        nodes = list(golden_graph.nodes)
        for size in (1, 2, 3):
            for f_set in itertools.combinations(nodes, size):
                for b_set in itertools.combinations(nodes, size):
                    assert all_minors_check(golden_graph, f_set, b_set)
