"""Edge partitions, certificate search, the positive expansion, certification."""

import itertools
import random
from fractions import Fraction

import pytest

from forestsolve import (
    LinearSystem,
    Multidigraph,
    Polynomial,
    SingularSystemError,
    bordered_laplacian,
    canonical_graph,
    certify_nonneg,
    cramer_oracle,
    enumerate_rooted_forests,
    find_mu,
    find_pgraph,
    forest_from_edges,
    is_nonneg,
    is_pgraph,
    lambda_forests,
    laplacian_of,
    nonzero_component,
    parse_poly,
    poly_sign,
    positive_upsilon,
    psi_fiber,
    rat_equal,
    upsilon_rooted,
    validate_partition,
)
from forestsolve.multigraph import (
    node_cycles,
    random_multidigraph,
    reaches_avoiding,
    simple_cycles,
)
from forestsolve.pgraph import _arc_common_nodes
from forestsolve.symring import Sign

from conftest import ZERO, C, random_certificate_cases, zvar

P = parse_poly


@pytest.fixture
def split_witness(three_var_system):
    """The two-parallel-edge certificate graph for the running example."""
    lap = bordered_laplacian(three_var_system)
    graph, mu = find_pgraph(lap)
    witness = is_pgraph(graph, mu)
    assert witness is not None
    return witness


def _nine_edge_graph():
    """The sign-flipped three-variable block example as a split multidigraph."""
    return Multidigraph.from_edges(
        4,
        [
            (1, 2, C(-1)),
            (2, 1, zvar(3)),
            (1, 4, C(1) + zvar(2)),
            (4, 2, zvar(1)),
            (2, 4, C(1)),
            (2, 4, -2 * zvar(3)),
            (2, 3, zvar(3)),
            (3, 4, zvar(4)),
            (4, 3, zvar(5)),
        ],
    )


class TestValidatePartition:
    def test_golden_witness_is_valid(self, split_witness):
        assert validate_partition(split_witness.graph, split_witness.mu) == []

    def test_conditions_hold_without_group_sums(self, three_var_system):
        graph = canonical_graph(bordered_laplacian(three_var_system))
        negatives = [e.eid for e in graph.edges if poly_sign(e.label) == Sign.NONPOS]
        positive = next(
            e.eid for e in graph.edges if e.label == P("z1 + 2*z2")
        )
        mu = {negatives[0]: {positive}, negatives[1]: set()}
        assert validate_partition(graph, mu) == []

    def test_overlapping_groups(self, three_var_system):
        graph = canonical_graph(bordered_laplacian(three_var_system))
        negatives = [e.eid for e in graph.edges if poly_sign(e.label) == Sign.NONPOS]
        positive = next(e.eid for e in graph.edges if e.label == P("z1 + 2*z2"))
        mu = {negatives[0]: {positive}, negatives[1]: {positive}}
        conditions = {v.condition for v in validate_partition(graph, mu)}
        assert "iiic" in conditions

    def test_mixed_label_fails_first_condition(self):
        graph = Multidigraph.from_edges(3, [(1, 2, P("1 - 2*z3")), (2, 3, C(1))])
        conditions = {v.condition for v in validate_partition(graph, {})}
        assert conditions == {"i"}

    def test_source_mismatch(self):
        graph = Multidigraph.from_edges(3, [(1, 2, -zvar(1)), (2, 3, zvar(1))])
        violations = validate_partition(graph, {1: {2}})
        assert any(v.condition == "iiia" for v in violations)

    def test_cycle_through_group_member_misses_target(self):
        # grouped edge 1->3 sits on a cycle avoiding node 2
        graph = Multidigraph.from_edges(
            3, [(1, 2, -zvar(1)), (1, 3, zvar(1)), (3, 1, zvar(2))]
        )
        violations = validate_partition(graph, {1: {2}})
        assert any(v.condition == "iiib" for v in violations)

    def test_two_negative_edges_on_one_cycle(self):
        graph = Multidigraph.from_edges(2, [(1, 2, -zvar(1)), (2, 1, -zvar(2))])
        violations = validate_partition(graph, {})
        assert any(v.condition == "ii" for v in violations)


class TestIsPgraph:
    def test_golden_group_sums(self, split_witness):
        sums = sorted(str(p) for p in split_witness.group_sums.values())
        assert sums == ["0", "z2"]

    def test_all_positive_graph_trivially_certified(self):
        graph = Multidigraph.from_edges(3, [(1, 2, zvar(1)), (2, 3, C(2))])
        witness = is_pgraph(graph, {})
        assert witness is not None
        assert witness.mu == {}

    def test_insufficient_group_sum_rejected(self):
        graph = Multidigraph.from_edges(
            3, [(1, 2, -2 * zvar(1)), (1, 3, zvar(1))]
        )
        assert is_pgraph(graph, {1: {2}}) is None

    def test_nine_edge_graph_admits_no_grouping(self):
        assert find_mu(_nine_edge_graph()) is None

    def test_canonical_graph_of_running_example_is_not_certifiable(
        self, three_var_system
    ):
        graph = canonical_graph(bordered_laplacian(three_var_system))
        assert find_mu(graph) is None

    def test_find_mu_on_certifiable_graph(self, split_witness):
        mu = find_mu(split_witness.graph)
        assert mu is not None
        assert is_pgraph(split_witness.graph, mu) is not None

    def test_find_mu_reads_condition_ii_on_node_cycles(self):
        # an edge-level cycle with two negative edges must refuse; any grouping
        # found must validate
        rng = random.Random(11)
        refused = found = 0
        for _ in range(150):
            graph = random_multidigraph(rng, max_nodes=5, max_edges=9)
            two_negative = any(
                sum(poly_sign(e.label) == Sign.NONPOS for e in cycle) > 1
                for cycle in simple_cycles(graph)
            )
            mu = find_mu(graph)
            if two_negative:
                assert mu is None
                refused += 1
            if mu is not None:
                assert is_pgraph(graph, mu) is not None
                found += 1
        assert refused and found


def _complete_digraph(n: int) -> Multidigraph:
    return Multidigraph.from_edges(
        n, [(s, t, C(1)) for s in range(1, n + 1) for t in range(1, n + 1) if s != t]
    )


class TestArcCommonNodes:
    """The table behind condition (iii b): the nodes on every cycle through an arc."""

    def test_table_matches_cycle_intersection_and_reachability(self):
        rng = random.Random(5)
        graphs = [random_multidigraph(rng, max_nodes=6, max_edges=14) for _ in range(60)]
        graphs += [_complete_digraph(n) for n in range(3, 7)]
        for graph in graphs:
            table = _arc_common_nodes(graph)
            assert set(table) == set(graph.arcs())
            cycles = node_cycles(graph)
            for s, u in graph.arcs():
                through = [
                    set(c) for c in cycles if (s, u) in zip(c, c[1:] + c[:1])
                ]
                for t in graph.nodes:
                    on_every = all(t in nodes for nodes in through)
                    assert (t in table[(s, u)]) == on_every
                    # a cycle through s -> u avoiding t is a path u ~> s in G - t
                    assert on_every == (
                        t in (s, u) or not reaches_avoiding(graph, u, s, t)
                    )

    def test_arc_on_no_cycle_keeps_every_node(self):
        graph = Multidigraph.from_edges(3, [(1, 2, C(1)), (2, 1, C(1)), (2, 3, C(1))])
        assert _arc_common_nodes(graph) == {
            (1, 2): {1, 2},
            (2, 1): {1, 2},
            (2, 3): {1, 2, 3},
        }


class TestFindPgraph:
    def test_golden_split_witness(self, three_var_system, split_witness):
        graph = split_witness.graph
        assert laplacian_of(graph) == bordered_laplacian(three_var_system)
        parallel = graph.parallel_edges(1, 4)
        assert sorted(str(e.label) for e in parallel) == ["2*z2", "z1"]
        by_label = {str(graph.edge(k).label): v for k, v in split_witness.mu.items()}
        assert {str(graph.edge(e).label) for e in by_label["-z1"]} == {"z1"}
        assert {str(graph.edge(e).label) for e in by_label["-z2"]} == {"2*z2"}

    def test_mmatrix_has_no_certificate(self, mmatrix_system):
        assert find_pgraph(bordered_laplacian(mmatrix_system)) is None

    def test_all_nonneg_entries_give_canonical_graph(self):
        lap = [
            [C(-2), C(1), C(2)],
            [C(1), C(-2), C(2)],
            [C(1), C(1), C(-4)],
        ]
        graph, mu = find_pgraph(lap)
        assert mu == {}
        assert len(graph.edges) == 6

    def test_positive_diagonal_rejected(self):
        lap = [
            [C(-1), C(2), C(-2)],
            [C(2), C(-1), C(-2)],
            [C(-1), C(-1), C(4)],
        ]
        assert find_pgraph(lap) is None

    def test_sign_flipped_block_example_has_no_certificate(self):
        lap = [
            [-zvar(2), zvar(3), ZERO, ZERO],
            [C(-1), C(-1), ZERO, zvar(1)],
            [ZERO, zvar(3), -zvar(4), zvar(5)],
            [C(1) + zvar(2), C(1) - 2 * zvar(3), zvar(4), -zvar(1) - zvar(5)],
        ]
        assert find_pgraph(lap) is None

    def test_found_graphs_realize_their_matrix(self):
        rng = random.Random(41)
        for lap, (graph, mu) in random_certificate_cases(rng, 6):
            assert laplacian_of(graph) == lap
            assert is_pgraph(graph, mu) is not None

    def test_split_serves_two_groups(self):
        # one positive edge 1->4 (2*z1) must cancel two negative edges
        lap = [
            [ZERO, ZERO, zvar(4), ZERO],
            [-zvar(1), -zvar(3), ZERO, zvar(2)],
            [-zvar(1), zvar(3), -zvar(4), ZERO],
            [2 * zvar(1), ZERO, ZERO, -zvar(2)],
        ]
        found = find_pgraph(lap)
        assert found is not None
        graph, mu = found
        witness = is_pgraph(graph, mu)
        assert witness is not None
        parallel = graph.parallel_edges(1, 4)
        assert [str(e.label) for e in parallel] == ["z1", "z1"]
        assert all(len(group) == 1 for group in mu.values())
        assert all(p.is_zero() for p in witness.group_sums.values())


class TestReplacementStructure:
    def test_lambda_equals_all_forests_without_negatives(self):
        graph = Multidigraph.from_edges(3, [(1, 2, zvar(1)), (2, 3, zvar(2)), (1, 3, C(2))])
        witness = is_pgraph(graph, {})
        for roots in [(3,), (2, 3), (1, 2, 3)]:
            lam = lambda_forests(witness, roots)
            theta = enumerate_rooted_forests(graph, roots)
            assert [f.edge_ids for f in lam] == [f.edge_ids for f in theta]

    def test_golden_lambda_and_fibers(self, split_witness):
        graph = split_witness.graph
        lam = lambda_forests(split_witness, (2,))
        assert len(lam) == 2
        theta = enumerate_rooted_forests(graph, (2,))
        fibers = [
            f.edge_ids for zeta in lam for f in psi_fiber(split_witness, zeta)
        ]
        assert sorted(fibers) == sorted(f.edge_ids for f in theta)
        assert len(fibers) == len(set(fibers))

    def test_fiber_of_positive_forest_is_singleton(self, split_witness):
        lam = lambda_forests(split_witness, (1,))
        for zeta in lam:
            negatives = [
                eid
                for eid in zeta.edge_ids
                if poly_sign(split_witness.graph.edge(eid).label) == Sign.NONPOS
            ]
            if not negatives:
                assert len(psi_fiber(split_witness, zeta)) == 1

    def test_fiber_size_formula(self, split_witness):
        for root in (1, 2, 3, 4):
            for zeta in lambda_forests(split_witness, (root,)):
                expected = 1
                for eid in zeta.edge_ids:
                    if poly_sign(split_witness.graph.edge(eid).label) == Sign.NONPOS:
                        expected *= 1 + len(split_witness.mu.get(eid, ()))
                assert len(psi_fiber(split_witness, zeta)) == expected

    def test_fiber_partition_random(self):
        rng = random.Random(42)
        for _, (graph, mu) in random_certificate_cases(rng, 5):
            witness = is_pgraph(graph, mu)
            for root in graph.nodes:
                theta = enumerate_rooted_forests(graph, (root,))
                fibers = [
                    f.edge_ids
                    for zeta in lambda_forests(witness, (root,))
                    for f in psi_fiber(witness, zeta)
                ]
                assert sorted(fibers) == sorted(f.edge_ids for f in theta)
                assert len(fibers) == len(set(fibers))

    def test_replacement_sets_closed_under_union(self):
        rng = random.Random(43)
        for _, (graph, mu) in random_certificate_cases(rng, 5):
            witness = is_pgraph(graph, mu)
            inv = {m: e for e, group in witness.mu.items() for m in group}
            for root in graph.nodes:
                for zeta in enumerate_rooted_forests(graph, (root,)):
                    members = []
                    cands = sorted(e for e in zeta.edge_ids if e in inv)
                    for r in range(len(cands) + 1):
                        for combo in itertools.combinations(cands, r):
                            swapped = (set(zeta.edge_ids) - set(combo)) | {
                                inv[e] for e in combo
                            }
                            try:
                                forest_from_edges(graph, swapped)
                            except ValueError:
                                continue
                            members.append(frozenset(combo))
                    member_set = set(members)
                    for e1 in members:
                        for e2 in members:
                            assert e1 | e2 in member_set


class TestPositiveExpansion:
    def test_golden_tree_sum(self, split_witness):
        assert positive_upsilon(split_witness, 2) == P("2*z2*z4*z5")

    def test_unreachable_root_gives_zero(self):
        graph = Multidigraph.from_edges(3, [(1, 2, zvar(1))])
        witness = is_pgraph(graph, {})
        assert positive_upsilon(witness, 3).is_zero()

    def test_equals_plain_tree_sum(self, split_witness):
        for root in (1, 2, 3, 4):
            assert positive_upsilon(split_witness, root) == upsilon_rooted(
                split_witness.graph, root
            )

    def test_equals_plain_tree_sum_random(self):
        rng = random.Random(44)
        for _, (graph, mu) in random_certificate_cases(rng, 6):
            witness = is_pgraph(graph, mu)
            for root in graph.nodes:
                assert positive_upsilon(witness, root) == upsilon_rooted(graph, root)

    def test_summands_certified_nonnegative(self, split_witness):
        for root in (1, 2, 3, 4):
            assert is_nonneg(positive_upsilon(split_witness, root))


class TestNonzeroComponent:
    def test_golden_all_nonzero(self, split_witness):
        assert all(nonzero_component(split_witness, i) for i in (1, 2, 3, 4))

    def test_unreachable_root(self):
        graph = Multidigraph.from_edges(3, [(1, 2, zvar(1))])
        witness = is_pgraph(graph, {})
        assert not nonzero_component(witness, 3)

    def test_agrees_with_symbolic_test_random(self):
        rng = random.Random(45)
        for _, (graph, mu) in random_certificate_cases(rng, 6):
            witness = is_pgraph(graph, mu)
            for root in graph.nodes:
                assert nonzero_component(witness, root) == (
                    not upsilon_rooted(graph, root).is_zero()
                )


class TestCertifyNonneg:
    def test_running_example_certified(self, three_var_system):
        solution, witness = certify_nonneg(three_var_system)
        oracle = cramer_oracle(three_var_system)
        for got, want in zip(solution, oracle):
            assert rat_equal(got, want)
            assert is_nonneg(got.numerator) and is_nonneg(got.denominator)
        negatives = {
            e.eid for e in witness.graph.edges if poly_sign(e.label) == Sign.NONPOS
        }
        assert set(witness.mu) == negatives and len(negatives) == 2

    def test_mmatrix_not_certified_despite_nonnegative_solution(
        self, mmatrix_system
    ):
        assert certify_nonneg(mmatrix_system) is None
        oracle = cramer_oracle(mmatrix_system)
        values = [comp.evaluate({}) for comp in oracle]
        assert values == [Fraction(3, 2), Fraction(5, 2)]

    def test_all_positive_offdiagonal_always_certifies(self):
        system = LinearSystem.build(
            ["x1", "x2"],
            [[-2 * zvar(1), zvar(2)], [zvar(1), -2 * zvar(2)]],
            [zvar(3), ZERO],
        )
        outcome = certify_nonneg(system)
        assert outcome is not None

    def test_singular_system_raises(self):
        system = LinearSystem.build(
            ["x1", "x2"],
            [[-zvar(1), zvar(1)], [zvar(1), -zvar(1)]],
            [ZERO, ZERO],
        )
        with pytest.raises(SingularSystemError):
            certify_nonneg(system)

    def test_soundness_sampling(self, three_var_system):
        solution, _ = certify_nonneg(three_var_system)
        rng = random.Random(46)
        names = set()
        for comp in solution:
            names.update(comp.numerator.variables())
            names.update(comp.denominator.variables())
        for _ in range(50):
            point = {
                n: Fraction(rng.randint(1, 40), rng.randint(1, 12)) for n in names
            }
            for comp in solution:
                assert comp.evaluate(point) >= 0
