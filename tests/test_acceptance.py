"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (integer/rational arithmetic throughout).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from forestsolve import (
    BlockStructure,
    LinearSystem,
    Polynomial,
    all_minors_check,
    bordered_laplacian,
    canonical_graph,
    certify_block_nonneg,
    certify_nonneg,
    cramer_oracle,
    enumerate_rooted_forests,
    find_pgraph,
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
    ratio,
    solve_block,
    solve_by_trees,
    upsilon_rooted,
    zero_components,
)
from forestsolve.multigraph import random_multidigraph
from forestsolve.symring import Sign, det_matrix

from conftest import ZERO, C, brute_force_grouping, random_block_system, random_int_system, zvar
from test_crn import TASK as CRN_TASK

P = parse_poly


def _report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


_collected_witnesses = []


def _verify_decomposition(witness) -> None:
    graph = witness.graph
    for root in graph.nodes:
        theta = enumerate_rooted_forests(graph, (root,))
        fibers = [
            f.edge_ids
            for zeta in lambda_forests(witness, (root,))
            for f in psi_fiber(witness, zeta)
        ]
        assert sorted(fibers) == sorted(f.edge_ids for f in theta)
        assert len(fibers) == len(set(fibers))
        assert positive_upsilon(witness, root) == upsilon_rooted(graph, root)


def test_criterion_1_running_example_solution(three_var_system):
    start = time.perf_counter()
    graph = canonical_graph(bordered_laplacian(three_var_system))
    assert upsilon_rooted(graph, 2) == P("2*z2*z4*z5")
    assert upsilon_rooted(graph, 4) == P("(z1 + 2*z2)*z3*z4")
    solution = solve_by_trees(three_var_system)
    expected = [
        ratio(P("z5"), P("z1 + 2*z2")),
        ratio(P("2*z2*z5"), P("(z1 + 2*z2)*z3")),
        ratio(P("z2*z5"), P("(z1 + 2*z2)*z4")),
    ]
    assert all(rat_equal(a, b) for a, b in zip(solution, expected))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"golden solution and tree sums exact ({elapsed:.3f}s)")


def test_criterion_2_certificate_witness(three_var_system):
    start = time.perf_counter()
    lap = bordered_laplacian(three_var_system)
    assert brute_force_grouping(canonical_graph(lap)) is None  # the unsplit graph fails
    graph, mu = find_pgraph(lap)
    witness = is_pgraph(graph, mu)
    assert witness is not None
    assert laplacian_of(graph) == lap
    sums = sorted(str(p) for p in witness.group_sums.values())
    assert sums == ["0", "z2"]
    grouped = {
        str(graph.edge(k).label): {str(graph.edge(v).label) for v in group}
        for k, group in witness.mu.items()
    }
    assert grouped == {"-z1": {"z1"}, "-z2": {"2*z2"}}
    _collected_witnesses.append(witness)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"split witness found, canonical graph rejected ({elapsed:.3f}s)")


def test_criterion_3_minor_identity_suite():
    start = time.perf_counter()
    rng = random.Random(7)
    graphs = 0
    checks = 0
    while graphs < 200:
        graph = random_multidigraph(rng, max_nodes=5, max_edges=10)
        graphs += 1
        nodes = list(graph.nodes)
        for size in range(0, min(3, len(nodes)) + 1):
            for f_set in itertools.combinations(nodes, size):
                for b_set in itertools.combinations(nodes, size):
                    assert all_minors_check(graph, f_set, b_set)
                    checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"{checks} minor identities on {graphs} graphs ({elapsed:.1f}s)")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(8)
    for _ in range(100):
        system = random_int_system(rng, max_m=5)
        trees = solve_by_trees(system)
        oracle = cramer_oracle(system)
        assert trees.agrees_up_to_sign(oracle)
    block_suite = []
    for _ in range(50):
        system, blocks = random_block_system(rng, max_m=6, max_d=2)
        solution = solve_block(system, blocks)
        oracle = cramer_oracle(system)
        assert solution.agrees_up_to_sign(oracle)
        block_suite.append((system, blocks, solution))
    test_criterion_4_oracle_equivalence.block_suite = block_suite
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, f"100 plain + 50 block systems match the Cramer oracle ({elapsed:.1f}s)")


def test_criterion_5_block_examples(block_three_system, five_var_system, crn_text):
    from forestsolve import parameterize, parse_network

    # three-variable block example
    start = time.perf_counter()
    system, blocks = block_three_system
    assert det_matrix([list(r) for r in system.a]) == P("(z2 + z3)*z4")
    solution, witness = certify_block_nonneg(system, blocks)
    oracle = cramer_oracle(system)
    assert solution.agrees_up_to_sign(oracle)
    for comp in solution:
        assert is_nonneg(comp.numerator) and is_nonneg(comp.denominator)
    _collected_witnesses.append(witness)
    assert time.perf_counter() - start < 10.0

    # five-variable example, displayed components
    start = time.perf_counter()
    system5, blocks5 = five_var_system
    solution5, witness5 = certify_block_nonneg(system5, blocks5)
    displayed = [
        ("z7*z2", "z2 + z1"),
        ("z1*z7", "z2 + z1"),
        ("z1*z2*z7 + (z1 + z2)*z8", "z4*(z2 + z1)"),
        ("z3*(z1*z2*z7 + (z1 + z2)*z8)", "z4*(z2 + z1)*z5"),
        ("2*z1*z2*z3*z7 + (z1 + z2)*(2*z3*z8 + z4*z9)", "z6*z4*(z2 + z1)"),
    ]
    for comp, (num, den) in zip(solution5, displayed):
        assert rat_equal(comp, ratio(P(num), P(den)))
    assert solution5[4].numerator == P("2*z1*z2*z3*z7 + (z1 + z2)*(2*z3*z8 + z4*z9)")
    _collected_witnesses.append(witness5)
    assert time.perf_counter() - start < 10.0

    # reaction-network example, all components and the shared denominator
    start = time.perf_counter()
    report = parameterize(parse_network(crn_text), CRN_TASK)
    assert report.certified
    q = P(
        "k1*k4*(k10 + k11)*x5^2"
        " + ((k2 + k3)*k4*(k8 + k11) + (k5 + k6)*k1*(k9 + k10)"
        "    + (k10 + k11)*(k1*k9 + k4*k8))*x5"
        " + (k8 + k9)*((k2 + k3)*(k5 + k6 + k11) + k10*(k5 + k6))"
    )
    displayed_crn = {
        "x1": (P("T1") * P("(k2 + k3)*k4*k11*x5 + k9*((k2 + k3)*(k5 + k6) + (k2 + k3)*k11 + (k5 + k6)*k10)"), q),
        "x2": (P("T1") * P("(k5 + k6)*k1*k10*x5 + k8*((k2 + k3)*(k5 + k6) + (k2 + k3)*k11 + (k5 + k6)*k10)"), q),
        "x3": (P("T1*x5") * P("k1*k4*k11*x5 + k1*k9*(k5 + k6 + k11) + k4*k8*k11"), q),
        "x4": (P("T1*x5") * P("k1*k4*k10*x5 + k4*k8*(k2 + k3 + k10) + k1*k9*k10"), q),
        "x6": (
            P("T1*x5")
            * P(
                "k1*k4*(k3*k11 + k6*k10)*x5 + k1*k3*k9*(k5 + k11)"
                " + k4*k8*(k2*k6 + k3*k11) + k6*(k3 + k10)*(k1*k9 + k4*k8)"
            ),
            P("k7") * q,
        ),
    }
    for name, (num, den) in displayed_crn.items():
        assert rat_equal(report.solution[name], ratio(num, den))
    _collected_witnesses.append(report.witness)
    test_criterion_5_block_examples.crn_report = report
    assert time.perf_counter() - start < 10.0
    _report(5, "all three block examples reproduce their displayed solutions")


def test_criterion_6_denominator_identity():
    suite = getattr(test_criterion_4_oracle_equivalence, "block_suite", None)
    if suite is None:
        pytest.skip("criterion 4 must run first")
    for system, blocks, solution in suite:
        den = solution.denominator
        det_a = det_matrix([list(r) for r in system.a])
        expected = det_a if (system.m - blocks.d) % 2 == 0 else -det_a
        assert den == expected
    _report(6, f"signed denominator equals det(A) on {len(suite)} block systems")


def test_criterion_7_soundness_sampling(three_var_system, block_three_system):
    start = time.perf_counter()
    rng = random.Random(9)
    certified = []
    solution, witness = certify_nonneg(three_var_system)
    certified.append(solution)
    system, blocks = block_three_system
    block_solution, block_witness = certify_block_nonneg(system, blocks)
    certified.append(block_solution)
    for sol in certified:
        names = set()
        for comp in sol:
            names.update(comp.numerator.variables())
            names.update(comp.denominator.variables())
        for _ in range(50):
            point = {
                n: Fraction(rng.randint(1, 50), rng.randint(1, 15)) for n in names
            }
            for comp in sol:
                assert comp.evaluate(point) >= 0
    for w in (witness, block_witness):
        for node in w.graph.nodes:
            assert nonzero_component(w, node) == (
                not upsilon_rooted(w.graph, node).is_zero()
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(7, f"50-point nonnegativity and nonzero verdicts agree ({elapsed:.1f}s)")


def test_criterion_8_negative_control(mmatrix_system):
    assert find_pgraph(bordered_laplacian(mmatrix_system)) is None
    assert certify_nonneg(mmatrix_system) is None
    oracle = cramer_oracle(mmatrix_system)
    assert [comp.evaluate({}) for comp in oracle] == [
        Fraction(3, 2),
        Fraction(5, 2),
    ]
    _report(8, "no witness for the matrix with nonnegative inverse, solution (3/2, 5/2)")


def test_criterion_9_decomposition_properties():
    if not _collected_witnesses:
        pytest.skip("criteria 2 and 5 must run first")
    for witness in _collected_witnesses:
        _verify_decomposition(witness)
    rng = random.Random(10)
    from conftest import random_certificate_cases

    extra = 0
    for _, (graph, mu) in random_certificate_cases(rng, 5):
        witness = is_pgraph(graph, mu)
        _verify_decomposition(witness)
        extra += 1
    _report(
        9,
        f"fiber partition and positive expansion verified on "
        f"{len(_collected_witnesses)} golden + {extra} random witnesses",
    )


def test_criterion_10_zero_component_detection():
    a = [
        [-zvar(1), ZERO, ZERO, ZERO],
        [C(1), C(1), ZERO, ZERO],
        [zvar(4), ZERO, -zvar(5), zvar(8)],
        [ZERO, ZERO, -zvar(6), -zvar(8)],
    ]
    b = [ZERO, -zvar(3), ZERO, zvar(7)]
    system = LinearSystem.build(["x1", "x2", "x3", "x4"], a, b)
    blocks = BlockStructure((2,), 2, (2,))
    solution, witness = certify_block_nonneg(system, blocks)
    assert zero_components(witness, blocks) == frozenset({1})
    oracle = cramer_oracle(system)
    assert oracle[0].is_zero()
    assert solution[0].is_zero()
    _report(10, "reachability predicts the vanishing component, oracle confirms")
