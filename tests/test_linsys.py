"""Bordered matrices, tree-sum solving, the Cramer oracle, residuals."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from forestsolve import (
    LinearSystem,
    Multidigraph,
    Polynomial,
    SingularSystemError,
    Solution,
    bordered_laplacian,
    canonical_graph,
    cramer_oracle,
    laplacian_of,
    parse_poly,
    rat_equal,
    ratio,
    residual_check,
    solve_block,
    solve_by_trees,
    system_from_json,
    system_to_json,
    upsilon_rooted,
)
from forestsolve import symring
from forestsolve.symring import det_matrix

from conftest import ZERO, C, random_block_system, random_int_system, zvar

P = parse_poly


class TestBorderedMatrix:
    def test_golden(self, three_var_system):
        lap = bordered_laplacian(three_var_system)
        assert [str(p) for p in lap.rows[3]] == ["z1 + 2*z2", "0", "0", "-z5"]
        assert lap.entry(2, 4) == zvar(5)

    def test_negated_identity(self):
        system = LinearSystem.build(
            ["x1", "x2"], [[C(-1), ZERO], [ZERO, C(-1)]], [ZERO, ZERO]
        )
        lap = bordered_laplacian(system)
        assert [str(p) for p in lap.rows[0]] == ["-1", "0", "0"]
        assert [str(p) for p in lap.rows[2]] == ["1", "1", "0"]

    def test_zero_column_sums_random(self):
        rng = random.Random(31)
        for _ in range(20):
            system = random_int_system(rng)
            bordered_laplacian(system)  # constructor checks the sums


def split_variant(graph, splits):
    """Another realization of ``graph``'s Laplacian: each edge id in
    ``splits`` becomes parallel edges carrying the listed labels."""
    variant = Multidigraph.from_edges(
        graph.node_count,
        [
            (e.source, e.target, label)
            for e in graph.edges
            for label in splits.get(e.eid, [e.label])
        ],
    )
    assert laplacian_of(variant) == laplacian_of(graph)
    return variant


class TestSolveByTrees:
    def test_golden_solution(self, three_var_system):
        solution = solve_by_trees(three_var_system)
        expected = [
            ratio(zvar(5), P("z1 + 2*z2")),
            ratio(P("2*z2*z5"), P("(z1 + 2*z2)*z3")),
            ratio(P("z2*z5"), P("(z1 + 2*z2)*z4")),
        ]
        for got, want in zip(solution, expected):
            assert rat_equal(got, want)

    def test_zero_constants_zero_solution(self):
        system = LinearSystem.build(
            ["x1", "x2"], [[C(-2), C(1)], [C(1), C(-3)]], [ZERO, ZERO]
        )
        solution = solve_by_trees(system)
        assert all(comp.is_zero() for comp in solution)

    def test_oracle_agreement_random(self):
        rng = random.Random(32)
        for _ in range(30):
            system = random_int_system(rng)
            by_trees = solve_by_trees(system)
            by_cramer = cramer_oracle(system)
            assert by_trees.agrees_up_to_sign(by_cramer)

    def test_graph_realization_independence(self, three_var_system):
        lap = bordered_laplacian(three_var_system)
        graph = canonical_graph(lap)
        edge = next(e for e in graph.edges if e.label == P("z1 + 2*z2"))
        variant = split_variant(graph, {edge.eid: [zvar(1), 2 * zvar(2)]})
        assert variant != graph
        for root in range(1, three_var_system.m + 2):
            assert upsilon_rooted(variant, root) == upsilon_rooted(graph, root)

    def test_graph_realization_independence_random(self):
        rng = random.Random(34)
        for _ in range(15):
            system = random_int_system(rng, max_m=4)
            graph = canonical_graph(bordered_laplacian(system))
            splits = {}
            for edge in rng.sample(graph.edges, min(2, len(graph.edges))):
                value = edge.label.evaluate({})
                splits[edge.eid] = (
                    [C(value - 1), C(1)] if value != 1 else [C(2), C(-1)]
                )
            variant = split_variant(graph, splits)
            for root in range(1, system.m + 2):
                assert upsilon_rooted(variant, root) == upsilon_rooted(graph, root)

    def test_singular_detected_symbolically(self):
        system = LinearSystem.build(
            ["x1", "x2"],
            [[zvar(1), zvar(1)], [-zvar(1), -zvar(1)]],
            [C(1), C(1)],
        )
        with pytest.raises(SingularSystemError):
            solve_by_trees(system)

    def test_determinant_sign_relation_random(self):
        rng = random.Random(33)
        for _ in range(25):
            system = random_int_system(rng)
            graph = canonical_graph(bordered_laplacian(system))
            det_a = det_matrix([list(r) for r in system.a])
            tree_sum = upsilon_rooted(graph, system.m + 1)
            expected = tree_sum if system.m % 2 == 0 else -tree_sum
            assert det_a == expected


def per_column_cramer(system: LinearSystem) -> Solution:
    """Cramer's rule one determinant at a time: column i of A replaced by -b."""
    a = [list(row) for row in system.a]
    nums = []
    for i in range(system.m):
        repl = [row[:] for row in a]
        for r in range(system.m):
            repl[r][i] = -system.b[r]
        nums.append(det_matrix(repl))
    return Solution(tuple(nums), det_matrix(a))


_ENTRIES = [ZERO, ZERO, C(1), C(-2), C(3), zvar(1), -zvar(2), P("z1 + z3"), P("2*z2 - z1")]


@st.composite
def small_systems(draw) -> LinearSystem:
    """Systems of 1..4 variables; some have a zero column or a repeated row."""
    m = draw(st.integers(1, 4))
    entry = st.sampled_from(_ENTRIES)
    a = [[draw(entry) for _ in range(m)] for _ in range(m)]
    b = [draw(entry) for _ in range(m)]
    zero_col = draw(st.none() | st.integers(0, m - 1))
    if zero_col is not None:
        for row in a:
            row[zero_col] = ZERO
    if m > 1 and draw(st.booleans()):
        a[-1] = list(a[0])
    return LinearSystem.build([f"x{i}" for i in range(1, m + 1)], a, b)


class TestCramerOracle:
    def test_golden(self, three_var_system):
        solution = cramer_oracle(three_var_system)
        assert rat_equal(solution[0], ratio(zvar(5), P("z1 + 2*z2")))

    def test_identity_matrix(self):
        system = LinearSystem.build(
            ["x1", "x2"],
            [[C(1), ZERO], [ZERO, C(1)]],
            [-zvar(1), -zvar(2)],
        )
        solution = cramer_oracle(system)
        assert rat_equal(solution[0], ratio(zvar(1), C(1)))
        assert rat_equal(solution[1], ratio(zvar(2), C(1)))

    def test_singular_rejected(self):
        system = LinearSystem.build(
            ["x1", "x2"], [[C(1), C(1)], [C(1), C(1)]], [C(1), C(1)]
        )
        with pytest.raises(SingularSystemError):
            cramer_oracle(system)

    @settings(deadline=None, max_examples=150)
    @given(small_systems())
    def test_matches_per_column_determinants(self, system):
        try:
            expected = per_column_cramer(system)
        except SingularSystemError:
            with pytest.raises(SingularSystemError):
                cramer_oracle(system)
            return
        got = cramer_oracle(system)
        assert got.numerators == expected.numerators
        assert got.denominator == expected.denominator

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_builds_one_minor_table(self, monkeypatch, m):
        built = []

        class CountingTable(symring._MinorTable):
            def __init__(self, rows):
                built.append(len(rows))
                super().__init__(rows)

        monkeypatch.setattr(symring, "_MinorTable", CountingTable)
        system = LinearSystem.build(
            [f"x{i}" for i in range(1, m + 1)],
            [[zvar(r + 1) if r == c else C(1) for c in range(m)] for r in range(m)],
            [C(-1)] * m,
        )
        cramer_oracle(system)
        assert built == [m]


class TestResidual:
    def test_golden_solution_passes(self, three_var_system):
        assert residual_check(three_var_system, solve_by_trees(three_var_system))

    def test_perturbed_solution_fails(self, three_var_system):
        solution = solve_by_trees(three_var_system)
        bad = Solution(
            (solution.numerators[0] * C(2),) + solution.numerators[1:],
            solution.denominator,
        )
        assert not residual_check(three_var_system, bad)

    def test_zero_case(self):
        system = LinearSystem.build(["x1"], [[C(-1)]], [ZERO])
        assert residual_check(system, solve_by_trees(system))


def _check_against_cramer(system: LinearSystem, solution: Solution, sign: int) -> None:
    """(N, D) is sign * Cramer's, the residual holds, and a perturbed N fails."""
    oracle = cramer_oracle(system)
    assert oracle.denominator == det_matrix([list(r) for r in system.a])
    assert solution.denominator == sign * oracle.denominator
    assert all(n == sign * o for n, o in zip(solution.numerators, oracle.numerators))
    assert solution.agrees_up_to_sign(oracle) and oracle.agrees_up_to_sign(solution)
    assert residual_check(system, solution)
    for i in range(system.m):  # x_i + 1: D != 0 and A has no zero column
        nums = list(solution.numerators)
        nums[i] = nums[i] + solution.denominator
        off = Solution(tuple(nums), solution.denominator)
        assert not residual_check(system, off)
        assert not off.agrees_up_to_sign(oracle)


class TestDifferential:
    """Tree and block solvers against Cramer's rule on seeded random draws."""

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tree_solution(self, seed):
        system = random_int_system(random.Random(seed))
        _check_against_cramer(system, solve_by_trees(system), (-1) ** system.m)

    @settings(deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_block_solution(self, seed):
        system, blocks = random_block_system(random.Random(seed))
        solution = solve_block(system, blocks)
        _check_against_cramer(system, solution, (-1) ** (system.m - blocks.d))


class TestInterchange:
    def test_json_round_trip(self, three_var_system):
        data = system_to_json(three_var_system)
        again = system_from_json(json.loads(json.dumps(system_to_json(three_var_system))))
        assert again == three_var_system
        assert system_to_json(again) == data
