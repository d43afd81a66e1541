"""Block form validation, the column-sum realization, the forest-product solution."""

import random

import pytest

from forestsolve import (
    BlockHypothesisError,
    BlockStructure,
    LinearSystem,
    Multidigraph,
    blocksys,
    bordered_laplacian,
    build_steady_system,
    canonical_graph,
    certify_block_nonneg,
    check_condition_star,
    choose_j,
    cramer_oracle,
    enumerate_forests,
    ForestSums,
    find_pgraph,
    is_nonneg,
    laplacian_of,
    parse_poly,
    poly_sign,
    rat_equal,
    ratio,
    realization,
    residual_check,
    solve_block,
    solve_by_trees,
    validate_acompatible,
    validate_block_form,
    zero_components,
)
from forestsolve.forests import enumerate_rooted_forests, upsilon
from forestsolve.symring import Sign, det_matrix

from conftest import (
    ZERO,
    C,
    nsite_network_and_task,
    random_block_system,
    random_certificate_cases,
    root_sets,
    zvar,
)

P = parse_poly


@pytest.fixture
def zero_component_case():
    """A certified instance whose first variable is forced to zero.

    Variable 1 reaches the source of the in-tail negative edge 3 -> 4 without
    touching the bordering node, while the distinguished row 2 cannot.
    """
    a = [
        [-zvar(1), ZERO, ZERO, ZERO],
        [C(1), C(1), ZERO, ZERO],
        [zvar(4), ZERO, -zvar(5), zvar(8)],
        [ZERO, ZERO, -zvar(6), -zvar(8)],
    ]
    b = [ZERO, -zvar(3), ZERO, zvar(7)]
    system = LinearSystem.build(["x1", "x2", "x3", "x4"], a, b)
    return system, BlockStructure((2,), 2, (2,))


class TestBlockForm:
    def test_golden_case_validates(self, block_three_system):
        system, blocks = block_three_system
        assert validate_block_form(system, blocks) == []

    def test_no_blocks_always_validates(self, three_var_system):
        blocks = BlockStructure((), 3, ())
        assert validate_block_form(three_var_system, blocks) == []

    def test_offblock_entry_reported(self, block_three_system):
        system, blocks = block_three_system
        rows = [list(r) for r in system.a]
        rows[0][2] = zvar(9)
        bad = LinearSystem.build(system.variables, rows, system.b)
        problems = validate_block_form(bad, blocks)
        assert any("(1, 3)" in p for p in problems)

    def test_second_constant_in_block_reported(self, block_three_system):
        system, blocks = block_three_system
        consts = list(system.b)
        consts[0] = zvar(9)
        bad = LinearSystem.build(system.variables, system.a, consts)
        problems = validate_block_form(bad, blocks)
        assert any("constant 1" in p for p in problems)


class TestChooseJ:
    def test_golden(self, block_three_system):
        system, _ = block_three_system
        assert choose_j(system, (2,), 1) == (2,)

    def test_zero_block_constant_takes_smallest_row(self, block_three_system):
        system, _ = block_three_system
        consts = list(system.b)
        consts[1] = ZERO
        quiet = LinearSystem.build(system.variables, system.a, consts)
        assert choose_j(quiet, (2,), 1) == (1,)

    def test_two_nonzero_constants_rejected(self, block_three_system):
        system, _ = block_three_system
        consts = list(system.b)
        consts[0] = zvar(9)
        bad = LinearSystem.build(system.variables, system.a, consts)
        with pytest.raises(ValueError):
            choose_j(bad, (2,), 1)


class TestBuildACompatible:
    """The column-sum realization is compatible with A: it keeps every
    non-distinguished row and has no edge into a block from outside."""

    def test_golden_three_variable(self, block_three_system):
        system, blocks = block_three_system
        lap = realization(system, blocks)
        assert [str(p) for p in lap.rows[1]] == [
            "z2",
            "-2*z3",
            "0",
            "0",
        ]
        assert [str(p) for p in lap.rows[3]] == [
            "0",
            "0",
            "z4",
            "-z5",
        ]
        assert validate_acompatible(canonical_graph(lap), blocks, system) == []

    def test_golden_five_variable(self, five_var_system):
        system, blocks = five_var_system
        lap = realization(system, blocks)
        assert [str(p) for p in lap.rows[1]] == [
            "z1", "-2*z2", "0", "0", "0", "0",
        ]
        assert [str(p) for p in lap.rows[5]] == [
            "0", "0", "-z3 + z4", "-z5", "z6", "-z8 - z9",
        ]

    def test_cross_block_edge_reported(self, block_three_system):
        system, blocks = block_three_system
        graph = Multidigraph.from_edges(4, [(3, 1, zvar(1))])
        problems = validate_acompatible(graph, blocks, system)
        assert any("crosses" in p for p in problems)

    def test_changed_plain_row_reported(self, block_three_system):
        system, blocks = block_three_system
        rows = [list(r) for r in realization(system, blocks).rows]
        rows[0][0] = rows[0][0] - zvar(9)
        rows[1][0] = rows[1][0] + zvar(9)  # compensate inside the free row
        graph = canonical_graph(rows)
        problems = validate_acompatible(graph, blocks, system)
        assert any("row 1" in p for p in problems)

    def test_system_not_in_block_form_rejected(self, block_three_system):
        system, _ = block_three_system
        with pytest.raises(ValueError, match="outside block 1"):
            realization(system, BlockStructure((1,), 2, (1,)))


class TestSolveBlock:
    def test_golden_three_variable(self, block_three_system):
        system, blocks = block_three_system
        solution = solve_block(system, blocks)
        oracle = cramer_oracle(system)
        assert solution.agrees_up_to_sign(oracle)
        assert rat_equal(
            solution[0], ratio(P("z1*z3"), P("z2 + z3"))
        )
        assert residual_check(system, solution)

    def test_golden_five_variable_components(self, five_var_system):
        system, blocks = five_var_system
        solution = solve_block(system, blocks)
        displayed = [
            ("z7*z2", "z2 + z1"),
            ("z1*z7", "z2 + z1"),
            ("z1*z2*z7 + (z1 + z2)*z8", "z4*(z2 + z1)"),
            ("z3*(z1*z2*z7 + (z1 + z2)*z8)", "z4*(z2 + z1)*z5"),
            ("2*z1*z2*z3*z7 + (z1 + z2)*(2*z3*z8 + z4*z9)", "z6*z4*(z2 + z1)"),
        ]
        for comp, (num, den) in zip(solution, displayed):
            assert rat_equal(comp, ratio(P(num), P(den)))

    def test_degenerate_block_structure_matches_tree_solver(self, three_var_system):
        blocks = BlockStructure((), 3, ())
        block_solution = solve_block(three_var_system, blocks)
        plain = solve_by_trees(three_var_system)
        assert block_solution.agrees_up_to_sign(plain)

    def test_random_block_systems_match_oracle(self):
        rng = random.Random(51)
        for _ in range(20):
            system, blocks = random_block_system(rng)
            solution = solve_block(system, blocks)
            oracle = cramer_oracle(system)
            assert solution.agrees_up_to_sign(oracle)

    def test_denominator_sign_identity(self, block_three_system, five_var_system):
        rng = random.Random(52)
        cases = [block_three_system, five_var_system]
        cases.extend(random_block_system(rng) for _ in range(15))
        for system, blocks in cases:
            den = solve_block(system, blocks).denominator
            det_a = det_matrix([list(r) for r in system.a])
            sign = 1 if (system.m - blocks.d) % 2 == 0 else -1
            assert den == (det_a if sign == 1 else -det_a)


def block_families(blocks: BlockStructure):
    """Every (root set, forced root assignment) of the block solution.

    Yields the denominator's full root sets, then for each variable l and
    slot k (block 1..d, or d+1 for the bordering node) the root sets that
    leave out slot k and hold l.  The assignment is None where block
    confinement empties the family: l lies in a block other than k, or k is
    the bordering slot and l is not in the tail.
    """
    d, last = blocks.d, blocks.m + 1

    def images(chosen, k=None, ell=None):
        out = {last: last} if k != d + 1 else {}
        for i in range(1, d + 1):
            if i != k:
                lo, hi = blocks.block_range(i)
                out[blocks.j[i - 1]] = next(n for n in chosen if lo <= n <= hi)
        if k is not None:
            out[blocks.j[k - 1] if k <= d else last] = ell
        return out

    for chosen in root_sets(blocks):
        yield chosen, images(chosen)
    for ell in range(1, blocks.m + 1):
        home = blocks.block_of(ell)
        for k in range(1, d + 2):
            for chosen in root_sets(blocks, skip=k):
                if ell in chosen:
                    continue
                roots = tuple(sorted(chosen + (ell,)))
                yield roots, (images(chosen, k, ell) if home in (0, k) else None)


class TestFamilyMinors:
    """Block forest sums as signed minors, against forest enumeration."""

    def _cases(self, fixtures):
        rng = random.Random(54)
        cases = list(fixtures)
        while len(cases) < len(fixtures) + 12:
            system, blocks = random_block_system(rng)
            if blocks.d:
                cases.append((system, blocks))
        return cases

    def test_forest_sum_equals_upsilon(self, block_three_system, five_var_system):
        tail_hits = 0
        for system, blocks in self._cases([block_three_system, five_var_system]):
            assert blocks.m0 > 0
            lap = realization(system, blocks)
            f_set = blocks.distinguished()
            sums = ForestSums(lap, f_set)  # one table per system
            for roots, images in block_families(blocks):
                if images is None:
                    continue
                assert sorted(images.values()) == list(roots)
                tail_hits += any(
                    blocks.block_of(n) == 0 and n <= blocks.m for n in roots
                )
                sign, minor = sums.signed_minor(images)
                assert sign * minor == upsilon(canonical_graph(lap), f_set, roots)
        assert tail_hits

    def test_skipped_families_are_empty(self, block_three_system, five_var_system):
        skipped = 0
        for system, blocks in self._cases([block_three_system, five_var_system]):
            graph = canonical_graph(realization(system, blocks))
            f_set = blocks.distinguished()
            for roots, images in block_families(blocks):
                if images is None:
                    skipped += 1
                    assert enumerate_forests(graph, f_set, roots) == []
        assert skipped


class TestStructuralFacts:
    def test_forest_roots_stay_in_block_or_tail(self):
        rng = random.Random(53)
        for _ in range(10):
            system, blocks = random_block_system(rng)
            graph = canonical_graph(realization(system, blocks))
            for chosen in root_sets(blocks):
                for forest in enumerate_rooted_forests(graph, chosen):
                    for node in graph.nodes:
                        root_block = blocks.block_of(forest.root_of(node))
                        assert root_block in (blocks.block_of(node), 0)

    def test_no_forests_with_two_roots_in_one_block(self, five_var_system):
        system, blocks = five_var_system
        graph = canonical_graph(realization(system, blocks))
        f_set = blocks.distinguished()
        assert enumerate_forests(graph, f_set, (1, 2)) == []

    def test_root_assignment_constant_per_family(self, block_three_system):
        system, blocks = block_three_system
        graph = canonical_graph(realization(system, blocks))
        f_set = blocks.distinguished()
        for chosen in root_sets(blocks):
            for ell in list(range(1, system.m + 1)) + [system.m + 1]:
                if ell in chosen:
                    continue
                family = enumerate_forests(
                    graph, f_set, tuple(sorted(chosen[:-1] + (ell,)))
                )
                images = {tuple(f.root_of(n) for n in f_set) for f in family}
                assert len(images) <= 1


class TestConditionStar:
    def test_no_negative_edges(self, block_three_system):
        system, blocks = block_three_system
        graph = canonical_graph(realization(system, blocks))
        ok, proof = check_condition_star(graph, blocks)
        assert ok and proof is None

    def test_negative_edges_into_border_node_are_safe(self, five_var_system):
        system, blocks = five_var_system
        outcome = certify_block_nonneg(system, blocks)
        assert outcome is not None
        _, witness = outcome
        negatives = [
            e for e in witness.graph.edges if poly_sign(e.label) == Sign.NONPOS
        ]
        assert set(witness.mu) == {e.eid for e in negatives}
        assert negatives and all(e.target == 6 for e in negatives)
        ok, _ = check_condition_star(witness.graph, blocks)
        assert ok

    def test_reachable_negative_edge_reported(self):
        blocks = BlockStructure((1,), 2, (1,))
        graph = Multidigraph.from_edges(
            4, [(1, 2, zvar(1)), (2, 3, -zvar(2))]
        )
        ok, proof = check_condition_star(graph, blocks)
        assert not ok
        assert proof == (1, 3, 2)

    def test_witness_graph_reachability(self, five_var_system):
        from forestsolve import reaches_avoiding

        system, blocks = five_var_system
        _, witness = certify_block_nonneg(system, blocks)
        # node 1 only receives edges from node 2, which the tail cannot reach
        assert not reaches_avoiding(witness.graph, 3, 1, 6)
        assert reaches_avoiding(witness.graph, 1, 5, 6)


class TestCertification:
    def test_golden_three_variable(self, block_three_system):
        system, blocks = block_three_system
        solution, witness = certify_block_nonneg(system, blocks)
        oracle = cramer_oracle(system)
        assert solution.agrees_up_to_sign(oracle)
        for comp in solution:
            assert is_nonneg(comp.numerator) and is_nonneg(comp.denominator)
        assert zero_components(witness, blocks) == frozenset()

    def test_golden_five_variable(self, five_var_system):
        system, blocks = five_var_system
        solution, witness = certify_block_nonneg(system, blocks)
        mu_by_label = {
            str(witness.graph.edge(k).label): {
                str(witness.graph.edge(v).label) for v in group
            }
            for k, group in witness.mu.items()
        }
        assert mu_by_label == {"-z3": {"z3"}, "-z5": {"z5"}}
        assert zero_components(witness, blocks) == frozenset()

    def test_sign_hypothesis_enforced(self, block_three_system):
        system, blocks = block_three_system
        rows = [list(r) for r in system.a]
        rows[1][0] = C(-1)
        bad = LinearSystem.build(system.variables, rows, system.b)
        with pytest.raises(BlockHypothesisError):
            certify_block_nonneg(bad, blocks)

    def test_certificate_graph_realizes_candidate_matrix(
        self, block_three_system, five_var_system, zero_component_case
    ):
        # the certificate graph realizes the matrix that solve_block reads, so
        # the solution certified is the solution of the certificate graph
        found = []
        for system, blocks in (block_three_system, five_var_system, zero_component_case):
            lap = realization(system, blocks)
            result = find_pgraph(lap)
            assert result is not None
            found.append((lap, result))
        found.extend(random_certificate_cases(random.Random(46), 13))
        assert len(found) >= 16
        for lap, (graph, _) in found:
            assert laplacian_of(graph) == lap

    def test_refusal_tries_one_realization(self, monkeypatch):
        # one 3-row block and a 3-row tail refuse the n = 2 n-site system; the
        # certificate search sees the column-sum realization and nothing else
        system, _ = build_steady_system(*nsite_network_and_task(2))
        blocks = BlockStructure((3,), 3, (1,))
        seen = []

        def search(lap):
            seen.append(lap)
            return find_pgraph(lap)

        monkeypatch.setattr(blocksys, "find_pgraph", search)
        assert certify_block_nonneg(system, blocks) is None
        assert seen == [realization(system, blocks)]

    def test_reachability_condition_refuses(self):
        # the realization has a certificate graph, but row 1 reaches the
        # negative edge 1 -> 2, whose target is x2; x2 has mixed signs
        system = LinearSystem.build(
            ["x1", "x2"],
            [[parse_poly("z1 + z3"), ZERO], [parse_poly("-2*z2 - z3"), parse_poly("-z4")]],
            [parse_poly("-z3"), parse_poly("3*z1")],
        )
        blocks = BlockStructure((1,), 1, (1,))
        graph, _ = find_pgraph(realization(system, blocks))
        assert check_condition_star(graph, blocks) == (False, (1, 2, 1))
        assert poly_sign(cramer_oracle(system).numerators[1]) == Sign.MIXED
        assert certify_block_nonneg(system, blocks) is None

    def test_zero_component_instance(self, zero_component_case):
        system, blocks = zero_component_case
        outcome = certify_block_nonneg(system, blocks)
        assert outcome is not None
        solution, witness = outcome
        zeros = zero_components(witness, blocks)
        assert zeros == frozenset({1})
        oracle = cramer_oracle(system)
        assert oracle[0].is_zero()
        assert solution[0].is_zero()
        assert solution.agrees_up_to_sign(oracle)
