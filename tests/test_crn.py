"""Network parsing, mass-action equations, conservation laws, parameterization."""

import random
from fractions import Fraction

import pytest

from forestsolve import (
    BlockStructure,
    ConservationUse,
    NetworkParseError,
    NonlinearSystemError,
    Polynomial,
    SteadyStateTask,
    build_steady_system,
    conservation_laws,
    cramer_oracle,
    mass_action_odes,
    parameterize,
    parse_network,
    parse_poly,
    propose_blocks,
    rat_equal,
    ratio,
    residual_check,
)
from forestsolve.crn import validate_dropped_rows
from forestsolve.linsys import Solution
from forestsolve.symring import det_matrix

from conftest import nsite_network_and_task, over_common_denominator

P = parse_poly

TASK = SteadyStateTask(
    solve_for=("x1", "x2", "x3", "x4", "x6"),
    parameters=("x5",),
    conservation=(ConservationUse(replaces_row=4, law_index=1, total="T1"),),
    drop=(5,),
)


class TestParsing:
    def test_golden_network(self, crn_text):
        net = parse_network(crn_text)
        assert net.species == ("x1", "x2", "x3", "x4", "x5", "x6")
        assert len(net.reactions) == 11

    def test_minimal(self):
        net = parse_network("A -> B ; k1")
        assert net.species == ("A", "B")
        assert len(net.reactions) == 1

    def test_reversible_sugar(self):
        net = parse_network("A <-> B ; k1, k2")
        assert len(net.reactions) == 2
        assert net.reactions[0].rate == "k1"
        assert net.reactions[1].reactants == (("B", 1),)

    def test_multiplicity_and_comments(self):
        net = parse_network("R1 + 2 R2 -> P ; k3  # a remark\n")
        assert net.reactions[0].reactants == (("R1", 1), ("R2", 2))

    def test_empty_complex(self):
        net = parse_network("0 -> A ; k1\nA -> 0 ; k2")
        assert net.species == ("A",)
        odes = mass_action_odes(net)
        assert odes[0] == P("k1 - k2*A")

    def test_missing_rate_reports_position(self):
        with pytest.raises(NetworkParseError) as err:
            parse_network("A -> B\n")
        assert err.value.line == 1

    def test_bad_species_term(self):
        with pytest.raises(NetworkParseError):
            parse_network("A + -> B ; k1")


class TestMassAction:
    def test_golden_equations(self, crn_text):
        odes = mass_action_odes(parse_network(crn_text))
        assert odes[5] == P("k3*x3 + k6*x4 - k7*x6")
        assert odes[0] == P("-k1*x1*x5 + (k2 + k3)*x3 - k8*x1 + k9*x2")

    def test_two_species_chain(self):
        odes = mass_action_odes(parse_network("A -> B ; k1"))
        assert odes[0] == P("-k1*A")
        assert odes[1] == P("k1*A")

    def test_empty_network(self):
        assert mass_action_odes(parse_network("")) == []


class TestConservation:
    @staticmethod
    def _in_span(vec, basis):
        rows = [[Fraction(v) for v in b] for b in basis]
        rank = 0
        for col in range(len(vec)):
            piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            pv = rows[rank][col]
            rows[rank] = [v / pv for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        residual = [Fraction(v) for v in vec]
        for r in range(rank):
            col = next(c for c in range(len(vec)) if rows[r][c] == 1)
            f = residual[col]
            residual = [a - f * b for a, b in zip(residual, rows[r])]
        return all(v == 0 for v in residual)

    def test_golden_span(self, crn_text):
        laws = conservation_laws(parse_network(crn_text))
        assert len(laws) == 2
        assert laws[0] == [1, 1, 1, 1, 0, 0]
        for target in ([1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1]):
            assert self._in_span(target, laws)
        for law in laws:
            assert self._in_span(law, [[1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 1, 1]])

    def test_two_species_chain(self):
        assert conservation_laws(parse_network("A -> B ; k1")) == [[1, 1]]

    def test_full_rank_network(self):
        net = parse_network("0 -> A ; k1\nA -> 0 ; k2")
        assert conservation_laws(net) == []

    def test_laws_annihilate_stoichiometry(self, crn_text):
        from forestsolve.crn import stoichiometric_matrix

        net = parse_network(crn_text)
        matrix = stoichiometric_matrix(net)
        for law in conservation_laws(net):
            for r in range(len(net.reactions)):
                assert sum(law[s] * matrix[s][r] for s in range(len(net.species))) == 0


class TestBuildSystem:
    def test_golden_matrix(self, crn_text):
        system, blocks = build_steady_system(parse_network(crn_text), TASK)
        assert system.variables == ("x1", "x2", "x3", "x4", "x6")
        assert [str(p) for p in system.a[0]] == [
            "-k1*x5 - k8", "k9", "k2 + k3", "0", "0",
        ]
        assert [str(p) for p in system.a[3]] == ["1", "1", "1", "1", "0"]
        assert [str(p) for p in system.a[4]] == ["0", "0", "k3", "k6", "-k7"]
        assert [str(p) for p in system.b] == ["0", "0", "0", "-T1", "0"]
        assert blocks == BlockStructure((4,), 1, (4,))

    def test_reconstructed_exchange_block_system(self):
        text = (
            "x1 <-> x2 ; z2, z3\n"
            "x2 -> x2 + x3 ; z3\n"
            "x3 -> 0 ; z4\n"
            "0 -> x3 ; z5\n"
        )
        net = parse_network(text)
        task = SteadyStateTask(
            solve_for=("x1", "x2", "x3"),
            conservation=(ConservationUse(replaces_row=2, law_index=1, total="z1"),),
        )
        system, blocks = build_steady_system(net, task)
        assert [str(p) for p in system.a[0]] == ["-z2", "z3", "0"]
        assert [str(p) for p in system.a[1]] == ["1", "1", "0"]
        assert [str(p) for p in system.a[2]] == ["0", "z3", "-z4"]
        assert [str(p) for p in system.b] == ["0", "-z1", "z5"]
        assert blocks == BlockStructure((2,), 1, (2,))

    def test_single_species_conservation(self):
        net = parse_network("A <-> A2 ; k1, k2")
        task = SteadyStateTask(
            solve_for=("A", "A2"),
            conservation=(ConservationUse(replaces_row=1, law_index=1, total="T"),),
        )
        system, _ = build_steady_system(net, task)
        assert [str(p) for p in system.a[0]] == ["1", "1"]
        assert str(system.b[0]) == "-T"

    def test_nonlinear_rejected(self):
        net = parse_network("A + A -> B ; k1\nB -> 2 A ; k2")
        task = SteadyStateTask(solve_for=("A", "B"))
        with pytest.raises(NonlinearSystemError):
            build_steady_system(net, task)

    def test_unknowns_must_cover_species(self, crn_text):
        net = parse_network(crn_text)
        with pytest.raises(ValueError):
            build_steady_system(net, SteadyStateTask(solve_for=("x1",)))

    def test_proposal_detects_tail_only(self):
        net = parse_network("A <-> B ; k1, k2")
        task = SteadyStateTask(solve_for=("A", "B"))
        system, blocks = build_steady_system(net, task)
        assert blocks.d == 0 and blocks.m0 == 2


class TestDroppedRows:
    def test_golden_drop_is_dependent(self, crn_text):
        net = parse_network(crn_text)
        system, _ = build_steady_system(net, TASK)
        assert validate_dropped_rows(net, TASK, system) == []

    def test_independent_drop_reported(self):
        # the dropped inflow/outflow balance is not implied by the rest
        net = parse_network("A <-> B ; k1, k2\n0 -> C ; k3\nC -> 0 ; k4")
        bad = SteadyStateTask(
            solve_for=("A", "B"),
            parameters=("C",),
            conservation=(ConservationUse(replaces_row=1, law_index=1, total="T"),),
            drop=(3,),
        )
        system, _ = build_steady_system(net, bad)
        problems = validate_dropped_rows(net, bad, system)
        assert problems and "independent" in problems[0]


class TestParameterize:
    def test_golden_parameterization(self, crn_text):
        report = parameterize(parse_network(crn_text), TASK)
        assert report.certified
        assert report.diagnostics == ()
        assert report.zero_set == frozenset()
        q = P(
            "k1*k4*(k10 + k11)*x5^2"
            " + ((k2 + k3)*k4*(k8 + k11) + (k5 + k6)*k1*(k9 + k10)"
            "    + (k10 + k11)*(k1*k9 + k4*k8))*x5"
            " + (k8 + k9)*((k2 + k3)*(k5 + k6 + k11) + k10*(k5 + k6))"
        )
        displayed = {
            "x1": ratio(
                P("T1")
                * P("(k2 + k3)*k4*k11*x5 + k9*((k2 + k3)*(k5 + k6) + (k2 + k3)*k11 + (k5 + k6)*k10)"),
                q,
            ),
            "x2": ratio(
                P("T1")
                * P("(k5 + k6)*k1*k10*x5 + k8*((k2 + k3)*(k5 + k6) + (k2 + k3)*k11 + (k5 + k6)*k10)"),
                q,
            ),
            "x3": ratio(
                P("T1*x5") * P("k1*k4*k11*x5 + k1*k9*(k5 + k6 + k11) + k4*k8*k11"),
                q,
            ),
            "x4": ratio(
                P("T1*x5") * P("k1*k4*k10*x5 + k4*k8*(k2 + k3 + k10) + k1*k9*k10"),
                q,
            ),
            "x6": ratio(
                P("T1*x5")
                * P(
                    "k1*k4*(k3*k11 + k6*k10)*x5 + k1*k3*k9*(k5 + k11)"
                    " + k4*k8*(k2*k6 + k3*k11) + k6*(k3 + k10)*(k1*k9 + k4*k8)"
                ),
                P("k7") * q,
            ),
        }
        for name, want in displayed.items():
            assert rat_equal(report.solution[name], want)
        det_a = det_matrix([list(r) for r in report.system.a])
        assert det_a == P("k7") * q

    def test_residuals_vanish(self, crn_text):
        report = parameterize(parse_network(crn_text), TASK)
        solution = over_common_denominator(
            [report.solution[name] for name in TASK.solve_for]
        )
        assert residual_check(report.system, solution)

    def test_matches_cramer(self, crn_text):
        report = parameterize(parse_network(crn_text), TASK)
        oracle = cramer_oracle(report.system)
        for name, comp in zip(TASK.solve_for, oracle):
            assert rat_equal(report.solution[name], comp)

    def test_numeric_positivity(self, crn_text):
        report = parameterize(parse_network(crn_text), TASK)
        rng = random.Random(61)
        names = set()
        for expr in report.solution.values():
            names.update(expr.numerator.variables())
            names.update(expr.denominator.variables())
        for _ in range(50):
            point = {
                n: Fraction(rng.randint(1, 30), rng.randint(1, 10)) for n in names
            }
            for expr in report.solution.values():
                assert expr.evaluate(point) > 0

    def test_component_value_at_ones(self, crn_text):
        report = parameterize(parse_network(crn_text), TASK)
        point = {
            name: 1
            for expr in report.solution.values()
            for name in expr.numerator.variables() + expr.denominator.variables()
        }
        value = report.solution["x2"].evaluate(point)
        assert value > 0
        oracle = cramer_oracle(report.system)
        assert value == oracle[1].evaluate(point)

    def test_nonlinear_network_raises_with_monomial(self):
        net = parse_network("A + A -> B ; k1\nB -> 2 A ; k2")
        with pytest.raises(NonlinearSystemError) as err:
            parameterize(net, SteadyStateTask(solve_for=("A", "B")))
        assert "A" in str(err.value)


class TestNSite:
    def test_cramer_oracle_at_n4_matches_parameterization(self):
        n = 4
        net, task = nsite_network_and_task(n)
        report = parameterize(net, task, blocks=BlockStructure((n + 1, n + 1), 0, (1, n + 2)))
        assert report.certified and report.system.m == 10
        oracle = cramer_oracle(report.system)
        names = sorted(
            {v for comp in oracle for v in comp.numerator.variables() + comp.denominator.variables()}
        )
        rng = random.Random(64)
        for _ in range(2):
            point = {v: Fraction(rng.randint(1, 30), rng.randint(1, 10)) for v in names}
            for name, comp in zip(task.solve_for, oracle):
                assert report.solution[name].evaluate(point) == comp.evaluate(point)

    def test_residual_check_at_n3(self):
        # Every component shares one 400-term denominator, so adding a row's
        # fractions pairwise would multiply up to eight copies of it.
        n = 3
        net, task = nsite_network_and_task(n)
        report = parameterize(net, task, blocks=BlockStructure((n + 1, n + 1), 0, (1, n + 2)))
        solution = over_common_denominator(
            [report.solution[name] for name in task.solve_for]
        )
        assert residual_check(report.system, solution)
        off = Solution(  # x1 + 1
            (solution.numerators[0] + solution.denominator,) + solution.numerators[1:],
            solution.denominator,
        )
        assert not residual_check(report.system, off)
