"""Network parsing, mass-action equations, conservation laws, parameterization."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
    rat_equal,
    ratio,
    residual_check,
)
from forestsolve import crn
from forestsolve.symring import InputError
from forestsolve.crn import validate_dropped_rows
from forestsolve.linsys import Solution
from forestsolve.symring import det_matrix

from conftest import (
    nsite_closed_form,
    nsite_network_and_task,
    nsite_steady_system,
    nsite_text,
    over_common_denominator,
)

P = parse_poly

TASK = SteadyStateTask(
    solve_for=("x1", "x2", "x3", "x4", "x6"),
    conservation=(ConservationUse(replaces_row=4, law_index=1, total="T1"),),
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
        net = parse_network(crn_text)
        system, blocks = build_steady_system(net, TASK, mass_action_odes(net))
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
        system, blocks = build_steady_system(net, task, mass_action_odes(net))
        assert [str(p) for p in system.a[0]] == ["-z2", "z3", "0"]
        assert [str(p) for p in system.a[1]] == ["1", "1", "0"]
        assert [str(p) for p in system.a[2]] == ["0", "z3", "-z4"]
        assert [str(p) for p in system.b] == ["0", "-z1", "z5"]
        assert blocks == BlockStructure((2,), 1, (2,))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nsite_proposal_ends_a_block_at_the_last_row(self, n):
        # one law block for E and its complexes, one for F: no tail is left
        _, blocks = nsite_steady_system(n)
        assert blocks == BlockStructure((n + 1, n + 1), 0, (1, n + 2))

    def test_single_species_conservation(self):
        net = parse_network("A <-> A2 ; k1, k2")
        task = SteadyStateTask(
            solve_for=("A", "A2"),
            conservation=(ConservationUse(replaces_row=1, law_index=1, total="T"),),
        )
        system, _ = build_steady_system(net, task, mass_action_odes(net))
        assert [str(p) for p in system.a[0]] == ["1", "1"]
        assert str(system.b[0]) == "-T"

    def test_nonlinear_rejected(self):
        net = parse_network("A + A -> B ; k1\nB -> 2 A ; k2")
        task = SteadyStateTask(solve_for=("A", "B"))
        with pytest.raises(NonlinearSystemError):
            build_steady_system(net, task, mass_action_odes(net))

    @pytest.mark.parametrize(
        "solve_for, message",
        [
            (("x1", "x7"), "unknown 'x7' is not a species"),
            (("x1", "x2", "x1"), "unknown x1 is listed twice"),
        ],
        ids=["not-a-species", "listed-twice"],
    )
    def test_unknowns_are_distinct_species(self, crn_text, solve_for, message):
        net = parse_network(crn_text)
        with pytest.raises(InputError, match=message):
            build_steady_system(net, SteadyStateTask(solve_for), mass_action_odes(net))

    def test_parameters_and_left_out_rows_are_derived(self, crn_text):
        # restating the derived parameters and rows changes nothing; any
        # other value is an input error
        net = parse_network(crn_text)
        odes = mass_action_odes(net)
        given = SteadyStateTask(TASK.solve_for, ("x5",), TASK.conservation, (5,))
        assert build_steady_system(net, given, odes) == build_steady_system(net, TASK, odes)
        for parameters, drop in [(("x6",), ()), ((), (4,)), (("x5", "x6"), (5,))]:
            task = SteadyStateTask(TASK.solve_for, parameters, TASK.conservation, drop)
            message = "the parameters are ('x5',); their rows (5,) are left out"
            with pytest.raises(InputError, match=re.escape(message)):
                build_steady_system(net, task, odes)

    @pytest.mark.parametrize(
        "conservation, message",
        [
            ((ConservationUse(4, 3, "T"),), "conservation law 3 does not exist"),
            ((ConservationUse(6, 1, "T"),), "law 1 replaces row 6, which is not the row of"),
            ((ConservationUse(5, 2, "T"),), "law 2 replaces row 5, which is not the row of"),
            ((ConservationUse(7, 1, "T"),), "law 1 replaces row 7, which is not the row of"),
            (
                (ConservationUse(4, 1, "T"), ConservationUse(6, 2, "U")),
                "two conservation laws share the unknown x1",
            ),
        ],
        ids=["law-index", "row-off-support", "parameter-row", "row-past-species", "shared"],
    )
    def test_conservation_use_checked(self, crn_text, conservation, message):
        net = parse_network(crn_text)
        task = SteadyStateTask(TASK.solve_for, conservation=conservation)
        with pytest.raises(InputError, match=message):
            build_steady_system(net, task, mass_action_odes(net))

    def test_rows_pair_with_unknowns_by_name(self, crn_text):
        # any order of the unknowns gives the same law block and tail, in
        # solve_for order within each, and the same equations
        net = parse_network(crn_text)
        odes = mass_action_odes(net)
        canonical, _ = build_steady_system(net, TASK, odes)
        shuffled = SteadyStateTask(("x6", "x3", "x1", "x4", "x2"), conservation=TASK.conservation)
        system, blocks = build_steady_system(net, shuffled, odes)
        assert system.variables == ("x3", "x1", "x4", "x2", "x6")
        assert blocks == BlockStructure((4,), 1, (3,))
        where = [canonical.variables.index(u) for u in system.variables]
        assert system.a == tuple(tuple(canonical.a[r][c] for c in where) for r in where)
        assert system.b == tuple(canonical.b[r] for r in where)

    def test_proposal_detects_tail_only(self):
        net = parse_network("A <-> B ; k1, k2")
        task = SteadyStateTask(solve_for=("A", "B"))
        system, blocks = build_steady_system(net, task, mass_action_odes(net))
        assert blocks.d == 0 and blocks.m0 == 2


class TestDroppedRows:
    def test_golden_drop_is_dependent(self, crn_text):
        net = parse_network(crn_text)
        odes = mass_action_odes(net)
        system, _ = build_steady_system(net, TASK, odes)
        assert validate_dropped_rows(net, odes, system) == []

    def test_independent_drop_reported(self):
        # the dropped inflow/outflow balance is not implied by the rest
        net = parse_network("A <-> B ; k1, k2\n0 -> C ; k3\nC -> 0 ; k4")
        bad = SteadyStateTask(
            solve_for=("A", "B"),
            conservation=(ConservationUse(replaces_row=1, law_index=1, total="T"),),
        )
        odes = mass_action_odes(net)
        system, _ = build_steady_system(net, bad, odes)
        problems = validate_dropped_rows(net, odes, system)
        assert problems and "independent" in problems[0]


def _dense_row_reduce(rows):
    """Reference elimination: every entry of the pivot row is scaled and every
    entry of each other row is eliminated, zeros included."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


@st.composite
def _sparse_matrices(draw):
    cols = draw(st.integers(1, 5))
    zero = st.just(Fraction(0))
    entry = st.one_of(zero, zero, st.fractions(-6, 6, max_denominator=4))
    return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=7))


def _reference_dropped_rows(net, system):
    """Verdicts by rank: at each sampled point, the row of a species that is
    not an unknown is independent iff appending it to the retained rows
    raises the rank of the augmented matrix, both reduced from scratch by
    dense elimination."""
    odes = mass_action_odes(net)
    dropped = []
    for s, name in enumerate(net.species, 1):
        if name not in system.variables:
            coeffs, constant = crn._linear_row(odes[s - 1], system.variables)
            dropped.append((s, coeffs + [constant]))
    retained = [list(system.a[r]) + [system.b[r]] for r in range(system.m)]
    symbols = sorted({v for row in retained + [r for _, r in dropped] for p in row for v in p.variables()})
    rng = random.Random(crn._DROP_SEED)
    problems = []
    for _ in range(crn._DROP_TRIALS):
        point = {name: Fraction(rng.randint(1, 1000), rng.randint(1, 50)) for name in symbols}
        base = [[p.evaluate(point) for p in row] for row in retained]
        rank = len(_dense_row_reduce(base)[1])
        for s, row in dropped:
            if len(_dense_row_reduce(base + [[p.evaluate(point) for p in row]])[1]) > rank:
                problems.append(f"dropped row {s} is independent of the retained rows")
        if problems:
            break
    return problems


def _random_linear_network(rng):
    """Unknowns X1..X3, so P1..Pp are parameters and their rows are left out.

    Reactions are A -> B between any two species, and P + Xi -> P + Xj.  A
    draw without inflow or outflow conserves the sum of all species, so with
    one parameter its row is planted dependent (minus the sum of the others);
    a parameter in no A -> B reaction has a zero row.
    """
    p = rng.randint(1, 2)
    unknowns = ["X1", "X2", "X3"]
    params = [f"P{i}" for i in range(1, p + 1)]
    species = unknowns + params
    lines = ["species: " + ", ".join(species)]
    for k in range(rng.randint(2, 6)):
        if rng.random() < 0.3:
            a, b = rng.sample(unknowns, 2)
            lines.append(f"{rng.choice(params)} + {a} -> {rng.choice(params)} + {b} ; c{k}")
        else:
            a, b = rng.sample(species, 2)
            lines.append(f"{a} -> {b} ; k{k}")
    open_system = rng.random() < 0.4
    if open_system:
        lines.append(f"0 -> {rng.choice(species)} ; u")
    task = SteadyStateTask(solve_for=tuple(unknowns))
    return parse_network("\n".join(lines) + "\n"), task, p == 1 and not open_system


class TestRowReduce:
    @given(_sparse_matrices(), st.data())
    def test_sparse_elimination_matches_dense(self, rows, data):
        cols, zero = len(rows[0]), Fraction(0)
        k = data.draw(st.integers(0, cols))
        copy = [list(row) for row in rows]
        variants = [
            rows,
            rows[:k] + [[zero] * cols] + rows[k:],  # a zero row
            [row[:k] + [zero] + row[k:] for row in rows],  # a zero column
            rows + [[v * (i + 2) for v in rows[i % len(rows)]] for i in range(cols + 1)],
        ]
        assert len(variants[-1]) > cols
        for matrix in variants:
            got, expected = crn._row_reduce(matrix), _dense_row_reduce(matrix)
            assert got == expected
            assert [list(map(type, row)) for row in got[0]] == [
                list(map(type, row)) for row in expected[0]
            ]
        assert rows == copy  # the input rows are not modified
        assert crn._row_reduce([]) == ([], [])

    def test_dropped_rows_match_rank_reference(self):
        verdicts = []
        for seed in range(80):
            net, task, planted_dependent = _random_linear_network(random.Random(seed))
            odes = mass_action_odes(net)
            system, _ = build_steady_system(net, task, odes)
            problems = validate_dropped_rows(net, odes, system)
            assert problems == _reference_dropped_rows(net, system), seed
            if planted_dependent:
                assert problems == [], seed
            verdicts.append(bool(problems))
        assert 10 <= verdicts.count(True) and 10 <= verdicts.count(False)


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_equations_built_once(self, monkeypatch, n):
        # the dropped-row check reads the equations the system was built from
        calls = []

        def counted(net):
            calls.append(net)
            return mass_action_odes(net)

        monkeypatch.setattr(crn, "mass_action_odes", counted)
        net, task = nsite_network_and_task(n)
        report = parameterize(net, task)
        assert report.certified and report.diagnostics
        assert calls == [net]

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


def shuffled_nsite(n, rng):
    """The n-site network with its species line shuffled, and its task with
    the unknowns shuffled; the task is None when :func:`conservation_laws`
    does not hold both enzyme laws, which ``--conserve`` must name."""
    lines = nsite_text(n).splitlines()
    species = lines[0].removeprefix("species: ").split(", ")
    rng.shuffle(species)
    net = parse_network("\n".join(["species: " + ", ".join(species)] + lines[1:]) + "\n")
    unknowns = list(nsite_network_and_task(n)[1].solve_for)
    rng.shuffle(unknowns)
    laws = conservation_laws(net)
    uses = []
    for enzyme in "EF":
        law = [int(s == enzyme or s.startswith(enzyme + "S")) for s in net.species]
        if law not in laws:
            return net, None
        uses.append(ConservationUse(species.index(enzyme) + 1, laws.index(law) + 1, enzyme + "tot"))
    return net, SteadyStateTask(tuple(unknowns), conservation=tuple(uses))


class TestOrderIndependence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_shuffled_nsite_certifies_the_same_solution(self, n):
        # the task pairs rows with unknowns by name and takes its blocks
        # from the laws, so neither order moves the certified solution
        net, task = nsite_network_and_task(n)
        canonical = {k: str(v) for k, v in parameterize(net, task).solution.items()}
        names = [f"{k}{i}" for k in "abc" for i in range(n)]
        names += [f"{k}{i}" for k in "def" for i in range(1, n + 1)]
        names += [f"S{i}" for i in range(n + 1)] + ["Etot", "Ftot"]
        rng, values = random.Random(n), random.Random(-n)
        stated = 0
        for _ in range(20):
            net, task = shuffled_nsite(n, rng)
            if task is None:
                continue
            stated += 1
            report = parameterize(net, task)
            assert report.certified, (net.species, task)
            assert {k: str(v) for k, v in report.solution.items()} == canonical
            point = {v: Fraction(values.randint(1, 30), values.randint(1, 10)) for v in names}
            expected = nsite_closed_form(n, point)
            for name, expr in report.solution.items():
                assert expr.evaluate(point) == expected[name]
        assert stated == {1: 17, 2: 15, 3: 16, 4: 15}[n]


class TestNSite:
    def test_n5_parameterization_matches_closed_form(self):
        n = 5
        net, task = nsite_network_and_task(n)
        report = parameterize(net, task, blocks=BlockStructure((n + 1, n + 1), 0, (1, n + 2)))
        assert report.certified and report.system.m == 12
        assert not report.zero_set
        names = sorted(
            {
                v
                for expr in report.solution.values()
                for v in expr.numerator.variables() + expr.denominator.variables()
            }
        )
        rng = random.Random(5)
        for _ in range(2):
            point = {v: Fraction(rng.randint(1, 30), rng.randint(1, 10)) for v in names}
            expected = nsite_closed_form(n, point)
            assert set(expected) == set(task.solve_for)
            for name in task.solve_for:
                assert report.solution[name].evaluate(point) == expected[name]

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
