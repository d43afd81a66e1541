"""Polynomial arithmetic, signs, rational expressions, parsing, determinants."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from forestsolve import (
    BlockStructure,
    MissingVariableError,
    ParseError,
    Polynomial,
    Sign,
    det_matrix,
    is_nonneg,
    monomial_split,
    parameterize,
    parse_poly,
    poly_sign,
    rat_equal,
    ratio,
)
from forestsolve import symring
from forestsolve.symring import _term_key, minor_table, poly_sum, ratios, sum_products

from conftest import nsite_network_and_task, random_polynomial, zvar

P = parse_poly
C = Polynomial.constant


class TestArithmetic:
    def test_distributes(self):
        assert (P("z1 + 2*z2") * P("z3")) == P("z1*z3 + 2*z2*z3")

    def test_self_subtraction_is_zero(self):
        p = P("3*z1^2 - z2 + 5/2")
        assert (p - p).is_zero()

    def test_product_matches_tree_sum_denominator(self):
        assert P("(z1 + 2*z2)*z3*z4") == P("z1*z3*z4 + 2*z2*z3*z4")

    def test_power(self):
        assert P("(z1 + 1)^2") == P("z1^2 + 2*z1 + 1")
        with pytest.raises(ValueError):
            P("z1") ** -1

    def test_int_coercion(self):
        assert 2 * zvar(1) + 1 == P("2*z1 + 1")

    def test_ring_axioms_random(self):
        rng = random.Random(1)
        for _ in range(60):
            a = random_polynomial(rng)
            b = random_polynomial(rng)
            c = random_polynomial(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_canonical_form_idempotent(self):
        rng = random.Random(2)
        for _ in range(40):
            p = random_polynomial(rng)
            rebuilt = Polynomial(dict(p.terms))
            assert rebuilt.terms == p.terms


_EXPONENTS = st.dictionaries(
    st.sampled_from(["z1", "z2", "z3"]), st.integers(1, 3), max_size=3
).map(lambda d: tuple(sorted(d.items())))
_TERM_DICTS = st.dictionaries(
    _EXPONENTS, st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=6
)


class TestKernelAgainstPublicConstructor:
    """Arithmetic results, built without validation, equal ``Polynomial(dict)``."""

    @staticmethod
    def _check(result: Polynomial, reference: dict) -> None:
        assert result.terms == Polynomial(reference).terms
        assert all(type(c) is Fraction for _, c in result.terms)

    @given(_TERM_DICTS, _TERM_DICTS)
    def test_sum_and_difference(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        for sign, result in ((1, p + q), (-1, p - q)):
            ref = dict(p.terms)
            for exps, c in q.terms:
                ref[exps] = ref.get(exps, 0) + sign * c
            self._check(result, ref)
        self._check(-p, {e: -c for e, c in p.terms})

    @given(_TERM_DICTS, _TERM_DICTS)
    def test_product(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        ref: dict = {}
        for e1, c1 in p.terms:
            for e2, c2 in q.terms:
                exps = tuple(sorted((Counter(dict(e1)) + Counter(dict(e2))).items()))
                ref[exps] = ref.get(exps, 0) + c1 * c2
        self._check(p * q, ref)

    @given(st.lists(st.tuples(_TERM_DICTS, _TERM_DICTS), max_size=4))
    def test_sum_of_products(self, pairs):
        pairs = [(Polynomial(a), Polynomial(b)) for a, b in pairs]
        total = Polynomial.zero()
        for p, q in pairs:
            total = total + p * q
        self._check(sum_products(pairs), dict(total.terms))


class TestUnsortedKernel:
    """The term map is unordered inside; order and Fraction appear only in
    ``terms``, ``leading`` and printing."""

    @staticmethod
    def _results(a, b):
        p, q = Polynomial(a), Polynomial(b)
        return [p, q, p + q, p - q, -p, p * q, sum_products([(p, q), (q, q)])]

    @given(_TERM_DICTS, _TERM_DICTS)
    def test_terms_are_the_sorted_term_map(self, a, b):
        for p in self._results(a, b):
            assert all(c != 0 for c in p._map.values())
            expected = sorted(((e, Fraction(c)) for e, c in p._map.items()), key=_term_key)
            assert list(p.terms) == expected
            assert all(type(c) is Fraction for _, c in p.terms)
            if p:
                assert p.leading() == p.terms[0]

    @given(_TERM_DICTS, _TERM_DICTS)
    def test_equal_iff_equal_terms(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        for x, y in [(p, q), ((p + q) - q, p), (p * q, q * p), (p - p, Polynomial.zero())]:
            assert (x == y) == (x.terms == y.terms)
            if x == y:
                assert hash(x) == hash(y)
        assert (p + q) - q == p

    @given(_EXPONENTS, st.integers(-9, 9), st.integers(2, 5))
    def test_int_and_fraction_coefficients_hash_alike(self, exps, k, d):
        coeff = Fraction(k, d)
        assume(coeff.denominator != 1)
        via_fraction = Polynomial({exps: coeff}) * coeff.denominator
        whole = Polynomial({exps: coeff.numerator})
        assert type(via_fraction._map[exps]) is Fraction
        assert type(whole._map[exps]) is int
        assert via_fraction == whole and via_fraction.terms == whole.terms
        assert hash(via_fraction) == hash(whole)
        assert len({via_fraction, whole}) == 1

    def test_integer_arithmetic_keeps_int_coefficients(self):
        p = P("3*z1 - 2*z2 + 1") * P("z1 + 4") - P("z2")
        assert all(type(c) is int for c in p._map.values())

    def test_det_matrix_sorts_nothing_until_terms_are_read(self, monkeypatch):
        rng = random.Random(11)
        rows = [
            [
                Polynomial({((f"z{rng.randint(1, 5)}", 1),): rng.choice([-3, -2, -1, 1, 2, 3])})
                for _ in range(5)
            ]
            for _ in range(5)
        ]
        calls = 0

        def counting_key(term):
            nonlocal calls
            calls += 1
            return _term_key(term)

        monkeypatch.setattr(symring, "_term_key", counting_key)
        det = det_matrix(rows)
        assert len(det._map) > 20
        assert calls == 0
        text = str(det)
        assert calls == len(det._map)
        assert det.terms and str(det) == text
        assert calls == len(det._map)  # the sorted view is kept

    @given(_TERM_DICTS, st.lists(st.fractions(-4, 4, max_denominator=5), min_size=3, max_size=3))
    def test_evaluate_matches_termwise_fractions(self, a, values):
        p = Polynomial(a)
        point = dict(zip(("z1", "z2", "z3"), values))
        expected = Fraction(0)
        for exps, c in p.terms:
            term = c
            for name, e in exps:
                term *= point[name] ** e
            expected += term
        assert p.evaluate(point) == expected

    @given(st.lists(_TERM_DICTS, min_size=1, max_size=4), _TERM_DICTS)
    def test_ratios_remove_only_monomial_and_content(self, nums, den):
        nums, den = [Polynomial(n) for n in nums], Polynomial(den)
        assume(den)
        for num, r in zip(nums, ratios(nums, den)):
            assert r == ratio(num, den)
            assert str(r) == str(ratio(num, den))
            if not num:
                assert r.numerator == 0 and r.denominator == 1
                continue
            # (num, den) is (r.num, r.den) times one term k
            (de, dc), (re_, rc) = den.leading(), r.denominator.leading()
            k = Polynomial({tuple(sorted((Counter(dict(de)) - Counter(dict(re_))).items())): dc / rc})
            assert den == r.denominator * k and num == r.numerator * k
            # and that term is as large as it can be
            assert rc > 0
            both = r.numerator.terms + r.denominator.terms
            assert all(c.denominator == 1 for _, c in both)
            assert math.gcd(*(c.numerator for _, c in both)) == 1
            assert set.intersection(*(set(dict(e)) for e, _ in both)) == set()

    def test_poly_sum_is_the_sum(self):
        rng = random.Random(12)
        polys = [random_polynomial(rng) for _ in range(8)]
        total = Polynomial.zero()
        for p in polys:
            total = total + p
        assert poly_sum(polys) == total
        assert poly_sum([]) == 0

    @given(_TERM_DICTS, _TERM_DICTS)
    def test_printed_form_is_kept_and_canonical(self, a, b):
        p, q = Polynomial(a), Polynomial(b)
        built = [p, q, Polynomial._build(dict(p._map)), -p, sum_products([(p, q), (q, q)]), p - p]
        if q:
            built += [x for r in ratios([p, q], q) for x in (r.numerator, r.denominator)]
        built += [Polynomial.zero(), Polynomial.one(), symring._ZERO, symring._ONE]
        for x in built:
            text = str(x)
            assert str(x) is text  # kept, not formatted again
            assert len(x.terms) == len(x._map) and str(x) is text  # sorted after
            # an equal polynomial built separately, and printed before sorting
            assert str(Polynomial(dict(x.terms))) == text
            assert str(Polynomial._build(dict(x._map))) == text
        assert str(Polynomial.zero()) == str(Polynomial()) == "0"
        assert str(Polynomial.one()) == str(Polynomial({(): 1})) == "1"

    def test_shared_denominator_is_formatted_once(self, monkeypatch):
        n = 3
        net, task = nsite_network_and_task(n)
        report = parameterize(net, task, blocks=BlockStructure((n + 1, n + 1), 0, (1, n + 2)))
        components = list(report.solution.values())
        (den,) = {id(c.denominator): c.denominator for c in components}.values()
        assert len(components) == 8 and den != 1
        formatted = Counter()
        original = Polynomial._format

        def counting_format(poly):
            formatted[id(poly)] += 1
            return original(poly)

        monkeypatch.setattr(Polynomial, "_format", counting_format)
        texts = [str(c) for c in components]
        assert formatted[id(den)] == 1
        assert set(formatted.values()) == {1}
        assert len(formatted) == len(components) + 1  # the numerators and D
        assert [str(c) for c in components] == texts
        assert sum(formatted.values()) == len(components) + 1


class TestSign:
    def test_positive_coefficients(self):
        assert poly_sign(P("z1 + 2*z2")) == Sign.NONNEG

    def test_mixed(self):
        assert poly_sign(P("1 - 2*z3")) == Sign.MIXED

    def test_zero(self):
        assert poly_sign(Polynomial.zero()) == Sign.ZERO

    def test_nonpos(self):
        assert poly_sign(P("-z1 - 1")) == Sign.NONPOS

    def test_soundness_on_positive_points(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(40):
            p = random_polynomial(rng)
            if poly_sign(p) != Sign.NONNEG:
                continue
            names = p.variables()
            for _ in range(50):
                point = {
                    n: Fraction(rng.randint(1, 60), rng.randint(1, 20))
                    for n in names
                }
                assert p.evaluate(point) > 0
                checked += 1
        assert checked > 0


class TestEvaluation:
    def test_simple(self):
        assert P("z1 + 2*z2").evaluate({"z1": 1, "z2": 1}) == 3

    def test_rational_expr_value(self):
        expr = ratio(P("z5"), P("z1 + 2*z2"))
        assert expr.evaluate({"z1": 1, "z2": 1, "z5": 6}) == 2

    def test_zero_everywhere(self):
        assert Polynomial.zero().evaluate({"z1": 7}) == 0

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            P("z1*z9").evaluate({"z1": 1})


class TestRationalExpr:
    def test_common_monomial_factor(self):
        a = ratio(P("z5"), P("z1 + 2*z2"))
        b = ratio(P("z3*z5"), P("(z1 + 2*z2)*z3"))
        assert rat_equal(a, b)
        assert a == b

    def test_solution_component_form(self):
        got = ratio(P("2*z2*z4*z5"), P("(z1 + 2*z2)*z3*z4"))
        want = ratio(P("2*z2*z5"), P("(z1 + 2*z2)*z3"))
        assert rat_equal(got, want)

    def test_zero_numerators_always_equal(self):
        assert rat_equal(ratio(Polynomial.zero(), P("z1")), ratio(Polynomial.zero(), P("z2 + 1")))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ratio(P("z1"), Polynomial.zero())

    def test_equivalence_relation_spot_checks(self):
        rng = random.Random(4)
        exprs = []
        while len(exprs) < 8:
            num = random_polynomial(rng)
            den = random_polynomial(rng)
            if den.is_zero():
                continue
            scale = random_polynomial(rng)
            if scale.is_zero():
                continue
            exprs.append((ratio(num, den), ratio(num * scale, den * scale)))
        for a, b in exprs:
            assert rat_equal(a, a)
            assert rat_equal(a, b) and rat_equal(b, a)
        a, b = exprs[0]
        c = ratio(b.numerator * C(3), b.denominator * C(3))
        assert rat_equal(a, b) and rat_equal(b, c) and rat_equal(a, c)


class TestMonomialSplit:
    def test_two_terms(self):
        assert monomial_split(P("z1 + 2*z2")) == [P("z1"), P("2*z2")]

    def test_constant(self):
        assert monomial_split(C(5)) == [C(5)]

    def test_signed_terms(self):
        assert monomial_split(P("z3 - z4")) == [P("z3"), P("-z4")]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            monomial_split(Polynomial.zero())

    def test_sums_back(self):
        rng = random.Random(5)
        for _ in range(40):
            p = random_polynomial(rng)
            if p.is_zero():
                continue
            total = Polynomial.zero()
            for part in monomial_split(p):
                total = total + part
            assert total == p


class TestParsePrint:
    def test_round_trip_random(self):
        rng = random.Random(6)
        for _ in range(60):
            p = random_polynomial(rng)
            assert parse_poly(str(p)) == p

    def test_rational_literal(self):
        assert P("5/2") == C(Fraction(5, 2))
        assert P("-3") == C(-3)

    def test_whitespace_insensitive(self):
        assert P(" z1+2 * z2 ") == P("z1 + 2*z2")

    def test_parens_and_powers(self):
        assert P("(z1 + z2)^2 - z1^2 - z2^2") == P("2*z1*z2")

    @pytest.mark.parametrize("bad", ["", "z1 +", "1/", "(z1", "z1 & z2", "^2", "5/0"])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_poly(bad)

    def test_print_canonical_order(self):
        assert str(P("2*z2 + z1")) == "z1 + 2*z2"
        assert str(P("z2*z3*z4*2 + z1*z3*z4")) == "z1*z3*z4 + 2*z2*z3*z4"
        assert str(Polynomial.zero()) == "0"


class TestDeterminant:
    @staticmethod
    def _gauss_det(rows):
        n = len(rows)
        m = [[Fraction(v) for v in row] for row in rows]
        det = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        return det

    def test_integer_matrices_against_elimination(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 5)
            ints = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            polys = [[C(v) for v in row] for row in ints]
            assert det_matrix(polys).evaluate({}) == self._gauss_det(ints)

    def test_large_matrix_uses_fraction_free_path(self):
        rng = random.Random(8)
        n = 9
        ints = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        polys = [[C(v) for v in row] for row in ints]
        assert det_matrix(polys).evaluate({}) == self._gauss_det(ints)

    def test_symbolic_2x2(self):
        m = [[zvar(1), zvar(2)], [zvar(3), zvar(4)]]
        assert det_matrix(m) == P("z1*z4 - z2*z3")

    def test_empty_matrix(self):
        assert det_matrix([]) == Polynomial.one()


_SMALL_TERM_DICTS = st.dictionaries(
    _EXPONENTS, st.fractions(min_value=-3, max_value=3, max_denominator=2), max_size=2
)


@st.composite
def _wide_matrices(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 5))
    return [
        [Polynomial(draw(_SMALL_TERM_DICTS)) for _ in range(n)] for _ in range(k)
    ]


class TestMinorTable:
    """Every minor of one shared table equals its Leibniz expansion."""

    @staticmethod
    def _leibniz(rows, cols) -> Polynomial:
        total = Polynomial.zero()
        for perm in itertools.permutations(range(len(cols))):
            inversions = sum(
                1 for a, b in itertools.combinations(perm, 2) if a > b
            )
            term = Polynomial.constant(-1 if inversions % 2 else 1)
            for r, c in enumerate(perm):
                term = term * rows[r][cols[c]]
            total = total + term
        return total

    @given(_wide_matrices(), st.randoms(use_true_random=False))
    def test_minors_match_leibniz_in_any_query_order(self, rows, rng):
        k, n = len(rows), len(rows[0])
        subsets = list(itertools.combinations(range(n), k))
        expected = {cols: self._leibniz(rows, cols) for cols in subsets}
        table = minor_table(rows)
        assert {cols: table(cols) for cols in subsets} == expected
        rng.shuffle(subsets)
        other = minor_table(rows)
        assert {cols: other(cols) for cols in subsets} == expected

    def test_short_query_is_a_minor_of_the_last_rows(self):
        table = minor_table([[zvar(1), zvar(2), zvar(3)], [zvar(4), zvar(5), zvar(6)]])
        assert table((2,)) == zvar(6)
        assert table((0, 2)) == P("z1*z6 - z3*z4")
        with pytest.raises(ValueError):
            table((0, 1, 2))
