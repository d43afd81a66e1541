"""Exact multivariate polynomial arithmetic and reduced rational expressions.

A polynomial is a map from exponents to nonzero coefficients, kept in no
order while it is computed with.  Coefficients are ``int`` where integer
arithmetic made them, and ``Fraction`` where a non-integral one took part.
Equality compares the maps, so polynomial identity testing is fully
reliable.  Order is observed only through :attr:`Polynomial.terms`,
:meth:`Polynomial.leading` and printing; the sort they share and the printed
form are each made once, on first use, and kept.  ``terms`` and ``leading``
show coefficients as ``Fraction``.
The public constructor validates outside input; arithmetic results are built
without re-validation.  Rational expressions are reduced for display and
evaluation only; they have no arithmetic.  Every sum, plain or of products,
is accumulated into one term map (:func:`sum_products`, :func:`poly_sum`).
All minors and determinants come from one kind of table: memoized cofactor
expansion over a fixed row set, whose memo is shared by every query
(:func:`minor_table`).

The term order is graded lexicographic by variable name: higher total degree
first, ties broken lexicographically on the sparse exponent vectors.  Any
fixed total order would do; this one keeps printed output stable.

Sign classification is coefficientwise: a nonzero polynomial with all
coefficients >= 0 is reported NONNEG, which certifies that the polynomial is
strictly positive at every point of the open positive orthant.  The converse
does not hold (e.g. ``z1^2 - 2*z1*z2 + z2^2`` is nonnegative but classified
MIXED); the certificate is sound, not complete.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

# Sparse exponent map: ((variable name, exponent > 0), ...) sorted by name.
Exponents = tuple[tuple[str, int], ...]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class InputError(ValueError):
    """Malformed input from outside the program (the CLI's exit status 2)."""


class ParseError(InputError):
    """Raised when a polynomial string does not match the grammar."""


class MissingVariableError(KeyError):
    """Raised when evaluating a polynomial at a point lacking a variable."""


class Sign(Enum):
    """Coefficientwise sign class of a polynomial.

    ZERO: the zero polynomial.  NONNEG/NONPOS: nonzero, all coefficients
    >= 0 / <= 0; such a polynomial is strictly positive/negative on the open
    positive orthant.  MIXED: coefficients of both signs.
    """

    ZERO = "zero"
    NONNEG = "nonneg"
    NONPOS = "nonpos"
    MIXED = "mixed"


def _term_key(term: tuple[Exponents, Fraction]) -> tuple:
    # Ascending sort under this key = descending graded-lex term order.
    degree = 0
    negated = []
    for name, e in term[0]:
        degree += e
        negated.append((name, -e))
    return (-degree, negated)


class Polynomial:
    """Immutable multivariate polynomial over the rationals."""

    __slots__ = ("_map", "_order", "_text")

    def __init__(self, terms: Mapping[Exponents, int | Fraction] | None = None):
        clean: dict[Exponents, int | Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                for name, e in exps:
                    if e <= 0:
                        raise ValueError(f"nonpositive exponent in {exps}")
                    if not _NAME_RE.fullmatch(name):
                        raise ValueError(f"bad variable name {name!r}")
                clean[exps] = coeff.numerator if coeff.denominator == 1 else coeff
        self._map = clean
        self._order = self._text = None

    @staticmethod
    def _build(terms: dict[Exponents, int | Fraction]) -> "Polynomial":
        """Arithmetic result: its terms come from valid polynomials and are
        nonzero, so the map is kept as it is, not validated again as
        :meth:`__init__` does."""
        p = object.__new__(Polynomial)
        p._map = terms
        p._order = p._text = None
        return p

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return _ZERO

    @staticmethod
    def one() -> "Polynomial":
        return _ONE

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial":
        return Polynomial({(): value})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        if not _NAME_RE.fullmatch(name):
            raise InputError(f"bad variable name {name!r}")
        return Polynomial({((name, 1),): 1})

    # -- inspection ---------------------------------------------------------

    def _ordered(self) -> tuple[tuple[Exponents, int | Fraction], ...]:
        """The term map's items in canonical order: sorted on the first call
        and kept with the polynomial."""
        if self._order is None:
            items = list(self._map.items())
            items.sort(key=_term_key)
            self._order = tuple(items)
        return self._order

    @property
    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """Terms in canonical (descending graded-lex) order, with Fraction
        coefficients."""
        return tuple((exps, Fraction(c)) for exps, c in self._ordered())

    def is_zero(self) -> bool:
        return not self._map

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({name for exps in self._map for name, _ in exps}))

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self._map:
            raise ValueError("zero polynomial has no leading term")
        exps, coeff = self._ordered()[0]
        return exps, Fraction(coeff)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not q._map:
            return self
        if not self._map:
            return q
        return poly_sum((self, q))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._build({exps: -c for exps, c in self._map.items()})

    def __sub__(self, other) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Polynomial":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return sum_products(((self, q),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._map == q._map

    def __hash__(self) -> int:
        # an int and an equal Fraction hash alike, as equality needs
        return hash(frozenset(self._map.items()))

    def __bool__(self) -> bool:
        return bool(self._map)

    # -- evaluation and display ---------------------------------------------

    def evaluate(self, point: Mapping[str, int | Fraction]) -> Fraction:
        """Exact value at a point assigning a rational to every variable."""
        # integer numerators over one common denominator, widened to the lcm
        # as terms need it, so one Fraction is normalized per call
        powers: dict[tuple[str, int], tuple[int, int]] = {}
        num, den = 0, 1
        for exps, coeff in self._map.items():
            tn, td = coeff.numerator, coeff.denominator
            for pair in exps:
                power = powers.get(pair)
                if power is None:
                    name, e = pair
                    if name not in point:
                        raise MissingVariableError(name)
                    value = Fraction(point[name])
                    power = powers[pair] = (value.numerator**e, value.denominator**e)
                tn *= power[0]
                td *= power[1]
            if den % td:
                widen = td // math.gcd(den, td)
                num *= widen
                den *= widen
            num += tn * (den // td)
        return Fraction(num, den)

    def __str__(self) -> str:
        if self._text is None:  # formatted once and kept, like the sort
            self._text = self._format()
        return self._text

    def _format(self) -> str:
        if not self._map:
            return "0"
        parts: list[str] = []
        # int and Fraction coefficients print alike
        for i, (exps, coeff) in enumerate(self._ordered()):
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name for name, e in exps
            )
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _mul_exps(e1: Exponents, e2: Exponents) -> Exponents:
    if not e1:
        return e2
    if not e2:
        return e1
    if e1[-1][0] < e2[0][0]:  # names apart: the concatenation is sorted
        return e1 + e2
    if e2[-1][0] < e1[0][0]:
        return e2 + e1
    # reuse the factors' (name, exponent) pairs: in a memoized minor table,
    # pairs rebuilt for every term were most of its memory
    merged = {p[0]: p for p in e1}
    for p in e2:
        q = merged.get(p[0])
        merged[p[0]] = p if q is None else (p[0], q[1] + p[1])
    return tuple(sorted(merged.values()))


def sum_products(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of p*q over the pairs, accumulated into one term map rather
    than copied into a new one for every partial sum."""
    out: dict[Exponents, int | Fraction] = {}
    get = out.get
    for p, q in pairs:
        for e1, c1 in p._map.items():
            for e2, c2 in q._map.items():
                exps = _mul_exps(e1, e2)
                out[exps] = get(exps, 0) + c1 * c2
    for exps in [exps for exps, c in out.items() if not c]:
        del out[exps]
    return Polynomial._build(out)


def poly_sum(polys: Iterable[Polynomial]) -> Polynomial:
    """The sum of the polynomials: :func:`sum_products` with unit factors."""
    return sum_products((p, _ONE) for p in polys)


_ZERO = Polynomial()
_ONE = Polynomial({(): 1})
_MINUS_ONE = Polynomial({(): -1})


# ---------------------------------------------------------------------------
# sign certificate


def poly_sign(p: Polynomial) -> Sign:
    """Coefficientwise sign class of ``p`` (see :class:`Sign`)."""
    if p.is_zero():
        return Sign.ZERO
    has_pos = any(c > 0 for c in p._map.values())
    has_neg = any(c < 0 for c in p._map.values())
    if has_pos and has_neg:
        return Sign.MIXED
    return Sign.NONNEG if has_pos else Sign.NONPOS


def is_nonneg(p: Polynomial) -> bool:
    """Certified membership in the nonnegative cone (zero included)."""
    return poly_sign(p) in (Sign.ZERO, Sign.NONNEG)


def is_nonpos(p: Polynomial) -> bool:
    return poly_sign(p) in (Sign.ZERO, Sign.NONPOS)


def monomial_split(p: Polynomial) -> list[Polynomial]:
    """Decompose ``p`` into its single-term summands, canonical order."""
    if p.is_zero():
        raise ValueError("cannot split the zero polynomial")
    return [Polynomial._build({exps: c}) for exps, c in p._ordered()]


# ---------------------------------------------------------------------------
# rational expressions


def _monomial_gcd(p: Polynomial, common: dict[str, int]) -> dict[str, int]:
    """Largest monomial dividing ``common`` and every term of ``p``."""
    for exps in p._map:
        if not common:
            break
        emap = dict(exps)
        common = {name: min(e, emap[name]) for name, e in common.items() if name in emap}
    return common


def _divide_monomial(p: Polynomial, drop: dict[str, int]) -> Polynomial:
    if not drop:
        return p
    out: dict[Exponents, int | Fraction] = {}
    for exps, c in p._map.items():
        quotient = ((q[0], q[1] - drop[q[0]]) if q[0] in drop else q for q in exps)
        out[tuple(q for q in quotient if q[1])] = c
    return Polynomial._build(out)


def _content(p: Polynomial, num_gcd: int = 0, den_lcm: int = 1) -> tuple[int, int]:
    """The gcd of the coefficient numerators and the lcm of their
    denominators, over ``p`` and the given running values."""
    for c in p._map.values():
        num_gcd = math.gcd(num_gcd, c.numerator)
        den_lcm = math.lcm(den_lcm, c.denominator)
    return num_gcd, den_lcm


@dataclass(frozen=True, eq=False)
class RationalExpr:
    """Quotient of two polynomials, reduced by monomial gcd and content.

    Only the common monomial factor and rational content are removed, not
    polynomial common factors; mathematical equality is decided by
    cross-multiplication (:func:`rat_equal`, also wired to ``==``).  It is
    a printed, evaluated form with no arithmetic: solvers compute with the
    unreduced numerators over one shared denominator (``linsys.Solution``).
    """

    numerator: Polynomial
    denominator: Polynomial

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def evaluate(self, point: Mapping[str, int | Fraction]) -> Fraction:
        den = self.denominator.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return self.numerator.evaluate(point) / den

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return rat_equal(self, other)

    def __str__(self) -> str:
        if self.denominator == Polynomial.one():
            return str(self.numerator)
        return f"({self.numerator})/({self.denominator})"

    def __repr__(self) -> str:
        return f"RationalExpr({self})"


def ratio(num: Polynomial, den: Polynomial) -> RationalExpr:
    """Build a reduced rational expression num/den (den must be nonzero)."""
    return ratios((num,), den)[0]


def ratios(nums: Sequence[Polynomial], den: Polynomial) -> tuple[RationalExpr, ...]:
    """Each num/den reduced as by :func:`ratio`.  The denominator's monomial
    gcd, content and sign are found once, and numerators that remove the same
    factor from it share one reduced denominator."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator polynomial")
    den_gcd = _monomial_gcd(den, dict(next(iter(den._map))))
    den_content = _content(den)
    sign = -1 if den.leading()[1] < 0 else 1
    reduced: dict[tuple, Polynomial] = {}
    out = []
    for num in nums:
        if num.is_zero():
            out.append(RationalExpr(Polynomial.zero(), Polynomial.one()))
            continue
        g = _monomial_gcd(num, den_gcd)
        content = _content(num, *den_content)
        key = (tuple(sorted(g.items())), content)
        if key not in reduced:
            reduced[key] = _reduce(den, g, content, sign)
        out.append(RationalExpr(_reduce(num, g, content, sign), reduced[key]))
    return tuple(out)


def _reduce(p: Polynomial, g: dict[str, int], content: tuple[int, int], sign: int) -> Polynomial:
    """``sign * p / (g * num_gcd / den_lcm)``, whose coefficients are integers."""
    p = _divide_monomial(p, g)
    num_gcd, den_lcm = content
    if num_gcd == den_lcm == sign == 1:
        return p
    return Polynomial._build(
        {e: sign * (c.numerator // num_gcd) * (den_lcm // c.denominator) for e, c in p._map.items()}
    )


def rat_equal(a: RationalExpr, b: RationalExpr) -> bool:
    """Mathematical equality by cross-multiplication."""
    return a.numerator * b.denominator == b.numerator * a.denominator


# ---------------------------------------------------------------------------
# determinants of polynomial matrices


class _MinorTable:
    """The memo and the cofactor expansion behind :func:`minor_table`."""

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        # (entry, -entry) for the even and odd cofactor positions; None for zero
        self.signed = [[(e, -e) if e else None for e in row] for row in rows]
        self.memo: dict[tuple[int, ...], Polynomial] = {(): Polynomial.one()}

    def __call__(self, cols: Sequence[int]) -> Polynomial:
        cols = tuple(cols)
        if cols not in self.memo:
            if len(cols) > len(self.signed):
                raise ValueError(f"{len(cols)} columns for a minor of {len(self.signed)} rows")
            row = self.signed[-len(cols)]  # the first of the last len(cols) rows
            self.memo[cols] = sum_products(
                (row[c][idx & 1], self(cols[:idx] + cols[idx + 1 :]))
                for idx, c in enumerate(cols)
                if row[c] is not None
            )
        return self.memo[cols]


def minor_table(
    rows: Sequence[Sequence[Polynomial]],
) -> Callable[[Sequence[int]], Polynomial]:
    """The minors of a k x n polynomial matrix, as a function of their columns.

    The returned function maps t <= k column indices (0-based, in the order
    given) to the determinant of the last t rows on those columns, so k
    columns give a k x k minor.  It expands by cofactors along the first of
    those rows, each step one :func:`sum_products`, and keeps every minor in
    one memo shared by all queries: queries whose columns overlap share
    their sub-minors.  No division is used.  The table refers to itself
    only through the calls it is making, so nothing outlives the caller's
    last reference to it: the memo is freed with the table.
    """
    return _MinorTable(rows)


def det_matrix(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square matrix of polynomials: the full-column
    query of its :func:`minor_table`, 2^n minors of at most n products each."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return minor_table(rows)(range(len(rows)))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    text = text.rstrip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character at position {pos}: {text[pos]!r}")
        if m.group("int") is not None:
            tokens.append(("int", m.group("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ParseError(f"expected {op!r}, got {tok[1]!r}")

    def parse_expr(self) -> Polynomial:
        # the signed terms are summed once, into one term map
        signed: list[tuple[Polynomial, Polynomial]] = []
        sign = _ONE
        if self.peek() in (("op", "+"), ("op", "-")):
            sign = _MINUS_ONE if self.take()[1] == "-" else _ONE
        while True:
            signed.append((self.parse_term(), sign))
            if self.peek() not in (("op", "+"), ("op", "-")):
                return sum_products(signed)
            sign = _MINUS_ONE if self.take()[1] == "-" else _ONE

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek() == ("op", "*"):
            self.take()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Polynomial:
        base = self.parse_base()
        if self.peek() == ("op", "^"):
            self.take()
            tok = self.take()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer")
            base = base ** int(tok[1])
        return base

    def parse_base(self) -> Polynomial:
        tok = self.take()
        if tok[0] == "int":
            value = Fraction(int(tok[1]))
            if self.peek() == ("op", "/"):
                self.take()
                den = self.take()
                if den[0] != "int" or int(den[1]) == 0:
                    raise ParseError("malformed rational literal")
                value /= int(den[1])
            return Polynomial.constant(value)
        if tok[0] == "name":
            return Polynomial.variable(tok[1])
        if tok == ("op", "("):
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok == ("op", "-"):
            return -self.parse_factor()
        raise ParseError(f"unexpected token {tok[1]!r}")


def parse_poly(text: str) -> Polynomial:
    """Parse the polynomial grammar: rationals, names, ``+ - * ^``, parens."""
    parser = _Parser(_tokenize(text))
    try:
        result = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input from token {parser.pos}")
    return result
