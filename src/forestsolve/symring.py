"""Exact multivariate polynomial arithmetic and reduced rational expressions.

Polynomials have arbitrary-precision rational coefficients (Fraction) and are
kept in a canonical form: a sorted tuple of (exponent-map, coefficient) terms
with no zero coefficients.  Equality is structural equality of the canonical
form, so polynomial identity testing is fully reliable.  The public
constructor validates outside input; arithmetic results are canonicalized
once, without re-validation.  Rational expressions are reduced for display
and evaluation only; they have no arithmetic.  Sums of products are
accumulated into one term map and canonicalized once (:func:`sum_products`).
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


class ParseError(ValueError):
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


def _canonical_terms(terms: Mapping[Exponents, Fraction]) -> tuple:
    """Nonzero terms in canonical order."""
    # sorted in place and copied at its exact size: building the tuple from a
    # generator resizes it as it grows and left peak RSS higher
    items = [t for t in terms.items() if t[1]]
    items.sort(key=_term_key)
    return tuple(items)


class Polynomial:
    """Immutable multivariate polynomial over the rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, Fraction] | None = None):
        clean: dict[Exponents, Fraction] = {}
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
                clean[exps] = coeff
        object.__setattr__(self, "_terms", _canonical_terms(clean))

    @staticmethod
    def _build(terms: dict[Exponents, Fraction]) -> "Polynomial":
        """Arithmetic result: its terms come from valid polynomials, so it is
        only canonicalized, not validated again as :meth:`__init__` does."""
        p = object.__new__(Polynomial)
        object.__setattr__(p, "_terms", _canonical_terms(terms))
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
        return Polynomial({(): Fraction(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        if not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad variable name {name!r}")
        return Polynomial({((name, 1),): Fraction(1)})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Exponents, Fraction], ...]:
        """Terms in canonical (descending graded-lex) order."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> tuple[str, ...]:
        names = {name for exps, _ in self._terms for name, _ in exps}
        return tuple(sorted(names))

    def leading(self) -> tuple[Exponents, Fraction]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        return self._terms[0]

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
        if not q._terms:
            return self
        if not self._terms:
            return q
        out = dict(self._terms)
        for exps, coeff in q._terms:
            out[exps] = out[exps] + coeff if exps in out else coeff
        return Polynomial._build(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._build({exps: -coeff for exps, coeff in self._terms})

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
        return self._terms == q._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- evaluation and display ---------------------------------------------

    def evaluate(self, point: Mapping[str, int | Fraction]) -> Fraction:
        """Exact value at a point assigning a rational to every variable."""
        # each term's numerator and denominator as integer products, so one
        # Fraction is normalized per term rather than one per factor
        values: dict[str, Fraction] = {}
        total = Fraction(0)
        for exps, coeff in self._terms:
            num, den = coeff.numerator, coeff.denominator
            for name, e in exps:
                if name not in values:
                    if name not in point:
                        raise MissingVariableError(name)
                    values[name] = Fraction(point[name])
                num *= values[name].numerator ** e
                den *= values[name].denominator ** e
            total += Fraction(num, den)
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for i, (exps, coeff) in enumerate(self._terms):
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
    # reuse the factors' (name, exponent) pairs: in a memoized minor table,
    # pairs rebuilt for every term were most of its memory
    merged = {p[0]: p for p in e1}
    for p in e2:
        q = merged.get(p[0])
        merged[p[0]] = p if q is None else (p[0], q[1] + p[1])
    return tuple(sorted(merged.values()))


def sum_products(pairs: Iterable[tuple[Polynomial, Polynomial]]) -> Polynomial:
    """The sum of p*q over the pairs, accumulated into one term map and
    canonicalized once, rather than once per partial sum."""
    out: dict[Exponents, Fraction] = {}
    for p, q in pairs:
        for e1, c1 in p._terms:
            for e2, c2 in q._terms:
                exps = _mul_exps(e1, e2)
                out[exps] = out[exps] + c1 * c2 if exps in out else c1 * c2
    return Polynomial._build(out)


_ZERO = Polynomial()
_ONE = Polynomial({(): Fraction(1)})


# ---------------------------------------------------------------------------
# sign certificate


def poly_sign(p: Polynomial) -> Sign:
    """Coefficientwise sign class of ``p`` (see :class:`Sign`)."""
    if p.is_zero():
        return Sign.ZERO
    has_pos = any(c > 0 for _, c in p.terms)
    has_neg = any(c < 0 for _, c in p.terms)
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
    return [Polynomial({exps: coeff}) for exps, coeff in p.terms]


# ---------------------------------------------------------------------------
# rational expressions


def _monomial_gcd(polys: Iterable[Polynomial]) -> Exponents:
    """Largest monomial dividing every term of every given polynomial."""
    common: dict[str, int] | None = None
    for p in polys:
        for exps, _ in p.terms:
            emap = dict(exps)
            if common is None:
                common = emap
            else:
                common = {
                    name: min(e, emap.get(name, 0))
                    for name, e in common.items()
                    if emap.get(name, 0) > 0
                }
            if not common:
                return ()
    return tuple(sorted((common or {}).items()))


def _divide_monomial(p: Polynomial, exps: Exponents) -> Polynomial:
    if not exps:
        return p
    drop = dict(exps)
    out: dict[Exponents, Fraction] = {}
    for e, c in p.terms:
        emap = dict(e)
        for name, k in drop.items():
            emap[name] -= k
            if emap[name] == 0:
                del emap[name]
        out[tuple(sorted(emap.items()))] = c
    return Polynomial(out)


def _content(polys: Iterable[Polynomial]) -> Fraction:
    """Positive rational c with all coefficients of all polys / c coprime integers."""
    num_gcd = 0
    den_lcm = 1
    for p in polys:
        for _, c in p.terms:
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, den_lcm)


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
    if den.is_zero():
        raise ZeroDivisionError("zero denominator polynomial")
    if num.is_zero():
        return RationalExpr(Polynomial.zero(), Polynomial.one())
    g = _monomial_gcd([num, den])
    num = _divide_monomial(num, g)
    den = _divide_monomial(den, g)
    c = _content([num, den])
    if c != 1:
        inv = 1 / c
        num = num * inv
        den = den * inv
    if den.leading()[1] < 0:
        num, den = -num, -den
    return RationalExpr(num, den)


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
        sign = 1
        tok = self.peek()
        if tok in (("op", "+"), ("op", "-")):
            self.take()
            sign = -1 if tok[1] == "-" else 1
        result = self.parse_term()
        if sign < 0:
            result = -result
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                result = result + self.parse_term()
            elif tok == ("op", "-"):
                self.take()
                result = result - self.parse_term()
            else:
                return result

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
