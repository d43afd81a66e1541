"""Exact arithmetic written apart from forestsolve, used to check its outputs.

Polynomials are plain dicts mapping an exponent tuple (sorted ``(name, e)``
pairs) to a ``Fraction``.  Nothing here imports the package under test.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TERM = re.compile(
    r"([+-]?)(\d+(?:/\d+)?)?((?:\*?[A-Za-z][A-Za-z0-9_]*(?:\^\d+)?)*)"
)
_FACTOR = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?")
_QUOTIENT = re.compile(r"\(([^()]*)\)/\(([^()]*)\)")


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def parse_poly(text: str) -> dict:
    """Parse a flat sum of monomials such as ``3*a*b^2 - 5/2*c + 1``."""
    s = text.replace(" ", "")
    if s == "0":
        return {}
    out: dict = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        sign, coeff, factors = m.groups()
        if m.end() == pos or not (coeff or factors) or (pos and not sign):
            raise CheckError(f"cannot read polynomial {text!r} at {pos}")
        value = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            value = -value
        exps: dict = {}
        for name, e in _FACTOR.findall(factors):
            exps[name] = exps.get(name, 0) + (int(e) if e else 1)
        add_term(out, tuple(sorted(exps.items())), value)
        pos = m.end()
    return out


def parse_quotient(text: str) -> tuple[dict, dict]:
    """Numerator and denominator of ``(p)/(q)`` or of a bare polynomial."""
    m = _QUOTIENT.fullmatch(text.strip())
    if m:
        return parse_poly(m.group(1)), parse_poly(m.group(2))
    return parse_poly(text), {(): Fraction(1)}


def add_term(poly: dict, exps: tuple, coeff: Fraction) -> None:
    total = poly.get(exps, Fraction(0)) + coeff
    if total:
        poly[exps] = total
    else:
        poly.pop(exps, None)


def add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for exps, c in p.items():
            add_term(out, exps, c)
    return out


def neg(p: dict) -> dict:
    return {exps: -c for exps, c in p.items()}


def evaluate(p: dict, point: dict) -> Fraction:
    total = Fraction(0)
    for exps, c in p.items():
        for name, e in exps:
            c = c * point[name] ** e
        total += c
    return total


def nonneg(p: dict) -> bool:
    return all(c > 0 for c in p.values())


def format_poly(p: dict) -> str:
    """Text in the input grammar of forestsolve (any term order)."""
    if not p:
        return "0"
    parts = []
    for exps, c in sorted(p.items()):
        mono = "*".join(f"{n}^{e}" if e > 1 else n for n, e in exps)
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        parts.append(("-" if c < 0 else "+") + body)
    text = " ".join(parts)
    return text[1:] if text.startswith("+") else text


def variables(polys) -> list[str]:
    return sorted({n for p in polys for exps in p for n, _ in exps})


def solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """The x with a*x + b = 0 by exact elimination; None when a is singular."""
    m = len(a)
    rows = [list(a[i]) + [-b[i]] for i in range(m)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][m] for i in range(m)]


def random_point(rng, names) -> dict:
    """A positive rational point; positive values keep nonnegative sums nonzero."""
    return {n: Fraction(rng.randint(1, 97), rng.randint(1, 13)) for n in names}


def reaches_avoiding(succ: dict, source: int, target: int, avoid: int) -> bool:
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        if u == target:
            return True
        for v in succ.get(u, ()):
            if v != avoid and v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by exact elimination."""
    rows = [list(r) for r in rows]
    n, result = len(rows), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return result


def tree_count(weights: dict, n: int, root: int) -> int:
    """Spanning trees draining into ``root`` of the multigraph whose arc j -> i
    has ``weights[(j, i)]`` parallel edges (matrix-tree theorem)."""
    lap = [[Fraction(0)] * n for _ in range(n)]
    for (j, i), w in weights.items():
        lap[j - 1][j - 1] += w
        lap[j - 1][i - 1] -= w
    keep = [k for k in range(n) if k != root - 1]
    return int(det([[lap[r][c] for c in keep] for r in keep]))


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            merged = dict(e1)
            for name, e in e2:
                merged[name] = merged.get(name, 0) + e
            add_term(out, tuple(sorted(merged.items())), c1 * c2)
    return out
