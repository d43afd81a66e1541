"""Symbolic square linear systems A*x + b = 0 and their tree-sum solutions.

The system is bordered into an (m+1)x(m+1) zero-column-sum matrix whose graph
realizations carry the solution in their spanning trees: component i is the
quotient of the tree sums rooted at i and at m+1.  A Cramer oracle (exact
determinants) and an exact residual substitution cross-check every solver
path.  The block solver takes its sums as determinants too, so for it the
residual is the check that shares no code with the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .forests import upsilon_rooted
from .multigraph import Laplacian, canonical_graph
from .symring import (
    Polynomial,
    RationalExpr,
    det_matrix,
    parse_poly,
    ratio,
)


class SingularSystemError(ValueError):
    """The coefficient matrix has zero determinant (as a polynomial)."""


@dataclass(frozen=True)
class LinearSystem:
    """Square system A*x + b = 0 with polynomial entries.

    Rows follow the equation order as given; no reordering is ever applied
    silently (see :func:`permute_rows`).
    """

    variables: tuple[str, ...]
    a: tuple[tuple[Polynomial, ...], ...]
    b: tuple[Polynomial, ...]

    def __post_init__(self):
        m = len(self.variables)
        if m == 0:
            raise ValueError("system must have at least one variable")
        if len(self.a) != m or any(len(row) != m for row in self.a):
            raise ValueError("coefficient matrix shape does not match variables")
        if len(self.b) != m:
            raise ValueError("constant vector length does not match variables")

    @property
    def m(self) -> int:
        return len(self.variables)

    @staticmethod
    def build(
        variables: Sequence[str],
        a: Sequence[Sequence[Polynomial]],
        b: Sequence[Polynomial],
    ) -> "LinearSystem":
        return LinearSystem(
            tuple(variables),
            tuple(tuple(row) for row in a),
            tuple(b),
        )


@dataclass(frozen=True)
class Solution:
    """Solution vector, one reduced rational expression per variable."""

    components: tuple[RationalExpr, ...]

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> RationalExpr:
        return self.components[i]

    def __len__(self) -> int:
        return len(self.components)


def bordered_laplacian(system: LinearSystem) -> Laplacian:
    """Extend (A | b) by the row making every column sum to zero."""
    m = system.m
    rows = [list(system.a[i]) + [system.b[i]] for i in range(m)]
    last = []
    for j in range(m + 1):
        s = Polynomial.zero()
        for i in range(m):
            s = s + rows[i][j]
        last.append(-s)
    rows.append(last)
    return Laplacian(rows)


def solve_by_trees(system: LinearSystem) -> Solution:
    """Solve by spanning-tree sums on the canonical graph of the bordered matrix.

    Every graph realizing that matrix has the same rooted tree sums, so the
    choice of graph does not change the answer.
    """
    graph = canonical_graph(bordered_laplacian(system))
    m = system.m
    den = upsilon_rooted(graph, m + 1)
    if den.is_zero():
        raise SingularSystemError("tree sum rooted at the extra node vanishes")
    return Solution(
        tuple(ratio(upsilon_rooted(graph, i), den) for i in range(1, m + 1))
    )


def cramer_oracle(system: LinearSystem) -> Solution:
    """Independent solver: x_i = det(A with column i replaced by -b) / det(A)."""
    m = system.m
    a = [list(row) for row in system.a]
    det_a = det_matrix(a)
    if det_a.is_zero():
        raise SingularSystemError("coefficient matrix is singular")
    comps = []
    for i in range(m):
        repl = [row[:] for row in a]
        for r in range(m):
            repl[r][i] = -system.b[r]
        comps.append(ratio(det_matrix(repl), det_a))
    return Solution(tuple(comps))


def residual_check(system: LinearSystem, solution: Solution) -> bool:
    """Exact check that A*x + b is the zero vector.

    Each row first sums the numerators of the terms that share a
    denominator, so components over one common denominator D cost one
    product by D instead of a product of m copies of D.
    """
    if len(solution) != system.m:
        return False
    for i in range(system.m):
        by_den = {Polynomial.one(): system.b[i]}
        for a_ij, x in zip(system.a[i], solution):
            num = by_den.get(x.denominator, Polynomial.zero())
            by_den[x.denominator] = num + a_ij * x.numerator
        acc = ratio(Polynomial.zero(), Polynomial.one())
        for den, num in by_den.items():
            acc = acc + ratio(num, den)
        if not acc.is_zero():
            return False
    return True


def permute_rows(system: LinearSystem, order: Sequence[int]) -> LinearSystem:
    """Reordered copy of the system; ``order`` lists old row indices (1-based)."""
    if sorted(order) != list(range(1, system.m + 1)):
        raise ValueError("order must be a permutation of 1..m")
    return LinearSystem.build(
        system.variables,
        [system.a[i - 1] for i in order],
        [system.b[i - 1] for i in order],
    )


# ---------------------------------------------------------------------------
# JSON interchange


def system_to_json(system: LinearSystem) -> dict:
    return {
        "variables": list(system.variables),
        "A": [[str(p) for p in row] for row in system.a],
        "b": [str(p) for p in system.b],
    }


def system_from_json(data: Mapping) -> LinearSystem:
    variables = [str(v) for v in data["variables"]]
    a = [[parse_poly(s) for s in row] for row in data["A"]]
    b = [parse_poly(s) for s in data["b"]]
    return LinearSystem.build(variables, a, b)
