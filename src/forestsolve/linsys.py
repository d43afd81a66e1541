"""Symbolic square linear systems A*x + b = 0 and their tree-sum solutions.

The system is bordered into an (m+1)x(m+1) zero-column-sum matrix whose graph
realizations carry the solution in their spanning trees: component i is the
quotient N_i / D of the tree sums rooted at i and at m+1.  Every solver keeps
the numerators N over the one denominator D, and by the all-minors
matrix-tree theorem D = +-det(A).  So the Cramer oracle (exact determinants)
agrees with a solver exactly when its (N, D) is the solver's up to one sign,
and the exact residual is the polynomial identity A*N + b*D = 0.  The block
solver takes its sums as minors too, so for it the residual is the check
that shares no minor code with the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .forests import upsilon_rooted
from .multigraph import Laplacian, Multidigraph, canonical_graph, json_list
from .symring import (
    InputError,
    Polynomial,
    RationalExpr,
    minor_table,
    parse_poly,
    poly_sum,
    ratios,
    sum_products,
)


class SingularSystemError(ValueError):
    """The coefficient matrix has zero determinant (as a polynomial)."""


@dataclass(frozen=True)
class LinearSystem:
    """Square system A*x + b = 0 with polynomial entries.

    Rows follow the equation order as given and are never reordered.  A row
    permutation would only scale N and D by its sign, which the reduced
    components do not show.
    """

    variables: tuple[str, ...]
    a: tuple[tuple[Polynomial, ...], ...]
    b: tuple[Polynomial, ...]

    def __post_init__(self):
        m = len(self.variables)
        if m == 0:
            raise InputError("system must have at least one variable")
        if len(self.a) != m or any(len(row) != m for row in self.a):
            raise InputError("coefficient matrix shape does not match variables")
        if len(self.b) != m:
            raise InputError("constant vector length does not match variables")

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
    """Solution vector x_i = N_i / D: unreduced numerators over one denominator.

    D is a weighted forest sum, +-det(A) by the all-minors matrix-tree
    theorem, so a vanishing D means a singular system.  Indexing and
    iteration give the components reduced with :func:`ratios`, which
    reduces the shared denominator once.
    """

    numerators: tuple[Polynomial, ...]
    denominator: Polynomial

    def __post_init__(self):
        if self.denominator.is_zero():
            raise SingularSystemError("weighted forest sum vanishes")

    @cached_property
    def components(self) -> tuple[RationalExpr, ...]:
        return ratios(self.numerators, self.denominator)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> RationalExpr:
        return self.components[i]

    def __len__(self) -> int:
        return len(self.numerators)

    def agrees_up_to_sign(self, other: "Solution") -> bool:
        """Whether other's (N, D) is this one's times a single sign +-1."""
        sign = 1 if other.denominator == self.denominator else -1
        return other.denominator == sign * self.denominator and (
            other.numerators == tuple(sign * n for n in self.numerators)
        )


def bordered_laplacian(system: LinearSystem) -> Laplacian:
    """Extend (A | b) by the row making every column sum to zero."""
    m = system.m
    rows = [list(system.a[i]) + [system.b[i]] for i in range(m)]
    rows.append([-poly_sum(row[j] for row in rows) for j in range(m + 1)])
    return Laplacian(rows)


def tree_solution(graph: Multidigraph) -> Solution:
    """N_i and D as the tree sums of ``graph`` rooted at i and at node m+1."""
    last = graph.node_count
    den = upsilon_rooted(graph, last)
    return Solution(tuple(upsilon_rooted(graph, i) for i in range(1, last)), den)


def solve_by_trees(system: LinearSystem) -> Solution:
    """Solve by spanning-tree sums on the canonical graph of the bordered matrix.

    Every graph realizing that matrix has the same rooted tree sums, so the
    choice of graph does not change the answer.
    """
    return tree_solution(canonical_graph(bordered_laplacian(system)))


def cramer_oracle(system: LinearSystem) -> Solution:
    """Independent solver: x_i = det(A with column i replaced by -b) / det(A).

    Every determinant is a query of one :func:`minor_table` over the rows of
    (A | -b): D on columns 0..m-1, and N_i on the same columns with column m
    in position i, so sub-minors that avoid the replaced column are shared.
    """
    m = system.m
    minor = minor_table([[*row, -b_r] for row, b_r in zip(system.a, system.b)])
    cols = tuple(range(m))
    nums = tuple(minor(cols[:i] + (m,) + cols[i + 1 :]) for i in range(m))
    return Solution(nums, minor(cols))


def residual_check(system: LinearSystem, solution: Solution) -> bool:
    """Exact check that A*x + b is the zero vector: A*N + b*D = 0 (D != 0)."""
    if len(solution) != system.m:
        return False
    den, nums = solution.denominator, solution.numerators
    return all(
        sum_products([(b_i, den), *zip(a_row, nums)]).is_zero()
        for a_row, b_i in zip(system.a, system.b)
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
    if not isinstance(data, Mapping):
        raise InputError("a system must be a JSON object")
    return LinearSystem.build(
        json_list(data.get("variables"), str, "'variables'"),
        [
            [parse_poly(s) for s in json_list(row, str, "a row of 'A'")]
            for row in json_list(data.get("A"), list, "'A'")
        ],
        [parse_poly(s) for s in json_list(data.get("b"), str, "'b'")],
    )
