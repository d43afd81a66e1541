"""Block-structured systems and their forest-product solution formula.

The systems handled here have a coefficient matrix made of d square diagonal
blocks followed by arbitrary trailing rows, with at most one nonzero constant
per block.  One distinguished row per block is released and refilled by
column sums, so that the bordered matrix becomes realizable by a graph with
no cross-block edges.  Solving and certification both take this one matrix
from :func:`realization`, the only place that builds it; every graph that
realizes it has the same rooted forest sums, so no other realization is
needed.  The solution is then a ratio of double sums of forest products
over root sets drawing one node per block.  No edge leaves a block for
another block, so this block confinement fixes the root that each
distinguished row drains into, and each forest sum is one signed minor of
the graph's Laplacian.  All of them delete the same rows, so one shared
minor table (:class:`forests.ForestSums`) serves the whole solution; forest
enumeration is the reference that the tests compare against.  Under sign
hypotheses on the distinguished rows and a reachability condition on
negative edges, every component is certified a quotient of
coefficientwise-nonnegative polynomials; a realization with no certificate
is refused.  A plain system is the case d = 0, so this is also how
:func:`pgraph.certify_nonneg` certifies.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

from .forests import ForestSums
from .linsys import LinearSystem, Solution
from .multigraph import Laplacian, Multidigraph, reachable_avoiding
from .pgraph import PGraphWitness, find_pgraph, is_pgraph
from .symring import (
    Polynomial,
    Sign,
    is_nonneg,
    is_nonpos,
    monomial_split,
    poly_sign,
    poly_sum,
    sum_products,
)


log = logging.getLogger("forestsolve.blocksys")


class BlockHypothesisError(ValueError):
    """The sign hypotheses on the distinguished rows do not hold."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class BlockStructure:
    """Partition of a system into d leading square blocks and a free tail.

    ``sizes`` are the block sizes m_1..m_d, ``m0`` the tail size, and ``j``
    the distinguished row of each block (the row holding the block's nonzero
    constant, if any).
    """

    sizes: tuple[int, ...]
    m0: int
    j: tuple[int, ...]

    def __post_init__(self):
        if len(self.j) != len(self.sizes):
            raise ValueError("one distinguished row is required per block")
        if any(s < 1 for s in self.sizes) or self.m0 < 0:
            raise ValueError("block sizes must be positive")
        for i, ji in enumerate(self.j):
            lo, hi = self.block_range(i + 1)
            if not (lo <= ji <= hi):
                raise ValueError(f"distinguished row {ji} outside block {i + 1}")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def m(self) -> int:
        return sum(self.sizes) + self.m0

    def block_range(self, i: int) -> tuple[int, int]:
        """Inclusive 1-based node range of block i (1..d)."""
        lo = 1 + sum(self.sizes[: i - 1])
        return lo, lo + self.sizes[i - 1] - 1

    def block_nodes(self, i: int) -> range:
        """Nodes of block i for i in 1..d, of the tail for i = 0."""
        if i == 0:
            return range(self.m - self.m0 + 1, self.m + 2)
        lo, hi = self.block_range(i)
        return range(lo, hi + 1)

    def block_of(self, node: int) -> int:
        """Block index of a node (0 for the tail, including node m+1)."""
        for i in range(1, self.d + 1):
            lo, hi = self.block_range(i)
            if lo <= node <= hi:
                return i
        return 0

    def distinguished(self) -> tuple[int, ...]:
        """The row set F: distinguished rows plus the bordering node m+1."""
        return tuple(sorted(self.j)) + (self.m + 1,)


def choose_j(system: LinearSystem, sizes: Sequence[int], m0: int) -> tuple[int, ...]:
    """Pick the distinguished row of each block from the constant vector.

    The row with the block's nonzero constant when present, otherwise the
    smallest row of the block; two nonzero constants in a block is an error.
    """
    if sum(sizes) + m0 != system.m:
        raise ValueError("block sizes do not cover the system")
    out = []
    start = 1
    for size in sizes:
        rows = range(start, start + size)
        nonzero = [r for r in rows if not system.b[r - 1].is_zero()]
        if len(nonzero) > 1:
            raise ValueError(
                f"block rows {start}..{start + size - 1} have several nonzero constants"
            )
        out.append(nonzero[0] if nonzero else start)
        start += size
    return tuple(out)


def validate_block_form(system: LinearSystem, blocks: BlockStructure) -> list[str]:
    """Check the block shape of (A, b); returns human-readable violations."""
    problems: list[str] = []
    if blocks.m != system.m:
        return [f"block sizes cover {blocks.m} rows, system has {system.m}"]
    head = system.m - blocks.m0
    for r in range(1, head + 1):
        k = blocks.block_of(r)
        lo, hi = blocks.block_range(k)
        for c in range(1, system.m + 1):
            if not (lo <= c <= hi) and not system.a[r - 1][c - 1].is_zero():
                problems.append(
                    f"entry ({r}, {c}) lies outside block {k} but is nonzero"
                )
    for r in range(1, head + 1):
        if r not in blocks.j and not system.b[r - 1].is_zero():
            problems.append(
                f"constant {r} is nonzero but row {r} is not distinguished"
            )
    return problems


# ---------------------------------------------------------------------------
# the realization with no cross-block edges


def validate_acompatible(
    lap: Laplacian, blocks: BlockStructure, system: LinearSystem
) -> list[str]:
    """Check the two compatibility conditions against the original system.

    No edge of a graph realizing ``lap`` may leave one block for a different
    block (the tail may only be entered, never left toward a block): every
    entry (i, j) with i in a block and j outside it is zero.  Every
    non-distinguished row of ``lap`` must equal the corresponding row of
    (A | b).
    """
    problems: list[str] = []
    home = {n: blocks.block_of(n) for n in range(1, lap.size + 1)}
    for j, i in itertools.product(home, repeat=2):
        bs, bt = home[j], home[i]
        if bt >= 1 and bs != bt and not lap.entry(i, j).is_zero():
            problems.append(f"entry ({i}, {j}) crosses from block {bs} into block {bt}")
    if lap.size != system.m + 1:
        problems.append("matrix size does not match the system")
        return problems
    for r in range(1, system.m + 1):
        if r not in blocks.j and lap.rows[r - 1] != (*system.a[r - 1], system.b[r - 1]):
            problems.append(f"row {r} disagrees with (A | b)")
    return problems


def realization(system: LinearSystem, blocks: BlockStructure) -> Laplacian:
    """The column-sum realization of the bordered matrix.

    Every other row copies (A | b).  In each block column the distinguished
    row takes the sign-compatible monomials of minus the rest of the column:
    off the diagonal the nonnegative ones, on the diagonal the nonpositive
    ones, which minimizes negative entries off the diagonal.  The last row
    then makes every column sum to zero, so it takes what the distinguished
    row left.  A distinguished row is filled only inside its own block, so
    no edge enters a block from outside; that confinement is asserted here
    on the matrix's zero pattern, once for every caller, and a failure is an
    internal fault.  :func:`find_pgraph` puts edges only on nonzero entries,
    so the certificate graph it builds on this matrix has the same arcs and
    rows, and the one check covers it too.  With no blocks this is
    :func:`linsys.bordered_laplacian`.
    """
    problems = validate_block_form(system, blocks)
    if problems:
        raise ValueError("; ".join(problems))
    m = blocks.m
    zero = Polynomial.zero()
    rows = [
        [zero] * (m + 1) if r in blocks.j else [*system.a[r - 1], system.b[r - 1]]
        for r in range(1, m + 1)
    ]
    for k, jk in enumerate(blocks.j, start=1):
        for col in blocks.block_nodes(k):
            rest = -poly_sum(row[col - 1] for row in rows)
            keep = is_nonpos if col == jk else is_nonneg
            if rest:
                rows[jk - 1][col - 1] = poly_sum(mono for mono in monomial_split(rest) if keep(mono))
    rows.append([-poly_sum(row[c] for row in rows) for c in range(m + 1)])
    lap = Laplacian(rows)
    problems = validate_acompatible(lap, blocks, system)
    if problems:
        raise AssertionError("realization is not block-confined: " + "; ".join(problems))
    return lap


# ---------------------------------------------------------------------------
# the forest-product solution


def solve_block(system: LinearSystem, blocks: BlockStructure) -> Solution:
    """Solve via the double sum of forest products over per-block root sets.

    Numerator of x_l: over every block k (and the bordering pseudo-block),
    minus the distinguished constant times the forest sums rooted at a root
    set avoiding block k with l adjoined, weighted by the distinguished-row
    entries picked by the root set.  Denominator: the same weighted sum over
    full root sets, (-1)^(m-d) det(A).  No edge leaves a block for
    another block, nor the tail for a block, so a family is empty, and is
    skipped, when l lies in a block other than k, or when k is the bordering
    slot and l is not in the tail.  Every forest sum deletes the rows
    F = {j_1..j_d, m+1}, so all of them come from one :class:`ForestSums`
    table over the :func:`realization`, and each component is one
    :func:`sum_products` over (-b_k * weight, minor) pairs.
    """
    return _solve_realization(system, blocks, realization(system, blocks))


def _solve_realization(
    system: LinearSystem, blocks: BlockStructure, lap: Laplacian
) -> Solution:
    """:func:`solve_block` on the already built :func:`realization` ``lap``."""
    d, last, j = blocks.d, blocks.m + 1, blocks.j
    sums = ForestSums(lap, blocks.distinguished())

    def family(scale: Polynomial, skip: int | None = None, ell: int | None = None):
        # Root sets: beta_i in each block i != skip, m+1 unless skip = d+1, and
        # ell.  Block confinement sends j_i to beta_i, m+1 to itself and skip's
        # node of F to ell: one signed minor, weighted by scale * a[j_i][beta_i].
        kept = [i for i in range(1, d + 1) if i != skip]
        for picks in itertools.product(*(blocks.block_nodes(i) for i in kept)):
            w = scale
            images = {} if skip == d + 1 else {last: last}
            for i, beta in zip(kept, picks):
                w = w * system.a[j[i - 1] - 1][beta - 1]
                images[j[i - 1]] = beta
            if w.is_zero():
                continue
            if skip is not None:
                images[j[skip - 1] if skip <= d else last] = ell
            sign, minor = sums.signed_minor(images)
            yield (w if sign > 0 else -w), minor

    minus_b = [-system.b[jk - 1] for jk in j] + [Polynomial.one()]
    nums = []
    for ell in range(1, system.m + 1):
        home = blocks.block_of(ell)
        pairs = []
        for k in range(1, d + 2):
            if home in (0, k) and minus_b[k - 1]:
                pairs.extend(family(minus_b[k - 1], k, ell))
        nums.append(sum_products(pairs))
    return Solution(tuple(nums), sum_products(family(Polynomial.one())))


# ---------------------------------------------------------------------------
# sign certification


def check_condition_star(
    graph: Multidigraph, blocks: BlockStructure
) -> tuple[bool, tuple[int, int] | None]:
    """Negative edges must be unreachable from the distinguished rows.

    Fails when, in G - (m+1), some distinguished row reaches the source of a
    negative edge that avoids m+1; returns the witnessing (block index, edge
    id) of the first such edge by id.  One forward search per row decides it;
    with no distinguished rows (d = 0) it holds without a look at the edges.
    """
    if not blocks.j:
        return True, None
    last = blocks.m + 1
    reached = [reachable_avoiding(graph, (jk,), last) for jk in blocks.j]
    for e in sorted(graph.edges, key=lambda e: e.eid):
        sign = poly_sign(e.label)
        if sign == Sign.MIXED:
            raise ValueError(f"edge {e.eid} has a mixed-sign label")
        if sign != Sign.NONPOS or last in (e.source, e.target):
            continue
        for i, nodes in enumerate(reached, start=1):
            if e.source in nodes:
                return False, (i, e.eid)
    return True, None


def zero_components(
    witness: PGraphWitness, blocks: BlockStructure
) -> frozenset[int]:
    """Variables in leading blocks forced to zero by a reachable negative edge.

    A block variable that reaches, in G - (m+1), the source of a negative
    edge avoiding m+1 has a vanishing solution component; one reverse search
    from those sources finds them all.  Other components may vanish too.
    """
    graph = witness.graph
    last = blocks.m + 1
    neg_sources = {
        e.source
        for e in graph.edges
        if poly_sign(e.label) == Sign.NONPOS and last not in (e.source, e.target)
    }
    reaching = reachable_avoiding(graph, neg_sources, last, reverse=True)
    return frozenset(n for n in reaching if n <= blocks.m - blocks.m0)


def certify_block_nonneg(
    system: LinearSystem, blocks: BlockStructure
) -> tuple[Solution, PGraphWitness] | None:
    """Certify nonnegativity of the block solution, or refuse.

    Requires nonnegative distinguished rows and nonpositive distinguished
    constants.  Looks for a certificate graph of the :func:`realization`
    that also passes the negative-edge reachability condition; on success
    the solution is computed and its numerators and denominator verified
    nonnegative.
    """
    lap = realization(system, blocks)
    hypothesis: list[str] = []
    for ji in blocks.j:
        for c in range(1, system.m + 1):
            if not is_nonneg(system.a[ji - 1][c - 1]):
                hypothesis.append(f"row {ji} of the matrix is not nonnegative")
                break
        if not is_nonpos(system.b[ji - 1]):
            hypothesis.append(f"constant {ji} is not nonpositive")
    if hypothesis:
        raise BlockHypothesisError(hypothesis)

    found = find_pgraph(lap)
    if found is None:
        refusal = "no certificate graph"
    else:
        star_ok, star_witness = check_condition_star(found[0], blocks)
        refusal = None if star_ok else f"reachability condition fails at {star_witness}"
    if refusal is not None:
        log.info("column-sum realization refused: %s", refusal)
        return None
    graph, mu = found
    witness = is_pgraph(graph, mu)
    if witness is None:
        raise AssertionError("search returned an invalid certificate")
    solution = _solve_realization(system, blocks, lap)
    if not all(map(is_nonneg, solution.numerators + (solution.denominator,))):
        raise AssertionError("certified component has mixed signs")
    return solution, witness
