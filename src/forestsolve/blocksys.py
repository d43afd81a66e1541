"""Block-structured systems and their forest-product solution formula.

The systems handled here have a coefficient matrix made of d square diagonal
blocks followed by arbitrary trailing rows, with at most one nonzero constant
per block.  One distinguished row per block is released and refilled so that
the bordered matrix becomes realizable by a graph with no cross-block edges;
the solution is then a ratio of double sums of forest products over root sets
drawing one node per block.  No edge leaves a block for another block, so
this block confinement fixes the root that each distinguished row drains
into, and each forest sum is one signed minor of the graph's Laplacian
(:func:`forests.forest_sum`); forest enumeration is the reference that the
tests compare against.  Under sign hypotheses on the distinguished rows and
a reachability condition on negative edges, every component is certified a
quotient of coefficientwise-nonnegative polynomials.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Iterator, Sequence

from .forests import forest_sum
from .linsys import LinearSystem, Solution
from .multigraph import (
    Laplacian,
    Multidigraph,
    canonical_graph,
    laplacian_of,
    reaches_avoiding,
)
from .pgraph import PGraphWitness, find_pgraph, is_pgraph
from .symring import (
    Polynomial,
    Sign,
    is_nonneg,
    is_nonpos,
    monomial_split,
    poly_sign,
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
# realizable bordered matrices with no cross-block edges


@dataclass(frozen=True)
class ACompatibleWitness:
    """A graph realization whose matrix keeps every non-distinguished row."""

    graph: Multidigraph
    laplacian: Laplacian


def validate_acompatible(
    graph: Multidigraph, blocks: BlockStructure, system: LinearSystem
) -> list[str]:
    """Check the two compatibility conditions against the original system.

    No edge may leave one block for a different block (the tail may only be
    entered, never left toward a block), and every non-distinguished row of
    the graph's matrix must equal the corresponding row of (A | b).
    """
    problems: list[str] = []
    for e in sorted(graph.edges, key=lambda e: e.eid):
        bs, bt = blocks.block_of(e.source), blocks.block_of(e.target)
        if bt >= 1 and bs != bt:
            problems.append(
                f"edge {e.eid} crosses from block {bs} into block {bt}"
            )
    lap = laplacian_of(graph)
    if lap.size != system.m + 1:
        problems.append("graph size does not match the system")
        return problems
    for r in range(1, system.m + 1):
        if r in blocks.j:
            continue
        for c in range(1, system.m + 1):
            if lap.entry(r, c) != system.a[r - 1][c - 1]:
                problems.append(f"row {r} disagrees with the system at column {c}")
                break
        else:
            if lap.entry(r, system.m + 1) != system.b[r - 1]:
                problems.append(f"row {r} disagrees with the constant vector")
    return problems


def _column_remainder(
    system: LinearSystem, blocks: BlockStructure, col: int
) -> Polynomial:
    """Column sum of A over all rows except the column's distinguished row."""
    k = blocks.block_of(col)
    jk = blocks.j[k - 1]
    total = Polynomial.zero()
    for r in range(1, system.m + 1):
        if r != jk:
            total = total + system.a[r - 1][col - 1]
    return total


def _assemble(
    system: LinearSystem,
    blocks: BlockStructure,
    fills: dict[int, tuple[Polynomial, Polynomial]],
) -> Laplacian:
    """Bordered matrix from per-column (distinguished-row, last-row) fills."""
    m = blocks.m
    rows = [[Polynomial.zero()] * (m + 1) for _ in range(m + 1)]
    for r in range(1, m + 1):
        if r in blocks.j:
            continue
        for c in range(1, m + 1):
            rows[r - 1][c - 1] = system.a[r - 1][c - 1]
        rows[r - 1][m] = system.b[r - 1]
    for col, (f, g) in fills.items():
        jk = blocks.j[blocks.block_of(col) - 1]
        rows[jk - 1][col - 1] = f
        rows[m][col - 1] = g
    for c in range(1, m + 1):
        if c in fills:
            continue
        s = Polynomial.zero()
        for r in range(m):
            s = s + rows[r][c - 1]
        rows[m][c - 1] = -s
    s = Polynomial.zero()
    for r in range(m):
        s = s + rows[r][m]
    rows[m][m] = -s
    return Laplacian(rows)


def _default_fill(
    remainder: Polynomial, diagonal: bool
) -> tuple[Polynomial, Polynomial]:
    """Split -remainder between the distinguished row and the last row.

    Off the diagonal the distinguished row takes the nonnegative monomials
    (the rest drains to the bordering node); on the diagonal it takes the
    nonpositive ones, keeping the diagonal sign admissible.
    """
    f = Polynomial.zero()
    g = Polynomial.zero()
    if remainder.is_zero():
        return f, g
    for mono in monomial_split(-remainder):
        to_row = is_nonpos(mono) if diagonal else is_nonneg(mono)
        if to_row:
            f = f + mono
        else:
            g = g + mono
    return f, g


def build_acompatible(
    system: LinearSystem, blocks: BlockStructure
) -> ACompatibleWitness | None:
    """Heuristic realization: refill each distinguished row by column sums.

    Column by column, the distinguished row receives minus the rest of the
    column (its sign-compatible monomials; the remainder goes to the last
    row), which minimizes negative entries off the diagonal.
    """
    if validate_block_form(system, blocks):
        raise ValueError("system is not in block form")
    fills = {}
    for k in range(1, blocks.d + 1):
        jk = blocks.j[k - 1]
        for col in blocks.block_nodes(k):
            fills[col] = _default_fill(
                _column_remainder(system, blocks, col), diagonal=(col == jk)
            )
    lap = _assemble(system, blocks, fills)
    graph = canonical_graph(lap)
    if validate_acompatible(graph, blocks, system):
        return None
    return ACompatibleWitness(graph, lap)


# ---------------------------------------------------------------------------
# the forest-product solution


def _family_sum(
    system: LinearSystem,
    blocks: BlockStructure,
    lap: Laplacian,
    skip: int | None = None,
    ell: int | None = None,
) -> Polynomial:
    """Weighted forest sum over the root sets that leave out slot ``skip``.

    A root set holds one node beta_i of every block i other than ``skip``,
    the bordering node m+1 unless ``skip`` is d+1, and ``ell`` when a slot is
    left out.  Its weight is the product of the entries a[j_i][beta_i].  By
    block confinement each of its forests sends j_i to beta_i, m+1 to itself
    and the left-out slot's node of F (j_k, or m+1 for k = d+1) to ``ell``,
    so its forest sum is one signed minor of ``lap`` (:func:`forest_sum`).
    """
    d, last = blocks.d, blocks.m + 1
    kept = [i for i in range(1, d + 1) if i != skip]
    total = Polynomial.zero()
    for picks in itertools.product(*(blocks.block_nodes(i) for i in kept)):
        w = Polynomial.one()
        images = {} if skip == d + 1 else {last: last}
        for i, beta in zip(kept, picks):
            w = w * system.a[blocks.j[i - 1] - 1][beta - 1]
            images[blocks.j[i - 1]] = beta
        if w.is_zero():
            continue
        if skip is not None:
            images[blocks.j[skip - 1] if skip <= d else last] = ell
        total = total + w * forest_sum(lap, images)
    return total


def solve_block(
    system: LinearSystem, blocks: BlockStructure, witness: ACompatibleWitness
) -> Solution:
    """Solve via the double sum of forest products over per-block root sets.

    Numerator of x_l: over every block k (and the bordering pseudo-block),
    minus the distinguished constant times the forest sums rooted at a root
    set avoiding block k with l adjoined, weighted by the distinguished-row
    entries picked by the root set.  Denominator: the same weighted sum over
    full root sets, (-1)^(m-d) det(A).  No edge leaves a block for
    another block, nor the tail for a block, so a family is empty, and is
    skipped, when l lies in a block other than k, or when k is the bordering
    slot and l is not in the tail.
    """
    den = _family_sum(system, blocks, witness.laplacian)
    d = blocks.d
    nums = []
    for ell in range(1, system.m + 1):
        home = blocks.block_of(ell)
        num = Polynomial.zero()
        for k in range(1, d + 2):
            if home not in (0, k):
                continue
            minus_b = (
                -system.b[blocks.j[k - 1] - 1] if k <= d else Polynomial.one()
            )
            if minus_b.is_zero():
                continue
            num = num + minus_b * _family_sum(
                system, blocks, witness.laplacian, k, ell
            )
        nums.append(num)
    return Solution(tuple(nums), den)


# ---------------------------------------------------------------------------
# sign certification


def check_condition_star(
    graph: Multidigraph, blocks: BlockStructure
) -> tuple[bool, tuple[int, int, int] | None]:
    """Negative edges must be unreachable between distinguished rows and variables.

    Fails when some distinguished row reaches the source of a negative edge
    and its target reaches some variable node, all avoiding the bordering
    node; returns the witnessing (block index, variable, edge id).
    """
    last = blocks.m + 1
    for e in sorted(graph.edges, key=lambda e: e.eid):
        sign = poly_sign(e.label)
        if sign == Sign.MIXED:
            raise ValueError(f"edge {e.eid} has a mixed-sign label")
        if sign != Sign.NONPOS:
            continue
        if e.source == last or e.target == last:
            continue
        for i in range(1, blocks.d + 1):
            if not reaches_avoiding(graph, blocks.j[i - 1], e.source, last):
                continue
            for ell in range(1, blocks.m + 1):
                if reaches_avoiding(graph, e.target, ell, last):
                    return False, (i, ell, e.eid)
    return True, None


def zero_components(
    witness: PGraphWitness, blocks: BlockStructure
) -> frozenset[int]:
    """Variables in leading blocks forced to zero by a reachable negative edge.

    A block variable that reaches the source of a negative edge without
    touching the bordering node has a vanishing solution component.
    """
    graph = witness.graph
    last = blocks.m + 1
    neg_sources = {
        e.source
        for e in graph.edges
        if poly_sign(e.label) == Sign.NONPOS
        and e.source != last
        and e.target != last
    }
    out = set()
    for ell in range(1, blocks.m - blocks.m0 + 1):
        if any(reaches_avoiding(graph, ell, s, last) for s in sorted(neg_sources)):
            out.add(ell)
    return frozenset(out)


def _fill_options(
    remainder: Polynomial, diagonal: bool
) -> list[tuple[Polynomial, Polynomial]]:
    """All monomial splits of -remainder between the two free rows, default first."""
    default = _default_fill(remainder, diagonal)
    if remainder.is_zero():
        return [default]
    monos = monomial_split(-remainder)
    options = [default]
    for mask in range(1 << len(monos)):
        f = Polynomial.zero()
        g = Polynomial.zero()
        for idx, mono in enumerate(monos):
            if mask >> idx & 1:
                f = f + mono
            else:
                g = g + mono
        if (f, g) != default:
            options.append((f, g))
    return options


def _candidate_matrices(
    system: LinearSystem, blocks: BlockStructure, budget: int
) -> Iterator[Laplacian]:
    """Realizable bordered matrices, default fill first, then nearby variants."""
    cols = []
    for k in range(1, blocks.d + 1):
        jk = blocks.j[k - 1]
        cols.extend((col, col == jk) for col in blocks.block_nodes(k))
    per_col = [
        _fill_options(_column_remainder(system, blocks, col), diag)
        for col, diag in cols
    ]
    emitted = 0
    for changes in range(len(cols) + 1):
        if emitted >= budget:
            return
        for which in itertools.combinations(range(len(cols)), changes):
            alt_pools = [
                per_col[i][1:] if i in which else [per_col[i][0]]
                for i in range(len(cols))
            ]
            for combo in itertools.product(*alt_pools):
                if emitted >= budget:
                    return
                fills = {cols[i][0]: combo[i] for i in range(len(cols))}
                emitted += 1
                yield _assemble(system, blocks, fills)


def certify_block_nonneg(
    system: LinearSystem, blocks: BlockStructure, budget: int = 64
) -> tuple[Solution, PGraphWitness] | None:
    """Certify nonnegativity of the block solution.

    Requires nonnegative distinguished rows and nonpositive distinguished
    constants.  Tries realizable bordered matrices (heuristic fill first, up
    to ``budget`` variants), looking for a certificate graph that also passes
    the negative-edge reachability condition; on success the solution is
    computed and its numerators/denominators verified nonnegative.
    """
    problems = validate_block_form(system, blocks)
    if problems:
        raise ValueError("; ".join(problems))
    hypothesis: list[str] = []
    for i, ji in enumerate(blocks.j):
        for c in range(1, system.m + 1):
            if not is_nonneg(system.a[ji - 1][c - 1]):
                hypothesis.append(f"row {ji} of the matrix is not nonnegative")
                break
        if not is_nonpos(system.b[ji - 1]):
            hypothesis.append(f"constant {ji} is not nonpositive")
    if hypothesis:
        raise BlockHypothesisError(hypothesis)

    for attempt, lap in enumerate(_candidate_matrices(system, blocks, budget)):
        found = find_pgraph(lap)
        if found is None:
            log.info("candidate %d: no certificate graph", attempt)
            continue
        graph, mu = found
        if validate_acompatible(graph, blocks, system):
            continue
        star_ok, star_witness = check_condition_star(graph, blocks)
        if not star_ok:
            log.info(
                "candidate %d: reachability condition fails at %s",
                attempt,
                star_witness,
            )
            continue
        witness = is_pgraph(graph, mu)
        if witness is None:
            raise AssertionError("search returned an invalid certificate")
        solution = solve_block(system, blocks, ACompatibleWitness(graph, lap))
        if not all(map(is_nonneg, solution.numerators + (solution.denominator,))):
            raise AssertionError("certified component has mixed signs")
        return solution, witness
    return None
