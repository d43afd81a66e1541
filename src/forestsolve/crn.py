"""Mass-action reaction networks and positive steady-state parameterizations.

Networks are parsed from a one-reaction-per-line text format; the mass-action
differential equations and the integer conservation laws follow from the
stoichiometric matrix.  A task names its unknowns and the conservation
relations that replace some of their equations; every other species is a
parameter, and its equation is left out.  Each unknown keeps one equation,
so the system is square, and each conservation relation makes one block of
the unknowns it conserves.  The block certification machinery then turns
the system into a certified positive parameterization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .blocksys import (
    BlockHypothesisError,
    BlockStructure,
    certify_block_nonneg,
    validate_block_form,
    zero_components,
)
from .linsys import LinearSystem, SingularSystemError
from .pgraph import PGraphWitness
from .symring import InputError, Polynomial, RationalExpr, monomial_split, poly_sum, sum_products

_ARROW_REV = "<->"
_ARROW_FWD = "->"


class NetworkParseError(InputError):
    """Malformed network text; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NonlinearSystemError(InputError):
    """A retained equation is not linear in the chosen unknowns."""


@dataclass(frozen=True)
class Reaction:
    """One reaction: integer multisets of species and a rate symbol."""

    reactants: tuple[tuple[str, int], ...]
    products: tuple[tuple[str, int], ...]
    rate: str

    def __post_init__(self):
        if dict(self.reactants) == dict(self.products):
            raise InputError("reactants and products coincide")


@dataclass(frozen=True)
class Network:
    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        declared = set(self.species)
        for r in self.reactions:
            for name, _ in r.reactants + r.products:
                if name not in declared:
                    raise InputError(f"species {name} is not declared")

    def species_index(self, name: str) -> int:
        return self.species.index(name)


def _parse_side(
    text: str, line_no: int, col_base: int
) -> tuple[tuple[str, int], ...]:
    if text.strip() == "0":  # the empty complex (inflow/outflow)
        return ()
    counts: dict[str, int] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise NetworkParseError("empty species term", line_no, col_base)
        parts = chunk.replace("*", " ").split()
        if len(parts) == 1:
            coeff, name = 1, parts[0]
        elif len(parts) == 2 and parts[0].isdigit():
            coeff, name = int(parts[0]), parts[1]
        else:
            raise NetworkParseError(
                f"cannot read species term {chunk!r}", line_no, col_base
            )
        if not name[0].isalpha():
            raise NetworkParseError(
                f"bad species name {name!r}", line_no, col_base
            )
        counts[name] = counts.get(name, 0) + coeff
    return tuple(sorted(counts.items()))


def parse_network(text: str) -> Network:
    """Parse reactions like ``A + 2 B -> C ; k1`` (``<->`` takes two rates).

    ``#`` starts a comment.  Species are collected in first-appearance order
    unless a ``species: a, b, c`` line declares the order up front.
    """
    species: list[str] = []
    reactions: list[Reaction] = []

    def note_species(side: tuple[tuple[str, int], ...], order_text: str) -> None:
        # first-appearance order follows the raw text, not the sorted tuple
        if order_text.strip() != "0":
            for chunk in order_text.split("+"):
                parts = chunk.replace("*", " ").split()
                if parts and parts[-1] not in species:
                    species.append(parts[-1])
        for name, _ in side:
            if name not in species:
                species.append(name)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("species:"):
            for name in line[len("species:"):].replace(",", " ").split():
                if name not in species:
                    species.append(name)
            continue
        if ";" not in line:
            raise NetworkParseError("missing ';' before rate", line_no, len(raw))
        body, rates_text = line.split(";", 1)
        reversible = _ARROW_REV in body
        arrow = _ARROW_REV if reversible else _ARROW_FWD
        if arrow not in body:
            raise NetworkParseError("missing reaction arrow", line_no, 1)
        lhs_text, rhs_text = body.split(arrow, 1)
        lhs = _parse_side(lhs_text, line_no, 1)
        rhs = _parse_side(rhs_text, line_no, body.index(arrow) + len(arrow))
        rates = [r.strip() for r in rates_text.split(",")]
        expected = 2 if reversible else 1
        if len(rates) != expected or any(not r for r in rates):
            raise NetworkParseError(
                f"expected {expected} rate symbol(s)", line_no, len(body) + 1
            )
        for rate in rates:
            if not (rate[0].isalpha() and rate.replace("_", "").isalnum()):
                raise NetworkParseError(
                    f"bad rate symbol {rate!r}", line_no, len(body) + 1
                )
        note_species(lhs, lhs_text)
        note_species(rhs, rhs_text)
        reactions.append(Reaction(lhs, rhs, rates[0]))
        if reversible:
            reactions.append(Reaction(rhs, lhs, rates[1]))
    return Network(tuple(species), tuple(reactions))


def stoichiometric_matrix(net: Network) -> list[list[int]]:
    """Species-by-reaction matrix of net stoichiometric changes."""
    n = [[0] * len(net.reactions) for _ in net.species]
    for r_idx, reaction in enumerate(net.reactions):
        for name, coeff in reaction.reactants:
            n[net.species_index(name)][r_idx] -= coeff
        for name, coeff in reaction.products:
            n[net.species_index(name)][r_idx] += coeff
    return n


def mass_action_odes(net: Network) -> list[Polynomial]:
    """Right-hand sides of the concentration equations, one per species.

    Each reaction contributes its rate symbol times the product of reactant
    concentrations (with multiplicity), weighted by the net stoichiometry.
    """
    velocities = []
    for reaction in net.reactions:
        velocity = Polynomial.variable(reaction.rate)
        for name, coeff in reaction.reactants:
            velocity = velocity * Polynomial.variable(name) ** coeff
        velocities.append(velocity)
    return [
        sum_products((Polynomial.constant(c), v) for c, v in zip(row, velocities) if c)
        for row in stoichiometric_matrix(net)
    ]


def conservation_laws(net: Network) -> list[list[int]]:
    """Integer basis of the left kernel of the stoichiometric matrix.

    Rows are normalized to coprime integers with positive leading entry and
    come out in reduced-echelon order, so the output is deterministic.
    """
    matrix = stoichiometric_matrix(net)
    n_species = len(net.species)
    # kernel of the transpose, over the rationals
    rows, pivots = _row_reduce(
        [Fraction(matrix[s][r]) for s in range(n_species)]
        for r in range(len(net.reactions))
    )
    basis: list[list[int]] = []
    free = [c for c in range(n_species) if c not in pivots]
    for c in free:
        vec = [Fraction(0)] * n_species
        vec[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][c]
        # No gcd pass: entry c scales to the lcm, and for each prime power
        # p^k of the lcm, the entry whose denominator holds p^k scales to a
        # value prime to p, so the integer vector is already primitive.
        lcm = math.lcm(*(v.denominator for v in vec))
        ints = [int(v * lcm) for v in vec]
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(ints)
    return basis


def _row_reduce(
    rows: Iterable[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form over the rationals, and its pivot columns.

    The rank is the number of pivots; the input rows are not modified.
    """
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        # only the pivot row's nonzero entries are scaled and eliminated with
        nonzero = [c for c, v in enumerate(prow) if v]
        pv = prow[col]
        for c in nonzero:
            prow[c] /= pv
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                for c in nonzero:
                    row[c] -= f * prow[c]
        pivots.append(col)
    return rows, pivots


# ---------------------------------------------------------------------------
# assembling the steady-state linear system


@dataclass(frozen=True)
class ConservationUse:
    """Replace the equation of one unknown by a conservation relation."""

    replaces_row: int  # 1-based species index of the replaced equation
    law_index: int  # 1-based index into conservation_laws(net)
    total: str  # symbol for the conserved total


@dataclass(frozen=True)
class SteadyStateTask:
    """The unknowns and the conservation relations that replace some of
    their equations; every other species is a parameter, and its row is left
    out.

    ``parameters`` and ``drop`` (1-based species rows) restate those derived
    values.  Empty means derived, and a given value must equal the derived
    one.  They remain only because the benchmark's worker passes them, and
    go when that worker next changes.
    """

    solve_for: tuple[str, ...]
    parameters: tuple[str, ...] = ()
    conservation: tuple[ConservationUse, ...] = ()
    drop: tuple[int, ...] = ()


@dataclass(frozen=True)
class ParameterizationReport:
    certified: bool
    system: LinearSystem
    blocks: BlockStructure
    solution: dict[str, RationalExpr] | None
    witness: PGraphWitness | None
    zero_set: frozenset[int]
    diagnostics: tuple[str, ...]


def _linear_row(
    poly: Polynomial, solve_for: Sequence[str]
) -> tuple[list[Polynomial], Polynomial]:
    """Split a polynomial into coefficients of the unknowns and the rest."""
    unknown = set(solve_for)
    coeffs: dict[str, list[Polynomial]] = {name: [] for name in solve_for}
    constant: list[Polynomial] = []
    for mono in monomial_split(poly) if poly else ():
        exps, coeff = mono.terms[0]
        hits = [(name, e) for name, e in exps if name in unknown]
        degree = sum(e for _, e in hits)
        if degree > 1:
            raise NonlinearSystemError(
                f"monomial {mono} is not linear in the unknowns"
            )
        if degree == 0:
            constant.append(mono)
        else:
            name = hits[0][0]
            rest = tuple((n, e) for n, e in exps if n != name)
            coeffs[name].append(Polynomial({rest: coeff}))
    return [poly_sum(coeffs[n]) for n in solve_for], poly_sum(constant)


def build_steady_system(
    net: Network, task: SteadyStateTask, odes: Sequence[Polynomial]
) -> tuple[LinearSystem, BlockStructure]:
    """Square steady-state system in the chosen unknowns, and its law blocks.

    Row i is the equation of unknown i: the equilibrium equation of its
    species, or the conservation relation that replaces that row.  Each
    conservation relation makes one block, the unknowns in its law's support
    with the replaced row distinguished; the other unknowns are the tail.
    Unknowns are laid out block by block, in ``solve_for`` order within
    each.  ``odes`` are the network's :func:`mass_action_odes`.
    """
    unknowns = task.solve_for
    for name in unknowns:
        if name not in net.species:
            raise InputError(f"unknown {name!r} is not a species")
        if unknowns.count(name) > 1:
            raise InputError(f"unknown {name} is listed twice")
    parameters = tuple(s for s in net.species if s not in unknowns)
    rows_out = tuple(net.species_index(s) + 1 for s in parameters)
    if task.parameters not in ((), parameters) or task.drop not in ((), rows_out):
        raise InputError(f"the parameters are {parameters}; their rows {rows_out} are left out")
    laws = conservation_laws(net)
    equations = {u: odes[net.species_index(u)] for u in unknowns}
    groups: list[list[str]] = []
    j: list[int] = []
    for use in task.conservation:
        if not (1 <= use.law_index <= len(laws)):
            raise InputError(
                f"conservation law {use.law_index} does not exist "
                f"({len(laws)} available)"
            )
        law = laws[use.law_index - 1]
        members = [u for u in unknowns if law[net.species_index(u)]]
        row = use.replaces_row
        replaced = net.species[row - 1] if 1 <= row <= len(net.species) else None
        if replaced not in members:
            raise InputError(
                f"conservation law {use.law_index} replaces row {row}, "
                "which is not the row of an unknown it conserves"
            )
        shared = [u for group in groups for u in group if u in members]
        if shared:
            raise InputError(f"two conservation laws share the unknown {shared[0]}")
        equations[replaced] = poly_sum(
            [c * Polynomial.variable(x) for c, x in zip(law, net.species) if c]
            + [-Polynomial.variable(use.total)]
        )
        j.append(sum(map(len, groups)) + members.index(replaced) + 1)
        groups.append(members)
    tail = [u for u in unknowns if not any(u in group for group in groups)]
    order = [u for group in groups for u in group] + tail
    rows = [_linear_row(equations[u], order) for u in order]
    system = LinearSystem.build(order, [a for a, _ in rows], [b for _, b in rows])
    return system, BlockStructure(tuple(map(len, groups)), len(tail), tuple(j))


_DROP_TRIALS = 5
_DROP_SEED = 0


def validate_dropped_rows(
    net: Network, odes: Sequence[Polynomial], system: LinearSystem
) -> list[str]:
    """Sanity check that the left-out equations are implied by the system's.

    ``odes`` are the network's :func:`mass_action_odes` and ``system`` is a
    steady-state system (:func:`build_steady_system`); the rows of the
    species that are not its unknowns were left out.  They must lie in the
    rational row span of its rows (with constants).  Checked at
    ``_DROP_TRIALS`` random positive instantiations of all symbols, drawn
    from a fixed seed; a pragmatic surrogate for symbolic dependence.  The
    system's rows are reduced once per point; a left-out row is independent
    iff its residual against them is nonzero.
    """
    dropped_rows = []
    for s, name in enumerate(net.species, 1):
        if name in system.variables:
            continue
        try:
            coeffs, constant = _linear_row(odes[s - 1], system.variables)
        except NonlinearSystemError as exc:
            return [f"dropped row {s}: {exc}"]
        dropped_rows.append((s, coeffs + [constant]))
    if not dropped_rows:
        return []
    retained = [
        list(system.a[r]) + [system.b[r]] for r in range(system.m)
    ]
    symbols = set()
    for row in retained + [row for _, row in dropped_rows]:
        for p in row:
            symbols.update(p.variables())
    rng = random.Random(_DROP_SEED)
    problems = []
    for _ in range(_DROP_TRIALS):
        point = {name: Fraction(rng.randint(1, 1000), rng.randint(1, 50)) for name in sorted(symbols)}
        echelon, pivots = _row_reduce([p.evaluate(point) for p in row] for row in retained)
        for s, row in dropped_rows:
            residual = [p.evaluate(point) for p in row]
            for erow, col in zip(echelon, pivots):
                f = residual[col]
                if f:
                    residual = [a - f * b for a, b in zip(residual, erow)]
            if any(residual):
                problems.append(
                    f"dropped row {s} is independent of the retained rows"
                )
        if problems:
            break
    return problems


def parameterize(
    net: Network,
    task: SteadyStateTask,
    blocks: BlockStructure | None = None,
) -> ParameterizationReport:
    """Certified steady-state parameterization of the unknown concentrations.

    Builds the linear system, validates the left-out rows, and runs the
    block certification on ``blocks`` (the law blocks when None), which
    tries the one column-sum realization; the report carries either the
    certified expressions (one per unknown, in the rates, parameters, and
    totals) or diagnostics.  Blocks the system is not in the block form of
    are a refusal, with the violations as diagnostics.
    """
    odes = mass_action_odes(net)
    system, law_blocks = build_steady_system(net, task, odes)
    if blocks is None:
        blocks = law_blocks
    diagnostics = tuple(validate_dropped_rows(net, odes, system))

    def refusal(*reasons: str) -> ParameterizationReport:
        return ParameterizationReport(
            False, system, blocks, None, None, frozenset(), diagnostics + reasons
        )

    problems = validate_block_form(system, blocks)
    if problems:
        return refusal(*(f"not in block form: {p}" for p in problems))
    try:
        outcome = certify_block_nonneg(system, blocks)
    except BlockHypothesisError as exc:
        return refusal(*(f"hypothesis failed: {p}" for p in exc.problems))
    except SingularSystemError as exc:
        return refusal(f"singular system: {exc}")
    if outcome is None:
        return refusal("no certificate graph found")
    solution, witness = outcome
    zero_set = zero_components(witness, blocks)
    named = dict(zip(system.variables, solution.components))
    return ParameterizationReport(
        True, system, blocks, named, witness, zero_set, diagnostics
    )
