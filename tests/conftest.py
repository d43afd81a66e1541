"""Shared fixtures: golden systems, brute-force oracles, random generators."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import settings

from forestsolve import (
    BlockStructure,
    ConservationUse,
    LinearSystem,
    Multidigraph,
    Polynomial,
    Sign,
    Solution,
    SteadyStateTask,
    build_steady_system,
    conservation_laws,
    is_pgraph,
    mass_action_odes,
    parse_network,
    parse_poly,
    poly_sign,
)

# The same examples on every run, and no example database on disk.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

P = parse_poly
C = Polynomial.constant


def zvar(i: int) -> Polynomial:
    return Polynomial.variable(f"z{i}")


ZERO = Polynomial.zero()


@pytest.fixture
def three_var_system() -> LinearSystem:
    """The 4-node running example: two negative columns, one split entry."""
    a = [
        [-zvar(2), ZERO, zvar(4)],
        [-zvar(1), -zvar(3), ZERO],
        [-zvar(2), zvar(3), -zvar(4)],
    ]
    b = [ZERO, zvar(5), ZERO]
    return LinearSystem.build(["x1", "x2", "x3"], a, b)


@pytest.fixture
def block_three_system() -> tuple[LinearSystem, BlockStructure]:
    """One 2x2 block plus one trailing row; nonnegative distinguished row."""
    a = [
        [-zvar(2), zvar(3), ZERO],
        [C(1), C(1), ZERO],
        [ZERO, zvar(3), -zvar(4)],
    ]
    b = [ZERO, -zvar(1), zvar(5)]
    system = LinearSystem.build(["x1", "x2", "x3"], a, b)
    return system, BlockStructure((2,), 1, (2,))


@pytest.fixture
def five_var_system() -> tuple[LinearSystem, BlockStructure]:
    a = [
        [-zvar(1), zvar(2), ZERO, ZERO, ZERO],
        [C(1), C(1), ZERO, ZERO, ZERO],
        [ZERO, zvar(2), -zvar(3) - zvar(4), zvar(5), ZERO],
        [ZERO, ZERO, zvar(3), -zvar(5), ZERO],
        [ZERO, ZERO, zvar(3), zvar(5), -zvar(6)],
    ]
    b = [ZERO, -zvar(7), zvar(8), ZERO, zvar(9)]
    system = LinearSystem.build(["x1", "x2", "x3", "x4", "x5"], a, b)
    return system, BlockStructure((2,), 3, (2,))


CRN_TEXT = """\
# two catalytic cycles sharing an exchange species, plus interconversions
species: x1, x2, x3, x4, x5, x6
x1 + x5 <-> x3 ; k1, k2
x3 -> x1 + x6 ; k3
x2 + x5 <-> x4 ; k4, k5
x4 -> x2 + x6 ; k6
x6 -> x5 ; k7
x1 <-> x2 ; k8, k9
x3 <-> x4 ; k10, k11
"""


@pytest.fixture
def crn_text() -> str:
    return CRN_TEXT


@pytest.fixture
def mmatrix_system() -> LinearSystem:
    """Nonnegative solution but provably no certificate graph."""
    a = [[C(-4), C(2)], [C(1), C(-1)]]
    return LinearSystem.build(["x1", "x2"], a, [C(1), C(1)])


def over_common_denominator(components) -> Solution:
    """Reduced components brought back over one denominator.

    D is the product of the distinct denominators and N_i is x_i's numerator
    times the other distinct denominators, so no polynomial division is needed.
    """
    dens: list[Polynomial] = []
    for comp in components:
        if comp.denominator not in dens:
            dens.append(comp.denominator)

    def product(polys) -> Polynomial:
        out = Polynomial.one()
        for p in polys:
            out = out * p
        return out

    return Solution(
        tuple(
            comp.numerator * product(d for d in dens if d != comp.denominator)
            for comp in components
        ),
        product(dens),
    )


def nsite_text(n: int) -> str:
    """Sequential n-site phosphorylation with kinase E and phosphatase F."""
    unknowns = ["E"] + [f"ES{i}" for i in range(n)] + ["F"] + [f"FS{i}" for i in range(1, n + 1)]
    substrates = [f"S{i}" for i in range(n + 1)]
    lines = ["species: " + ", ".join(unknowns + substrates)]
    for i in range(n):
        lines.append(f"S{i} + E <-> ES{i} ; a{i}, b{i}")
        lines.append(f"ES{i} -> S{i + 1} + E ; c{i}")
    for i in range(1, n + 1):
        lines.append(f"S{i} + F <-> FS{i} ; d{i}, e{i}")
        lines.append(f"FS{i} -> S{i - 1} + F ; f{i}")
    return "\n".join(lines) + "\n"


def nsite_network_and_task(n: int):
    """The network of :func:`nsite_text` and its parameterization task.

    The unknowns are E, ES0..ES(n-1), F, FS1..FSn, so the substrates S0..Sn
    are the parameters and their rows are left out; the two enzyme totals
    replace rows E and F.
    """
    unknowns = ["E"] + [f"ES{i}" for i in range(n)] + ["F"] + [f"FS{i}" for i in range(1, n + 1)]
    net = parse_network(nsite_text(n))
    laws = conservation_laws(net)
    e_law = [int(s == "E" or s.startswith("ES")) for s in net.species]
    f_law = [int(s == "F" or s.startswith("FS")) for s in net.species]
    task = SteadyStateTask(
        solve_for=tuple(unknowns),
        conservation=(
            ConservationUse(1, laws.index(e_law) + 1, "Etot"),
            ConservationUse(n + 2, laws.index(f_law) + 1, "Ftot"),
        ),
    )
    return net, task


def nsite_steady_system(n: int):
    """The n-site task's steady-state system and its law blocks."""
    net, task = nsite_network_and_task(n)
    return build_steady_system(net, task, mass_action_odes(net))


def nsite_crn_param_argv(path, n: int) -> list[str]:
    """``crn-param`` arguments for the n-site task: the unknowns and the two
    enzyme laws; the network text is written to ``path``."""
    _, task = nsite_network_and_task(n)
    path.write_text(nsite_text(n))
    argv = ["crn-param", "--input", str(path), "--solve-for", ",".join(task.solve_for)]
    for use in task.conservation:
        argv += ["--conserve", f"{use.law_index}:{use.total}:{use.replaces_row}"]
    return argv


def nsite_closed_form(n: int, point: dict) -> dict:
    """Steady state of the n-site network, each enzyme split in proportion:
    ES_i = a_i S_i E / (b_i + c_i) and E + sum ES_i = Etot, so
    E = Etot / (1 + sum a_i S_i / (b_i + c_i)); likewise F and FS_i."""
    p = point
    es = {f"ES{i}": p[f"a{i}"] * p[f"S{i}"] / (p[f"b{i}"] + p[f"c{i}"]) for i in range(n)}
    fs = {
        f"FS{i}": p[f"d{i}"] * p[f"S{i}"] / (p[f"e{i}"] + p[f"f{i}"])
        for i in range(1, n + 1)
    }
    e = p["Etot"] / (1 + sum(es.values()))
    f = p["Ftot"] / (1 + sum(fs.values()))
    return {"E": e, "F": f, **{k: v * e for k, v in es.items()}, **{k: v * f for k, v in fs.items()}}


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_force_rooted_forests(
    graph: Multidigraph, roots: tuple[int, ...]
) -> set[frozenset[int]]:
    """All spanning forests rooted at ``roots`` by filtering edge subsets."""
    edges = list(graph.edges)
    root_set = set(roots)
    out: set[frozenset[int]] = set()
    for mask in range(1 << len(edges)):
        subset = [edges[k] for k in range(len(edges)) if mask >> k & 1]
        outdeg = {n: 0 for n in graph.nodes}
        succ = {}
        for e in subset:
            outdeg[e.source] += 1
            succ[e.source] = e.target
        if any(outdeg[n] != (0 if n in root_set else 1) for n in graph.nodes):
            continue
        acyclic = True
        for start in graph.nodes:
            seen = set()
            u = start
            while u in succ:
                if u in seen:
                    acyclic = False
                    break
                seen.add(u)
                u = succ[u]
            if not acyclic:
                break
        if acyclic:
            out.add(frozenset(e.eid for e in subset))
    return out


def brute_force_grouping(graph: Multidigraph) -> dict[int, set[int]] | None:
    """The first grouping that makes ``graph`` a certificate, or None.

    Each positive edge joins one negative edge of its source or none, so
    every disjoint same-source grouping is tried; :func:`is_pgraph` decides.
    """
    negatives = [e for e in graph.edges if poly_sign(e.label) == Sign.NONPOS]
    positives = [e for e in graph.edges if poly_sign(e.label) == Sign.NONNEG]
    owners = [[None] + [n.eid for n in negatives if n.source == p.source] for p in positives]
    for choice in itertools.product(*owners):
        mu = {n.eid: {p.eid for p, o in zip(positives, choice) if o == n.eid} for n in negatives}
        if is_pgraph(graph, mu) is not None:
            return mu
    return None


def brute_force_cycles(graph: Multidigraph) -> set[frozenset[int]]:
    """All simple directed cycles as edge-id sets, by subset filtering."""
    edges = list(graph.edges)
    out: set[frozenset[int]] = set()
    for mask in range(1, 1 << len(edges)):
        subset = [edges[k] for k in range(len(edges)) if mask >> k & 1]
        succ = {}
        ok = True
        for e in subset:
            if e.source in succ:
                ok = False
                break
            succ[e.source] = e
        if not ok or len(succ) != len(subset):
            continue
        start = subset[0].source
        u = start
        used = 0
        while True:
            if u not in succ:
                ok = False
                break
            u = succ[u].target
            used += 1
            if u == start:
                break
            if used > len(subset):
                ok = False
                break
        if ok and used == len(subset):
            out.add(frozenset(e.eid for e in subset))
    return out


# ---------------------------------------------------------------------------
# random instances


def random_polynomial(rng: random.Random, names=("z1", "z2", "z3"), terms=3) -> Polynomial:
    total = Polynomial.zero()
    for _ in range(rng.randint(0, terms)):
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        mono = Polynomial.constant(coeff)
        for name in names:
            for _ in range(rng.randint(0, 2)):
                mono = mono * Polynomial.variable(name)
        total = total + mono
    return total


def random_int_system(rng: random.Random, max_m: int = 5) -> LinearSystem:
    """Random nonsingular integer system (entries in [-3, 3])."""
    from forestsolve import cramer_oracle, SingularSystemError

    while True:
        m = rng.randint(1, max_m)
        a = [
            [C(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)
        ]
        b = [C(rng.randint(-3, 3)) for _ in range(m)]
        system = LinearSystem.build([f"x{i}" for i in range(1, m + 1)], a, b)
        try:
            cramer_oracle(system)
        except SingularSystemError:
            continue
        return system


def random_block_system(
    rng: random.Random, max_m: int = 6, max_d: int = 2
) -> tuple[LinearSystem, BlockStructure]:
    """Random nonsingular block system with integer entries."""
    from forestsolve import choose_j, cramer_oracle, SingularSystemError

    while True:
        d = rng.randint(0, max_d)
        sizes = [rng.randint(1, 2) for _ in range(d)]
        m0 = rng.randint(1, max(1, max_m - sum(sizes)))
        m = sum(sizes) + m0
        if m > max_m:
            continue
        a = [[ZERO] * m for _ in range(m)]
        b = [ZERO] * m
        start = 1
        block_rows = []
        for size in sizes:
            block_rows.append((start, size))
            for r in range(start, start + size):
                for c in range(start, start + size):
                    a[r - 1][c - 1] = C(rng.randint(-3, 3))
            start += size
        for r in range(m - m0 + 1, m + 1):
            for c in range(1, m + 1):
                a[r - 1][c - 1] = C(rng.randint(-3, 3))
            b[r - 1] = C(rng.randint(-3, 3))
        for lo, size in block_rows:
            row = rng.randrange(lo, lo + size)
            if rng.random() < 0.8:
                b[row - 1] = C(rng.choice([-3, -2, -1, 1, 2, 3]))
        system = LinearSystem.build([f"x{i}" for i in range(1, m + 1)], a, b)
        try:
            cramer_oracle(system)
        except SingularSystemError:
            continue
        try:
            j = choose_j(system, sizes, m0)
        except ValueError:
            continue
        return system, BlockStructure(tuple(sizes), m0, j)


def biased_block_system(rng: random.Random) -> tuple[LinearSystem, BlockStructure]:
    """A block system with m <= 4 that meets the sign hypotheses.

    Each distinguished row is nonnegative with a nonpositive constant, like
    a conservation law; the other rows have a negative diagonal and mostly
    nonnegative entries elsewhere, so certificates, refusals and failures
    of condition (*) all occur.
    """
    sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
    m0 = rng.randint(0 if len(sizes) > 1 else 1, max(0, 4 - sum(sizes)))
    m = sum(sizes) + m0
    a = [[Polynomial.zero()] * m for _ in range(m)]
    b = [Polynomial.zero()] * m
    spans, j, start = [], [], 0
    for size in sizes:
        spans.append(range(start, start + size))
        j.append(rng.randrange(start, start + size) + 1)
        start += size
    spans.append(range(start, m))  # the tail, whose rows may use every column
    for k, rows in enumerate(spans):
        cols = rows if k < len(sizes) else range(m)
        for r in rows:
            for c in cols:
                if r + 1 in j:
                    value = rng.randint(1 if c == r else 0, 2)
                elif c == r:
                    value = -rng.randint(1, 3)
                else:
                    value = rng.choice((0, 0, 1, 2, -1, -2))
                a[r][c] = Polynomial.constant(value)
            if r + 1 in j:
                b[r] = Polynomial.constant(-rng.randint(0, 2))
            elif k == len(sizes):
                b[r] = Polynomial.constant(rng.choice((0, 1, -1, 2)))
    names = [f"x{i}" for i in range(1, m + 1)]
    return LinearSystem.build(names, a, b), BlockStructure(tuple(sizes), m0, tuple(j))


def root_sets(blocks: BlockStructure, skip: int | None = None) -> list[tuple[int, ...]]:
    """Root sets drawing one node per block (plus m+1), lexicographic order.

    ``skip`` omits one block (1..d) or the bordering singleton (d+1).
    """
    pools = [list(blocks.block_nodes(i)) for i in range(1, blocks.d + 1)]
    pools.append([blocks.m + 1])
    if skip is not None:
        pools = pools[: skip - 1] + pools[skip:]
    return [tuple(sorted(combo)) for combo in itertools.product(*pools)]


def system_of_laplacian(lap) -> LinearSystem:
    """The system (A | b) whose bordered matrix is the zero-column-sum ``lap``."""
    m = lap.size - 1
    return LinearSystem.build(
        [f"x{i}" for i in range(1, m + 1)],
        [row[:m] for row in lap.rows[:m]],
        [row[m] for row in lap.rows[:m]],
    )


def random_certificate_cases(rng: random.Random, count: int):
    """Laplacians admitting a certificate graph with at least one negative edge.

    Built by sprinkling cancellable negative mass over positive random graphs
    and keeping the instances the search accepts.
    """
    from forestsolve import (
        Multidigraph,
        bordered_laplacian,
        find_pgraph,
        laplacian_of,
    )
    from forestsolve.symring import Sign, poly_sign

    cases = []
    attempts = 0
    while len(cases) < count and attempts < 400:
        attempts += 1
        n = rng.randint(3, 5)
        triples = []
        for _ in range(rng.randint(2, 7)):
            src = rng.randint(1, n)
            tgt = rng.randint(1, n - 1)
            if tgt >= src:
                tgt += 1
            label = rng.choice(
                [C(1), C(2), zvar(1), zvar(2), 2 * zvar(2), zvar(3)]
            )
            triples.append((src, tgt, label))
        if not triples:
            continue
        for _ in range(rng.randint(1, 2)):
            src, tgt, label = rng.choice(triples)
            other = rng.randint(1, n - 1)
            if other >= src:
                other += 1
            triples.append((src, other, -label))
        graph = Multidigraph.from_edges(n, triples)
        lap = laplacian_of(graph)
        found = find_pgraph(lap)
        if found is None:
            continue
        witness_graph, _ = found
        has_negative = any(
            poly_sign(e.label) == Sign.NONPOS for e in witness_graph.edges
        )
        if has_negative:
            cases.append((lap, found))
    return cases
