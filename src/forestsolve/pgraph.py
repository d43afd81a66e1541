"""Nonnegativity certificates for tree-sum solutions via edge partitions.

A graph with sign-determined edge labels admits a certificate when each
negative edge e can be paired with a disjoint group of positive edges sharing
its source, subject to two cycle conditions: no cycle holds two negative
edges, and every cycle through a grouped positive edge passes the target of
its negative edge.  When every group sum (negative label plus group labels)
is coefficientwise nonnegative, every rooted tree sum of the graph is a
nonnegative polynomial, so all solution components of the associated linear
system are quotients of nonnegative elements.  :func:`validate_partition`
checks both cycle conditions of a given grouping on the graph's arcs: node
cycles for the first, reachability for the second.

The one search for such a graph, :func:`find_pgraph`, realizes a given
bordered matrix at monomial granularity: each matrix entry is split into its
monomials, negative parallel monomials are merged, and the cancellation of
negative monomial mass by compatible positive monomial edges is solved exactly
as a small transportation problem (splitting a positive edge between groups
when needed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .forests import Forest, enumerate_rooted_forests, forest_from_edges
from .linsys import LinearSystem, Solution
from .multigraph import (
    Laplacian,
    Multidigraph,
    canonical_graph,
    node_cycles,
    reaches_avoiding,
)
from .symring import (
    Polynomial,
    Sign,
    is_nonneg,
    monomial_split,
    poly_sign,
    poly_sum,
)


@dataclass(frozen=True)
class Violation:
    """One failed partition condition with the edges (or cycle) witnessing it."""

    condition: str
    message: str
    edge_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class PGraphWitness:
    """A validated certificate: a graph with sign-determined labels, the
    negative-to-positive edge grouping mu, and the per-group label sums."""

    graph: Multidigraph
    mu: Mapping[int, frozenset[int]]
    group_sums: Mapping[int, Polynomial]


def _normalize_mu(
    graph: Multidigraph, mu: Mapping[int, Iterable[int]]
) -> dict[int, frozenset[int]]:
    full = {int(k): frozenset(v) for k, v in mu.items()}
    for e in graph.edges:
        if poly_sign(e.label) == Sign.NONPOS and e.eid not in full:
            full[e.eid] = frozenset()
    return full


def validate_partition(
    graph: Multidigraph, mu: Mapping[int, Iterable[int]]
) -> list[Violation]:
    """Check the edge-partition conditions; empty result means valid.

    Conditions: (i) every label strictly positive or strictly negative;
    (ii) every cycle holds at most one negative edge; (iii a) grouped edges
    share the source of their negative edge; (iii b) every cycle through a
    grouped edge passes the negative edge's target; (iii c) groups are
    pairwise disjoint.  The map may omit negative edges (empty group).

    Both cycle conditions are read on arcs, not on edge-level cycles: a
    simple cycle uses each arc once, so (ii) fails on a node cycle along
    two arcs that carry negative edges, and (iii b) fails for a grouped
    edge s -> u when u reaches s in the graph without the target.  Each
    violating node cycle gives one (ii) violation listing its negative
    edges; a (iii b) violation lists the negative and the grouped edge.
    """
    violations: list[Violation] = []
    signs = {e.eid: poly_sign(e.label) for e in graph.edges}
    for e in sorted(graph.edges, key=lambda e: e.eid):
        if signs[e.eid] == Sign.MIXED:
            violations.append(
                Violation("i", f"edge {e.eid} has a mixed-sign label", (e.eid,))
            )
    negatives = {eid for eid, s in signs.items() if s == Sign.NONPOS}
    positives = {eid for eid, s in signs.items() if s == Sign.NONNEG}

    full_mu = _normalize_mu(graph, mu)
    for eid in sorted(full_mu):
        if eid not in negatives:
            violations.append(
                Violation("domain", f"map key {eid} is not a negative edge", (eid,))
            )
        for other in sorted(full_mu[eid]):
            if other not in positives:
                violations.append(
                    Violation(
                        "range",
                        f"grouped edge {other} is not a positive edge",
                        (eid, other),
                    )
                )

    negative_arcs: dict[tuple[int, int], list[int]] = {}
    for eid in sorted(negatives):
        e = graph.edge(eid)
        negative_arcs.setdefault((e.source, e.target), []).append(eid)
    for nodes in node_cycles(graph):
        hops = [arc for arc in zip(nodes, nodes[1:] + nodes[:1]) if arc in negative_arcs]
        if len(hops) > 1:
            violations.append(
                Violation(
                    "ii",
                    "cycle holds more than one negative edge",
                    tuple(eid for arc in hops for eid in negative_arcs[arc]),
                )
            )

    for eid in sorted(full_mu):
        if eid not in negatives:
            continue
        e = graph.edge(eid)
        for other in sorted(full_mu[eid]):
            if other not in positives:
                continue
            e2 = graph.edge(other)
            if e2.source != e.source:
                violations.append(
                    Violation(
                        "iiia",
                        f"edge {other} does not share the source of edge {eid}",
                        (eid, other),
                    )
                )
            t = e.target
            if t not in (e2.source, e2.target) and reaches_avoiding(
                graph, e2.target, e2.source, t
            ):
                violations.append(
                    Violation(
                        "iiib",
                        f"cycle through edge {other} avoids node {t}",
                        (eid, other),
                    )
                )

    seen: dict[int, int] = {}
    for eid in sorted(full_mu):
        for other in sorted(full_mu[eid]):
            if other in seen:
                violations.append(
                    Violation(
                        "iiic",
                        f"edge {other} grouped with both {seen[other]} and {eid}",
                        (seen[other], eid, other),
                    )
                )
            else:
                seen[other] = eid
    return violations


def is_pgraph(
    graph: Multidigraph, mu: Mapping[int, Iterable[int]]
) -> PGraphWitness | None:
    """Validate the partition and the group sums; return the witness or None."""
    if validate_partition(graph, mu):
        return None
    full_mu = _normalize_mu(graph, mu)
    sums: dict[int, Polynomial] = {}
    for eid, group in full_mu.items():
        total = poly_sum(graph.edge(k).label for k in (eid, *group))
        if not is_nonneg(total):
            return None
        sums[eid] = total
    return PGraphWitness(graph, full_mu, sums)


# ---------------------------------------------------------------------------
# searching for a certificate among all realizations of a matrix


def _arc_common_nodes(graph: Multidigraph) -> dict[tuple[int, int], frozenset[int]]:
    """For each arc, the nodes on every simple cycle through it (iii b).

    An arc on no cycle keeps every node: the intersection of no node sets.
    """
    common = dict.fromkeys(graph.arcs(), frozenset(graph.nodes))
    for nodes in node_cycles(graph):
        node_set = frozenset(nodes)
        for arc in zip(nodes, nodes[1:] + nodes[:1]):
            common[arc] &= node_set
    return common


def _cycle_through_two(graph: Multidigraph, arcs: Collection[tuple[int, int]]) -> bool:
    """Whether some simple cycle of the graph runs along two of ``arcs`` (ii)."""
    hops = (zip(c, c[1:] + c[:1]) for c in node_cycles(graph))
    return any(sum(arc in arcs for arc in cycle) > 1 for cycle in hops)


def _max_flow(
    supply_caps: Sequence[Fraction],
    need_caps: Sequence[Fraction],
    compatible: Callable[[int, int], bool],
) -> list[list[Fraction]] | None:
    """Transportation feasibility: route every need from compatible supplies.

    Returns flows[supply][need], or None when the needs cannot be met.
    Plain shortest-augmenting-path flow over exact rationals.
    """
    ns, nn = len(supply_caps), len(need_caps)
    source, sink = ns + nn, ns + nn + 1
    cap: dict[tuple[int, int], Fraction] = {}
    adj: dict[int, list[int]] = {v: [] for v in range(ns + nn + 2)}

    def add(u: int, v: int, c: Fraction) -> None:
        cap[(u, v)] = cap.get((u, v), Fraction(0)) + c
        cap.setdefault((v, u), Fraction(0))
        if v not in adj[u]:
            adj[u].append(v)
        if u not in adj[v]:
            adj[v].append(u)

    total_need = sum(need_caps, Fraction(0))
    for i in range(ns):
        add(source, i, supply_caps[i])
    for j in range(nn):
        add(ns + j, sink, need_caps[j])
    for i in range(ns):
        for j in range(nn):
            if compatible(i, j):
                add(i, ns + j, total_need)

    flowed = Fraction(0)
    while flowed < total_need:
        parent: dict[int, int] = {source: source}
        frontier = [source]
        while frontier and sink not in parent:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in parent and cap[(u, v)] > 0:
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if sink not in parent:
            return None
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        bottleneck = min(cap[(u, v)] for u, v in zip(path, path[1:]))
        for u, v in zip(path, path[1:]):
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
        flowed += bottleneck

    return [
        [cap.get((ns + j, i), Fraction(0)) for j in range(nn)] for i in range(ns)
    ]


def find_pgraph(
    lap: Laplacian | Sequence[Sequence[Polynomial]],
) -> tuple[Multidigraph, dict[int, frozenset[int]]] | None:
    """Search for a certificate graph realizing the given zero-column-sum matrix.

    Strategy: no edges at zero entries; positive monomials of each entry
    become parallel edges; negative monomials merge into one negative edge
    per arc.  A negative edge's monomial mass must be cancelled by positive
    edges from the same source whose cycles all pass its target (one lookup
    in the per-arc table of common cycle nodes); the allocation (with positive
    edges split between groups when a single edge must serve several) is
    solved per source and exponent as an exact transportation problem.
    Complete at this monomial granularity; finer real-coefficient splittings
    are not explored.
    """
    if not isinstance(lap, Laplacian):
        lap = Laplacian(lap)
    n = lap.size
    for j in range(1, n + 1):
        if poly_sign(lap.entry(j, j)) not in (Sign.ZERO, Sign.NONPOS):
            return None

    pos_monomials: dict[tuple[int, int], list[Polynomial]] = {}
    neg_label: dict[tuple[int, int], Polynomial] = {}
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i == j:
                continue
            entry = lap.entry(i, j)
            if entry.is_zero():
                continue
            pos = [m for m in monomial_split(entry) if poly_sign(m) == Sign.NONNEG]
            neg = poly_sum(m for m in monomial_split(entry) if poly_sign(m) == Sign.NONPOS)
            if pos:
                pos_monomials[(j, i)] = pos
            if not neg.is_zero():
                neg_label[(j, i)] = neg

    skeleton = canonical_graph(lap)
    common = _arc_common_nodes(skeleton)
    if _cycle_through_two(skeleton, neg_label):
        return None

    # parts[(j, i, monomial index)] = [(label part, need arc or None), ...]
    parts: dict[tuple[int, int, int], list[tuple[Polynomial, tuple[int, int] | None]]] = {}
    for arc, pos in sorted(pos_monomials.items()):
        for idx, mono in enumerate(pos):
            parts[arc + (idx,)] = [(mono, None)]

    for source in range(1, n + 1):
        arcs_out = sorted(arc for arc in neg_label if arc[0] == source)
        if not arcs_out:
            continue
        needed: dict[tuple, dict[tuple[int, int], Fraction]] = {}
        for arc in arcs_out:
            for exps, coeff in neg_label[arc].terms:
                needed.setdefault(exps, {})[arc] = -coeff
        supplies = [
            (arc + (idx,), mono)
            for arc, pos in sorted(pos_monomials.items())
            if arc[0] == source
            for idx, mono in enumerate(pos)
        ]
        for exps, need_map in sorted(needed.items()):
            need_arcs = sorted(need_map)
            pool = [
                (key, mono)
                for key, mono in supplies
                if mono.terms[0][0] == exps
            ]

            def ok(i: int, j: int) -> bool:
                return need_arcs[j][1] in common[(source, pool[i][0][1])]

            flows = _max_flow(
                [mono.terms[0][1] for _, mono in pool],
                [need_map[a] for a in need_arcs],
                ok,
            )
            if flows is None:
                return None
            for i, (key, mono) in enumerate(pool):
                targets = [j for j in range(len(need_arcs)) if flows[i][j] > 0]
                if not targets:
                    continue
                if len(targets) == 1:
                    # whole edge joins the single group it serves
                    parts[key] = [(mono, need_arcs[targets[0]])]
                    continue
                total = mono.terms[0][1]
                pieces: list[tuple[Polynomial, tuple[int, int] | None]] = []
                for j in targets:
                    pieces.append(
                        (Polynomial({exps: flows[i][j]}), need_arcs[j])
                    )
                    total -= flows[i][j]
                if total > 0:
                    pieces.append((Polynomial({exps: total}), None))
                parts[key] = pieces

    triples: list[tuple[int, int, Polynomial]] = []
    kinds: list[tuple[str, tuple[int, int] | None]] = []
    for arc in sorted(set(pos_monomials) | set(neg_label)):
        if arc in neg_label:
            triples.append((arc[0], arc[1], neg_label[arc]))
            kinds.append(("neg", arc))
        for idx in range(len(pos_monomials.get(arc, ()))):
            for label, owner in parts[arc + (idx,)]:
                triples.append((arc[0], arc[1], label))
                kinds.append(("pos", owner))

    graph = Multidigraph.from_edges(n, triples)
    neg_eid = {
        arc: k + 1 for k, (kind, arc) in enumerate(kinds) if kind == "neg"
    }
    groups: dict[int, set[int]] = {eid: set() for eid in neg_eid.values()}
    for k, (kind, owner) in enumerate(kinds):
        if kind == "pos" and owner is not None:
            groups[neg_eid[owner]].add(k + 1)
    return graph, {eid: frozenset(members) for eid, members in groups.items()}


# ---------------------------------------------------------------------------
# maximal replacement sets, fibers, and the positive expansion


def _mu_inverse(witness: PGraphWitness) -> dict[int, int]:
    return {
        member: eid for eid, group in witness.mu.items() for member in group
    }


def max_replacement_set(
    witness: PGraphWitness,
    zeta: Forest,
    member: Callable[[Forest], bool],
) -> frozenset[int]:
    """Largest set of grouped positive edges of ``zeta`` swappable back.

    A subset qualifies when replacing its edges by their negative partners
    leaves a forest accepted by ``member``; qualifying subsets are closed
    under union, so their union is the maximum.
    """
    inv = _mu_inverse(witness)
    cands = sorted(eid for eid in zeta.edge_ids if eid in inv)
    best: set[int] = set()
    base = set(zeta.edge_ids)
    for mask in range(1, 1 << len(cands)):
        chosen = [cands[k] for k in range(len(cands)) if mask >> k & 1]
        swapped = (base - set(chosen)) | {inv[e] for e in chosen}
        try:
            forest = forest_from_edges(witness.graph, swapped)
        except ValueError:
            continue
        if member(forest):
            best |= set(chosen)
    return frozenset(best)


def _roots_member(roots: tuple[int, ...]) -> Callable[[Forest], bool]:
    def check(forest: Forest) -> bool:
        return forest.roots == roots

    return check


def lambda_forests(witness: PGraphWitness, roots: Iterable[int]) -> list[Forest]:
    """Forests rooted at the given set admitting no backward replacement."""
    b = tuple(sorted(set(roots)))
    member = _roots_member(b)
    return [
        zeta
        for zeta in enumerate_rooted_forests(witness.graph, b)
        if not max_replacement_set(witness, zeta, member)
    ]


def psi_fiber(witness: PGraphWitness, zeta: Forest) -> list[Forest]:
    """All forests collapsing to ``zeta`` under maximal backward replacement.

    Product construction: keep the positive edges of ``zeta`` and choose,
    for each negative edge, either the edge itself or one member of its
    group; the fiber size is the product of (1 + group size).
    """
    graph = witness.graph
    negatives = [
        eid
        for eid in zeta.edge_ids
        if poly_sign(graph.edge(eid).label) == Sign.NONPOS
    ]
    positives = [eid for eid in zeta.edge_ids if eid not in set(negatives)]
    options = [
        [eid] + sorted(witness.mu.get(eid, frozenset())) for eid in negatives
    ]
    out = []
    for combo in itertools.product(*options):
        out.append(forest_from_edges(graph, positives + list(combo)))
    return out


def positive_upsilon(witness: PGraphWitness, root: int) -> Polynomial:
    """Tree sum rooted at ``root`` as a sum of products of nonnegative factors.

    Each replacement-maximal tree contributes the product of its positive
    labels and the group sums of its negative edges, so every summand is
    certified nonnegative; the total equals the plain tree sum.
    """
    graph = witness.graph
    terms = []
    for zeta in lambda_forests(witness, (root,)):
        term = Polynomial.one()
        for eid in zeta.edge_ids:
            label = graph.edge(eid).label
            if poly_sign(label) == Sign.NONPOS:
                term = term * witness.group_sums[eid]
            else:
                term = term * label
        terms.append(term)
    return poly_sum(terms)


def nonzero_component(witness: PGraphWitness, root: int) -> bool:
    """Whether the tree sum rooted at ``root`` is a nonzero polynomial.

    Holds iff some replacement-maximal tree has strictly positive group sums
    on all of its negative edges.
    """
    graph = witness.graph
    for zeta in lambda_forests(witness, (root,)):
        if all(
            poly_sign(witness.group_sums[eid]) == Sign.NONNEG
            for eid in zeta.edge_ids
            if poly_sign(graph.edge(eid).label) == Sign.NONPOS
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# end-to-end certification


def certify_nonneg(
    system: LinearSystem,
) -> tuple[Solution, PGraphWitness] | None:
    """Certify that every solution component is a nonnegative quotient.

    A plain system is the block system with no blocks (d = 0, F = {m+1}),
    so this is :func:`blocksys.certify_block_nonneg` on
    ``BlockStructure((), m, ())``: its realization is the bordered matrix,
    there is no sign hypothesis and condition (*) holds trivially.  On
    success N_i and D are the tree sums rooted at i and at m+1, read as
    signed minors of that matrix, and each is verified coefficientwise
    nonnegative.  The graph's forests enter only the proof of that sign.
    """
    from .blocksys import BlockStructure, certify_block_nonneg  # imports this module

    return certify_block_nonneg(system, BlockStructure((), system.m, ()))
