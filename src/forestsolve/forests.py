"""Rooted spanning forest enumeration and forest-sum polynomials.

A spanning forest rooted at a node set B assigns to every node outside B
exactly one outgoing edge so that the resulting functional graph is acyclic;
the components are then trees, each rooted at (draining into) one node of B.
Forest sums aggregate the products of edge labels over such forests, either
unsigned or weighted by the parity of the root-assignment bijection.  The
signed sums are signed Laplacian minors (all-minors matrix-tree theorem), so
a family with a forced root assignment, as in block systems, is one minor.
:class:`ForestSums` takes every family out of one node set F from one minor
table of the Laplacian without rows F, so families that share F share their
sub-minors.  Enumeration is the reference that the tests compare against,
and serves callers that need the individual forests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .multigraph import Edge, Laplacian, Multidigraph, laplacian_of
from .symring import Polynomial, minor_table


@dataclass(frozen=True)
class Forest:
    """A rooted spanning forest, identified by its sorted edge-id tuple."""

    edge_ids: tuple[int, ...]
    roots: tuple[int, ...]
    root_map: tuple[int, ...]  # root_map[node] = root of node's tree; index 0 unused

    def root_of(self, node: int) -> int:
        return self.root_map[node]

    def __len__(self) -> int:
        return len(self.edge_ids)


def forest_from_edges(graph: Multidigraph, edge_ids: Iterable[int]) -> Forest:
    """Build a Forest from edge ids; raises ValueError if not a rooted forest."""
    chosen: dict[int, Edge] = {}
    edge_ids = tuple(sorted(edge_ids))
    for eid in edge_ids:
        e = graph.edge(eid)
        if e.source in chosen:
            raise ValueError(f"node {e.source} has two outgoing edges")
        chosen[e.source] = e
    root_map = [0] * (graph.node_count + 1)
    for node in graph.nodes:
        if root_map[node]:
            continue
        seen: list[int] = []
        on_walk: set[int] = set()
        u = node
        while root_map[u] == 0 and u in chosen:
            if u in on_walk:
                raise ValueError("edge set contains a cycle")
            seen.append(u)
            on_walk.add(u)
            u = chosen[u].target
        root = root_map[u] if root_map[u] else u
        root_map[node] = root
        for v in seen:
            root_map[v] = root
    roots = tuple(sorted(n for n in graph.nodes if n not in chosen))
    return Forest(edge_ids, roots, tuple(root_map))


def _as_node_set(graph: Multidigraph, nodes: Iterable[int], what: str) -> tuple[int, ...]:
    out = tuple(sorted(set(nodes)))
    for n in out:
        if not (1 <= n <= graph.node_count):
            raise ValueError(f"{what} contains node {n} out of range")
    return out


def enumerate_rooted_forests(graph: Multidigraph, roots: Iterable[int]) -> list[Forest]:
    """All spanning forests whose trees are rooted exactly at ``roots``.

    Backtracks over the outgoing-edge choice of each non-root node with an
    incremental acyclicity check; output sorted by edge-id tuple.
    """
    b = _as_node_set(graph, roots, "root set")
    root_set = set(b)
    free = [n for n in graph.nodes if n not in root_set]
    choices = {n: graph.out_edges(n) for n in free}
    if any(not choices[n] for n in free):
        return []

    chosen: dict[int, int] = {}  # node -> chosen target

    def terminal(v: int) -> int:
        while v in chosen:
            v = chosen[v]
        return v

    found: list[list[int]] = []
    picked: list[int] = []

    def recurse(idx: int) -> None:
        if idx == len(free):
            found.append(sorted(picked))
            return
        u = free[idx]
        for e in choices[u]:
            if terminal(e.target) == u:
                continue  # adding u -> target would close a directed cycle
            chosen[u] = e.target
            picked.append(e.eid)
            recurse(idx + 1)
            picked.pop()
            del chosen[u]

    recurse(0)
    found.sort()
    return [forest_from_edges(graph, eids) for eids in found]


def enumerate_forests(
    graph: Multidigraph, contains: Iterable[int], roots: Iterable[int]
) -> list[Forest]:
    """Spanning forests rooted at ``roots`` whose trees each hold one node of ``contains``."""
    f = _as_node_set(graph, contains, "node set")
    b = _as_node_set(graph, roots, "root set")
    if len(f) != len(b):
        raise ValueError("node sets must have equal size")
    out = []
    for zeta in enumerate_rooted_forests(graph, b):
        hit_roots = {zeta.root_of(n) for n in f}
        if len(hit_roots) == len(f):
            out.append(zeta)
    return out


def forest_label(graph: Multidigraph, forest: Forest) -> Polynomial:
    """Product of the edge labels (1 for the empty forest)."""
    result = Polynomial.one()
    for eid in forest.edge_ids:
        result = result * graph.edge(eid).label
    return result


def _inversions(seq: Sequence[int]) -> int:
    return sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )


def inversion_count(forest: Forest, contains: Sequence[int]) -> int:
    """Inversions of the map sending each node of ``contains`` to its root."""
    return _inversions([forest.root_of(n) for n in sorted(contains)])


def upsilon(graph: Multidigraph, contains: Iterable[int], roots: Iterable[int]) -> Polynomial:
    """Unsigned forest sum: total label product over matching forests."""
    f = _as_node_set(graph, contains, "node set")
    b = _as_node_set(graph, roots, "root set")
    total = Polynomial.zero()
    for zeta in enumerate_forests(graph, f, b):
        total = total + forest_label(graph, zeta)
    return total


def upsilon_signed(
    graph: Multidigraph, contains: Iterable[int], roots: Iterable[int]
) -> Polynomial:
    """Forest sum weighted by the parity of the root-assignment bijection."""
    f = _as_node_set(graph, contains, "node set")
    b = _as_node_set(graph, roots, "root set")
    total = Polynomial.zero()
    for zeta in enumerate_forests(graph, f, b):
        label = forest_label(graph, zeta)
        if inversion_count(zeta, f) % 2 == 0:
            total = total + label
        else:
            total = total - label
    return total


def upsilon_rooted(graph: Multidigraph, root: int) -> Polynomial:
    """Sum of label products over all spanning trees rooted at ``root``."""
    return upsilon(graph, (root,), (root,))


# ---------------------------------------------------------------------------
# minor identity


def _kept(size: int, drop: Iterable[int]) -> tuple[int, ...]:
    """0-based indices of 1..size outside ``drop``."""
    drop = set(drop)
    return tuple(i for i in range(size) if i + 1 not in drop)


def minor_det(lap: Laplacian, drop_rows: Iterable[int], drop_cols: Iterable[int]) -> Polynomial:
    """Determinant of the Laplacian with the given rows/columns removed (1-based)."""
    rows = [lap.rows[i] for i in _kept(lap.size, drop_rows)]
    return minor_table(rows)(_kept(lap.size, drop_cols))


class ForestSums:
    """Forest sums with forced root assignments out of one node set F.

    For an assignment F -> B the sum is (-1)^(eps + inv) times the minor of
    ``lap`` without rows F and columns B, with eps as in
    :func:`all_minors_check` and inv the inversions of the assignment.  By
    the all-minors matrix-tree theorem this is :func:`upsilon` of (F, B), on
    any graph whose Laplacian is ``lap``, whenever every forest of that
    family puts each f in F in the tree rooted at its image: always for
    |F| = 1, and in block systems by block confinement.  Every query reads
    one shared :func:`symring.minor_table` of the rows outside F.
    """

    def __init__(self, lap: Laplacian, contains: Iterable[int]):
        self.size, self.contains = lap.size, tuple(sorted(set(contains)))
        self._minor = minor_table([lap.rows[i] for i in _kept(lap.size, self.contains)])

    def signed_minor(self, images: Mapping[int, int]) -> tuple[int, Polynomial]:
        """(s, M) whose product s*M is the forest sum of the assignment ``images``."""
        if sorted(images) != list(self.contains) or len(set(images.values())) != len(images):
            raise ValueError("root assignment is not a bijection from F")
        seq = [images[n] for n in self.contains]
        if any(not (1 <= n <= self.size) for n in self.contains + tuple(seq)):
            raise ValueError("root assignment has a node out of range")
        eps = self.size - len(seq) + sum(self.contains) + sum(seq) + _inversions(seq)
        return (-1 if eps % 2 else 1), self._minor(_kept(self.size, seq))


def all_minors_check(
    graph: Multidigraph, contains: Iterable[int], roots: Iterable[int]
) -> bool:
    """Exact check: the (F, B) minor of the Laplacian equals the signed forest sum.

    The sign exponent is (number of nodes) - |F| + sum(F) + sum(B).
    """
    f = _as_node_set(graph, contains, "node set")
    b = _as_node_set(graph, roots, "root set")
    if len(f) != len(b):
        raise ValueError("node sets must have equal size")
    sign, minor = ForestSums(laplacian_of(graph), f).signed_minor(dict(zip(f, b)))
    signed = upsilon_signed(graph, f, b)
    return minor == (signed if sign > 0 else -signed)
