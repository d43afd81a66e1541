"""Labeled multidigraphs on nodes 1..m+1 and their Laplacians.

Edges carry nonzero polynomial labels and opaque integer ids; parallel edges
are permitted, self-loops are not.  Graphs are immutable: the rewrite
operations (splitting an edge into parallel edges, merging negative parallel
edges) return new graphs together with the id correspondence, so maps keyed
by edge id can be transported across rewrites.

The Laplacian convention: entry (i, j), i != j, is the label sum of the edges
j -> i, and diagonal entries make every column sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .symring import Polynomial, Sign, parse_poly, poly_sign


@dataclass(frozen=True)
class Edge:
    eid: int
    source: int
    target: int
    label: Polynomial


class Multidigraph:
    """Immutable directed multigraph with labeled edges, nodes 1..node_count."""

    __slots__ = ("node_count", "edges", "_by_id", "_out")

    def __init__(self, node_count: int, edges: Iterable[Edge]):
        if node_count < 1:
            raise ValueError("node_count must be at least 1")
        edges = tuple(edges)
        by_id: dict[int, Edge] = {}
        out: dict[int, list[Edge]] = {n: [] for n in range(1, node_count + 1)}
        for e in edges:
            if not (1 <= e.source <= node_count and 1 <= e.target <= node_count):
                raise ValueError(f"edge {e.eid} endpoint out of range")
            if e.source == e.target:
                raise ValueError(f"edge {e.eid} is a self-loop")
            if e.label.is_zero():
                raise ValueError(f"edge {e.eid} has zero label")
            if e.eid in by_id:
                raise ValueError(f"duplicate edge id {e.eid}")
            by_id[e.eid] = e
            out[e.source].append(e)
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_out", {n: tuple(sorted(es, key=lambda e: e.eid)) for n, es in out.items()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Multidigraph is immutable")

    @classmethod
    def from_edges(
        cls, node_count: int, triples: Iterable[tuple[int, int, Polynomial]]
    ) -> "Multidigraph":
        """Build a graph assigning edge ids 1, 2, ... in the given order."""
        edges = [
            Edge(i + 1, src, tgt, label) for i, (src, tgt, label) in enumerate(triples)
        ]
        return cls(node_count, edges)

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    def edge(self, eid: int) -> Edge:
        return self._by_id[eid]

    def out_edges(self, node: int) -> tuple[Edge, ...]:
        return self._out[node]

    def parallel_edges(self, source: int, target: int) -> tuple[Edge, ...]:
        return tuple(e for e in self._out[source] if e.target == target)

    def arcs(self) -> list[tuple[int, int]]:
        """Distinct (source, target) pairs carrying at least one edge, sorted."""
        return sorted({(e.source, e.target) for e in self.edges})

    def next_id(self) -> int:
        return max(self._by_id, default=0) + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multidigraph):
            return NotImplemented
        return self.node_count == other.node_count and self.edges == other.edges

    def __repr__(self) -> str:
        return f"Multidigraph(nodes={self.node_count}, edges={len(self.edges)})"


class Laplacian:
    """Square polynomial matrix with zero column sums, 1-based accessors."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("Laplacian must be square")
        for j in range(n):
            col_sum = Polynomial.zero()
            for i in range(n):
                col_sum = col_sum + rows[i][j]
            if not col_sum.is_zero():
                raise ValueError(f"column {j + 1} does not sum to zero")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Laplacian is immutable")

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Polynomial:
        """Entry in row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Laplacian):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"Laplacian(size={self.size})"


def laplacian_of(graph: Multidigraph) -> Laplacian:
    """Laplacian of a labeled multidigraph (column sums zero by construction)."""
    n = graph.node_count
    rows = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    for e in graph.edges:
        rows[e.target - 1][e.source - 1] = rows[e.target - 1][e.source - 1] + e.label
        rows[e.source - 1][e.source - 1] = rows[e.source - 1][e.source - 1] - e.label
    return Laplacian(rows)


def canonical_graph(lap: Laplacian | Sequence[Sequence[Polynomial]]) -> Multidigraph:
    """The unique graph with one edge per nonzero off-diagonal entry.

    Edge j -> i gets label equal to entry (i, j); the result has no parallel
    edges and no self-loops, and its Laplacian is the input matrix.
    """
    if not isinstance(lap, Laplacian):
        lap = Laplacian(lap)
    n = lap.size
    triples = []
    for j in range(1, n + 1):  # edges grouped by source, then target
        for i in range(1, n + 1):
            if i != j and not lap.entry(i, j).is_zero():
                triples.append((j, i, lap.entry(i, j)))
    return Multidigraph.from_edges(n, triples)


def split_edge(
    graph: Multidigraph, eid: int, parts: Sequence[Polynomial]
) -> tuple[Multidigraph, tuple[int, ...]]:
    """Replace one edge by parallel edges labeled by ``parts``.

    The parts must be nonzero and sum to the old label, so the Laplacian is
    unchanged.  Returns the new graph and the ids of the replacement edges.
    """
    old = graph.edge(eid)
    total = Polynomial.zero()
    for p in parts:
        if p.is_zero():
            raise ValueError("split parts must be nonzero")
        total = total + p
    if total != old.label:
        raise ValueError("split parts do not sum to the edge label")
    fresh = graph.next_id()
    new_ids = tuple(range(fresh, fresh + len(parts)))
    edges = [e for e in graph.edges if e.eid != eid]
    edges.extend(
        Edge(nid, old.source, old.target, p) for nid, p in zip(new_ids, parts)
    )
    return Multidigraph(graph.node_count, edges), new_ids


def merge_parallel_negative(
    graph: Multidigraph,
) -> tuple[Multidigraph, dict[int, int]]:
    """Merge, per (source, target) pair, all nonpositive-labeled parallel edges.

    Returns the new graph and a map from each merged-away edge id to the id
    of its replacement.  Edges not merged keep their ids; the Laplacian is
    unchanged.
    """
    groups: dict[tuple[int, int], list[Edge]] = {}
    for e in graph.edges:
        if poly_sign(e.label) == Sign.NONPOS:
            groups.setdefault((e.source, e.target), []).append(e)
    to_merge = {key: es for key, es in groups.items() if len(es) > 1}
    if not to_merge:
        return graph, {}
    merged_away = {e.eid for es in to_merge.values() for e in es}
    edges = [e for e in graph.edges if e.eid not in merged_away]
    mapping: dict[int, int] = {}
    nid = graph.next_id()
    for (src, tgt), es in sorted(to_merge.items()):
        label = Polynomial.zero()
        for e in es:
            label = label + e.label
        edges.append(Edge(nid, src, tgt, label))
        for e in es:
            mapping[e.eid] = nid
        nid += 1
    return Multidigraph(graph.node_count, edges), mapping


# ---------------------------------------------------------------------------
# cycles and reachability


def node_cycles(graph: Multidigraph) -> list[tuple[int, ...]]:
    """All directed simple cycles as node sequences (start = smallest node).

    Each cycle appears once, anchored at its minimal node; deterministic
    order (anchor, then node sequence).
    """
    adj: dict[int, list[int]] = {n: [] for n in graph.nodes}
    for s, t in graph.arcs():
        adj[s].append(t)
    for n in graph.nodes:
        adj[n] = sorted(set(adj[n]))

    cycles: list[tuple[int, ...]] = []
    for start in graph.nodes:
        path = [start]
        on_path = {start}

        def extend(u: int) -> None:
            for v in adj[u]:
                if v == start:
                    cycles.append(tuple(path))
                elif v > start and v not in on_path:
                    path.append(v)
                    on_path.add(v)
                    extend(v)
                    path.pop()
                    on_path.remove(v)

        extend(start)
    return cycles


def simple_cycles(graph: Multidigraph) -> list[tuple[Edge, ...]]:
    """All directed simple cycles as edge sequences.

    Parallel edges yield distinct cycles: one per choice of edge along each
    arc of the underlying node cycle.  Deterministic order.
    """
    result: list[tuple[Edge, ...]] = []
    for nodes in node_cycles(graph):
        hops = list(zip(nodes, nodes[1:] + nodes[:1]))
        choices = [graph.parallel_edges(s, t) for s, t in hops]
        combo = [0] * len(choices)
        while True:
            result.append(tuple(choices[i][combo[i]] for i in range(len(choices))))
            for i in reversed(range(len(choices))):
                combo[i] += 1
                if combo[i] < len(choices[i]):
                    break
                combo[i] = 0
            else:
                break
    return result


def reaches_avoiding(graph: Multidigraph, source: int, target: int, avoid: int) -> bool:
    """Whether a directed path source -> target exists using no node ``avoid``."""
    if source == avoid or target == avoid:
        raise ValueError("endpoints must differ from the avoided node")
    if source == target:
        return True
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for e in graph.out_edges(u):
                v = e.target
                if v == avoid or v in seen:
                    continue
                if v == target:
                    return True
                seen.add(v)
                nxt.append(v)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# interchange formats


def to_dot(graph: Multidigraph) -> str:
    """Graphviz DOT rendering; node m+1 is drawn as a double circle."""
    lines = ["digraph G {"]
    for n in graph.nodes:
        shape = "doublecircle" if n == graph.node_count else "circle"
        lines.append(f'  {n} [shape={shape}];')
    for e in sorted(graph.edges, key=lambda e: e.eid):
        style = ""
        if poly_sign(e.label) == Sign.NONPOS:
            style = ", style=dashed"
        lines.append(f'  {e.source} -> {e.target} [label="{e.label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: Multidigraph) -> dict:
    return {
        "nodes": graph.node_count,
        "edges": [
            {"src": e.source, "tgt": e.target, "label": str(e.label)}
            for e in sorted(graph.edges, key=lambda e: e.eid)
        ],
    }


_JSON_NAMES = {str: "strings", int: "integers", list: "arrays", dict: "objects"}


def json_list(value, kind: type, what: str) -> list:
    """``value`` if it is a JSON array of ``kind`` items, else ValueError."""
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise ValueError(f"{what} must be an array of {_JSON_NAMES[kind]}")
    return value


def graph_from_json(data: Mapping) -> Multidigraph:
    if not isinstance(data, Mapping) or not isinstance(data.get("nodes"), int):
        raise ValueError("a graph must be an object with an integer 'nodes'")
    triples = []
    for e in json_list(data.get("edges"), dict, "'edges'"):
        if not (
            isinstance(e.get("src"), int)
            and isinstance(e.get("tgt"), int)
            and isinstance(e.get("label"), str)
        ):
            raise ValueError("an edge needs integer 'src', 'tgt' and a string 'label'")
        triples.append((e["src"], e["tgt"], parse_poly(e["label"])))
    return Multidigraph.from_edges(data["nodes"], triples)


# ---------------------------------------------------------------------------
# randomized instances for self-checks


def random_multidigraph(rng, max_nodes: int = 5, max_edges: int = 10) -> Multidigraph:
    """Random small graph with nonzero integer labels in [-3, 3]."""
    n = rng.randint(1, max_nodes)
    triples = []
    if n >= 2:
        for _ in range(rng.randint(0, max_edges)):
            src = rng.randint(1, n)
            tgt = rng.randint(1, n - 1)
            if tgt >= src:
                tgt += 1
            label = rng.choice([-3, -2, -1, 1, 2, 3])
            triples.append((src, tgt, Polynomial.constant(label)))
    return Multidigraph.from_edges(n, triples)
