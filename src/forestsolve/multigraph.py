"""Labeled multidigraphs on nodes 1..m+1 and their Laplacians.

Edges carry nonzero polynomial labels and opaque integer ids; parallel edges
are permitted, self-loops are not.  Graphs are immutable.  Many graphs
realize one Laplacian (an entry may be split over parallel edges), and all of
them have the same rooted forest sums; :func:`canonical_graph` builds the one
with a single edge per nonzero entry.

The Laplacian convention: entry (i, j), i != j, is the label sum of the edges
j -> i, and diagonal entries make every column sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .symring import InputError, Polynomial, Sign, parse_poly, poly_sign, poly_sum, sum_products


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
            if not poly_sum(row[j] for row in rows).is_zero():
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
    one = Polynomial.one()
    signed: dict[tuple[int, int], list[tuple[Polynomial, Polynomial]]] = {}
    for e in graph.edges:
        signed.setdefault((e.target, e.source), []).append((e.label, one))
        signed.setdefault((e.source, e.source), []).append((e.label, -one))
    nodes = range(1, graph.node_count + 1)
    return Laplacian([[sum_products(signed.get((i, j), ())) for j in nodes] for i in nodes])


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


# ---------------------------------------------------------------------------
# cycles and reachability


def node_cycles(graph: Multidigraph) -> list[tuple[int, ...]]:
    """All directed simple cycles as node sequences (start = smallest node).

    Each cycle appears once, anchored at its minimal node; deterministic
    order (anchor, then node sequence).  The search is an iterative
    depth-first walk over a stack of neighbour iterators, so nothing
    outlives the call except the returned list.
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
        succ = iter(adj[start])  # the unvisited successors of the last path node
        parents: list = []  # the same for the path nodes before it
        while True:
            for v in succ:
                if v == start:
                    cycles.append(tuple(path))
                elif v > start and v not in on_path:
                    path.append(v)
                    on_path.add(v)
                    parents.append(succ)
                    succ = iter(adj[v])
                    break
            else:
                if not parents:
                    break
                on_path.remove(path.pop())
                succ = parents.pop()
    return cycles


def simple_cycles(graph: Multidigraph) -> list[tuple[Edge, ...]]:
    """All directed simple cycles as edge sequences.

    Parallel edges yield distinct cycles: one per choice of edge along each
    arc of the underlying node cycle.  Deterministic order.  No certificate
    code calls it; the tests and the benchmark's tracer do.
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


def reachable_avoiding(
    graph: Multidigraph, starts: Iterable[int], avoid: int, reverse: bool = False
) -> set[int]:
    """Nodes that some start reaches by a directed path using no node ``avoid``.

    The starts are included.  With ``reverse`` edges are followed backwards,
    which gives the nodes that reach some start.
    """
    return set(_search(graph, starts, avoid, reverse))


def _search(
    graph: Multidigraph, starts: Iterable[int], avoid: int, reverse: bool
) -> Iterator[int]:
    """Yield each node of :func:`reachable_avoiding` once, starts first."""
    seen = set(starts)
    if avoid in seen:
        raise ValueError("start nodes must differ from the avoided node")
    if reverse:
        back: dict[int, list[int]] = {n: [] for n in graph.nodes}
        for e in graph.edges:
            back[e.target].append(e.source)
        step = back.__getitem__
    else:
        def step(u: int) -> list[int]:
            return [e.target for e in graph.out_edges(u)]
    todo = list(seen)
    yield from todo[:]
    while todo:
        for v in step(todo.pop()):
            if v != avoid and v not in seen:
                seen.add(v)
                todo.append(v)
                yield v


def reaches_avoiding(graph: Multidigraph, source: int, target: int, avoid: int) -> bool:
    """Whether a directed path source -> target exists using no node ``avoid``."""
    if source == avoid or target == avoid:
        raise ValueError("endpoints must differ from the avoided node")
    return target in _search(graph, (source,), avoid, False)


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
    """``value`` if it is a JSON array of ``kind`` items, else InputError."""
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise InputError(f"{what} must be an array of {_JSON_NAMES[kind]}")
    return value


def graph_from_json(data: Mapping) -> Multidigraph:
    if not isinstance(data, Mapping) or not isinstance(data.get("nodes"), int):
        raise InputError("a graph must be an object with an integer 'nodes'")
    triples = []
    for e in json_list(data.get("edges"), dict, "'edges'"):
        if not (
            isinstance(e.get("src"), int)
            and isinstance(e.get("tgt"), int)
            and isinstance(e.get("label"), str)
        ):
            raise InputError("an edge needs integer 'src', 'tgt' and a string 'label'")
        triples.append((e["src"], e["tgt"], parse_poly(e["label"])))
    try:
        return Multidigraph.from_edges(data["nodes"], triples)
    except ValueError as exc:
        raise InputError(str(exc)) from None


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
