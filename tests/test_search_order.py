"""The cycle and forest searches keep the order of their recursive forms.

``node_cycles`` walks a stack of neighbour iterators and
``enumerate_rooted_forests`` backtracks through a module-level helper.  The
recursive closures they replace are kept here as reference oracles; on
seeded random multidigraphs with parallel edges and self-loops, both
searches must return exactly the oracles' lists, order included.
"""

from __future__ import annotations

import random

from forestsolve import Edge, Multidigraph, enumerate_rooted_forests, forest_from_edges
from forestsolve.multigraph import node_cycles, random_multidigraph

from conftest import C


def recursive_node_cycles(graph) -> list[tuple[int, ...]]:
    """Reference: the recursive depth-first cycle search."""
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


def recursive_rooted_forests(graph, roots) -> list:
    """Reference: the recursive backtracking forest search."""
    root_set = set(roots)
    free = [n for n in graph.nodes if n not in root_set]
    choices = {n: graph.out_edges(n) for n in free}
    if any(not choices[n] for n in free):
        return []

    chosen: dict[int, int] = {}

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
                continue
            chosen[u] = e.target
            picked.append(e.eid)
            recurse(idx + 1)
            picked.pop()
            del chosen[u]

    recurse(0)
    found.sort()
    return [forest_from_edges(graph, eids) for eids in found]


class LoopGraph:
    """The members the two searches read, on a graph that may have self-loops.

    ``Multidigraph`` rejects self-loops; this stand-in admits them, so the
    searches are also compared on loops they must skip or close at once.
    """

    def __init__(self, node_count: int, pairs):
        self.node_count = node_count
        self.edges = tuple(Edge(k + 1, s, t, C(1)) for k, (s, t) in enumerate(pairs))

    @property
    def nodes(self) -> range:
        return range(1, self.node_count + 1)

    def edge(self, eid: int) -> Edge:
        return self.edges[eid - 1]

    def out_edges(self, node: int) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.source == node)

    def arcs(self) -> list[tuple[int, int]]:
        return sorted({(e.source, e.target) for e in self.edges})


def random_loop_graph(rng: random.Random) -> LoopGraph:
    n = rng.randint(1, 6)
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 16))]
    pairs += pairs[: rng.randint(0, 3)]  # parallel copies
    rng.shuffle(pairs)
    return LoopGraph(n, pairs)


def complete_digraph(n: int, copies: int) -> Multidigraph:
    return Multidigraph.from_edges(
        n,
        [(s, t, C(1)) for s in range(1, n + 1) for t in range(1, n + 1) if s != t] * copies,
    )


def sample_graphs():
    rng = random.Random(20)
    graphs = [random_loop_graph(rng) for _ in range(150)]
    graphs += [random_multidigraph(rng, max_nodes=6, max_edges=16) for _ in range(150)]
    graphs += [complete_digraph(n, copies) for n in range(1, 6) for copies in (1, 2)]
    return graphs


def test_node_cycles_keep_recursive_order():
    cycles = 0
    for graph in sample_graphs():
        found = node_cycles(graph)
        assert type(found) is list
        assert found == recursive_node_cycles(graph)
        cycles += len(found)
    assert cycles > 500


def test_rooted_forests_keep_recursive_order():
    rng = random.Random(21)
    forests = 0
    for graph in sample_graphs():
        for _ in range(3):
            roots = rng.sample(list(graph.nodes), rng.randint(1, graph.node_count))
            found = enumerate_rooted_forests(graph, roots)
            assert found == recursive_rooted_forests(graph, roots)
            forests += len(found)
    assert forests > 1000
