#!/usr/bin/env python3
"""The minor identity: signed forest sums equal matrix minors, exactly.

For any labeled multidigraph, deleting row set F and column set B from its
zero-column-sum matrix gives a determinant equal (up to an explicit sign) to
the inversion-signed sum over spanning forests rooted at B with one marked
node of F per tree.  The package enumerates the forests explicitly and checks
the identity against exact determinants on randomized instances.
"""

import itertools
import random

from forestsolve import (
    ForestSums,
    all_minors_check,
    enumerate_forests,
    forest_label,
    inversion_count,
    laplacian_of,
    upsilon_signed,
)
from forestsolve.multigraph import random_multidigraph

rng = random.Random(2024)

# 1. One instance in detail (regenerate until the forest family is nonempty).
graph = random_multidigraph(rng, max_nodes=4, max_edges=7)
while graph.node_count < 3 or not enumerate_forests(graph, (1, 2), (1, 3)):
    graph = random_multidigraph(rng, max_nodes=4, max_edges=7)
print("edges:")
for e in graph.edges:
    print(f"    {e.source} -> {e.target}   {e.label}")

lap = laplacian_of(graph)
f_set, b_set = (1, 2), (1, 3)
print("\nforests with marked nodes", f_set, "rooted at", b_set)
for forest in enumerate_forests(graph, f_set, b_set):
    print(
        "    edges", forest.edge_ids,
        "label", forest_label(graph, forest),
        "inversions", inversion_count(forest, f_set),
    )
print("signed forest sum:", upsilon_signed(graph, f_set, b_set))
print("matrix minor:     ", ForestSums(lap, f_set).signed_minor(dict(zip(f_set, b_set)))[1])
print("identity holds:   ", all_minors_check(graph, f_set, b_set))

# 2. A randomized sweep across graphs and all small (F, B) pairs.
checks = 0
for _ in range(100):
    g = random_multidigraph(rng, max_nodes=5, max_edges=10)
    nodes = list(g.nodes)
    for size in range(0, min(3, len(nodes)) + 1):
        for fs in itertools.combinations(nodes, size):
            for bs in itertools.combinations(nodes, size):
                assert all_minors_check(g, fs, bs)
                checks += 1
print(f"\n{checks} minor identities verified on 100 random graphs")
