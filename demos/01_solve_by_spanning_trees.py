#!/usr/bin/env python3
"""Solving a symbolic linear system through rooted spanning-tree sums.

Walks through the basic pipeline: border the system into a zero-column-sum
matrix, realize it as a labeled digraph, enumerate rooted spanning trees, and
read off the solution components as ratios of tree sums.
"""

from forestsolve import (
    LinearSystem,
    Polynomial,
    bordered_laplacian,
    canonical_graph,
    cramer_oracle,
    enumerate_rooted_forests,
    forest_label,
    parse_poly,
    residual_check,
    solve_by_trees,
    to_dot,
    upsilon_rooted,
)

P = parse_poly

# A 3x3 system with symbolic entries.  Two columns carry negative entries,
# so nonnegativity of the solution is not obvious from the matrix alone.
system = LinearSystem.build(
    ["x1", "x2", "x3"],
    [
        [P("-z2"), P("0"), P("z4")],
        [P("-z1"), P("-z3"), P("0")],
        [P("-z2"), P("z3"), P("-z4")],
    ],
    [P("0"), P("z5"), P("0")],
)

# 1. The bordered matrix: (A | b) extended by the row that zeroes every
#    column sum.  Entry (i, j) is the label sum of the edges j -> i.
lap = bordered_laplacian(system)
print("bordered matrix:")
for row in lap.rows:
    print("   ", [str(p) for p in row])

# 2. Its canonical digraph: one edge per nonzero off-diagonal entry.
graph = canonical_graph(lap)
print("\ncanonical digraph edges:")
for e in graph.edges:
    print(f"    {e.source} -> {e.target}   {e.label}")

# 3. Spanning trees rooted at a node; their label products sum to the
#    tree-sum polynomial for that root.
print("\nspanning trees rooted at node 2:")
for tree in enumerate_rooted_forests(graph, (2,)):
    print("    edges", tree.edge_ids, "label", forest_label(graph, tree))
print("tree sum at 2:", upsilon_rooted(graph, 2))
print("tree sum at 4:", upsilon_rooted(graph, 4))

# 4. The solution: component i is (tree sum at i) / (tree sum at m+1).
solution = solve_by_trees(system)
print("\nsolution components:")
for name, comp in zip(system.variables, solution):
    print(f"    {name} = {comp}")

# 5. Every solver path is cross-checked against an independent oracle: the
#    tree sums equal Cramer's determinants up to one sign (matrix-tree theorem).
oracle = cramer_oracle(system)
print("\nagrees with the determinant oracle:", solution.agrees_up_to_sign(oracle))
print("residual A*x + b vanishes exactly:", residual_check(system, solution))

# 6. The graph exports to DOT for inspection.
print("\nDOT rendering:\n")
print(to_dot(graph))
