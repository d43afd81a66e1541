#!/usr/bin/env python3
"""Certifying nonnegative solutions with edge-partition witnesses.

A graph realization of the bordered matrix certifies nonnegativity when each
negative edge can be grouped with positive edges from the same source so that
all group sums are coefficientwise nonnegative, subject to two cycle
conditions.  Splitting entries into parallel edges is sometimes essential.
"""

import itertools

from forestsolve import (
    LinearSystem,
    Polynomial,
    Sign,
    bordered_laplacian,
    canonical_graph,
    certify_nonneg,
    cramer_oracle,
    find_pgraph,
    is_pgraph,
    lambda_forests,
    nonzero_component,
    parse_poly,
    poly_sign,
    positive_upsilon,
    psi_fiber,
    upsilon_rooted,
)

P = parse_poly
C = Polynomial.constant

system = LinearSystem.build(
    ["x1", "x2", "x3"],
    [
        [P("-z2"), P("0"), P("z4")],
        [P("-z1"), P("-z3"), P("0")],
        [P("-z2"), P("z3"), P("-z4")],
    ],
    [P("0"), P("z5"), P("0")],
)
lap = bordered_laplacian(system)

# 1. The canonical digraph is NOT certifiable: its single positive edge out
#    of node 1 cannot serve both negative edges disjointly.  Try every
#    grouping: each positive edge joins one negative edge of its source, or none.
canonical = canonical_graph(lap)
negatives = [e for e in canonical.edges if poly_sign(e.label) == Sign.NONPOS]
positives = [e for e in canonical.edges if poly_sign(e.label) == Sign.NONNEG]
owners = [[None] + [n.eid for n in negatives if n.source == p.source] for p in positives]
groupings = (
    {n.eid: {p.eid for p, o in zip(positives, choice) if o == n.eid} for n in negatives}
    for choice in itertools.product(*owners)
)
found = next((mu for mu in groupings if is_pgraph(canonical, mu)), None)
print("grouping on the canonical graph:", found)

# 2. Splitting the entry z1 + 2*z2 into parallel edges z1 and 2*z2 makes a
#    certificate possible; the search does this automatically.
graph, mu = find_pgraph(lap)
witness = is_pgraph(graph, mu)
print("\nwitness edges:")
for e in graph.edges:
    print(f"    {e.eid}: {e.source} -> {e.target}   {e.label}")
print("groups:")
for neg, group in sorted(witness.mu.items()):
    members = ", ".join(str(graph.edge(g).label) for g in sorted(group))
    print(f"    {graph.edge(neg).label}  +  [{members}]  =  {witness.group_sums[neg]}")

# 3. The certificate rewrites every tree sum as a sum of products of
#    nonnegative factors: replacement-maximal trees contribute their positive
#    labels times the group sums.
for root in (2, 4):
    assert positive_upsilon(witness, root) == upsilon_rooted(graph, root)
print("\npositive expansion agrees with plain tree sums")

lam = lambda_forests(witness, (2,))
print("replacement-maximal trees rooted at 2:", [f.edge_ids for f in lam])
for zeta in lam:
    print("    fiber of", zeta.edge_ids, "->",
          [f.edge_ids for f in psi_fiber(witness, zeta)])

# 4. End-to-end certification: every component is a ratio of polynomials
#    with nonnegative coefficients.
solution, _ = certify_nonneg(system)
for name, comp in zip(system.variables, solution):
    print(f"    {name} = {comp}")
print("all components provably nonzero:",
      all(nonzero_component(witness, i) for i in range(1, 5)))

# 5. The criterion is incomparable with the classical inverse-positivity
#    test: this matrix has a nonnegative inverse, so its solution is
#    nonnegative, yet no certificate graph exists.
contrast = LinearSystem.build(
    ["x1", "x2"], [[C(-4), C(2)], [C(1), C(-1)]], [C(1), C(1)]
)
print("\ncontrast system certificate:", certify_nonneg(contrast))
print("contrast solution by the oracle:",
      [str(c) for c in cramer_oracle(contrast)])
