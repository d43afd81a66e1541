#!/usr/bin/env python3
"""Block-structured systems: compatible graphs and forest-product solutions.

Systems whose matrix stacks square diagonal blocks over arbitrary trailing
rows (one nonzero constant per block) get a dedicated treatment: one row per
block is released and refilled from column sums, the solution becomes a ratio
of weighted forest sums, and certification adds a reachability condition on
negative edges.  A vanishing component can be read off the graph.
"""

from forestsolve import (
    BlockStructure,
    LinearSystem,
    Polynomial,
    certify_block_nonneg,
    check_condition_star,
    choose_j,
    cramer_oracle,
    parse_poly,
    realization,
    solve_block,
    validate_block_form,
    zero_components,
)

P = parse_poly
C = Polynomial.constant
ZERO = Polynomial.zero()

# 1. A system with one 2x2 block (rows 1-2) and one trailing row.  The
#    second row is a conservation-style relation: nonnegative coefficients,
#    nonpositive constant.
system = LinearSystem.build(
    ["x1", "x2", "x3"],
    [
        [P("-z2"), P("z3"), ZERO],
        [C(1), C(1), ZERO],
        [ZERO, P("z3"), P("-z4")],
    ],
    [ZERO, P("-z1"), P("z5")],
)
blocks = BlockStructure((2,), 1, choose_j(system, (2,), 1))
print("block form violations:", validate_block_form(system, blocks))

# 2. The column-sum realization keeps all non-distinguished rows and refills
#    the distinguished row column by column (minus the rest of the column).
print("\nrealized bordered matrix:")
for row in realization(system, blocks).rows:
    print("   ", [str(p) for p in row])

# 3. The forest-product formula solves the system; the answer matches the
#    determinant oracle.
solution = solve_block(system, blocks)
for name, comp in zip(system.variables, solution):
    print(f"    {name} = {comp}")
oracle = cramer_oracle(system)
print("matches oracle:", solution.agrees_up_to_sign(oracle))

# 4. Certification: the realized graph has no negative edges here, so the
#    reachability condition holds vacuously and all components are certified.
certified, cert_witness = certify_block_nonneg(system, blocks)
ok, _ = check_condition_star(cert_witness.graph, blocks)
print("reachability condition holds:", ok)
print("vanishing components:", sorted(zero_components(cert_witness, blocks)))

# 5. A constructed instance where the graph forces a zero: variable 1
#    reaches the source of an in-tail negative edge without touching the
#    bordering node, so its component must vanish - and does.
forced = LinearSystem.build(
    ["x1", "x2", "x3", "x4"],
    [
        [P("-z1"), ZERO, ZERO, ZERO],
        [C(1), C(1), ZERO, ZERO],
        [P("z4"), ZERO, P("-z5"), P("z8")],
        [ZERO, ZERO, P("-z6"), P("-z8")],
    ],
    [ZERO, P("-z3"), ZERO, P("z7")],
)
forced_blocks = BlockStructure((2,), 2, (2,))
forced_solution, forced_witness = certify_block_nonneg(forced, forced_blocks)
print("\nforced zeros:", sorted(zero_components(forced_witness, forced_blocks)))
print("oracle value of x1:", cramer_oracle(forced)[0])
