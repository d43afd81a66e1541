#!/usr/bin/env python3
"""Positive steady-state parameterization of a mass-action reaction network.

Eleven reactions on six species, two conserved totals.  Choosing five
concentrations as the unknowns makes the sixth a parameter, and swapping one
equilibrium equation for a conservation relation yields a block linear
system; its certified solution is a one-parameter family of positive steady
states.
"""

from fractions import Fraction

from forestsolve import (
    ConservationUse,
    SteadyStateTask,
    conservation_laws,
    mass_action_odes,
    parameterize,
    parse_network,
)

NETWORK = """\
species: x1, x2, x3, x4, x5, x6
x1 + x5 <-> x3 ; k1, k2
x3 -> x1 + x6 ; k3
x2 + x5 <-> x4 ; k4, k5
x4 -> x2 + x6 ; k6
x6 -> x5 ; k7
x1 <-> x2 ; k8, k9
x3 <-> x4 ; k10, k11
"""

net = parse_network(NETWORK)
print("species:", ", ".join(net.species))
print("reactions:", len(net.reactions))

# 1. Mass-action differential equations, one per species.
print("\nconcentration equations:")
for name, rhs in zip(net.species, mass_action_odes(net)):
    print(f"    d{name}/dt = {rhs}")

# 2. Integer conservation laws (left kernel of the stoichiometric matrix).
print("\nconservation laws:")
for law in conservation_laws(net):
    terms = " + ".join(
        f"{c}*{s}" if c != 1 else s for c, s in zip(law, net.species) if c
    )
    print("   ", terms, "= const")

# 3. Solve for every concentration but x5, which becomes the parameter and
#    whose equation is left out, and replace the x4 equation by the first
#    conservation relation (total T1).  That law conserves x1..x4, so they
#    form one block with the x4 row distinguished, and x6 is the tail.
task = SteadyStateTask(
    solve_for=("x1", "x2", "x3", "x4", "x6"),
    conservation=(ConservationUse(replaces_row=4, law_index=1, total="T1"),),
)
report = parameterize(net, task)
print("\ncertified:", report.certified)

# 4. The parameterization: every concentration as a certified ratio of
#    polynomials with nonnegative coefficients in the rates, T1, and x5.
for name in task.solve_for:
    print(f"\n    {name} = {report.solution[name]}")

# 5. Numerically, any positive choice of rates and totals gives a positive
#    steady state.
point = {"T1": Fraction(2), "x5": Fraction(1, 2)}
for i in range(1, 12):
    point[f"k{i}"] = Fraction(i, 3)
print("\nsteady state at a sample parameter point:")
for name in task.solve_for:
    print(f"    {name} =", report.solution[name].evaluate(point))
