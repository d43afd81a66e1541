"""Refusals of the certificate search against a brute-force oracle.

Every certificate that :func:`find_pgraph` returns is re-validated by
:func:`is_pgraph`, but a refusal has no such check.  The oracle here decides
by exhaustive search whether a certificate exists at the search's own
granularity, and shares only ``Polynomial``, ``monomial_split`` and
``poly_sign`` with the search:

- every nonzero off-diagonal entry (i, j) is an arc j -> i; its negative
  monomials merge into one negative edge, and each positive monomial c*z is
  c unit edges (the draws have integer coefficients, and a transport problem
  with integer capacities has an integral optimum, so unit splits lose
  nothing);
- simple cycles are listed by node permutations, so the draws stay at five
  nodes or fewer;
- a certificate exists iff every diagonal entry is nonpositive, no cycle
  holds two negative arcs (ii), and at every source some assignment of the
  unit edges to that source's negative edges, or to none, gives each
  negative edge only units whose arc has its target on every cycle through
  it (iii b) and makes every group sum nonnegative.

Block systems go through :func:`certify_block_nonneg`; their expected
verdict adds the sign hypotheses and condition (*), read from the
realization.  The oracle checks the search, not its granularity:
realizations whose parallel edges cancel, and non-integer splits, are out
of its scope.
"""

import itertools
import random
import time

from forestsolve import (
    BlockHypothesisError,
    BlockStructure,
    Laplacian,
    Polynomial,
    Sign,
    SingularSystemError,
    certify_block_nonneg,
    find_pgraph,
    is_pgraph,
    laplacian_of,
    monomial_split,
    poly_sign,
    realization,
)

from conftest import biased_block_system, random_block_system

NAMES = ("z1", "z2", "z3")


def simple_cycles_by_permutation(n: int, arcs) -> list[tuple[int, ...]]:
    """Each simple cycle once, as a node tuple starting at its smallest node."""
    out = []
    for start in range(1, n + 1):
        later = range(start + 1, n + 1)
        for k in range(1, n - start + 1):
            for rest in itertools.permutations(later, k):
                cycle = (start,) + rest
                if all(hop in arcs for hop in zip(cycle, cycle[1:] + cycle[:1])):
                    out.append(cycle)
    return out


def _assignable(needs: dict, supplies: list, allowed) -> bool:
    """Whether the unit edges of ``supplies`` can cover every need.

    ``needs`` maps (negative arc, exponents) to the units the group sum
    lacks; ``supplies`` lists (arc, exponents, unit count) per positive
    monomial.  Units of one monomial are interchangeable, so each assignment
    is tried as how many of them go to each negative arc, the rest to none;
    assignments that leave the same needs open are tried once.
    """
    keys = sorted(needs)
    states = {tuple(needs[key] for key in keys)}
    for arc, exps, count in supplies:
        slots = [s for s, (need_arc, e) in enumerate(keys) if e == exps and allowed(arc, need_arc)]
        reached = set()
        for state in states:
            for given in itertools.product(*(range(min(count, state[s]) + 1) for s in slots)):
                if sum(given) <= count:
                    left = list(state)
                    for s, k in zip(slots, given):
                        left[s] -= k
                    reached.add(tuple(left))
        states = reached
    return any(not any(state) for state in states)


def certificate_exists(rows) -> bool:
    """The oracle's verdict on a zero-column-sum matrix (module docstring)."""
    n = len(rows)
    if any(poly_sign(rows[j][j]) not in (Sign.ZERO, Sign.NONPOS) for j in range(n)):
        return False
    negative: dict[tuple[int, int], dict] = {}
    positive: list[tuple[tuple[int, int], tuple, int]] = []
    for i, j in itertools.permutations(range(1, n + 1), 2):
        if not rows[i - 1][j - 1]:
            continue
        for mono in monomial_split(rows[i - 1][j - 1]):
            ((exps, coeff),) = mono.terms
            if poly_sign(mono) == Sign.NONPOS:
                negative.setdefault((j, i), {})[exps] = int(-coeff)
            else:
                positive.append(((j, i), exps, int(coeff)))
    arcs = set(negative) | {arc for arc, _, _ in positive}
    cycles = simple_cycles_by_permutation(n, arcs)
    hops = [set(zip(c, c[1:] + c[:1])) for c in cycles]
    if any(len(h & negative.keys()) > 1 for h in hops):
        return False  # (ii)

    def allowed(arc, need_arc) -> bool:  # (iii b)
        return all(need_arc[1] in c for c, h in zip(cycles, hops) if arc in h)

    for source in range(1, n + 1):
        needs = {
            (arc, exps): q
            for arc, lack in negative.items()
            if arc[0] == source
            for exps, q in lack.items()
        }
        supplies = [s for s in positive if s[0][0] == source]
        if needs and not _assignable(needs, supplies, allowed):
            return False
    return True


def _random_entry(rng: random.Random) -> list[tuple[int, str]]:
    """0-2 monomials c*z_k with c in {-2, -1, 1, 2}, a quarter of them negative."""
    return [
        (rng.choice((-1, -2)) if rng.random() < 0.25 else rng.choice((1, 2)), rng.choice(NAMES))
        for _ in range(rng.choice((0, 0, 1, 1, 2)))
    ]


def biased_matrix(rng: random.Random, n: int) -> list[list[Polynomial]]:
    """A zero-column-sum matrix whose negative monomials are mostly covered.

    Most negative monomials get a positive monomial of the same variable in
    another row of their column, so most draws pass the diagonal test and
    the verdict turns on the cycle conditions and the transport.
    """
    terms = {(i, j): _random_entry(rng) for i, j in itertools.permutations(range(n), 2)}
    for (i, j), entry in list(terms.items()):
        for c, name in list(entry):
            if c < 0 and rng.random() < 0.95:
                k = rng.choice([r for r in range(n) if r not in (i, j)])
                terms[(k, j)].append((rng.choice((-c, -c, 1)), name))
    rows = [[Polynomial.zero()] * n for _ in range(n)]
    for (i, j), entry in terms.items():
        for c, name in entry:
            rows[i][j] = rows[i][j] + c * Polynomial.variable(name)
    for j in range(n):
        rows[j][j] = -sum((rows[i][j] for i in range(n) if i != j), Polynomial.zero())
    return rows


def condition_star_holds(rows, blocks) -> bool:
    """Condition (*) of the block certificate, read from the matrix.

    It fails when some distinguished row reaches the source of a negative
    arc that avoids the bordering node, every path avoiding the bordering
    node.
    """
    n = len(rows)
    last = n
    arcs = {
        (j, i): rows[i - 1][j - 1]
        for i, j in itertools.permutations(range(1, n + 1), 2)
        if rows[i - 1][j - 1]
    }

    def reach(start: int) -> set[int]:
        seen, todo = {start}, [start]
        while todo:
            u = todo.pop()
            for s, t in arcs:
                if s == u and t != last and t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    for (s, t), label in arcs.items():
        if last in (s, t) or not any(poly_sign(m) == Sign.NONPOS for m in monomial_split(label)):
            continue
        if any(s in reach(j) for j in blocks.j):
            return False
    return True


def test_search_agrees_with_brute_force():
    started = time.process_time()
    tally = {"certified": 0, "diagonal": 0, "refused": 0}
    disagreements = []

    def check(rows, expected, found):
        if expected != (found is not None):
            disagreements.append(rows)
        elif found is not None:
            tally["certified"] += 1
        elif all(poly_sign(rows[j][j]) in (Sign.ZERO, Sign.NONPOS) for j in range(len(rows))):
            tally["refused"] += 1
        else:
            tally["diagonal"] += 1

    rng = random.Random(12)
    for draw in range(1600):
        rows = biased_matrix(rng, 3 + draw % 3)
        found = find_pgraph(rows)
        check(rows, certificate_exists(rows), found)
        if found is not None:
            assert is_pgraph(*found) is not None
            assert laplacian_of(found[0]) == Laplacian(rows)

    rng, biased = random.Random(13), random.Random(14)
    draws = [random_block_system(rng, max_m=4) for _ in range(150)]
    draws += [biased_block_system(biased) for _ in range(300)]
    for system, blocks in draws:
        hypotheses = all(
            poly_sign(system.b[j - 1]) in (Sign.ZERO, Sign.NONPOS)
            and all(poly_sign(a) in (Sign.ZERO, Sign.NONNEG) for a in system.a[j - 1])
            for j in blocks.j
        )
        try:
            outcome = certify_block_nonneg(system, blocks)
        except BlockHypothesisError:
            assert not hypotheses
            continue
        except SingularSystemError:
            continue  # certified, but det(A) = 0: no solution to compare
        assert hypotheses
        rows = realization(system, blocks).rows
        expected = certificate_exists(rows) and condition_star_holds(rows, blocks)
        check(rows, expected, outcome)

    elapsed = time.process_time() - started
    assert disagreements == []
    assert tally["certified"] >= 300 and tally["refused"] >= 300, tally
    assert elapsed < 3.0, (elapsed, tally)
