"""Checks of the program's outputs against computations made here.

Each checker raises ``CheckError`` with a reason; none compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

from exact import (
    CheckError,
    add,
    evaluate,
    neg,
    nonneg,
    parse_poly,
    parse_quotient,
    random_point,
    solve,
    variables,
)
from inputs import nsite_closed_form, nsite_species, nsite_symbols

POINTS = 2  # random rational points per solution check


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def parse_system(data: dict) -> tuple[list[list[dict]], list[dict]]:
    return (
        [[parse_poly(s) for s in row] for row in data["A"]],
        [parse_poly(s) for s in data["b"]],
    )


def bordered(a: list[list[dict]], b: list[dict]) -> list[list[dict]]:
    """(A | b) with the row that makes every column sum to zero."""
    rows = [list(a[i]) + [b[i]] for i in range(len(a))]
    rows.append([neg(add(*(row[j] for row in rows))) for j in range(len(a) + 1)])
    return rows


def check_solution(data: dict, components: list[str], rng) -> list[tuple[dict, dict]]:
    """Every component equals the exact solution of A(p)x + b(p) = 0 at
    random rational points p; returns the parsed components."""
    a, b = parse_system(data)
    _expect(len(components) == len(a), "solution has the wrong length")
    parsed = [parse_quotient(c) for c in components]
    names = variables([p for row in a for p in row] + b + [q for nd in parsed for q in nd])
    checked = tries = 0
    while checked < POINTS:
        tries += 1
        _expect(tries <= 10 * POINTS, "no point where the solution is defined")
        point = random_point(rng, names)
        x = solve([[evaluate(p, point) for p in row] for row in a], [evaluate(p, point) for p in b])
        dens = [evaluate(den, point) for _, den in parsed]
        if x is None or 0 in dens:
            continue
        for k, ((num, _), den, xk) in enumerate(zip(parsed, dens, x)):
            _expect(evaluate(num, point) / den == xk, f"component {k + 1} is wrong at {point}")
        checked += 1
    return parsed


def check_solve(data: dict, result: dict, rng) -> None:
    _expect(result.get("exit") == 0, f"solve exited with {result.get('exit')}")
    check_solution(data, result["output"]["solution"], rng)


def check_certified(data: dict, result: dict, rng) -> None:
    """Certificate: right solution, nonnegative quotients and group sums, and
    witness labels that sum arc by arc to the bordered matrix."""
    out = result.get("output") or {}
    _expect(result.get("exit") == 0 and out.get("certified") is True, "system was not certified")
    for num, den in check_solution(data, out["solution"], rng):
        _expect(nonneg(num) and nonneg(den), "certified component has a negative coefficient")
    a, b = parse_system(data)
    lap = bordered(a, b)
    n = len(lap)
    witness = out["witness"]
    labels = {e["id"]: parse_poly(e["label"]) for e in witness["edges"]}
    arcs: dict = {}
    for e in witness["edges"]:
        _expect(e["src"] != e["tgt"] and 1 <= e["src"] <= n and 1 <= e["tgt"] <= n, "bad witness edge")
        arcs[(e["src"], e["tgt"])] = add(arcs.get((e["src"], e["tgt"]), {}), labels[e["id"]])
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if i != j:
                _expect(arcs.get((j, i), {}) == lap[i - 1][j - 1], f"witness arc {j}->{i} does not match")
    check_groups(witness, labels)


def check_groups(witness: dict, labels: dict) -> None:
    """Each group sum is its negative edge plus its group, with no negative
    coefficient."""
    for eid, group in witness["mu"].items():
        total = add(labels[int(eid)], *(labels[g] for g in group))
        _expect(total == parse_poly(witness["group_sums"][eid]), f"group sum {eid} is wrong")
        _expect(nonneg(total), f"group sum {eid} has a negative coefficient")


def check_block_certified(data: dict, result: dict, rng) -> None:
    """Block certificate: right solution, nonnegative quotients and group
    sums, and zero components that are exactly the components that vanish;
    at least one must, so that the reachability search has run."""
    out = result.get("output") or {}
    _expect(result.get("exit") == 0 and out.get("certified") is True, "block system was not certified")
    parsed = check_solution(data, out["solution"], rng)
    for num, den in parsed:
        _expect(nonneg(num) and nonneg(den), "certified component has a negative coefficient")
    vanishing = [k + 1 for k, (num, _) in enumerate(parsed) if not num]
    _expect(vanishing != [], "no component vanishes")
    _expect(out.get("zero_components") == vanishing, f"zero components are not {vanishing}")
    check_groups(out["witness"], {e["id"]: parse_poly(e["label"]) for e in out["witness"]["edges"]})


def check_refusal(data: dict, result: dict, cycle: tuple[int, int, int]) -> None:
    """Refused with exit 1, on an input that really holds the planted cycle
    u -> v -> w -> u with purely negative arcs u -> v and v -> w."""
    out = result.get("output") or {}
    _expect(result.get("exit") == 1 and out.get("certified") is False, "refusal case was not refused")
    _expect(out.get("witness") is None and out.get("solution") is None, "refusal carries a witness")
    lap = bordered(*parse_system(data))
    u, v, w = cycle
    for j, i in ((u, v), (v, w)):
        entry = lap[i - 1][j - 1]
        _expect(bool(entry) and all(c < 0 for c in entry.values()), f"arc {j}->{i} is not purely negative")
    _expect(bool(lap[u - 1][w - 1]), f"arc {w}->{u} is missing")
    for j in range(len(lap)):
        _expect(nonneg(neg(lap[j][j])), f"diagonal entry {j + 1} is not nonpositive")


def check_nsite(n: int, result: dict, rng) -> None:
    """Certified with no zero component, nonnegative quotients, and the
    closed form at random positive points, met also by the Cramer oracle's
    result for n <= 3."""
    _expect(result.get("certified") is True, f"n = {n} was not certified")
    _expect(result["zero_components"] == [], f"n = {n} has zero components")
    unknowns = nsite_species(n)[: 2 * n + 2]
    solution = result["solution"]
    _expect(sorted(solution) == sorted(unknowns), f"n = {n} solves for the wrong unknowns")
    parsed = {k: parse_quotient(v) for k, v in solution.items()}
    for num, den in parsed.values():
        _expect(nonneg(num) and nonneg(den), f"n = {n} has a negative coefficient")
    oracle = None
    if n <= 3:
        _expect(result["oracle"] is not None, f"n = {n}: no Cramer oracle result")
        oracle = dict(zip(unknowns, (parse_quotient(c) for c in result["oracle"])))
    for _ in range(POINTS):
        point = random_point(rng, nsite_symbols(n))
        expected = nsite_closed_form(n, point)
        for source in [parsed] + ([oracle] if oracle else []):
            for name, (num, den) in source.items():
                value = evaluate(den, point)
                _expect(value > 0, f"n = {n}: denominator of {name} vanishes")
                _expect(
                    evaluate(num, point) / value == expected[name],
                    f"n = {n}: {name} differs from the closed form",
                )
