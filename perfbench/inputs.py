"""Seeded inputs for the three workloads, built apart from forestsolve.

Every generator takes a ``random.Random`` and returns plain data; the same
seed gives the same inputs in every process.  Systems are checked to be
nonsingular by exact elimination at a random rational point.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from exact import (
    add,
    evaluate,
    format_poly,
    neg,
    parse_poly,
    random_point,
    reaches_avoiding,
    solve,
    tree_count,
    variables,
)

SYMBOLS = [f"z{k}" for k in range(1, 9)]


def monomial(rng, sign: int, names=SYMBOLS, max_degree: int = 2) -> dict:
    exps: dict = {}
    for _ in range(rng.randint(1, max_degree)):
        name = rng.choice(names)
        exps[name] = exps.get(name, 0) + 1
    return {tuple(sorted(exps.items())): Fraction(sign * rng.randint(1, 3))}


def nonsingular(rng, a: list[list[dict]], b: list[dict]) -> bool:
    point = random_point(rng, variables([p for row in a for p in row] + b))
    at = [[evaluate(p, point) for p in row] for row in a]
    return solve(at, [evaluate(p, point) for p in b]) is not None


def system_json(a: list[list[dict]], b: list[dict]) -> dict:
    return {
        "variables": [f"x{i + 1}" for i in range(len(a))],
        "A": [[format_poly(p) for p in row] for row in a],
        "b": [format_poly(p) for p in b],
    }


def dense_system(rng, m: int) -> dict:
    """Every entry of A and b a term c*z_k of random sign, k in 1..5."""
    names = SYMBOLS[:5]

    def entry():
        return monomial(rng, rng.choice((1, -1)), names, max_degree=1)

    while True:
        a = [[entry() for _ in range(m)] for _ in range(m)]
        b = [entry() for _ in range(m)]
        if nonsingular(rng, a, b):
            return system_json(a, b)


# ---------------------------------------------------------------------------
# certify-mixed


def system_from_arcs(n: int, arcs: dict) -> tuple[list[list[dict]], list[dict]]:
    """(A, b) of the bordered matrix whose entry (i, j) is the label of arc j -> i.

    Node n is the bordering node; diagonal entries make every column sum zero.
    """
    lap = [[{} for _ in range(n)] for _ in range(n)]
    for (j, i), label in arcs.items():
        lap[i - 1][j - 1] = label
    for j in range(n):
        lap[j][j] = neg(add(*(lap[i][j] for i in range(n) if i != j)))
    return [row[: n - 1] for row in lap[: n - 1]], [row[n - 1] for row in lap[: n - 1]]


def _cycle_with_two(succ: dict, neg_arcs: list) -> bool:
    """Whether some simple cycle of the arc relation holds two of ``neg_arcs``."""
    nodes = sorted(succ)
    found = False

    def extend(start, path, on_path):
        nonlocal found
        for v in succ[path[-1]]:
            if found:
                return
            if v == start:
                cyc = set(zip(path, path[1:] + path[:1]))
                found = sum(1 for arc in neg_arcs if arc in cyc) > 1
            elif v > start and v not in on_path:
                extend(start, path + [v], on_path | {v})

    for s in nodes:
        extend(s, [s], {s})
        if found:
            return True
    return False


def certifiable_system(rng, m: int, negatives: int = 2) -> dict:
    """A system whose bordered matrix has a certificate graph by construction.

    Positive monomial arcs (some arcs carry two monomials, so the certificate
    graph has parallel edges), then purely negative arcs j -> i, each paired
    with a larger positive copy of its monomial on an arc j -> k whose cycles
    all pass i, and never two negative arcs on one cycle.
    """
    n = m + 1
    while True:
        arcs: dict = {}
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                if i != j and rng.random() < 0.45:
                    arcs[(j, i)] = add(*(monomial(rng, 1) for _ in range(rng.randint(1, 2))))
        for j in range(1, n):  # every node drains to the bordering node
            if not any((j, i) in arcs for i in range(1, n + 1)):
                arcs[(j, n)] = monomial(rng, 1)
        if not any((n, i) in arcs for i in range(1, n)):
            arcs[(n, rng.randint(1, n - 1))] = monomial(rng, 1)
        groups: list = []  # (j, i, k): negative arc j -> i grouped with j -> k
        for _ in range(20 * negatives):
            if len(groups) == negatives:
                break
            j, i, k = rng.sample(range(1, n + 1), 3)
            if (j, i) in arcs or (j, k) not in arcs:
                continue
            succ = {u: [] for u in range(1, n + 1)}
            for s, t in list(arcs) + [(j, i)]:
                succ[s].append(t)
            trial = groups + [(j, i, k)]
            if any(reaches_avoiding(succ, gk, gj, gi) for gj, gi, gk in trial):
                continue
            if _cycle_with_two(succ, [(gj, gi) for gj, gi, _ in trial]):
                continue
            (exps, c), = monomial(rng, 1).items()
            arcs[(j, i)] = {exps: -c}
            arcs[(j, k)] = add(arcs[(j, k)], {exps: c + rng.randint(0, 2)})
            groups.append((j, i, k))
        a, b = system_from_arcs(n, arcs)
        if groups and any(b) and nonsingular(rng, a, b):
            return system_json(a, b)


RUNNING_EXAMPLE = {
    "variables": ["x1", "x2", "x3"],
    "A": [["-z2", "0", "z4"], ["-z1", "-z3", "0"], ["-z2", "z3", "-z4"]],
    "b": ["0", "z5", "0"],
}


# One 2x2 block over two trailing rows (sizes (2,), m0 = 2, j = (2,)).  The
# certificate graph keeps the purely negative arc 3 -> 4 inside the tail, and
# node 1 reaches node 3 avoiding the bordering node, so x1 vanishes: the
# reachability condition and the zero-component test both run graph searches.
ZERO_BLOCK = {
    "variables": ["x1", "x2", "x3", "x4"],
    "A": [["-z1", "0", "0", "0"], ["1", "1", "0", "0"],
          ["z4", "0", "-z5", "z8"], ["0", "0", "-z6", "-z8"]],
    "b": ["0", "-z3", "0", "z7"],
    "blocks": {"sizes": [2], "m0": 2, "j": [2]},
}


def refusal_system(rng, n: int = 9) -> tuple[dict, tuple[int, int, int]]:
    """Complete n-node skeleton with a cycle u -> v -> w -> u through two
    purely negative arcs; every diagonal entry stays nonpositive."""
    while True:
        arcs = {
            (j, i): monomial(rng, 1)
            for j in range(1, n + 1)
            for i in range(1, n + 1)
            if i != j
        }
        u, v, w = rng.sample(range(1, n + 1), 3)
        for j, i, k in ((u, v, w), (v, w, u)):
            (exps, c), = monomial(rng, 1).items()
            arcs[(j, i)] = {exps: -c}
            arcs[(j, k)] = add(arcs[(j, k)], {exps: c + 1})
        a, b = system_from_arcs(n, arcs)
        if nonsingular(rng, a, b):
            return system_json(a, b), (u, v, w)


# ---------------------------------------------------------------------------
# nsite-param


def nsite_species(n: int) -> list[str]:
    """Unknowns E, ES0.., F, FS1.. in block order, then the substrates S0..Sn."""
    return (
        ["E"] + [f"ES{i}" for i in range(n)]
        + ["F"] + [f"FS{i}" for i in range(1, n + 1)]
        + [f"S{i}" for i in range(n + 1)]
    )


def nsite_network(n: int) -> str:
    """Sequential n-site phosphorylation: kinase E, phosphatase F, S0..Sn."""
    lines = ["species: " + ", ".join(nsite_species(n))]
    for i in range(n):
        lines.append(f"S{i} + E <-> ES{i} ; a{i}, b{i}")
        lines.append(f"ES{i} -> S{i + 1} + E ; c{i}")
    for i in range(1, n + 1):
        lines.append(f"S{i} + F <-> FS{i} ; d{i}, e{i}")
        lines.append(f"FS{i} -> S{i - 1} + F ; f{i}")
    return "\n".join(lines) + "\n"


def nsite_closed_form(n: int, point: dict) -> dict:
    """Steady state at a point: E = Etot / (1 + sum a_i S_i / (b_i + c_i)), etc."""
    p = point
    ks = {i: p[f"a{i}"] * p[f"S{i}"] / (p[f"b{i}"] + p[f"c{i}"]) for i in range(n)}
    ls = {i: p[f"d{i}"] * p[f"S{i}"] / (p[f"e{i}"] + p[f"f{i}"]) for i in range(1, n + 1)}
    e = p["Etot"] / (1 + sum(ks.values()))
    f = p["Ftot"] / (1 + sum(ls.values()))
    values = {"E": e, "F": f}
    values.update({f"ES{i}": k * e for i, k in ks.items()})
    values.update({f"FS{i}": v * f for i, v in ls.items()})
    return values


def nsite_symbols(n: int) -> list[str]:
    rates = [f"{x}{i}" for i in range(n) for x in "abc"]
    rates += [f"{x}{i}" for i in range(1, n + 1) for x in "def"]
    return rates + [f"S{i}" for i in range(n + 1)] + ["Etot", "Ftot"]


# ---------------------------------------------------------------------------
# seeded renaming of a fixed corpus


def relabel(rng, data: dict) -> dict:
    """The same system under a random renaming of its symbols.

    A renaming maps monomials to monomials and keeps the node numbering, so
    the forest and cycle work is unchanged while the input and output texts
    differ.  (A permutation of the unknowns would change the order in which
    forests and cycles are met, and with it the work.)  Keys other than the
    system's, such as ``blocks``, are kept.
    """
    a = [[parse_poly(s) for s in row] for row in data["A"]]
    b = [parse_poly(s) for s in data["b"]]
    names = variables([p for row in a for p in row] + b)
    image = names[:]
    rng.shuffle(image)
    rename = dict(zip(names, image))

    def ren(p: dict) -> dict:
        return {
            tuple(sorted((rename[n], e) for n, e in exps)): c for exps, c in p.items()
        }

    return {**data, **system_json([[ren(p) for p in row] for row in a], [ren(p) for p in b])}


def tree_total(data: dict) -> int:
    """Rooted spanning trees, summed over all roots, of the graph that splits
    each bordered-matrix entry into one edge per positive monomial plus one
    for its negative part: the forests a certificate search enumerates."""
    a = [[parse_poly(s) for s in row] for row in data["A"]]
    b = [parse_poly(s) for s in data["b"]]
    m = len(a)
    cols = [list(a[i]) + [b[i]] for i in range(m)]
    cols.append([neg(add(*(row[j] for row in cols))) for j in range(m + 1)])
    weights = {}
    for i in range(m + 1):
        for j in range(m + 1):
            entry = cols[i][j]
            if i != j and entry:
                pos = sum(1 for c in entry.values() if c > 0)
                weights[(j + 1, i + 1)] = pos + int(pos < len(entry))
    return sum(tree_count(weights, m + 1, r) for r in range(1, m + 2))


# ---------------------------------------------------------------------------
# workload make-up

# batch sizes of small cases, chosen so that one batch takes about a second
DENSE_SMALL = [2, 3, 4] * 2 + [4] * 3
DENSE_LARGE = 5
CERTIFY_SMALL = 16
CERTIFY_TREES = (60, 300)  # window on tree_total, which sets a case's cost
NSITE_SMALL = [1, 2, 3]
NSITE_LARGE = 4


def write_inputs(workload: str, seed: int, out_dir: str) -> dict:
    """Write the workload's input files and return its manifest.

    The systems come from a corpus drawn with a fixed seed; ``seed`` renames
    the symbols of each one, so every seed gives new input texts with the
    same work.
    """
    corpus = random.Random(f"corpus:{workload}")
    rng = random.Random(seed)
    cases: list[dict] = []
    meta: dict = {}

    def add_case(name, large, command, data):
        data = relabel(rng, data)
        path = os.path.join(out_dir, f"{name}.in.json")
        write_json(path, data)
        out = os.path.join(out_dir, f"{name}.out.json")
        cases.append({"name": name, "large": large, "command": command, "input": path, "output": out})

    if workload == "dense-solve":
        for k, m in enumerate(DENSE_SMALL):
            add_case(f"dense-{k}-m{m}", False, "solve", dense_system(corpus, m))
        add_case(f"dense-large-m{DENSE_LARGE}", True, "solve", dense_system(corpus, DENSE_LARGE))
    elif workload == "certify-mixed":
        add_case("certify-running-example", False, "certify", RUNNING_EXAMPLE)
        k = 0
        while k < CERTIFY_SMALL:
            data = certifiable_system(corpus, 4)
            if CERTIFY_TREES[0] <= tree_total(data) <= CERTIFY_TREES[1]:
                add_case(f"certify-{k}-m4", False, "certify", data)
                k += 1
        data, cycle = refusal_system(corpus)
        add_case("refuse-large-n9", True, "certify", data)
        meta["planted_cycle"] = cycle
    elif workload == "nsite-param":
        def add_nsite(n):
            path = os.path.join(out_dir, f"nsite-n{n}.in.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(nsite_network(n))
            cases.append({"name": f"nsite-n{n}", "large": n == NSITE_LARGE, "command": "parameterize", "input": path, "n": n})

        for n in NSITE_SMALL:
            add_nsite(n)
        add_case("block-zero", False, "block-certify", ZERO_BLOCK)
        add_nsite(NSITE_LARGE)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "cases": cases, "meta": meta}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
