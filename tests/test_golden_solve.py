"""Golden solve corpus: ``solve`` output and the printed n-site solution stay
byte-identical.

``tests/golden/solve.json`` holds two parts.  ``"cli"`` maps each case to its
input system and, for ``--format json`` and ``--format text``, the exit code,
standard output and standard error of ``forestsolve solve``.  The cases are
the running example, the seeded ``random_int_system`` draws of the certify
corpus and seeded symbolic dense systems of at most four unknowns.
``"nsite"`` maps each n-site size n = 1..3 to the length and sha256 of every
printed component of ``crn.parameterize`` with blocks (n+1, n+1), m0 = 0 and
j = (1, n+2); the n = 3 text alone is about 98 kB, so only its digest is
kept.  The records were written by :func:`record` and :func:`nsite_digests`
at the commit before polynomials kept their printed form, and each test
re-runs them on one case.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from forestsolve import BlockStructure, LinearSystem, Polynomial, cli, parameterize, system_to_json

from conftest import nsite_network_and_task, random_int_system

GOLDEN = Path(__file__).resolve().parent / "golden" / "solve.json"
RECORDS = json.loads(GOLDEN.read_text())
FORMATS = ("json", "text")
INT_SEEDS = (1, 2, 3, 4, 5, 6, 10)
DENSE_SEEDS = (1, 5, 6, 7, 8, 9, 10, 12)
NSITE_SIZES = (1, 2, 3)


def dense_symbolic_system(rng: random.Random, max_m: int = 4) -> LinearSystem:
    """Every entry of A and b zero or a term c*z_k, c in {-2, -1, 1, 2}, k in 1..5."""
    m = rng.randint(2, max_m)

    def entry() -> Polynomial:
        if rng.random() < 0.2:
            return Polynomial.zero()
        return Polynomial({((f"z{rng.randint(1, 5)}", 1),): rng.choice((-2, -1, 1, 2))})

    a = [[entry() for _ in range(m)] for _ in range(m)]
    b = [entry() for _ in range(m)]
    return LinearSystem.build([f"x{i}" for i in range(1, m + 1)], a, b)


def corpus_inputs(running_example: LinearSystem) -> dict:
    """Case name -> input system JSON, in a fixed order."""
    cases = {"running_example": running_example}
    for seed in INT_SEEDS:
        cases[f"int_s{seed}"] = random_int_system(random.Random(seed), max_m=4)
    for seed in DENSE_SEEDS:
        cases[f"dense_s{seed}"] = dense_symbolic_system(random.Random(seed))
    return {name: system_to_json(system) for name, system in cases.items()}


def run_solve(path: Path, fmt: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["solve", "--input", str(path), "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(inputs: dict, workdir: Path) -> dict:
    """Golden records of every case in ``inputs`` (what the tests compare with)."""
    records = {}
    for name, data in inputs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data))
        records[name] = {"input": data, **{fmt: run_solve(path, fmt) for fmt in FORMATS}}
    return records


def nsite_digests(n: int) -> dict:
    """Unknown -> length and sha256 of its printed component, n-site size n."""
    net, task = nsite_network_and_task(n)
    report = parameterize(net, task, blocks=BlockStructure((n + 1, n + 1), 0, (1, n + 2)))
    assert report.certified
    out = {}
    for name in task.solve_for:
        text = str(report.solution[name]).encode()
        out[name] = {"length": len(text), "sha256": hashlib.sha256(text).hexdigest()}
    return out


def test_corpus_inputs_are_the_seeded_draws(three_var_system):
    assert corpus_inputs(three_var_system) == {
        name: rec["input"] for name, rec in RECORDS["cli"].items()
    }


def test_corpus_covers_each_outcome():
    exits = [rec["json"]["exit"] for rec in RECORDS["cli"].values()]
    assert {code: exits.count(code) for code in set(exits)} == {0: 14, 2: 2}


@pytest.mark.parametrize("name", RECORDS["cli"])
def test_solve_output_matches_golden(tmp_path, name):
    case = RECORDS["cli"][name]
    assert record({name: case["input"]}, tmp_path) == {name: case}


@pytest.mark.parametrize("n", NSITE_SIZES)
def test_nsite_printed_solution_matches_golden(n):
    assert nsite_digests(n) == RECORDS["nsite"][str(n)]
