"""Golden certify corpus: ``certify`` output stays byte-identical.

``tests/golden/certify.json`` maps each case to its input system and, for
``--format json`` and ``--format dot``, the exit code, standard output and
standard error of ``forestsolve certify``.  The cases are the running
example, the M-matrix refusal, seeded ``random_int_system`` draws (mostly
refusals) and seeded ``random_certificate_cases`` draws, each Laplacian
read back as (A | b); some of the latter are singular and exit 2.  The
records were written by :func:`record` at the commit before certification
read its solution from minors, and each test re-runs it on one case.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from forestsolve import (
    BlockStructure,
    LinearSystem,
    bordered_laplacian,
    cli,
    realization,
    system_from_json,
    system_to_json,
)

from conftest import random_certificate_cases, random_int_system, system_of_laplacian

GOLDEN = Path(__file__).resolve().parent / "golden" / "certify.json"
RECORDS = json.loads(GOLDEN.read_text())
FORMATS = ("json", "dot")
INT_SEEDS = (1, 2, 3, 4, 5, 6, 10)
CERTIFICATE_SEEDS = (3, 4, 5)


def corpus_inputs(running_example: LinearSystem, mmatrix: LinearSystem) -> dict:
    """Case name -> input system JSON, in a fixed order."""
    cases = {"running_example": running_example, "mmatrix": mmatrix}
    for seed in INT_SEEDS:
        cases[f"int_s{seed}"] = random_int_system(random.Random(seed), max_m=4)
    for seed in CERTIFICATE_SEEDS:
        for k, (lap, _) in enumerate(random_certificate_cases(random.Random(seed), 3)):
            cases[f"certificate_s{seed}_{k}"] = system_of_laplacian(lap)
    return {name: system_to_json(system) for name, system in cases.items()}


def run_certify(path: Path, fmt: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["certify", "--input", str(path), "--format", fmt])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(inputs: dict, workdir: Path) -> dict:
    """Golden records of every case in ``inputs`` (what the tests compare with)."""
    records = {}
    for name, data in inputs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data))
        records[name] = {"input": data, **{fmt: run_certify(path, fmt) for fmt in FORMATS}}
    return records


def test_corpus_inputs_are_the_seeded_draws(three_var_system, mmatrix_system):
    assert corpus_inputs(three_var_system, mmatrix_system) == {
        name: rec["input"] for name, rec in RECORDS.items()
    }


def test_corpus_covers_each_outcome():
    exits = [rec["json"]["exit"] for rec in RECORDS.values()]
    assert {code: exits.count(code) for code in (0, 1, 2)} == {0: 6, 1: 7, 2: 5}


@pytest.mark.parametrize("name", RECORDS)
def test_certify_output_matches_golden(tmp_path, name):
    assert record({name: RECORDS[name]["input"]}, tmp_path) == {name: RECORDS[name]}


def test_no_block_realization_is_the_bordered_matrix():
    # certify runs the block pipeline with no blocks, while solve --format dot
    # and graph-dot draw the bordered matrix: both must be the same matrix
    systems = [system_from_json(rec["input"]) for rec in RECORDS.values()]
    rng = random.Random(33)
    systems += [random_int_system(rng) for _ in range(60)]
    for system in systems:
        assert realization(system, BlockStructure((), system.m, ())) == bordered_laplacian(system)
