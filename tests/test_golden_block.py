"""Golden block corpus: ``solve`` and ``certify`` output on block inputs stays byte-identical.

``tests/golden/<stem>.<command>.<format>`` holds the exact standard output of
``forestsolve <command> --format <format>`` on the ``block_three_system`` and
``five_var_system`` fixtures, whose input carries a ``"blocks"`` key: the JSON
payloads, the printed components, and the drawn graphs (the column-sum
realization for ``solve``, the certificate graph for ``certify``).
``block-certify``, another name for ``certify``, prints the same bytes.
``nsite2.<command>.json`` pins two certificates on the n-site network at
n = 2: ``certify`` on its steady-state system with the blocks
``sizes=(3, 3), m0=0``, and ``crn-param`` on the network given its
unknowns and the two enzyme laws, whose blocks are those.
"""

import json
from pathlib import Path

import pytest

from forestsolve import cli, system_to_json

from conftest import nsite_crn_param_argv, nsite_steady_system

GOLDEN = Path(__file__).resolve().parent / "golden"


def block_input(request, tmp_path, fixture_name) -> str:
    system, blocks = request.getfixturevalue(fixture_name)
    data = system_to_json(system)
    data["blocks"] = {"sizes": list(blocks.sizes), "m0": blocks.m0, "j": list(blocks.j)}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


FIXTURES = pytest.mark.parametrize(
    "fixture_name, stem",
    [("block_three_system", "block_three"), ("five_var_system", "five_var")],
)


@FIXTURES
@pytest.mark.parametrize(
    "command, fmt",
    [  # ids keep the names of the commands that read blocks before solve and certify did
        pytest.param("solve", "json", id="block-solve"),
        pytest.param("solve", "text", id="block-solve-text"),
        pytest.param("solve", "dot", id="block-solve-dot"),
        pytest.param("certify", "json", id="block-certify"),
        pytest.param("certify", "dot", id="block-certify-dot"),
    ],
)
def test_block_output_matches_golden(
    request, tmp_path, capsys, fixture_name, stem, command, fmt
):
    path = block_input(request, tmp_path, fixture_name)
    assert cli.main([command, "--input", path, "--format", fmt]) == 0
    suffix = {"json": "json", "text": "txt", "dot": "dot"}[fmt]
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.{command}.{suffix}").read_text()


@FIXTURES
@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_block_certify_is_certify(request, tmp_path, capsys, fixture_name, stem, fmt):
    path = block_input(request, tmp_path, fixture_name)
    assert cli.main(["block-certify", "--input", path, "--format", fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.certify.{fmt}").read_text()


def nsite2_argv(tmp_path, command: str) -> list[str]:
    """Argument list of ``command`` on the n = 2 n-site network."""
    if command == "certify":
        path = tmp_path / "nsite2.json"
        data = system_to_json(nsite_steady_system(2)[0])
        data["blocks"] = {"sizes": [3, 3], "m0": 0}
        path.write_text(json.dumps(data))
        return [command, "--input", str(path)]
    return nsite_crn_param_argv(tmp_path / "nsite2.txt", 2)


@pytest.mark.parametrize("command", ["certify", "crn-param"])
def test_nsite2_matches_golden(tmp_path, capsys, command):
    assert cli.main(nsite2_argv(tmp_path, command)) == 0
    assert capsys.readouterr().out == (GOLDEN / f"nsite2.{command}.json").read_text()
