"""Golden block corpus: ``block-solve`` and ``block-certify`` output stays byte-identical.

``tests/golden/<stem>.<command>.<format>`` holds the exact standard output of
``forestsolve <command> --format <format>`` on the ``block_three_system`` and
``five_var_system`` fixtures: the JSON payloads, the printed components, and
the drawn graphs (the column-sum realization for ``block-solve``, the
certificate graph for ``block-certify``).  ``nsite2.<command>.json`` pins two
certificates on the n-site network at n = 2: ``block-certify`` on its
steady-state system without a ``"blocks"`` key, and ``crn-param`` on the
network, both of which use the proposed blocks ``sizes=(3, 3), m0=0``.
"""

import json
from pathlib import Path

import pytest

from forestsolve import cli, system_to_json

from conftest import nsite_crn_param_argv, nsite_steady_system

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "fixture_name, stem",
    [("block_three_system", "block_three"), ("five_var_system", "five_var")],
)
@pytest.mark.parametrize(
    "command, fmt",
    [  # a JSON case is named by its command alone, as before formats were added
        pytest.param("block-solve", "json", id="block-solve"),
        pytest.param("block-solve", "text", id="block-solve-text"),
        pytest.param("block-solve", "dot", id="block-solve-dot"),
        pytest.param("block-certify", "json", id="block-certify"),
        pytest.param("block-certify", "dot", id="block-certify-dot"),
    ],
)
def test_block_output_matches_golden(
    request, tmp_path, capsys, fixture_name, stem, command, fmt
):
    system, blocks = request.getfixturevalue(fixture_name)
    data = system_to_json(system)
    data["blocks"] = {"sizes": list(blocks.sizes), "m0": blocks.m0, "j": list(blocks.j)}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, "--input", str(path), "--format", fmt]) == 0
    suffix = {"json": "json", "text": "txt", "dot": "dot"}[fmt]
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.{command}.{suffix}").read_text()


def nsite2_argv(tmp_path, command: str) -> list[str]:
    """Argument list of ``command`` on the n = 2 n-site network, no blocks given."""
    if command == "block-certify":
        path = tmp_path / "nsite2.json"
        system = nsite_steady_system(2)[0]
        path.write_text(json.dumps(system_to_json(system)))
        return [command, "--input", str(path)]
    return nsite_crn_param_argv(tmp_path / "nsite2.txt", 2)


@pytest.mark.parametrize("command", ["block-certify", "crn-param"])
def test_nsite2_matches_golden(tmp_path, capsys, command):
    assert cli.main(nsite2_argv(tmp_path, command)) == 0
    assert capsys.readouterr().out == (GOLDEN / f"nsite2.{command}.json").read_text()
