"""Golden block corpus: ``block-solve`` and ``block-certify`` JSON stays byte-identical.

``tests/golden/<stem>.<command>.json`` holds the exact standard output of
``forestsolve <command>`` on the ``block_three_system`` and
``five_var_system`` fixtures, recorded while the block forest sums were
still enumerated forest by forest.
"""

import json
from pathlib import Path

import pytest

from forestsolve import cli, system_to_json

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "fixture_name, stem",
    [("block_three_system", "block_three"), ("five_var_system", "five_var")],
)
@pytest.mark.parametrize("command", ["block-solve", "block-certify"])
def test_block_output_matches_golden(request, tmp_path, capsys, fixture_name, stem, command):
    system, blocks = request.getfixturevalue(fixture_name)
    data = system_to_json(system)
    data["blocks"] = {"sizes": list(blocks.sizes), "m0": blocks.m0, "j": list(blocks.j)}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, "--input", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.{command}.json").read_text()
