"""Command-line behaviour: payloads, exit codes, determinism."""

import json
import random
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from forestsolve import (
    BlockStructure,
    MissingVariableError,
    Solution,
    blocksys,
    cli,
    cramer_oracle,
    forests,
    linsys,
    parameterize,
    parse_poly,
    pgraph,
    system_to_json,
)

from conftest import (
    CRN_TEXT,
    nsite_closed_form,
    nsite_crn_param_argv,
    nsite_network_and_task,
)


@pytest.fixture
def system_file(tmp_path, three_var_system):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(three_var_system)))
    return str(path)


@pytest.fixture
def block_file(tmp_path, block_three_system):
    system, blocks = block_three_system
    data = system_to_json(system)
    data["blocks"] = {"sizes": list(blocks.sizes), "m0": blocks.m0, "j": list(blocks.j)}
    path = tmp_path / "block.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def mmatrix_file(tmp_path, mmatrix_system):
    path = tmp_path / "mmatrix.json"
    path.write_text(json.dumps(system_to_json(mmatrix_system)))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_json_output(self, capsys, system_file):
        code, out, _ = run(capsys, ["solve", "--input", system_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["solution"][0] == "(z5)/(z1 + 2*z2)"

    def test_oracle_flag(self, capsys, system_file):
        code, out, _ = run(capsys, ["solve", "--input", system_file, "--oracle"])
        assert code == 0
        assert json.loads(out)["oracle_agrees"] is True

    def test_text_format(self, capsys, system_file):
        code, out, _ = run(
            capsys, ["solve", "--input", system_file, "--format", "text"]
        )
        assert code == 0
        assert out.splitlines()[0] == "x1 = (z5)/(z1 + 2*z2)"

    def test_deterministic_output(self, capsys, system_file):
        _, first, _ = run(capsys, ["solve", "--input", system_file])
        _, second, _ = run(capsys, ["solve", "--input", system_file])
        assert first == second


class TestCertify:
    def test_certified_payload(self, capsys, system_file):
        code, out, _ = run(capsys, ["certify", "--input", system_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert sorted(payload["witness"]["group_sums"].values()) == ["0", "z2"]
        assert payload["witness"]["mu"]

    def test_no_witness_exit_code(self, capsys, mmatrix_file):
        code, out, _ = run(capsys, ["certify", "--input", mmatrix_file])
        assert code == 1
        assert json.loads(out)["certified"] is False

    def test_dot_output(self, capsys, system_file):
        code, out, _ = run(
            capsys, ["certify", "--input", system_file, "--format", "dot"]
        )
        assert code == 0
        assert out.startswith("digraph G {")

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_certify_enumerates_no_forest(
        self, capsys, monkeypatch, system_file, mmatrix_file, fmt
    ):
        # certify reads N and D as minors; the graph's forests belong to the
        # proof, so patching the enumeration to raise changes nothing
        def refuse(*args, **kwargs):
            raise RuntimeError("forest enumeration reached from certify")

        for module in (forests, linsys, pgraph):
            for name in ("enumerate_rooted_forests", "upsilon_rooted"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for path, code in ((system_file, 0), (mmatrix_file, 1)):
            assert run(capsys, ["certify", "--input", path, "--format", fmt])[0] == code


class TestBlockCommands:
    def test_block_solve(self, capsys, block_file):
        code, out, _ = run(capsys, ["block-solve", "--input", block_file, "--oracle"])
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_agrees"] is True

    def test_block_oracle_needs_vanishing_residual(
        self, capsys, monkeypatch, block_file, block_three_system
    ):
        # The block solver and Cramer's rule share det_matrix, so a wrong
        # answer from both must still fail on the exact residual.
        system, _ = block_three_system
        right = cramer_oracle(system)
        wrong = Solution(  # x1 + 1
            (right.numerators[0] + right.denominator,) + right.numerators[1:],
            right.denominator,
        )
        monkeypatch.setattr(blocksys, "solve_block", lambda *args: wrong)
        monkeypatch.setattr(linsys, "cramer_oracle", lambda *args: wrong)
        code, out, _ = run(capsys, ["block-solve", "--input", block_file, "--oracle"])
        assert code == 3
        assert json.loads(out)["oracle_agrees"] is False

    def test_block_oracle_on_nsite_n3(self, capsys, tmp_path):
        # Cramer's (N, D) is compared with the solver's term by term, not by
        # cross-multiplying the reduced components' 400-term denominators.
        n = 3
        net, task = nsite_network_and_task(n)
        blocks = BlockStructure((n + 1, n + 1), 0, (1, n + 2))
        data = system_to_json(parameterize(net, task, blocks=blocks).system)
        data["blocks"] = {"sizes": list(blocks.sizes), "m0": 0, "j": list(blocks.j)}
        path = tmp_path / "nsite3.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["block-solve", "--input", str(path), "--oracle"])
        assert code == 0
        assert json.loads(out)["oracle_agrees"] is True

    def test_block_certify(self, capsys, block_file):
        code, out, _ = run(capsys, ["block-certify", "--input", block_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["zero_components"] == []

    @pytest.mark.parametrize("command", ["block-solve", "block-certify"])
    def test_realization_fault_exits_3(self, capsys, monkeypatch, block_file, command):
        # block confinement of the realization is an invariant, not a refusal
        monkeypatch.setattr(blocksys, "validate_acompatible", lambda *args: ["slip"])
        code, out, err = run(capsys, [command, "--input", block_file])
        assert code == 3
        assert out == ""
        assert err.startswith("internal invariant failure")
        assert "slip" in err

    def test_blocks_default_to_proposal(self, capsys, tmp_path, block_three_system):
        system, _ = block_three_system
        path = tmp_path / "noblocks.json"
        path.write_text(json.dumps(system_to_json(system)))
        code, out, _ = run(capsys, ["block-certify", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["certified"] is True


class TestMttCheck:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, ["mtt-check", "--random", "5", "--seed", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mismatches"] == []
        assert payload["checked"] > 0

    def test_single_node_graphs(self, capsys):
        code, out, _ = run(
            capsys, ["mtt-check", "--random", "3", "--seed", "1", "--nodes", "1"]
        )
        assert code == 0
        assert json.loads(out)["mismatches"] == []

    def test_fixed_seed_reruns_identically(self, capsys):
        argv = ["mtt-check", "--random", "4", "--seed", "9"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestCrnParam:
    def test_end_to_end(self, capsys, tmp_path):
        net_file = tmp_path / "net.txt"
        net_file.write_text(CRN_TEXT)
        code, out, _ = run(
            capsys,
            [
                "crn-param",
                "--input", str(net_file),
                "--solve-for", "x1,x2,x3,x4,x6",
                "--parameters", "x5",
                "--conserve", "1:T1:4",
                "--drop", "5",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert set(payload["solution"]) == {"x1", "x2", "x3", "x4", "x6"}
        assert payload["zero_components"] == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nsite_certifies_without_block_flags(self, capsys, tmp_path, n):
        code, out, _ = run(capsys, nsite_crn_param_argv(tmp_path / "nsite.txt", n))
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        rng = random.Random(n)
        names = [f"{k}{i}" for k in "abc" for i in range(n)]
        names += [f"{k}{i}" for k in "def" for i in range(1, n + 1)]
        names += [f"S{i}" for i in range(n + 1)] + ["Etot", "Ftot"]
        for _ in range(3):
            point = {v: Fraction(rng.randint(1, 30), rng.randint(1, 10)) for v in names}
            expected = nsite_closed_form(n, point)
            assert set(payload["solution"]) == set(expected)
            for name, text in payload["solution"].items():
                num, _, den = text.removeprefix("(").removesuffix(")").partition(")/(")
                value = parse_poly(num).evaluate(point) / parse_poly(den or "1").evaluate(point)
                assert value == expected[name]


class TestGraphDot:
    def test_graph_json_input(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(
            json.dumps(
                {"nodes": 2, "edges": [{"src": 1, "tgt": 2, "label": "z1"}]}
            )
        )
        code, out, _ = run(capsys, ["graph-dot", "--input", str(path)])
        assert code == 0
        assert '1 -> 2 [label="z1"];' in out

    def test_system_json_input(self, capsys, system_file):
        code, out, _ = run(capsys, ["graph-dot", "--input", system_file])
        assert code == 0
        assert "doublecircle" in out


class TestErrors:
    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["certify", "--input", str(path)])
        assert code == 2
        assert "input error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["solve", "--input", "/nonexistent.json"])
        assert code == 2

    def test_bad_poly_string(self, capsys, tmp_path):
        path = tmp_path / "badpoly.json"
        path.write_text(
            json.dumps({"variables": ["x1"], "A": [["z1 &"]], "b": ["0"]})
        )
        code, _, _ = run(capsys, ["solve", "--input", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("solve", [1, 2], "a system must be a JSON object"),
            ("solve", {"variables": ["x1"], "A": [["1"]], "b": [3]}, "'b' must be"),
            ("solve", {"variables": "x", "A": ["z"], "b": ["1"]}, "'variables' must be"),
            (
                "solve",
                {"variables": ["x1"], "A": [["(" * 3000 + "z1" + ")" * 3000]], "b": ["1"]},
                "expression nested too deeply",
            ),
            ("solve", "[" * 100000 + "]" * 100000, "JSON nested too deeply"),
            (
                "block-solve",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"], "blocks": [1]},
                "'blocks' must be",
            ),
            (
                "block-solve",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"], "blocks": {"sizes": 1, "m0": 0}},
                "'sizes' must be",
            ),
            ("graph-dot", {"nodes": 2, "edges": [1]}, "'edges' must be"),
            (
                "graph-dot",
                {"nodes": 2, "edges": [{"src": "1", "tgt": 2, "label": "z1"}]},
                "an edge needs integer 'src'",
            ),
            ("graph-dot", 5, "a system must be a JSON object"),
            ("solve", {"variables": ["x1"], "b": ["1"]}, "'A' must be"),
            (
                "block-solve",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"], "blocks": {"sizes": [1]}},
                "integer 'm0'",
            ),
            (
                "graph-dot",
                {"nodes": 2, "edges": [{"tgt": 2, "label": "z1"}]},
                "an edge needs integer 'src'",
            ),
            ("graph-dot", {"nodes": 3}, "'edges' must be"),
            ("graph-dot", {"edges": []}, "integer 'nodes'"),
        ],
        ids=[
            "top-level-list",
            "number-entry",
            "string-rows",
            "deep-parentheses",
            "deep-json",
            "blocks-list",
            "sizes-number",
            "edge-number",
            "edge-string-endpoint",
            "top-level-number",
            "missing-A",
            "missing-m0",
            "edge-missing-src",
            "graph-missing-edges",
            "graph-missing-nodes",
        ],
    )
    def test_wrong_shape_exits_2(self, capsys, tmp_path, command, data, message):
        # data is the JSON value, or for "deep-json" the text itself; the
        # message names what is wrong with it
        path = tmp_path / "shape.json"
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        code, out, err = run(capsys, [command, "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("input error")
        assert message in err

    @pytest.mark.parametrize(
        "fault", [KeyError("internal"), RuntimeError("boom"), MissingVariableError("z9")]
    )
    def test_internal_fault_exits_3(self, capsys, monkeypatch, system_file, fault):
        def broken(lap):
            raise fault

        monkeypatch.setattr(blocksys, "find_pgraph", broken)
        code, out, err = run(capsys, ["certify", "--input", system_file])
        assert code == 3
        assert out == ""
        assert err.startswith(f"internal error: {type(fault).__name__}")

    def test_output_file(self, capsys, tmp_path, system_file):
        out_path = tmp_path / "result.json"
        code, out, _ = run(
            capsys, ["solve", "--input", system_file, "--output", str(out_path)]
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["solution"]


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--oracle"],
            ["certify", "--format", "text"],
            ["graph-dot", "--budget", "3"],
            ["block-certify", "--budget", "3"],
            ["crn-param", "--budget", "3"],
            ["mtt-check", "--input", "x"],
            ["solve", "--seed", "1"],
            ["solve", "--permute-rows", "2,1,3"],
        ],
    )
    def test_flag_the_command_ignores_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines if line.startswith("forestsolve ")]
        parser = cli.build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]
        assert {argv[0] for argv in commands} == {
            "solve", "certify", "block-solve", "block-certify",
            "mtt-check", "crn-param", "graph-dot",
        }
