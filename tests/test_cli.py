"""Command-line behaviour: payloads, exit codes, determinism."""

import argparse
import itertools
import json
import random
import re
import shlex
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from forestsolve import (
    BlockStructure,
    MissingVariableError,
    Multidigraph,
    Solution,
    blocksys,
    cli,
    cramer_oracle,
    crn,
    forests,
    linsys,
    parameterize,
    parse_poly,
    pgraph,
    system_to_json,
)
from forestsolve.multigraph import SPARE_NODES

from conftest import (
    CRN_TEXT,
    nsite_closed_form,
    nsite_crn_param_argv,
    nsite_network_and_task,
)


# One 2x2 block over two trailing rows whose certificate makes x1 vanish.
ZERO_BLOCK = {
    "variables": ["x1", "x2", "x3", "x4"],
    "A": [["-z1", "0", "0", "0"], ["1", "1", "0", "0"],
          ["z4", "0", "-z5", "z8"], ["0", "0", "-z6", "-z8"]],
    "b": ["0", "-z3", "0", "z7"],
    "blocks": {"sizes": [2], "m0": 2, "j": [2]},
}


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
        code, out, _ = run(capsys, ["solve", "--input", block_file, "--oracle"])
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
        code, out, _ = run(capsys, ["solve", "--input", block_file, "--oracle"])
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
        code, out, _ = run(capsys, ["solve", "--input", str(path), "--oracle"])
        assert code == 0
        assert json.loads(out)["oracle_agrees"] is True

    def test_block_certify(self, capsys, block_file):
        code, out, _ = run(capsys, ["certify", "--input", block_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["zero_components"] == []

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_realization_fault_exits_3(self, capsys, monkeypatch, block_file, command):
        # block confinement of the realization is an invariant, not a refusal
        monkeypatch.setattr(blocksys, "validate_acompatible", lambda *args: ["slip"])
        code, out, err = run(capsys, [command, "--input", block_file])
        assert code == 3
        assert out == ""
        assert err.startswith("internal invariant failure")
        assert "slip" in err

    def test_certify_reads_blocks(self, capsys, tmp_path):
        # with its blocks the system certifies and x1 vanishes; without them
        # certify runs at d = 0 and refuses
        path = tmp_path / "zero_block.json"
        path.write_text(json.dumps(ZERO_BLOCK))
        code, out, _ = run(capsys, ["certify", "--input", str(path)])
        assert code == 0
        assert json.loads(out)["certified"] is True
        assert json.loads(out)["zero_components"] == [1]
        assert run(capsys, ["block-certify", "--input", str(path)]) == (0, out, "")
        path.write_text(json.dumps({k: v for k, v in ZERO_BLOCK.items() if k != "blocks"}))
        code, out, _ = run(capsys, ["certify", "--input", str(path)])
        assert code == 1
        assert json.loads(out) == {"certified": False, "witness": None, "solution": None}

    def test_crn_param_proposes_blocks(self, capsys, monkeypatch, tmp_path):
        # the blocks are the two enzyme laws' unknowns, with no tail
        law_blocks = []

        def spy(*args):
            system, blocks = build(*args)
            law_blocks.append(blocks)
            return system, blocks

        build = crn.build_steady_system
        monkeypatch.setattr(crn, "build_steady_system", spy)
        code, out, _ = run(capsys, nsite_crn_param_argv(tmp_path / "nsite2.txt", 2))
        assert code == 0
        assert json.loads(out)["certified"] is True
        assert [(b.sizes, b.m0, b.j) for b in law_blocks] == [((3, 3), 0, (1, 4))]


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
                "--conserve", "1:T1:4",
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


    def test_shuffled_unknowns_print_the_golden_solution(self, capsys, tmp_path):
        # rows pair with unknowns by name, so the order of --solve-for does
        # not move the printed solution
        argv = nsite_crn_param_argv(tmp_path / "nsite2.txt", 2)
        at = argv.index("--solve-for") + 1
        unknowns = argv[at].split(",")
        random.Random(2).shuffle(unknowns)
        assert unknowns != argv[at].split(",")
        argv[at] = ",".join(unknowns)
        code, out, _ = run(capsys, argv)
        assert code == 0
        golden = (Path(__file__).resolve().parent / "golden" / "nsite2.crn-param.json").read_text()
        assert json.loads(out)["solution"] == json.loads(golden)["solution"]

    def test_law_block_out_of_block_form_is_a_refusal(self, capsys, tmp_path):
        # law 2 conserves x1, x2 and x6, but the x2 row reaches x4
        net_file = tmp_path / "net.txt"
        net_file.write_text(CRN_TEXT)
        argv = ["crn-param", "--input", str(net_file), "--solve-for", "x1,x2,x3,x4,x6",
                "--conserve", "2:T1:1"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["certified"] is False and payload["solution"] is None
        assert "not in block form: entry (2, 5) lies outside block 1 but is nonzero" in (
            payload["diagnostics"]
        )

    def test_solve_for_is_required(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["crn-param", "--input", str(tmp_path / "net.txt")])
        assert exc.value.code == 2
        assert "--solve-for" in capsys.readouterr().err


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
        # graph-dot reads graphs only; solve --format dot draws a system
        code, out, err = run(capsys, ["graph-dot", "--input", system_file])
        assert code == 2
        assert out == ""
        assert err.startswith("input error") and "'solve --format dot'" in err
        code, out, _ = run(capsys, ["solve", "--input", system_file, "--format", "dot"])
        assert code == 0
        assert "doublecircle" in out

    @pytest.mark.parametrize(
        "nodes, edges",
        [(2**40, 0), (SPARE_NODES + 1, 0), (SPARE_NODES + 3, 1)],
    )
    def test_node_count_above_cap_exits_2(self, capsys, monkeypatch, tmp_path, nodes, edges):
        # rejected before any graph is built, so the test allocates nothing
        def refuse(*args):
            raise AssertionError("graph built")

        monkeypatch.setattr(Multidigraph, "from_edges", refuse)
        path = tmp_path / "graph.json"
        edge = {"src": 1, "tgt": 2, "label": "z1"}
        path.write_text(json.dumps({"nodes": nodes, "edges": [edge] * edges}))
        code, out, err = run(capsys, ["graph-dot", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("input error") and "'nodes' exceeds" in err

    def test_node_count_at_cap_is_drawn(self, capsys, tmp_path):
        path = tmp_path / "graph.json"
        edge = {"src": 1, "tgt": 2, "label": "z1"}
        path.write_text(json.dumps({"nodes": SPARE_NODES + 2, "edges": [edge]}))
        code, out, _ = run(capsys, ["graph-dot", "--input", str(path)])
        assert code == 0
        assert f"  {SPARE_NODES + 2} [" in out


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
                "solve",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"], "blocks": [1]},
                "'blocks' must be",
            ),
            (
                "solve",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"], "blocks": {"sizes": 1, "m0": 0}},
                "'sizes' must be",
            ),
            ("graph-dot", {"nodes": 2, "edges": [1]}, "'edges' must be"),
            (
                "graph-dot",
                {"nodes": 2, "edges": [{"src": "1", "tgt": 2, "label": "z1"}]},
                "an edge needs integer 'src'",
            ),
            ("graph-dot", 5, "a graph must be an object"),
            ("solve", {"variables": ["x1"], "b": ["1"]}, "'A' must be"),
            (
                "solve",
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
            ("graph-dot", {"nodes": True, "edges": []}, "integer 'nodes'"),
            (
                "graph-dot",
                {"nodes": 2, "edges": [{"src": True, "tgt": 2, "label": "z1"}]},
                "an edge needs integer 'src'",
            ),
            (
                "graph-dot",
                {"nodes": 2, "edges": [{"src": 2, "tgt": True, "label": "z1"}]},
                "an edge needs integer 'src', 'tgt'",
            ),
            (
                "certify",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"],
                 "blocks": {"sizes": [True], "m0": 0}},
                "'sizes' must be an array of integers",
            ),
            (
                "certify",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"],
                 "blocks": {"sizes": [1], "m0": 0, "j": [True]}},
                "'j' must be an array of integers",
            ),
            (
                "certify",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"],
                 "blocks": {"sizes": [1], "m0": 0, "j": False}},
                "'j' must be an array of integers",
            ),
            (
                "solve",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"], "blocks": None},
                "'blocks' must be",
            ),
            (
                "certify",
                {"variables": ["x1", "x2", "x3"], "A": [["z1", "0", "0"]] * 3,
                 "b": ["1", "0", "0"], "blocks": {"sizes": [2], "m0": True}},
                "integer 'm0'",
            ),
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
            "graph-nodes-true",
            "edge-src-true",
            "edge-tgt-true",
            "sizes-true",
            "j-true",
            "j-false",
            "blocks-null",
            "m0-true",
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
        "command, text, flags, message",
        [
            (
                "graph-dot",
                {"nodes": 2, "edges": [{"src": 1, "tgt": 1, "label": "z1"}]},
                [],
                "edge 1 is a self-loop",
            ),
            ("graph-dot", {"nodes": 0, "edges": []}, [], "node_count must be at least 1"),
            ("solve", {"variables": ["x1"], "A": [["z1", "z2"]], "b": ["1"]}, [], "shape"),
            (
                "solve",
                {"variables": ["x1"], "A": [["z1"]], "b": ["1"],
                 "blocks": {"sizes": [1], "m0": 0, "j": [2]}},
                [],
                "distinguished row 2 outside block 1",
            ),
            (
                "solve",
                {"variables": ["x1", "x2"], "A": [["z1", "0"], ["0", "z2"]], "b": ["1", "1"],
                 "blocks": {"sizes": [2], "m0": 0}},
                [],
                "several nonzero constants",
            ),
            ("solve", b"\xff", [], "input is not UTF-8 text"),
            ("crn-param", CRN_TEXT, ["--solve-for", "x1,x9"], "unknown 'x9' is not a species"),
            ("crn-param", CRN_TEXT, ["--solve-for", "x1,x2,x1"], "unknown x1 is listed twice"),
            ("crn-param", CRN_TEXT, ["--solve-for", "x1", "--conserve", "1:T1"], "LAW:TOTAL:ROW"),
            (
                "crn-param",
                CRN_TEXT,
                ["--solve-for", "x1,x2,x3,x4,x6", "--conserve", "1:T-1:4"],
                "bad variable name 'T-1'",
            ),
            (
                "crn-param",
                CRN_TEXT,
                ["--solve-for", "x1,x2,x3,x4,x6", "--conserve", "1:T1:6"],
                "law 1 replaces row 6, which is not the row of an unknown it conserves",
            ),
            ("crn-param", "x1 -> x1 ; k1\n", ["--solve-for", "x1"], "coincide"),
            (
                "certify",
                {"variables": ["x1", "x2"], "A": [["z1", "z2"], ["0", "z3"]], "b": ["1", "0"],
                 "blocks": {"sizes": [1], "m0": 1}},
                [],
                "entry (1, 2) lies outside block 1 but is nonzero",
            ),
            (
                "solve",
                {"variables": ["x1", "x2"], "A": [["z1", "z2"], ["0", "z3"]], "b": ["1", "0"],
                 "blocks": {"sizes": [2], "m0": 1}},
                [],
                "block sizes do not cover the system",
            ),
        ],
        ids=[
            "graph-self-loop",
            "graph-no-nodes",
            "matrix-shape",
            "row-outside-block",
            "two-constants-in-block",
            "not-utf8",
            "unknown-not-a-species",
            "unknown-listed-twice",
            "conserve-token",
            "conserve-total-name",
            "law-replaces-foreign-row",
            "empty-reaction",
            "entry-outside-block",
            "sizes-not-covering",
        ],
    )
    def test_input_fault_exits_2(self, capsys, tmp_path, command, text, flags, message):
        # input checked below the JSON shape: graph, matrix and block shape,
        # encoding, crn-param's task and tokens, the network's reactions
        path = tmp_path / "input"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text if isinstance(text, str) else json.dumps(text))
        code, out, err = run(capsys, [command, "--input", str(path), *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("input error")
        assert message in err

    @pytest.mark.parametrize(
        "fault",
        [
            KeyError("internal"),
            RuntimeError("boom"),
            MissingVariableError("z9"),
            ValueError("internal"),
        ],
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


# Values that replace a part of an input: none of them is the right JSON type
# everywhere, and the strings are no polynomials.
JUNK = [None, True, 2**40, -(2**40), "", "1/0", "z1^", [], ["z1", 1], {}, {"m0": 0}]


def json_paths(value, path=()):
    """Every path from the root of ``value`` to a value below it."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def mutate(rng, data):
    """A copy of ``data`` with one to three values replaced by junk or deleted."""
    data = json.loads(json.dumps(data))
    for _ in range(rng.randint(1, 3)):
        paths = list(json_paths(data))
        if not paths:
            break
        *head, key = rng.choice(paths)
        parent = data
        for step in head:
            parent = parent[step]
        # a huge node count is the cap test's; here it would only allocate
        junk = [v for v in JUNK if key != "nodes" or v != 2**40]
        if rng.random() < 0.25:
            del parent[key]
        else:
            parent[key] = rng.choice(junk)
    return data


class TestFuzz:
    def test_mutated_inputs_keep_the_exit_contract(self, capsys, tmp_path, three_var_system):
        # exit 3 is a fault of the program; no malformed input may reach it
        graph = {"nodes": 3, "edges": [{"src": 1, "tgt": 2, "label": "-z1"},
                                       {"src": 2, "tgt": 3, "label": "z2"}]}
        cases = [
            (system_to_json(three_var_system), ["solve", "certify"]),
            (ZERO_BLOCK, ["solve", "certify", "block-certify"]),
            (graph, ["graph-dot"]),
        ]
        rng = random.Random(36)
        path = tmp_path / "input.json"
        codes = []
        for _ in range(100):
            for data, commands in cases:
                path.write_text(json.dumps(mutate(rng, data)))
                for command in commands:
                    code, _, err = run(capsys, [command, "--input", str(path)])
                    assert code in (0, 1, 2), (command, path.read_text(), err)
                    assert code != 2 or err.startswith("input error"), err
                    codes.append(code)
        assert {0, 2} <= set(codes)

    def test_crn_param_sweep_keeps_the_exit_contract(self, capsys, tmp_path):
        # every unknown set of the demo network, with no law or with law 1
        # or 2 replacing any row (row 7 is past the species); a law block out
        # of block form is a refusal, never an internal failure
        path = tmp_path / "net.txt"
        path.write_text(CRN_TEXT)
        species = ["x1", "x2", "x3", "x4", "x5", "x6"]
        laws = [[]] + [["--conserve", f"{law}:T1:{row}"] for law in (1, 2) for row in range(1, 8)]
        codes, block_form = Counter(), 0
        for k in range(1, 7):
            for unknowns in itertools.combinations(species, k):
                for law in laws:
                    argv = ["crn-param", "--input", str(path), "--solve-for", ",".join(unknowns)]
                    code, out, err = run(capsys, argv + law)
                    assert code in (0, 1, 2), (argv + law, err)
                    assert code != 2 or err.startswith("input error"), err
                    codes[code] += 1
                    block_form += code == 1 and "not in block form" in out
        assert codes == {0: 44, 1: 127, 2: 774}
        assert block_form == 96


class TestOptions:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--oracle"],
            ["certify", "--format", "text"],
            ["graph-dot", "--budget", "3"],
            ["block-certify", "--budget", "3"],
            ["crn-param", "--budget", "3"],
            ["certify", "--nodes", "3"],
            ["solve", "--seed", "1"],
            ["solve", "--permute-rows", "2,1,3"],
            ["block-solve"],
            ["crn-param", "--solve-for", "x1", "--parameters", "x2"],
            ["crn-param", "--solve-for", "x1", "--drop", "2"],
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
        assert {argv[0] for argv in commands} == {"solve", "certify", "crn-param", "graph-dot"}
        # the options table lists each subcommand's long options and formats
        section = readme.split("## Command line\n")[1].split("\n## ")[0]
        table = {
            row.group(1): row.group(2)
            for row in re.finditer(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.M)
        }
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(table) == set(sub.choices)
        for name, subparser in sub.choices.items():
            options = {
                opt: action.choices
                for action in subparser._actions
                for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"
            }
            assert set(re.findall(r"`(--[a-z-]+)", table[name])) == set(options), name
            formats = re.search(r"`--format ([a-z\\|]+)`", table[name])
            listed = tuple(formats.group(1).split("\\|")) if formats else None
            assert listed == options.get("--format"), name

    def test_block_certify_is_an_alias_of_certify(self):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert sub.choices["block-certify"] is sub.choices["certify"]
