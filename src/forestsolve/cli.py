"""Command-line interface: solve, certify, crn-param and graph-dot.

``solve`` and ``certify`` read a system and its ``"blocks"``, if any (none
is d = 0); ``block-certify`` is another name for ``certify``.

Exit codes are part of the contract: 0 success (or certified), 1 no
certificate found, 2 input error, 3 internal failure (an oracle disagreement,
a failed invariant or any other exception raised past the input checks).
An input error is an :class:`InputError` raised where outside input is
checked, a singular system, a missing file or malformed JSON; any other
exception, a ``ValueError`` included, is an internal failure.  Each
subcommand accepts only the options its handler reads, and every command
prints byte-identical output for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from typing import Sequence

from . import blocksys, crn, linsys, multigraph, pgraph
from .symring import InputError

log = logging.getLogger("forestsolve")

EXIT_OK = 0
EXIT_NO_WITNESS = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _configure_logging() -> None:
    level_name = os.environ.get("FORESTSOLVE_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_input(path: str | None) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"input is not UTF-8 text: {exc}") from None


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, args) -> None:
    _write_output(json.dumps(payload, sort_keys=True, indent=2), args.output)


def _load_json(args):
    text = _read_input(args.input)
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError("JSON nested too deeply") from None


def _witness_payload(witness: pgraph.PGraphWitness) -> dict:
    graph = witness.graph
    return {
        "edges": [
            {"id": e.eid, "src": e.source, "tgt": e.target, "label": str(e.label)}
            for e in sorted(graph.edges, key=lambda e: e.eid)
        ],
        "mu": {str(k): sorted(v) for k, v in sorted(witness.mu.items())},
        "group_sums": {
            str(k): str(v) for k, v in sorted(witness.group_sums.items())
        },
    }


def _solution_payload(solution: linsys.Solution) -> list[str]:
    return [str(c) for c in solution]


# ---------------------------------------------------------------------------
# commands


def _load_system(args) -> tuple[linsys.LinearSystem, blocksys.BlockStructure | None]:
    """The input's system, and its ``"blocks"``, or None without that key."""
    data = _load_json(args)
    system = linsys.system_from_json(data)
    if "blocks" not in data:
        return system, None
    spec = data["blocks"]
    if not isinstance(spec, dict) or type(spec.get("m0")) is not int:
        raise InputError("'blocks' must be an object with an integer 'm0'")
    sizes = tuple(multigraph.json_list(spec.get("sizes"), int, "'sizes'"))
    m0 = spec["m0"]
    j = tuple(multigraph.json_list(spec.get("j", []), int, "'j'"))
    blocks = blocksys.BlockStructure(sizes, m0, j or blocksys.choose_j(system, sizes, m0))
    problems = blocksys.validate_block_form(system, blocks)
    if problems:
        raise InputError("\n".join(problems))
    return system, blocks


def _cmd_solve(args) -> int:
    """Tree sums with no blocks, forest products over the blocks otherwise.

    ``--oracle`` asks that Cramer's numerators and denominator equal the
    solver's up to one sign, and that the exact residual A*N + b*D vanish,
    the one check that shares no minor code with the block solver.  The DOT
    graph realizes the matrix that was solved: the column-sum realization,
    which with no blocks is the bordered matrix.
    """
    system, blocks = _load_system(args)
    if blocks is None:
        solution = linsys.solve_by_trees(system)
    else:
        solution = blocksys.solve_block(system, blocks)
    payload = {"solution": _solution_payload(solution)}
    if args.oracle:
        agree = solution.agrees_up_to_sign(
            linsys.cramer_oracle(system)
        ) and linsys.residual_check(system, solution)
        payload["oracle_agrees"] = agree
        if not agree:
            _emit_json(payload, args)
            return EXIT_INTERNAL
    if args.format == "dot":
        if blocks is None:
            blocks = blocksys.BlockStructure((), system.m, ())
        graph = multigraph.canonical_graph(blocksys.realization(system, blocks))
        _write_output(multigraph.to_dot(graph), args.output)
    elif args.format == "text":
        rows = zip(system.variables, solution)
        _write_output("\n".join(f"{name} = {comp}" for name, comp in rows), args.output)
    else:
        _emit_json(payload, args)
    return EXIT_OK


def _cmd_certify(args) -> int:
    """Certify with no blocks (d = 0), or on the blocks when given.

    With blocks, a refusal of the sign hypotheses lists them, and a
    certificate lists the components that vanish identically.
    """
    system, blocks = _load_system(args)
    refusal = {"certified": False, "witness": None, "solution": None}
    if blocks is None:
        outcome = pgraph.certify_nonneg(system)
    else:
        try:
            outcome = blocksys.certify_block_nonneg(system, blocks)
        except blocksys.BlockHypothesisError as exc:
            outcome = None
            refusal["hypothesis_violations"] = exc.problems
    if outcome is None:
        _emit_json(refusal, args)
        return EXIT_NO_WITNESS
    solution, witness = outcome
    if args.format == "dot":
        _write_output(multigraph.to_dot(witness.graph), args.output)
        return EXIT_OK
    payload = {
        "certified": True,
        "witness": _witness_payload(witness),
        "solution": _solution_payload(solution),
    }
    if blocks is not None:
        payload["zero_components"] = sorted(blocksys.zero_components(witness, blocks))
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_crn_param(args) -> int:
    net = crn.parse_network(_read_input(args.input))
    try:
        conservation = tuple(
            crn.ConservationUse(int(row), int(law), total)
            for law, total, row in (tok.split(":") for tok in args.conserve or [])
        )
    except ValueError as exc:
        raise InputError(f"--conserve takes LAW:TOTAL:ROW, LAW and ROW integers: {exc}") from None
    task = crn.SteadyStateTask(tuple(args.solve_for.split(",")), conservation=conservation)
    report = crn.parameterize(net, task)
    if args.format == "dot" and report.witness is not None:
        _write_output(multigraph.to_dot(report.witness.graph), args.output)
        return EXIT_OK if report.certified else EXIT_NO_WITNESS
    payload = {
        "certified": report.certified,
        "diagnostics": list(report.diagnostics),
        "solution": (
            {name: str(expr) for name, expr in sorted(report.solution.items())}
            if report.solution is not None
            else None
        ),
        "witness": (
            _witness_payload(report.witness) if report.witness is not None else None
        ),
        "zero_components": sorted(report.zero_set),
    }
    _emit_json(payload, args)
    return EXIT_OK if report.certified else EXIT_NO_WITNESS


def _cmd_graph_dot(args) -> int:
    data = _load_json(args)
    if isinstance(data, dict) and "nodes" not in data and "edges" not in data:
        raise InputError("not graph JSON; 'solve --format dot' draws a system")
    _write_output(multigraph.to_dot(multigraph.graph_from_json(data)), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_io(parser: argparse.ArgumentParser, *formats: str) -> None:
    parser.add_argument("--input", "-i", default=None, help="input file (default stdin)")
    parser.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    if formats:
        parser.add_argument("--format", choices=formats, default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of :func:`main`, built on the first call and shared:
    a build costs more than a small command and leaves reference cycles."""
    parser = argparse.ArgumentParser(
        prog="forestsolve",
        description="Spanning-forest solving and nonnegativity certification "
        "for symbolic linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a system by rooted tree sums")
    _add_io(p, "json", "text", "dot")
    p.add_argument("--oracle", action="store_true", help="cross-check the result")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "certify",
        aliases=["block-certify"],  # the benchmark's name for the block case
        help="certify a nonnegative solution",
    )
    _add_io(p, "json", "dot")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("crn-param", help="steady-state parameterization")
    _add_io(p, "json", "dot")
    p.add_argument("--solve-for", dest="solve_for", required=True)
    p.add_argument(
        "--conserve",
        action="append",
        metavar="LAW:TOTAL:ROW",
        help="use conservation law LAW as total TOTAL replacing row ROW",
    )
    p.set_defaults(func=_cmd_crn_param)

    p = sub.add_parser("graph-dot", help="DOT rendering of a graph")
    _add_io(p)
    p.set_defaults(func=_cmd_graph_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        InputError, linsys.SingularSystemError, FileNotFoundError, json.JSONDecodeError
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
