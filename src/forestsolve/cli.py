"""Command-line interface: solve, certify, block variants, self-checks.

Exit codes are part of the contract: 0 success (or certified), 1 no
certificate found, 2 input error, 3 internal failure (an oracle disagreement,
a failed invariant or any other exception raised past the input checks).
Each subcommand accepts only the options its handler reads.  The one
randomized command, ``mtt-check``, takes an explicit seed, and every
command prints byte-identical output for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import os
import random
import sys
from typing import Callable, Sequence

from . import blocksys, crn, forests, linsys, multigraph, pgraph
from .symring import ParseError

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
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


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
        raise ValueError("JSON nested too deeply") from None


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


def _report_solution(
    args,
    system: linsys.LinearSystem,
    solution: linsys.Solution,
    dot_graph: Callable[[], multigraph.Multidigraph],
) -> int:
    """Oracle check and output shared by ``solve`` and ``block-solve``.

    ``--oracle`` asks that Cramer's numerators and denominator equal the
    solver's up to one sign, and that the exact residual A*N + b*D vanish,
    the one check that shares no minor code with the block solver.
    """
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
        _write_output(multigraph.to_dot(dot_graph()), args.output)
    elif args.format == "text":
        lines = [
            f"{name} = {comp}"
            for name, comp in zip(system.variables, solution)
        ]
        _write_output("\n".join(lines), args.output)
    else:
        _emit_json(payload, args)
    return EXIT_OK


def _report_certified(
    args,
    outcome: tuple[linsys.Solution, pgraph.PGraphWitness] | None,
    blocks: blocksys.BlockStructure | None = None,
) -> int:
    """Output shared by ``certify`` and ``block-certify``.

    A block certificate also lists the components that vanish identically.
    """
    if outcome is None:
        _emit_json({"certified": False, "witness": None, "solution": None}, args)
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


# ---------------------------------------------------------------------------
# commands


def _cmd_solve(args) -> int:
    system = linsys.system_from_json(_load_json(args))
    solution = linsys.solve_by_trees(system)
    return _report_solution(
        args,
        system,
        solution,
        lambda: multigraph.canonical_graph(linsys.bordered_laplacian(system)),
    )


def _cmd_certify(args) -> int:
    outcome = pgraph.certify_nonneg(linsys.system_from_json(_load_json(args)))
    return _report_certified(args, outcome)


def _load_block_system(args) -> tuple[linsys.LinearSystem, blocksys.BlockStructure]:
    data = _load_json(args)
    system = linsys.system_from_json(data)
    spec = data.get("blocks")
    if spec is None:
        return system, crn.propose_blocks(system)
    if not isinstance(spec, dict) or not isinstance(spec.get("m0"), int):
        raise ValueError("'blocks' must be an object with an integer 'm0'")
    sizes = tuple(multigraph.json_list(spec.get("sizes"), int, "'sizes'"))
    m0 = spec["m0"]
    j = tuple(multigraph.json_list(spec.get("j") or [], int, "'j'"))
    return system, blocksys.BlockStructure(
        sizes, m0, j or blocksys.choose_j(system, sizes, m0)
    )


def _cmd_block_solve(args) -> int:
    system, blocks = _load_block_system(args)
    problems = blocksys.validate_block_form(system, blocks)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return EXIT_INPUT
    solution = blocksys.solve_block(system, blocks)
    return _report_solution(
        args,
        system,
        solution,
        lambda: multigraph.canonical_graph(blocksys.realization(system, blocks)),
    )


def _cmd_block_certify(args) -> int:
    system, blocks = _load_block_system(args)
    problems = blocksys.validate_block_form(system, blocks)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return EXIT_INPUT
    try:
        outcome = blocksys.certify_block_nonneg(system, blocks)
    except blocksys.BlockHypothesisError as exc:
        payload = {
            "certified": False,
            "witness": None,
            "solution": None,
            "hypothesis_violations": exc.problems,
        }
        _emit_json(payload, args)
        return EXIT_NO_WITNESS
    return _report_certified(args, outcome, blocks)


def _cmd_mtt_check(args) -> int:
    rng = random.Random(args.seed)
    checked = 0
    mismatches: list[dict] = []
    for _ in range(args.random):
        graph = multigraph.random_multidigraph(
            rng, max_nodes=args.nodes, max_edges=args.edges
        )
        nodes = list(graph.nodes)
        for size in range(0, min(3, len(nodes)) + 1):
            for f_set in itertools.combinations(nodes, size):
                for b_set in itertools.combinations(nodes, size):
                    checked += 1
                    if not forests.all_minors_check(graph, f_set, b_set):
                        mismatches.append(
                            {
                                "graph": multigraph.graph_to_json(graph),
                                "F": list(f_set),
                                "B": list(b_set),
                            }
                        )
    payload = {
        "graphs": args.random,
        "checked": checked,
        "mismatches": mismatches,
        "seed": args.seed,
    }
    _emit_json(payload, args)
    return EXIT_OK if not mismatches else EXIT_INTERNAL


def _cmd_crn_param(args) -> int:
    net = crn.parse_network(_read_input(args.input))
    conservation = []
    for tok in args.conserve or []:
        law, total, row = tok.split(":")
        conservation.append(
            crn.ConservationUse(int(row), int(law), total)
        )
    task = crn.SteadyStateTask(
        solve_for=tuple((args.solve_for or "").split(",")) if args.solve_for else (),
        parameters=tuple(args.parameters.split(",")) if args.parameters else (),
        conservation=tuple(conservation),
        drop=tuple(int(tok) for tok in (args.drop or [])),
    )
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
    if isinstance(data, dict) and ("nodes" in data or "edges" in data):
        graph = multigraph.graph_from_json(data)
    else:
        system = linsys.system_from_json(data)
        graph = multigraph.canonical_graph(linsys.bordered_laplacian(system))
    _write_output(multigraph.to_dot(graph), args.output)
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

    p = sub.add_parser("certify", help="certify a nonnegative solution")
    _add_io(p, "json", "dot")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("block-solve", help="solve a block-structured system")
    _add_io(p, "json", "text", "dot")
    p.add_argument("--oracle", action="store_true", help="cross-check the result")
    p.set_defaults(func=_cmd_block_solve)

    p = sub.add_parser("block-certify", help="certify a block-structured system")
    _add_io(p, "json", "dot")
    p.set_defaults(func=_cmd_block_certify)

    p = sub.add_parser("mtt-check", help="randomized minor/forest-sum self-check")
    p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=int, default=200, help="number of graphs")
    p.add_argument("--nodes", type=int, default=5, help="max nodes per graph")
    p.add_argument("--edges", type=int, default=10, help="max edges per graph")
    p.set_defaults(func=_cmd_mtt_check)

    p = sub.add_parser("crn-param", help="steady-state parameterization")
    _add_io(p, "json", "dot")
    p.add_argument("--solve-for", dest="solve_for", default=None)
    p.add_argument("--parameters", default=None)
    p.add_argument(
        "--conserve",
        action="append",
        metavar="LAW:TOTAL:ROW",
        help="use conservation law LAW as total TOTAL replacing row ROW",
    )
    p.add_argument("--drop", action="append", metavar="ROW")
    p.set_defaults(func=_cmd_crn_param)

    p = sub.add_parser("graph-dot", help="DOT rendering of a graph or system")
    _add_io(p)
    p.set_defaults(func=_cmd_graph_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        json.JSONDecodeError,
        ParseError,
        crn.NetworkParseError,
        crn.NonlinearSystemError,
        FileNotFoundError,
        ValueError,
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
