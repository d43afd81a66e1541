"""Self-test of the output checkers: each must pass a real output and reject
corrupted copies of it.

    PYTHONPATH=src python3 perfbench/selftest.py perfbench/out/selftest

Corruptions: one coefficient changed, a refusal where a certificate exists,
and a certified component with a negative coefficient (numerator and
denominator multiplied by the same mixed-sign factor, so its value is right).
"""

from __future__ import annotations

import copy
import os
import random
import sys

import checks
import inputs
import worker
from exact import CheckError, format_poly, mul, parse_quotient


def changed_coefficient(text: str) -> str:
    num, den = parse_quotient(text)
    exps = min(num)
    num[exps] += 1
    return f"({format_poly(num)})/({format_poly(den)})"


def negative_coefficient(text: str, var: str) -> str:
    factor = {((var, 1),): 1, (): -1}
    num, den = parse_quotient(text)
    return f"({format_poly(mul(num, factor))})/({format_poly(mul(den, factor))})"


def run_cli(command: str, data: dict, out_dir: str, name: str) -> tuple[dict, dict]:
    path = os.path.join(out_dir, f"{name}.in.json")
    inputs.write_json(path, data)
    spec = {"name": name, "large": False, "command": command, "input": path,
            "output": os.path.join(out_dir, f"{name}.out.json")}
    return data, worker.cli_case(spec).run()


def main(out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random("selftest")
    dense, solved = run_cli("solve", inputs.dense_system(rng, 3), out_dir, "dense")
    example, certified = run_cli("certify", inputs.RUNNING_EXAMPLE, out_dir, "example")
    refusal_data, cycle = inputs.refusal_system(rng, n=5)
    _, refused = run_cli("certify", refusal_data, out_dir, "refusal")
    block, block_certified = run_cli("block-certify", inputs.ZERO_BLOCK, out_dir, "block")
    nsite = worker.nsite_case(1, False, inputs.nsite_network(1)).run()

    def corrupt(result, path, edit):
        bad = copy.deepcopy(result)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = edit(node[path[-1]])
        return bad

    refusal_instead = {"exit": 1, "output": {"certified": False, "witness": None, "solution": None}}
    cases = [
        ("solve", lambda r: checks.check_solve(dense, r, rng), solved, [
            ("changed coefficient", corrupt(solved, ["output", "solution", 0], changed_coefficient)),
        ]),
        ("certify", lambda r: checks.check_certified(example, r, rng), certified, [
            ("changed coefficient", corrupt(certified, ["output", "solution", 1], changed_coefficient)),
            ("refusal where a certificate exists", refusal_instead),
            ("negative coefficient", corrupt(
                certified, ["output", "solution", 1], lambda t: negative_coefficient(t, "z1"))),
        ]),
        ("block", lambda r: checks.check_block_certified(block, r, rng), block_certified, [
            ("changed coefficient", corrupt(block_certified, ["output", "solution", 1], changed_coefficient)),
            ("refusal where a certificate exists", refusal_instead),
            ("negative coefficient", corrupt(
                block_certified, ["output", "solution", 1], lambda t: negative_coefficient(t, "z3"))),
            ("zero component not reported", corrupt(block_certified, ["output", "zero_components"], lambda z: [])),
        ]),
        ("refusal", lambda r: checks.check_refusal(refusal_data, r, cycle), refused, [
            ("certificate where a refusal is due", certified),
        ]),
        ("nsite", lambda r: checks.check_nsite(1, r, rng), nsite, [
            ("changed coefficient", corrupt(nsite, ["solution", "E"], changed_coefficient)),
            ("negative coefficient", corrupt(
                nsite, ["solution", "ES0"], lambda t: negative_coefficient(t, "a0"))),
            ("refusal where a certificate exists", dict(nsite, certified=False, solution=None)),
        ]),
    ]
    failures = []
    for name, check, good, corrupted in cases:
        try:
            check(good)
        except CheckError as exc:
            failures.append(f"{name}: real output rejected: {exc}")
        for what, bad in corrupted:
            try:
                check(bad)
            except CheckError:
                continue
            failures.append(f"{name}: {what} not detected")
    for line in failures:
        print(f"selftest: {line}", file=sys.stderr)
    print(f"selftest: {sum(len(c[3]) for c in cases)} corruptions, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
