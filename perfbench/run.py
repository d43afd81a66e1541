"""Benchmark of forestsolve: dense solve, certification, n-site parameterization.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-solve --seed 1 --seconds 20 --trace 0

Writes the seeded inputs under ``perfbench/out/``, runs the output-checker
self-test and the workload, each in a fresh process with a fixed
``PYTHONHASHSEED``, checks every output against ``checks.py`` and prints one
JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics from a
traced run with ``--trace 1``.  End-to-end times are process CPU times at a
reference machine speed (see ``speed.py``); plain CPU and wall times go to
``result.json`` beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import speed
import tracing
from exact import CheckError

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dense-solve", "certify-mixed", "nsite-param")
HASH_SEED = "0"
SETUP_PROBES = 6  # extra fresh processes that only set up, for a median setup_s
BUDGET_S = 170  # every child process ends before this many seconds


class RunError(RuntimeError):
    pass


def child(argv: list[str], env: dict, deadline: float) -> str:
    """Run a child process to its end; its standard output."""
    try:
        proc = subprocess.run(
            argv, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RunError(f"{os.path.basename(argv[1])} ran out of time") from exc
    if proc.returncode != 0:
        raise RunError(f"{os.path.basename(argv[1])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def check_outputs(manifest: dict, outputs: dict, seed: int) -> list[str]:
    rng = random.Random(f"check:{seed}")
    errors = []
    for spec in manifest["cases"]:
        result = outputs[spec["name"]]
        if "error" in result:  # also counted in ``failed`` by the worker
            errors.append(f"{spec['name']}: raised {result['error']}")
            continue
        try:
            if spec["command"] == "parameterize":
                checks.check_nsite(spec["n"], result, rng)
                continue
            with open(spec["input"], encoding="utf-8") as fh:
                data = json.load(fh)
            if spec["command"] == "solve":
                checks.check_solve(data, result, rng)
            elif spec["command"] == "block-certify":
                checks.check_block_certified(data, result, rng)
            elif spec["large"]:
                checks.check_refusal(data, result, manifest["meta"]["planted_cycle"])
            else:
                checks.check_certified(data, result, rng)
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{spec['name']}: {type(exc).__name__}: {exc}")
    return errors


def end_to_end(report: dict, setups: list[dict], clock: str) -> dict:
    """Medians over rounds, with times on ``clock``: 'ref' (CPU at the
    reference speed, see speed.py), 'cpu' (plain CPU) or 'wall'."""
    large = set(report["large"])

    def seconds(rnd: dict, names: list[str]) -> float:
        if clock == "wall":
            return sum(rnd["wall"][n] for n in names)
        cpu = sum(rnd["cpu"][n] for n in names)
        samples = [p for n in names for p in rnd["probes"][n]]
        if clock == "cpu":
            return cpu
        return cpu * speed.speed(samples or [p for ps in rnd["probes"].values() for p in ps])

    rounds = report["rounds"]
    small = [name for name in rounds[0]["cpu"] if name not in large]
    return {
        "cpu_s": statistics.median(seconds(r, small) + seconds(r, sorted(large)) for r in rounds),
        "large_case_cpu_s": statistics.median(seconds(r, sorted(large)) for r in rounds),
        "small_cases_per_s": statistics.median(len(small) / seconds(r, small) for r in rounds),
        "setup_s": statistics.median(s["setup_s" if clock == "ref" else "setup_cpu_s"] for s in setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "forestsolve", "__init__.py")):
        print("perfbench: no src/forestsolve here; run from the root of a checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    manifest = inputs.write_inputs(args.workload, args.seed, out_dir)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=src)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--out", out_dir,
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child([sys.executable, os.path.join(HERE, "selftest.py"), os.path.join(out_dir, "selftest")], env, deadline)
        setups = [
            json.loads(child(worker + ["--setup-only"], env, deadline))
            for _ in range(SETUP_PROBES)
        ]
        report = json.loads(child(worker, env, deadline).splitlines()[-1])
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if os.path.realpath(report["forestsolve"]) != os.path.realpath(os.path.join(src, "forestsolve")):
        print(f"perfbench: imported forestsolve from {report['forestsolve']}", file=sys.stderr)
        return 1
    setups.append({k: report[k] for k in ("setup_s", "setup_cpu_s")})

    with open(os.path.join(out_dir, "outputs.json"), encoding="utf-8") as fh:
        errors = check_outputs(manifest, json.load(fh), args.seed)
    if not report["outputs_repeat"]:
        errors.append("outputs differ between rounds")
    if args.trace:
        values, units = report["trace"]["metrics"], tracing.declared_units("per_layer")
    else:
        values, units = end_to_end(report, setups, "ref"), tracing.declared_units("end_to_end")
    detail = {
        "args": vars(args), "errors": errors, "setups_s": setups, "metrics": values,
        "cpu": end_to_end(report, setups, "cpu"), "wall": end_to_end(report, setups, "wall"),
        "report": report,
    }
    inputs.write_json(os.path.join(out_dir, "result.json"), detail)
    for line in errors:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
