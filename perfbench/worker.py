"""One workload in one fresh process: set up, run whole rounds, report.

Started by ``run.py`` with a fixed ``PYTHONHASHSEED`` and ``PYTHONPATH``
pointing at the checkout's ``src``.  Reads the case list that ``run.py``
wrote to ``--out``, writes the first round's outputs there, and prints one
JSON line with per-round CPU and wall times, which ``run.py`` turns into
metrics after checking the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed

PROBE = speed.SpeedProbe()
if __name__ == "__main__":
    PROBE.start()  # before the imports below, so that set-up is sampled too

import forestsolve  # noqa: E402
from forestsolve import blocksys, cli, crn, linsys  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402


class Case:
    def __init__(self, name: str, large: bool, run):
        self.name, self.large, self.run = name, large, run


def cli_case(spec: dict) -> Case:
    """``forestsolve <command> --input <file>`` through ``cli.main``."""
    argv = [spec["command"], "--input", spec["input"], "--output", spec["output"]]

    def run():
        code = cli.main(argv)
        with open(spec["output"], encoding="utf-8") as fh:
            return {"exit": code, "output": json.load(fh)}

    return Case(spec["name"], spec["large"], run)


def nsite_case(n: int, large: bool, text: str) -> Case:
    """Parse the n-site network and parameterize it with explicit blocks."""
    species = inputs.nsite_species(n)
    unknowns, params = species[: 2 * n + 2], species[2 * n + 2:]

    def run():
        net = crn.parse_network(text)
        laws = crn.conservation_laws(net)
        e_law = [int(s == "E" or s.startswith("ES")) for s in net.species]
        f_law = [int(s == "F" or s.startswith("FS")) for s in net.species]
        task = crn.SteadyStateTask(
            solve_for=tuple(unknowns),
            parameters=tuple(params),
            conservation=(
                crn.ConservationUse(1, laws.index(e_law) + 1, "Etot"),
                crn.ConservationUse(n + 2, laws.index(f_law) + 1, "Ftot"),
            ),
            drop=tuple(range(2 * n + 3, 3 * n + 4)),
        )
        blocks = blocksys.BlockStructure((n + 1, n + 1), 0, (1, n + 2))
        report = crn.parameterize(net, task, blocks=blocks)
        # the oracle's values are compared in checks.py, by evaluation:
        # symring.rat_equal cross-multiplies and takes 13 s at n = 3
        oracle = None
        if n <= 3 and report.certified:
            oracle = linsys.cramer_oracle(report.system)
        return {
            "certified": report.certified,
            "diagnostics": list(report.diagnostics),
            "solution": (
                {k: str(v) for k, v in report.solution.items()}
                if report.solution is not None
                else None
            ),
            "zero_components": sorted(report.zero_set),
            "oracle": [str(c) for c in oracle] if oracle is not None else None,
        }

    return Case(f"nsite-n{n}", large, run)


def load_cases(out_dir: str) -> list[Case]:
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    cases = []
    for spec in manifest["cases"]:
        if spec["command"] == "parameterize":
            with open(spec["input"], encoding="utf-8") as fh:
                cases.append(nsite_case(spec["n"], spec["large"], fh.read()))
        else:
            cases.append(cli_case(spec))
    return cases


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cases = load_cases(args.out)
    setup_cpu = time.process_time() - PROBE.spent_ns * 1e-9  # CPU since process start
    setup_s = setup_cpu * speed.speed(PROBE.samples)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu}))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    rounds: list[dict] = []
    first_outputs: dict | None = None
    attempted = failed = 0
    stable = True
    start = time.perf_counter()
    # whole rounds only: the next one starts if a round as long as the last fits
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds:
        rnd = {"cpu": {}, "wall": {}, "probes": {}}
        counts_before = dict(tracer.counts) if tracer else None
        outputs = {}
        for case in cases:
            if tracer:
                tracer.case = (len(rounds), case.name)
            attempted += 1
            first, spent = len(PROBE.samples), PROBE.spent_ns
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                outputs[case.name] = case.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                outputs[case.name] = {"error": f"{type(exc).__name__}: {exc}"}
            # CPU less the probe handler's; wall time includes it
            rnd["cpu"][case.name] = time.process_time() - c0 - (PROBE.spent_ns - spent) * 1e-9
            rnd["wall"][case.name] = time.perf_counter() - w0
            rnd["probes"][case.name] = PROBE.samples[first:]
        if tracer:
            rnd["counts"] = {
                k: v - counts_before[k] for k, v in tracer.counts.items()
            }
        if first_outputs is None:
            first_outputs = outputs
            inputs.write_json(os.path.join(args.out, "outputs.json"), outputs)
        elif outputs != first_outputs:
            stable = False
        rounds.append(rnd)

    report = {
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu,
        "large": [c.name for c in cases if c.large],
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "outputs_repeat": stable,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "forestsolve": os.path.dirname(forestsolve.__file__),
    }
    if tracer:
        report["trace"] = tracing.summarize(tracer.spans, rounds)
        inputs.write_json(os.path.join(args.out, "spans.json"), tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
