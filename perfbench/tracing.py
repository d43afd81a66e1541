"""Spans and counts around the public functions of forestsolve's modules.

A traced run replaces each listed function at every module that binds its
name (several modules import ``upsilon_rooted``, ``find_pgraph`` and others
by name), so calls made through any binding are recorded.  Spans are kept in
memory as ``[name, start, end, parent, case, work]`` with process CPU clock
readings in nanoseconds; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

# module -> {function: (metric prefix, work counted from the result)}
SPANNED = {
    "cli": {"main": ("cli.main", None)},
    "linsys": {
        "system_from_json": ("linsys.system_from_json", None),
        "solve_by_trees": ("linsys.solve_by_trees", None),
        "bordered_laplacian": ("linsys.bordered_laplacian", None),
        "cramer_oracle": ("linsys.cramer_oracle", None),
    },
    "symring": {
        "ratio": ("symring.ratio", None),
        "det_matrix": ("symring.det_matrix", None),
    },
    "forests": {
        "enumerate_rooted_forests": ("forests.enumerate_rooted_forests", len),
        "upsilon": ("forests.upsilon", None),
        "upsilon_signed": ("forests.upsilon", None),
    },
    "multigraph": {
        "node_cycles": ("multigraph.node_cycles", len),
        "simple_cycles": ("multigraph.simple_cycles", len),
        "reaches_avoiding": ("multigraph.reaches_avoiding", None),
        "canonical_graph": ("multigraph.canonical_graph", None),
        "laplacian_of": ("multigraph.laplacian_of", None),
    },
    "pgraph": {
        "find_pgraph": ("pgraph.find_pgraph", lambda found: int(found is None)),
        "validate_partition": ("pgraph.validate_partition", None),
        "is_pgraph": ("pgraph.is_pgraph", None),
        "certify_nonneg": ("pgraph.certify_nonneg", None),
    },
    "blocksys": {
        "certify_block_nonneg": ("blocksys.certify_block_nonneg", None),
        "solve_block": ("blocksys.solve_block", None),
        "check_condition_star": ("blocksys.check_condition_star", None),
        "validate_acompatible": ("blocksys.validate_acompatible", None),
        "zero_components": ("blocksys.zero_components", None),
    },
    "crn": {
        "parse_network": ("crn.parse_network", None),
        "conservation_laws": ("crn.conservation_laws", None),
        "build_steady_system": ("crn.build_steady_system", None),
        "validate_dropped_rows": ("crn.validate_dropped_rows", None),
        "parameterize": ("crn.parameterize", None),
    },
}

# the name under which each span's work count is reported
WORK_NAMES = {
    "forests.enumerate_rooted_forests": "forests",
    "multigraph.node_cycles": "cycles",
    "multigraph.simple_cycles": "cycles",
    "pgraph.find_pgraph": "refusals",
}

# (class attribute, counter): calls counted without spans
COUNTED = [
    ("__init__", "symring.Polynomial.init.calls"),
    ("__add__", "symring.Polynomial.add.calls"),
    ("__radd__", "symring.Polynomial.add.calls"),
    ("__mul__", "symring.Polynomial.mul.calls"),
    ("__rmul__", "symring.Polynomial.mul.calls"),
]

FOREST_LABEL = "forests.forest_label.calls"
CANDIDATES = "blocksys.candidates"  # find_pgraph calls under certify_block_nonneg

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics that BENCHMARK.json lists under ``section``:
    the runs report exactly these."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class Tracer:
    """Wraps forestsolve's functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys([name for _, name in COUNTED] + [FOREST_LABEL], 0)
        self.case = None

    def _span(self, name, fn, work):
        spans, stack, clock = self.spans, self.stack, time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.case, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if work is not None:
                rec[5] = work(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "forestsolve"]
        replace = {}
        for short, functions in SPANNED.items():
            mod = sys.modules[f"forestsolve.{short}"]
            for fname, (name, work) in functions.items():
                orig = getattr(mod, fname)
                replace[id(orig)] = (orig, self._span(name, orig, work))
        forests = sys.modules["forestsolve.forests"]
        orig = forests.forest_label
        replace[id(orig)] = (orig, self._count(FOREST_LABEL, orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        poly = sys.modules["forestsolve.symring"].Polynomial
        for attr, name in COUNTED:
            setattr(poly, attr, self._count(name, poly.__dict__[attr]))


def summarize(spans: list[list], rounds: list[dict]) -> dict:
    """Per-layer metrics, one value per round: self times as medians over
    rounds, counts from the first round (``rounds[k]['counts']``)."""
    durations = [end - start for _, start, end, _, _, _ in spans]
    child = [0] * len(spans)
    for idx, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += durations[idx]
    per_round: dict[int, dict] = {}
    for idx, (name, _, _, parent, case, work) in enumerate(spans):
        r = per_round.setdefault(case[0], {})
        r[f"{name}.self_s"] = r.get(f"{name}.self_s", 0) + (durations[idx] - child[idx]) * 1e-9
        r[f"{name}.calls"] = r.get(f"{name}.calls", 0) + 1
        if name in WORK_NAMES:
            key = f"{name}.{WORK_NAMES[name]}"
            r[key] = r.get(key, 0) + work
        if name == "pgraph.find_pgraph":
            p = parent
            while p >= 0 and spans[p][0] != "blocksys.certify_block_nonneg":
                p = spans[p][3]
            if p >= 0:
                r[CANDIDATES] = r.get(CANDIDATES, 0) + 1
    for k, rnd in enumerate(rounds):
        per_round.setdefault(k, {}).update(rnd["counts"])
    units = declared_units("per_layer")
    metrics = {}
    for name, unit in units.items():
        values = [per_round.get(k, {}).get(name, 0) for k in range(len(rounds))]
        if unit == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
    stable = all(
        per_round.get(k, {}).get(name, 0) == per_round.get(0, {}).get(name, 0)
        for k in range(len(rounds))
        for name, unit in units.items()
        if unit == "count"
    )
    return {"metrics": metrics, "counts_repeat": stable}
