"""The benchmark's tracer wraps functions by name; every name it lists exists.

``perfbench/tracing.py`` is read and compiled here, not imported, so the
check writes nothing under ``perfbench/``.
"""

import importlib
from pathlib import Path

from forestsolve import Multidigraph, Polynomial, forests, laplacian_of, multigraph, pgraph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_namespace() -> dict:
    namespace = {"__name__": "perfbench_tracing", "__file__": str(TRACING)}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_traced_names_exist():
    tracing = _tracing_namespace()
    for short, functions in tracing["SPANNED"].items():
        module = importlib.import_module(f"forestsolve.{short}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"forestsolve.{short}.{name}"
    for attr, _ in tracing["COUNTED"]:
        assert attr in Polynomial.__dict__, f"Polynomial.{attr}"
    assert callable(forests.forest_label)


def test_work_counts_apply_to_real_results():
    # a traced function whose result the work count cannot read (a generator
    # under ``len``) fails here instead of failing every traced benchmark case
    tracing = _tracing_namespace()
    one = Polynomial.constant(1)
    graph = Multidigraph.from_edges(
        3, [(1, 2, one), (1, 2, one), (2, 3, one), (3, 1, one), (2, 1, one)]
    )
    results = {
        "multigraph.node_cycles": multigraph.node_cycles(graph),
        "multigraph.simple_cycles": multigraph.simple_cycles(graph),
        "forests.enumerate_rooted_forests": forests.enumerate_rooted_forests(graph, (1,)),
        "pgraph.find_pgraph": pgraph.find_pgraph(laplacian_of(graph)),
    }
    work = {
        name: count
        for functions in tracing["SPANNED"].values()
        for name, count in functions.values()
        if count is not None
    }
    assert set(work) == set(results)
    counts = {name: count(results[name]) for name, count in work.items()}
    assert counts == {
        "multigraph.node_cycles": 2,
        "multigraph.simple_cycles": 4,
        "forests.enumerate_rooted_forests": 2,
        "pgraph.find_pgraph": 0,
    }
