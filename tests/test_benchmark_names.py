"""The benchmark's tracer wraps functions by name; every name it lists exists.

``perfbench/tracing.py`` is read and compiled here, not imported, so the
check writes nothing under ``perfbench/``.
"""

import importlib
from pathlib import Path

from forestsolve import Polynomial, forests

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
