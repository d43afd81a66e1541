"""The benchmark's tracer wraps the package and every command still runs.

``Tracer`` has no uninstall, so the traced run happens in a child process.
``perfbench/tracing.py`` is read and compiled there, not imported, so the
check writes nothing under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from forestsolve import system_to_json

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys

tracing_path, tests_dir, *argvs = sys.argv[1:]
sys.path.insert(0, tests_dir)
namespace = {"__name__": "perfbench_tracing", "__file__": tracing_path}
with open(tracing_path, encoding="utf-8") as fh:
    exec(compile(fh.read(), tracing_path, "exec"), namespace)

import forestsolve
from forestsolve import cli, crn
from conftest import nsite_network_and_task

tracer = namespace["Tracer"]()
tracer.install()
exits = {}
for argv in map(json.loads, argvs):
    tracer.case = (0, argv[0])
    exits[argv[0]] = cli.main(argv)
tracer.case = (0, "parameterize")
report = crn.parameterize(*nsite_network_and_task(1))
trace = namespace["summarize"](tracer.spans, [{"counts": tracer.counts}])
print(json.dumps({
    "exits": exits,
    "certified": report.certified,
    "spans": sorted({span[0] for span in tracer.spans}),
    "metrics": trace["metrics"],
}))
"""


def test_traced_commands_run(tmp_path, three_var_system, block_three_system):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(system_to_json(three_var_system)))
    system, blocks = block_three_system
    data = system_to_json(system)
    data["blocks"] = {"sizes": list(blocks.sizes), "m0": blocks.m0, "j": list(blocks.j)}
    block = tmp_path / "block.json"
    block.write_text(json.dumps(data))
    argvs = [
        [command, "--input", str(path), "--output", str(tmp_path / f"{command}.out")]
        for command, path in (("solve", plain), ("certify", plain), ("block-certify", block))
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench" / "tracing.py"), str(ROOT / "tests")]
        + [json.dumps(argv) for argv in argvs],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exits"] == {"solve": 0, "certify": 0, "block-certify": 0}
    assert result["certified"]
    for name in (
        "cli.main",
        "linsys.solve_by_trees",
        "pgraph.certify_nonneg",
        "blocksys.certify_block_nonneg",
        "crn.parameterize",
    ):
        assert name in result["spans"], name
    # certify, block-certify and the parameterization each search one realization
    assert result["metrics"]["blocksys.candidates"] == 3
