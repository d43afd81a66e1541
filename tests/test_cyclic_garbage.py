"""Results are freed by reference counting: no call leaves cyclic garbage.

Cycle lists, forest lists and minor memos can be large (the 9-node
refusal of the benchmark builds 125,664 node cycles).  If a search kept
them in a reference cycle, they would linger until the cyclic collector
ran, and the peak memory would depend on its timing.  Each test collects,
disables the collector, makes one call, and checks that a collection
then finds nothing to free.
"""

from __future__ import annotations

import gc
import json

import pytest

from forestsolve import (
    BlockStructure,
    ForestSums,
    Multidigraph,
    bordered_laplacian,
    certify_block_nonneg,
    certify_nonneg,
    cli,
    cramer_oracle,
    det_matrix,
    enumerate_rooted_forests,
    find_pgraph,
    laplacian_of,
    parameterize,
    solve_block,
    solve_by_trees,
    system_to_json,
)
from forestsolve.multigraph import node_cycles

from conftest import nsite_network_and_task, zvar


def cyclic_garbage(call) -> int:
    """Objects that only the cyclic collector frees after one ``call()``."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def complete_refusal() -> Multidigraph:
    """Complete 5-node digraph whose cycle 1 -> 2 -> 3 -> 1 has two negative
    arcs, each grouped with a larger positive copy on another arc."""
    labels = {(s, t): zvar(5 * s + t) for s in range(1, 6) for t in range(1, 6) if s != t}
    for (s, t), (_, k) in (((1, 2), (1, 3)), ((2, 3), (2, 1))):
        labels[(s, k)] = labels[(s, k)] + 2 * zvar(s)
        labels[(s, t)] = -zvar(s)
    return Multidigraph.from_edges(5, [(s, t, lab) for (s, t), lab in labels.items()])


def nsite_2():
    net, task = nsite_network_and_task(2)
    return net, task, BlockStructure((3, 3), 0, (1, 4))


def forest_sum(lap):
    return ForestSums(lap, (lap.size,)).signed_minor({lap.size: 1})


# name -> request -> (function, arguments)
CALLS = {
    "node_cycles": lambda rq: (node_cycles, complete_refusal()),
    "find_pgraph-certified": lambda rq: (
        find_pgraph, bordered_laplacian(rq.getfixturevalue("three_var_system"))
    ),
    "find_pgraph-refusal": lambda rq: (find_pgraph, laplacian_of(complete_refusal())),
    "enumerate_rooted_forests": lambda rq: (
        enumerate_rooted_forests, complete_refusal(), (1,)
    ),
    "det_matrix": lambda rq: (
        det_matrix, [row[1:] for row in laplacian_of(complete_refusal()).rows[1:]]
    ),
    "ForestSums": lambda rq: (
        forest_sum, bordered_laplacian(rq.getfixturevalue("three_var_system"))
    ),
    "solve_by_trees": lambda rq: (solve_by_trees, rq.getfixturevalue("three_var_system")),
    "cramer_oracle": lambda rq: (cramer_oracle, rq.getfixturevalue("three_var_system")),
    "certify_nonneg": lambda rq: (certify_nonneg, rq.getfixturevalue("three_var_system")),
    "solve_block": lambda rq: (solve_block, *rq.getfixturevalue("five_var_system")),
    "certify_block_nonneg": lambda rq: (
        certify_block_nonneg, *rq.getfixturevalue("five_var_system")
    ),
    "parameterize": lambda rq: (parameterize, *nsite_2()),
}


@pytest.mark.parametrize("name", CALLS)
def test_call_leaves_no_cyclic_garbage(name, request):
    fn, *args = CALLS[name](request)
    assert cyclic_garbage(lambda: fn(*args)) == 0


def test_cli_call_leaves_no_parser_garbage(tmp_path, three_var_system):
    """``cli.main`` builds its parser once, so after a first call (whose
    build leaves argparse's formatter cycles) a call leaves no argparse
    object.  The JSON encoder that indented output uses is pure Python and
    leaves its own cycles, so those are not counted."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_json(three_var_system)))
    argv = ["certify", "--input", str(path), "--output", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert cli.main(argv) == 0
        gc.collect()
        left = {type(obj).__module__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert "argparse" not in left


def test_calls_reach_their_searches(three_var_system, five_var_system):
    """The calls above search, certify or refuse; none stops early."""
    assert len(node_cycles(complete_refusal())) == 84
    assert find_pgraph(bordered_laplacian(three_var_system)) is not None
    assert find_pgraph(laplacian_of(complete_refusal())) is None
    assert len(enumerate_rooted_forests(complete_refusal(), (1,))) == 5**3
    assert certify_nonneg(three_var_system) is not None
    assert certify_block_nonneg(*five_var_system) is not None
    assert parameterize(*nsite_2()).certified
