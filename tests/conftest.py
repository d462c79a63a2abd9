"""Shared fixtures for the test-suite.

Simulation tests run on deliberately small networks and short windows; the
paper-scale 256-node networks appear only in the (slow-marked) integration
checks and the benchmark harness.
"""

from __future__ import annotations

import gc
import io
import os
import subprocess
import sys
import types

import pytest

from repro.sim import native
from repro.sim.checkpoint import checkpoint_pickler
from repro.sim.run import build_engine, cube_config, tree_config


def on_the_other_storage(tmp_path, expression: str, *argv: str) -> str:
    """What ``expression`` (over ``tests.<module>`` names and ``sys.argv``)
    prints in a child process whose lane, packet and node classes sit on the
    storage this process does not use: without the kernel when this process
    has it (the cache root is made a file: nothing can be built below it),
    with it — built into a fresh cache — otherwise."""
    cache = tmp_path / "the-other-cache"
    if native.KERNEL is not None and not cache.exists():
        cache.write_text("")
    script = (
        "import sys, tests.test_lane, tests.test_checkpoint, tests.test_link_counters\n"
        "import tests.test_release\n"
        "from repro.sim import native\n"
        f"assert (native.KERNEL is None) == {native.KERNEL is not None}\n"
        f"print({expression})"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "XDG_CACHE_HOME": str(cache)}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def built_for_the_pickle(root) -> list:
    """The lists, tuples and dicts the checkpoint pickler's memo holds once
    it has dumped ``root`` that are not part of ``root``'s own object graph:
    containers built only to be pickled, which the memo keeps alive until
    the dump ends.  Classes, modules and functions are where the graph
    stops."""
    pickler = checkpoint_pickler(io.BytesIO())
    pickler.dump(root)
    leaves = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, todo = {id(root)}, [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, leaves):
            continue
        for ref in gc.get_referents(obj):
            if id(ref) not in seen:
                seen.add(id(ref))
                todo.append(ref)
    return [
        obj for _, obj in pickler.memo.copy().values()
        if type(obj) in (list, tuple, dict) and id(obj) not in seen
    ]


def small_tree_config(**overrides):
    """2-ary 2-tree, short windows — milliseconds per run."""
    defaults = dict(
        k=2, n=2, vcs=2, load=0.2, seed=7, warmup_cycles=100, total_cycles=600
    )
    defaults.update(overrides)
    return tree_config(**defaults)


def small_cube_config(**overrides):
    """4-ary 2-cube, short windows — milliseconds per run."""
    defaults = dict(
        k=4, n=2, algorithm="dor", vcs=4, load=0.2, seed=7,
        warmup_cycles=100, total_cycles=600,
    )
    defaults.update(overrides)
    return cube_config(**defaults)


@pytest.fixture
def tree_engine():
    """Idle engine (zero load) on a 4-ary 2-tree, for routing unit tests."""
    return build_engine(tree_config(k=4, n=2, vcs=2, load=0.0, total_cycles=10, warmup_cycles=0))


@pytest.fixture
def cube_engine_dor():
    """Idle engine (zero load) on a 4-ary 2-cube with DOR."""
    return build_engine(
        cube_config(k=4, n=2, algorithm="dor", vcs=4, load=0.0, total_cycles=10, warmup_cycles=0)
    )


@pytest.fixture
def cube_engine_duato():
    """Idle engine (zero load) on a 4-ary 2-cube with Duato routing."""
    return build_engine(
        cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.0, total_cycles=10, warmup_cycles=0)
    )
