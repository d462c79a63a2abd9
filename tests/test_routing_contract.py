"""The ``RoutingAlgorithm.select`` contract the engine's sleeping switches
rest on, checked for every algorithm the package registers under random
lane occupancy:

* ``select`` returns ``None`` exactly when no lane of ``candidates()`` is
  free, and such a call leaves the algorithm's RNG stream and counters
  untouched (so not asking again until a lane frees changes nothing);
* otherwise it returns a free lane out of ``candidates()``.

And the ``select`` the compiled routing phase runs for the four shipped
algorithms (``sim/_select.c``) is that ``select``: same lane, same draws, same
counters, and nothing touched when it stalls.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.base import ROUTING_ALGORITHMS
from repro.sim.engine import NATIVE_PHASES
from repro.sim.packet import Packet
from repro.sim.run import build_engine, cube_config, tree_config

#: algorithms shipped by the package (tests register throw-away ones too)
SHIPPED = sorted(
    name for name, cls in ROUTING_ALGORITHMS.items() if cls.__module__.startswith("repro.")
)

_BLOCKER = Packet(-1, 0, 1, 4, 0)
_ENGINES: dict = {}


def idle_engine(name: str):
    """One idle engine per algorithm, shared by all examples (they restore
    the occupancy they set)."""
    if name not in _ENGINES:
        window = dict(load=0.0, warmup_cycles=0, total_cycles=10, algorithm=name)
        if ROUTING_ALGORITHMS[name].network == "tree":
            config = tree_config(k=2, n=3, vcs=2, **window)
        else:
            config = cube_config(k=4, n=2, vcs=4, **window)
        _ENGINES[name] = build_engine(config)
    return _ENGINES[name]


def algorithm_state(algo) -> tuple:
    counters = {k: v for k, v in vars(algo).items() if isinstance(v, (int, float))}
    return algo.rng.getstate(), counters


def test_every_shipped_algorithm_is_covered():
    assert set(SHIPPED) == {"tree_adaptive", "tree_deterministic", "dor", "duato"}


@contextlib.contextmanager
def random_occupancy(engine, rng, density):
    """Each output lane busy with probability ``density`` for the block."""
    touched = []
    try:
        for lane in (lane for d in engine.dirs for lane in d.lanes):
            if rng.random() < density:
                # busy either way: the lane itself, or its downstream lane
                # still draining the previous packet
                holder = lane if rng.random() < 0.5 else lane.sink
                holder.packet = _BLOCKER
                touched.append(holder)
        yield
    finally:
        for holder in touched:
            holder.packet = None


def random_headers(engine, rng, count=20):
    """``(switch, input lane, packet)`` of headers anywhere, bound anywhere."""
    nodes = engine.topology.num_nodes
    for _ in range(count):
        switch = rng.randrange(engine.topology.num_switches)
        src, dst = rng.sample(range(nodes), 2)
        inlane = next(lane for port in engine.in_lanes[switch] for lane in port)
        yield switch, inlane, Packet(0, src, dst, 4, 0)


occupancies = given(
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.0, 0.3, 0.6, 0.85, 0.95, 1.0]),
)


@pytest.mark.parametrize("name", SHIPPED)
@settings(max_examples=150, deadline=None)
@occupancies
def test_select_contract(name, seed, density):
    engine = idle_engine(name)
    algo = engine.routing
    rng = random.Random(seed)
    with random_occupancy(engine, rng, density):
        for switch, inlane, packet in random_headers(engine, rng):
            candidates = algo.candidates(switch, inlane, packet)
            free = [lane for lane in candidates if lane.is_free()]
            before = algorithm_state(algo)
            chosen = algo.select(switch, inlane, packet)
            assert (chosen is None) == (not free)
            if chosen is None:
                assert algorithm_state(algo) == before
            else:
                assert any(chosen is lane for lane in free)


@pytest.mark.skipif(NATIVE_PHASES is None, reason="no compiled phases to hold to the contract")
@pytest.mark.parametrize("name", SHIPPED)
@settings(max_examples=150, deadline=None)
@occupancies
def test_compiled_select_is_the_python_select(name, seed, density):
    engine = idle_engine(name)
    algo = engine.routing
    rng = random.Random(seed)

    def everything_else():
        return [
            (lane.packet, lane.buffered, lane.credits, lane.sink.packet)
            for d in engine.dirs for lane in d.lanes
        ]

    with random_occupancy(engine, rng, density):
        for switch, inlane, packet in random_headers(engine, rng):
            stream, counters = before = algorithm_state(algo)
            expected = algo.select(switch, inlane, packet)
            after = algorithm_state(algo)
            algo.rng.setstate(stream)
            vars(algo).update(counters)
            lanes, header = everything_else(), packet.__getstate__()
            assert NATIVE_PHASES.select(algo, switch, inlane, packet) is expected
            assert algorithm_state(algo) == after
            if expected is None:
                assert after == before  # drew nothing, counted nothing
            assert (everything_else(), packet.__getstate__()) == (lanes, header)
