"""Every engine is freed when its last reference drops: no reference cycle
outlives it.

Below the engine every edge points downstream — a lane names its direction
(``OutputLane.dir``) and its feeding lane (``InputLane.src_dir``) by index,
not by reference — and :meth:`Engine.release` cuts the edges that close a
cycle through the engine object itself (probe, instruments, cycle hooks,
sources), so the rest is a tree that reference counting frees the moment the
last outside reference drops, with no finalizer.  With the collector off and
saving what it finds (``gc.DEBUG_SAVEALL``), a collection after each case
must find nothing of an engine graph — ``simulate()`` under every instrument
tier alone, the chaos stack with its checkpoints and its resume, a drain
stopped with hooks still armed, an engine a ``build`` hook kept, and bare
engines: built and run, restored from a checkpoint and resumed — on the tree
and the cube, on both storages.  Engines the interpreter drops at exit leave
nothing on stderr.

A released engine still answers what a post-run reader takes (cycle,
totals, result, the directions and their counters), and refuses, with a
:class:`SimulationError` naming the release, whatever would now answer
differently.
"""

import contextlib
import gc
import json
import subprocess
import sys
import tempfile

import pytest

from repro.errors import SimulationError
from repro.experiments.chaos import StormSpec, run_chaos_point
from repro.obs.flight import FlightConfig
from repro.obs.forensics import Forensics, ForensicsProbe, hotspots
from repro.router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from repro.sim.checkpoint import (
    CheckpointPolicy,
    load_checkpoint,
    newest_valid_checkpoint,
    read_manifest,
    save_checkpoint,
)
from repro.sim.engine import Engine, ReleasedEngine, _Node
from repro.sim.packet import Packet
from repro.sim.run import build_engine, finish, simulate, start
from repro.traffic.generator import PacketSource
from repro.traffic.transport import ReliableSource, TransportConfig
from repro.workloads.trace import TraceSource

from .conftest import on_the_other_storage, small_cube_config, small_tree_config
from .test_determinism import _canonical
from .test_instruments import ALL_SPECS, BARRIER, CONFIG, CUBE
from .test_property_engine import python_loops

#: what must never wait for the collector once an engine is dropped
ENGINE_GRAPH = (
    Engine, InputLane, OutputLane, EjectionLane, LinkDirection, _Node, Packet,
    PacketSource, ReliableSource, TraceSource,
)
NETWORKS = {"tree": CONFIG, "cube": CUBE}
STORM = StormSpec(fault_rate=0.1, storm_seed=9, transport=TransportConfig(base_timeout=32))
LOOP_PATHS = {"kernel": contextlib.nullcontext, "reference": python_loops}


def _chain(obj, hops: int = 12) -> str:
    """One chain of referrers of ``obj`` inside ``gc.garbage``: the cycle
    that held it, as type names."""
    saved = {id(o) for o in gc.garbage}
    chain, seen = [obj], {id(obj)}
    while len(chain) < hops:
        up = next(
            (r for r in gc.get_referrers(chain[-1]) if id(r) in saved and id(r) not in seen), None
        )
        if up is None:
            break
        chain.append(up)
        seen.add(id(up))
    return " <- ".join(type(o).__name__ for o in chain)


def leftovers(calls: dict) -> dict:
    """Each call of ``calls`` (name -> call) in order, with the collector off
    and, after each, one collection saving all it finds: name -> the type of
    the first engine-graph object only that collection freed, with one chain
    of its referrers, for the calls that left any."""
    found = {}
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for name, call in calls.items():
            call()
            gc.collect()
            obj = next((o for o in gc.garbage if isinstance(o, ENGINE_GRAPH)), None)
            if obj is not None:
                found[name] = f"{type(obj).__name__}: {_chain(obj)}"
            gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return found


def bare(config, path: str) -> None:
    """``build_engine(config).run()`` and ``audit()`` on the loop ``path``,
    the engine dropped on return."""
    with LOOP_PATHS[path]():
        engine = build_engine(config)
        engine.run()
        engine.audit()


def restored_and_resumed(config, directory) -> None:
    """A bare engine checkpointed mid-run and dropped, then restored by
    ``load_checkpoint`` and resumed outside ``simulate()``, and dropped."""
    engine = build_engine(config)
    for _ in range(200):
        engine.step()
    path = f"{directory}/ckpt-000000000200.rckpt"
    save_checkpoint(engine, path)
    del engine
    engine, _header = load_checkpoint(path, config)
    engine.resume_run()
    engine.audit()


def cases(directory) -> dict:
    """Name -> call, in order: every tier of :data:`ALL_SPECS` alone, a drain
    that stops with its checkpoint hook armed, then the chaos stack with a
    checkpoint policy and its resume (the second call restores), an engine
    a ``build`` hook kept past ``simulate()``, a bare engine on each loop
    path and one restored and resumed outside ``simulate()``, per network;
    checkpoints go below ``directory``."""
    calls = {}
    for net, config in NETWORKS.items():
        for spec in ALL_SPECS:
            calls[f"{net}-{type(spec).__name__}"] = (
                lambda config=config, spec=spec: simulate(config, [spec])
            )
        drain = CheckpointPolicy(f"{directory}/{net}-drain", interval_cycles=100)
        calls[f"{net}-drain-checkpointed"] = (
            lambda config=config, drain=drain: simulate(config, [BARRIER], checkpoint=drain)
        )
        chaos = CheckpointPolicy(f"{directory}/{net}-chaos", interval_cycles=200)
        for name in ("chaos-checkpointed", "chaos-resumed"):
            calls[f"{net}-{name}"] = lambda config=config, chaos=chaos: run_chaos_point(
                config, STORM, flight=FlightConfig(interval_cycles=64), checkpoint=chaos
            )
        calls[f"{net}-kept-by-build"] = lambda config=config: simulated(
            config, [Forensics(sample_every=150)]
        )
        for path in LOOP_PATHS:
            calls[f"{net}-bare-{path}"] = lambda config=config, path=path: bare(config, path)
        calls[f"{net}-restored-resumed"] = (
            lambda config=config, net=net: restored_and_resumed(config, f"{directory}/{net}-bare")
        )
    return calls


def leftovers_of_every_case() -> dict:
    """:func:`leftovers` of :func:`cases`, in a directory of its own."""
    with tempfile.TemporaryDirectory() as directory:
        return leftovers(cases(directory))


class TestNoCycleOutlivesSimulate:
    def test_every_case_on_this_storage(self, tmp_path):
        assert leftovers(cases(tmp_path)) == {}
        for net in NETWORKS:
            # the resume really restored: nothing discarded, the run not redone
            manifest = read_manifest(tmp_path / f"{net}-chaos")
            assert manifest["checkpoints"] and manifest["discarded"] == []

    def test_every_case_on_the_other_storage(self, tmp_path):
        found = on_the_other_storage(
            tmp_path, "__import__('json').dumps(tests.test_release.leftovers_of_every_case())"
        )
        assert json.loads(found) == {}


# -- what a released engine answers ----------------------------------------------


def simulated(config, instruments=()):
    """``simulate()``'s result and the engine it released."""
    built = []

    def build(config, probe=None):
        built.append(build_engine(config, probe=probe))
        return built[-1]

    return simulate(config, instruments, build=build), built[0]


def live(config, instruments=()):
    """The twin of :func:`simulated` that keeps its engine live."""
    engine, run = start(config, instruments)
    return finish(engine, run()), engine


def _counters(engine) -> list:
    return [
        (d.label, d.to_node, d.flits, d.flits_at_warmup, d.blocked, d.blocked_at_warmup)
        for d in engine.dirs
    ]


def _totals(engine) -> tuple:
    return (
        engine.cycle, engine.injected_packets_total, engine.delivered_packets_total,
        engine.injected_flits_total, engine.delivered_flits_total,
        engine.dropped_packets_total, engine.dropped_flits_total, engine.in_flight_packets(),
    )


ENTRY_POINTS = {
    "step": lambda engine, path: engine.step(),
    "run": lambda engine, path: engine.run(),
    "resume_run": lambda engine, path: engine.resume_run(),
    "state_fingerprint": lambda engine, path: engine.state_fingerprint(),
    "save_checkpoint": lambda engine, path: save_checkpoint(engine, path / "ckpt.rckpt"),
    "find_probe": lambda engine, path: engine.find_probe(ForensicsProbe),
    "kill_packet": lambda engine, path: engine.kill_packet(Packet(0, 0, 1, 4, 0)),
    "preload_packet": lambda engine, path: engine.preload_packet(0, 1),
}


@pytest.fixture(scope="module", params=list(LOOP_PATHS))
def released(request):
    """The loop path, and an engine ``simulate()`` released on it."""
    with LOOP_PATHS[request.param]():
        return request.param, simulated(CONFIG, [Forensics(sample_every=150)])[1]


class TestAReleasedEngine:
    @pytest.mark.parametrize("config", NETWORKS.values(), ids=NETWORKS)
    def test_reads_what_the_live_engine_reads(self, config):
        result, engine = simulated(config, [Forensics(sample_every=150)])
        twin_result, twin = live(config, [Forensics(sample_every=150)])
        assert type(engine) is ReleasedEngine and type(twin) is Engine
        assert engine.result is result
        assert _canonical(result) == _canonical(twin_result)
        assert _totals(engine) == _totals(twin)
        assert _counters(engine) == _counters(twin)
        assert hotspots(engine) == hotspots(twin) == result.telemetry.forensics["hotspots"]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_refuses_what_would_answer_differently(self, entry, released, tmp_path):
        _, engine = released
        cycle = engine.cycle
        with pytest.raises(SimulationError, match=r"\(\) on a released engine: Engine\.release"):
            ENTRY_POINTS[entry](engine, tmp_path)
        assert engine.cycle == cycle
        assert not list(tmp_path.iterdir())

    def test_answers_taken_before_and_after_release_are_equal(self):
        _, engine = live(CONFIG, [Forensics(sample_every=150)])
        probe = engine.find_probe(ForensicsProbe)
        before = hotspots(engine), probe.summary(), _counters(engine), _totals(engine)
        engine.release()
        assert (hotspots(engine), probe.summary(), _counters(engine), _totals(engine)) == before
        with pytest.raises(SimulationError, match="released"):
            engine.find_probe(ForensicsProbe)


class TestTheLoaderReleasesWhatItDiscards:
    def test_a_root_mismatch_leaves_no_engine_to_the_collector(self, tmp_path):
        config = small_tree_config(load=0.5)
        engine = build_engine(config)
        for _ in range(100):
            engine.step()
        path = tmp_path / "ckpt-000000000100.rckpt"
        root = save_checkpoint(engine, path)["root"]
        del engine
        # the payload still passes its digest gate; only the root gate fails
        wrong = root[:-1] + ("0" if root[-1] != "0" else "1")
        path.write_bytes(path.read_bytes().replace(root.encode(), wrong.encode(), 1))
        assert leftovers({"discard": lambda: newest_valid_checkpoint(tmp_path, config)}) == {}
        (discard,) = read_manifest(tmp_path)["discarded"]
        assert (discard["file"], discard["kind"]) == (path.name, "fingerprint-mismatch")
        assert f"restored fingerprint {root} != recorded {wrong}" in discard["error"]


# -- a bare engine -----------------------------------------------------------------

ALGORITHMS = {
    "tree_adaptive": small_tree_config(algorithm="tree_adaptive"),
    "tree_deterministic": small_tree_config(algorithm="tree_deterministic"),
    "dor": small_cube_config(algorithm="dor"),
    "duato": small_cube_config(algorithm="duato"),
}


#: a run that leaves an engine in a module global and one in a cycle of its
#: own, for the interpreter to drop at exit
AT_EXIT = """
from repro.sim.run import build_engine, tree_config
config = tree_config(k=2, n=3, vcs=2, load=0.5, warmup_cycles=50, total_cycles=300)
engine = build_engine(config)
engine.run()
cyclic = build_engine(config)
cyclic.itself = cyclic
"""


class TestABareEngine:
    @pytest.mark.parametrize("config", ALGORITHMS.values(), ids=ALGORITHMS)
    def test_is_held_by_its_caller_alone(self, config):
        # the name below and getrefcount's argument: no routing algorithm,
        # lane or node points back at the engine, built or after a run
        engine = build_engine(config)
        assert sys.getrefcount(engine) == 2
        engine.run()
        assert sys.getrefcount(engine) == 2

    def test_leaves_nothing_on_stderr_when_the_interpreter_exits(self):
        done = subprocess.run([sys.executable, "-c", AT_EXIT], capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
