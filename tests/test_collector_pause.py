"""Engines are built and restored with the cyclic collector paused
(:class:`repro.sim.engine.collector_paused`).

The pause is sound only because the engine graph holds no reference cycle:
building or restoring an engine and dropping it must leave the collector
nothing to find.  And the pause must hand the collector back as it found it
— on, off (as :mod:`tests.test_release` runs its cases), or when the body
raises.
"""

import gc

import pytest

from repro.errors import CheckpointError
from repro.experiments.chaos import Storm, StormSpec
from repro.sim import engine as engine_module
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.run import build_engine, cube_config, start, tree_config
from repro.traffic.transport import TransportConfig

WINDOWS = dict(warmup_cycles=100, total_cycles=600, seed=11)

#: the five paper configurations, a Fig. 5 transpose point and the chaos
#: workload's configuration, on 16-node networks
CONFIGS = {
    "tree-1vc": tree_config(k=4, n=2, vcs=1, load=0.3, **WINDOWS),
    "tree-2vc": tree_config(k=4, n=2, vcs=2, load=0.3, **WINDOWS),
    "tree-4vc": tree_config(k=4, n=2, vcs=4, load=0.3, **WINDOWS),
    "cube-dor": cube_config(k=4, n=2, algorithm="dor", vcs=4, load=0.3, **WINDOWS),
    "cube-duato": cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.3, **WINDOWS),
    "fig5-transpose": tree_config(k=4, n=2, vcs=2, pattern="transpose", load=0.6, **WINDOWS),
    "chaos": tree_config(k=4, n=2, vcs=4, load=0.5, **WINDOWS),
}
STORM = StormSpec(fault_rate=0.05, repair_cycles=200, storm_seed=5,
                  transport=TransportConfig(base_timeout=256))


def cyclic_garbage(call) -> int:
    """What a collection finds after ``call()``, run with the collector
    off so that nothing it leaves is collected before it is counted."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def chaos_engine(config) -> None:
    """A chaos engine as :func:`~repro.experiments.chaos.run_chaos_point`
    starts it (reliable transport, storm schedule), released and dropped."""
    engine, _run = start(config, [Storm(STORM)])
    engine.release()


def mid_run_checkpoint(config, path):
    engine = build_engine(config)
    for _ in range(200):
        engine.step()
    save_checkpoint(engine, path)
    return path


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector set to the case's state, and set back afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestNothingIsLeftForTheCollector:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_a_built_engine(self, name):
        assert cyclic_garbage(lambda: build_engine(CONFIGS[name])) == 0

    def test_a_released_chaos_engine(self):
        assert cyclic_garbage(lambda: chaos_engine(CONFIGS["chaos"])) == 0

    @pytest.mark.parametrize("name", ["tree-4vc", "cube-duato"])
    def test_a_restored_engine(self, name, tmp_path):
        config = CONFIGS[name]
        path = mid_run_checkpoint(config, tmp_path / "ckpt-000000000200.rckpt")
        assert cyclic_garbage(lambda: load_checkpoint(path, config)) == 0


class TestTheCollectorIsLeftAsFound:
    def test_by_build_engine(self, collector):
        build_engine(CONFIGS["tree-2vc"])
        assert gc.isenabled() is collector

    def test_by_load_checkpoint(self, collector, tmp_path):
        config = CONFIGS["cube-dor"]
        path = mid_run_checkpoint(config, tmp_path / "ckpt-000000000200.rckpt")
        load_checkpoint(path, config)
        assert gc.isenabled() is collector

    def test_when_the_build_raises(self, collector, monkeypatch):
        def refuse(self, *args):
            raise RuntimeError("wiring failed")

        monkeypatch.setattr(engine_module.Engine, "__init__", refuse)
        with pytest.raises(RuntimeError, match="wiring failed"):
            build_engine(CONFIGS["tree-1vc"])
        assert gc.isenabled() is collector

    def test_when_the_payload_does_not_unpickle(self, collector, monkeypatch, tmp_path):
        config = CONFIGS["tree-4vc"]
        path = mid_run_checkpoint(config, tmp_path / "ckpt-000000000200.rckpt")

        def refuse(self, state):
            raise ValueError("no such state")

        monkeypatch.setattr(engine_module.Engine, "__setstate__", refuse)
        with pytest.raises(CheckpointError, match="does not unpickle: no such state"):
            load_checkpoint(path, config)
        assert gc.isenabled() is collector

    def test_when_nested(self, collector):
        with engine_module.collector_paused():
            with engine_module.collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is collector
