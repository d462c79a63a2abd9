"""Unit tests for run configuration (repro.sim.config) and builders."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweep import _cache_key, point_dir
from repro.metrics.io import run_result_from_dict, run_result_to_dict
from repro.obs.telemetry import config_digest
from repro.sim.checkpoint import CheckpointPolicy, save_checkpoint
from repro.sim.config import SimulationConfig
from repro.sim.results import RunResult
from repro.sim.run import build_engine, cube_config, tree_config


def valid(**overrides):
    base = dict(
        network="cube",
        k=4,
        n=2,
        algorithm="dor",
        vcs=4,
        packet_flits=16,
        capacity_flits_per_cycle=0.5,
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestValidation:
    def test_valid_baseline(self):
        cfg = valid()
        assert cfg.num_nodes == 16
        assert cfg.injection_flits_per_cycle == pytest.approx(0.05)

    def test_unknown_network(self):
        with pytest.raises(ConfigurationError, match="network"):
            valid(network="mesh")

    def test_algorithm_network_mismatch(self):
        with pytest.raises(ConfigurationError, match="not usable"):
            valid(network="tree", algorithm="dor")
        with pytest.raises(ConfigurationError, match="not usable"):
            valid(algorithm="tree_adaptive")

    def test_dor_needs_even_vcs(self):
        with pytest.raises(ConfigurationError, match="even"):
            valid(vcs=3)

    def test_duato_needs_three_vcs(self):
        with pytest.raises(ConfigurationError, match="duato"):
            valid(algorithm="duato", vcs=2)
        valid(algorithm="duato", vcs=3)  # allowed

    def test_topology_bounds(self):
        with pytest.raises(ConfigurationError):
            valid(k=1)
        with pytest.raises(ConfigurationError):
            valid(n=0)

    def test_packet_needs_header_and_tail(self):
        with pytest.raises(ConfigurationError, match="header and tail"):
            valid(packet_flits=1)

    def test_window_ordering(self):
        with pytest.raises(ConfigurationError, match="warmup"):
            valid(warmup_cycles=100, total_cycles=100)

    def test_negative_load(self):
        with pytest.raises(ConfigurationError):
            valid(load=-0.5)

    def test_negative_watchdog(self):
        with pytest.raises(ConfigurationError):
            valid(watchdog_cycles=-1)

    def test_zero_vcs(self):
        with pytest.raises(ConfigurationError):
            valid(vcs=0, algorithm="dor")

    def test_label_is_informative(self):
        lbl = valid(load=0.25).label()
        assert "cube" in lbl and "dor" in lbl and "0.250" in lbl


class TestBuilders:
    def test_tree_defaults_match_paper(self):
        cfg = tree_config()
        assert (cfg.k, cfg.n) == (4, 4)
        assert cfg.packet_flits == 32  # 64 B / 2 B flits
        assert cfg.capacity_flits_per_cycle == 1.0
        assert cfg.algorithm == "tree_adaptive"
        assert cfg.buffer_flits == 4
        assert cfg.warmup_cycles == 2000
        assert cfg.total_cycles == 20000

    def test_cube_defaults_match_paper(self):
        cfg = cube_config()
        assert (cfg.k, cfg.n) == (16, 2)
        assert cfg.packet_flits == 16  # 64 B / 4 B flits
        assert cfg.capacity_flits_per_cycle == pytest.approx(0.5)
        assert cfg.vcs == 4

    def test_same_injection_rate_after_normalization(self):
        # §5: equal upper bound — at the same fraction of capacity both
        # networks generate packets at the same per-node rate
        t = tree_config(load=0.8)
        c = cube_config(load=0.8)
        assert t.injection_flits_per_cycle / t.packet_flits == pytest.approx(
            c.injection_flits_per_cycle / c.packet_flits
        )

    def test_overrides_pass_through(self):
        cfg = tree_config(seed=99, warmup_cycles=5, total_cycles=10)
        assert cfg.seed == 99
        assert (cfg.warmup_cycles, cfg.total_cycles) == (5, 10)


@dataclasses.dataclass
class WithInjection(SimulationConfig):
    """A config with one model choice, added the way the next one will be."""

    MODEL_CHOICES = ("injection",)
    injection: str = "serial"


def identities(config, tmp_path) -> tuple:
    """Every place a run's identity is written: its config digest, its run
    document, its cache key, its campaign checkpoint directory and the
    header of a checkpoint of it."""
    key = _cache_key(config)
    header = save_checkpoint(build_engine(config), tmp_path / "point.ckpt")
    return (
        config_digest(config),
        json.dumps(run_result_to_dict(RunResult(config=config, measured_cycles=100))),
        key,
        point_dir(CheckpointPolicy(str(tmp_path)), "door", key),
        header["config"],
    )


class TestModelChoices:
    def test_a_model_choice_at_its_default_moves_no_identity(self, tmp_path):
        base = valid(load=0.3, seed=5)
        door = WithInjection(**dataclasses.asdict(base))
        assert door.recipe() == base.recipe() == dataclasses.asdict(base)
        same = identities(door, tmp_path)
        assert same == identities(base, tmp_path)
        assert run_result_from_dict(json.loads(same[1])).config == base

    def test_a_model_choice_off_its_default_moves_every_identity(self, tmp_path):
        base = valid(load=0.3, seed=5)
        off = WithInjection(**dataclasses.asdict(base), injection="interleaved")
        assert off.recipe() == {**dataclasses.asdict(base), "injection": "interleaved"}
        for default, moved in zip(identities(base, tmp_path), identities(off, tmp_path)):
            assert default != moved
