"""The curve driver (``run_curves``) and the identity of a point: pinned
campaign output, the whole-recipe key, and pooled curve tables."""

import dataclasses
import json
import pathlib
import pickle

import pytest

from repro.experiments import chaos, congestion, dimension, fig5, fig6, sweep
from repro.experiments.chaos import Storm, StormSpec, chaos_campaign
from repro.experiments.congestion import congestion_campaign
from repro.experiments.sweep import (
    CampaignCheckpoints,
    _cache_key,
    default_loads,
    run_curves,
    run_point,
)
from repro.profiles import FAST, Profile
from repro.sim.config import SimulationConfig
from repro.sim.run import Audit, tree_config
from repro.traffic.transport import TransportConfig

from .campaign_digests import digests
from .conftest import small_cube_config, small_tree_config

RECORDED = pathlib.Path(__file__).parent / "data" / "campaign_digests.json"


@pytest.fixture(autouse=True)
def fresh_memo():
    sweep.clear_cache()
    yield
    sweep.clear_cache()


def test_campaign_output_is_what_the_hand_written_drivers_produced():
    # recorded at the commit before ``run_curves``: every run document and
    # ledger record of the figure, dimension, chaos and congestion drivers
    assert digests() == json.loads(RECORDED.read_text())


class TestPointIdentity:
    def test_key_enumerates_every_config_field(self):
        config = small_cube_config()
        assert len(_cache_key(config)) == len(dataclasses.fields(SimulationConfig))
        assert round(config.load, 9) in _cache_key(config)

    def test_key_carries_the_instrument_specs(self):
        config = small_tree_config()
        tiers = (Audit(), Storm(StormSpec(fault_rate=0.101)))
        key = _cache_key(config, tiers)
        assert key[: len(_cache_key(config))] == _cache_key(config)
        assert key[-2:] == tuple(map(repr, tiers))
        other = (Audit(), Storm(StormSpec(fault_rate=0.104)))
        assert _cache_key(config, other) != key
        json.dumps(key)  # what RunCache and point_dir digest

    @pytest.mark.parametrize(
        "change",
        [
            dict(collect_latencies=True),
            dict(capacity_flits_per_cycle=0.25),
            dict(interval_cycles=50),
            dict(watchdog_cycles=100),
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_fields_the_hand_written_key_left_out(self, change):
        config = small_cube_config(load=0.3)
        first = run_point(config)
        changed = dataclasses.replace(config, **change)
        second = run_point(changed)
        assert second is not first
        assert second.config == changed
        assert run_point(changed) is second

    def test_latency_samples_are_not_served_from_a_plain_run(self):
        config = small_cube_config(load=0.3)
        assert run_point(config).latency_percentiles() is None
        sampled = run_point(dataclasses.replace(config, collect_latencies=True))
        assert sampled.latency_percentiles() is not None

    def test_chaos_series_with_one_display_label_stay_apart(self, tmp_path):
        statuses = []
        campaign = chaos_campaign(
            tree_config(k=4, n=3, vcs=2, seed=47, **FAST.windows),
            fault_rates=(0.101, 0.104), loads=[0.3], profile=FAST,
            checkpoints=CampaignCheckpoints(str(tmp_path), 100),
            progress=lambda p: statuses.append(p.status),
        )
        assert [cs.series.label for cs in campaign] == ["tree chaos fr=0.10"] * 2
        assert statuses == ["ok", "ok"]
        assert [
            cs.results[0].telemetry.reliability["storm"]["fault_rate"] for cs in campaign
        ] == [0.101, 0.104]

    def test_congestion_campaigns_differing_in_arbiter_share_no_closed_point(
        self, tmp_path
    ):
        def campaign(arbiter_closed):
            statuses = []
            series = congestion_campaign(
                tree_config(k=2, n=2, vcs=2, seed=11, **FAST.windows),
                loads=[0.4, 0.9], profile=FAST,
                transport=TransportConfig(base_timeout=32, max_retries=2),
                arbiter_closed=arbiter_closed,
                checkpoints=CampaignCheckpoints(str(tmp_path), 100),
                progress=lambda p: statuses.append(p.status),
            )
            return series, statuses

        _, first = campaign("round_robin")
        assert first == ["ok"] * 4
        (_, closed), second = campaign("age")
        # the open-loop curve is the same recipe, the closed-loop one is not
        assert second == ["cached", "cached", "ok", "ok"]
        for result in closed.results:
            assert result.config.arbiter == "age"
            assert result.telemetry.reliability["overload"]["arbiter"] == "age"


class TestRunCurves:
    def test_default_grid_is_the_profiles(self):
        profile = Profile(name="grid", warmup_cycles=50, total_cycles=250, sweep_points=3)
        curve = ("tree", small_tree_config(**profile.windows), ())
        ((series, results),) = run_curves([curve], profile=profile)
        assert series.offered() == default_loads(3)
        assert [r.config.load for r in results] == default_loads(3)
        assert series.label == "tree"

    def test_the_config_is_the_whole_recipe_but_the_load(self):
        config = small_cube_config(load=0.9, collect_latencies=True, arbiter="age")
        ((_, results),) = run_curves([("cube", config, ())], [0.2, 0.4])
        assert [r.config for r in results] == [
            dataclasses.replace(config, load=load) for load in (0.2, 0.4)
        ]

    def test_every_curve_table_pickles_and_runs_pooled(self, monkeypatch):
        tables = []

        def pooled(curves, *args, **harness):
            curves = pickle.loads(pickle.dumps(list(curves)))
            tables.append(curves)
            harness.update(parallel=True, max_workers=2)
            return run_curves(curves, *args, **harness)

        for module in (fig5, fig6, dimension, chaos, congestion):
            monkeypatch.setattr(module, "run_curves", pooled)
        profile = Profile(name="pool", warmup_cycles=50, total_cycles=250, sweep_points=2)
        small = dict(profile=profile, k=4, n=2)
        assert len(fig5.fig5_experiment("uniform", **small).series) == 3
        assert len(fig6.fig6_experiment("uniform", **small).series) == 2
        assert len(dimension.dimension_study(shapes=((4, 2), (2, 4)), profile=profile)) == 2
        shape = tree_config(k=4, n=2, vcs=2, **profile.windows)
        storms = chaos_campaign(shape, (0.0, 0.2), profile=profile)
        modes = congestion_campaign(shape, profile=profile)
        for series in (*storms, *modes):
            assert len(series.results) == 2 and not series.series.failures
        assert [len(table) for table in tables] == [3, 2, 2, 2, 2]
