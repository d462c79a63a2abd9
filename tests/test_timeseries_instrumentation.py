"""Tests for the engine's throughput timeline and routing instrumentation."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.run import build_engine, cube_config, tree_config


def interval_rates(result) -> list[float]:
    """Per-interval accepted bandwidth in flits/cycle/node."""
    scale = result.config.interval_cycles * result.config.num_nodes
    return [count / scale for count in result.throughput_timeline]


def spread(rates) -> float:
    """Relative spread (max - min) / mean of the interval rates."""
    return (max(rates) - min(rates)) / (sum(rates) / len(rates))


class TestTimeline:
    def run(self, **overrides):
        defaults = dict(
            k=4, n=2, algorithm="dor", load=0.3, seed=7,
            warmup_cycles=200, total_cycles=2200, interval_cycles=250,
        )
        defaults.update(overrides)
        eng = build_engine(cube_config(**defaults))
        res = eng.run()
        return res

    def test_timeline_recorded(self):
        res = self.run()
        assert len(res.throughput_timeline) == 8  # 2000 cycles / 250
        assert sum(res.throughput_timeline) <= res.delivered_flits
        # only a trailing partial interval may be missing
        assert sum(res.throughput_timeline) >= res.delivered_flits - res.delivered_flits // 8

    def test_disabled_by_default(self):
        res = self.run(interval_cycles=0)
        assert res.throughput_timeline == []

    def test_rates_match_aggregate(self):
        res = self.run()
        rates = interval_rates(res)
        mean = sum(rates) / len(rates)
        assert mean == pytest.approx(res.accepted_flits_per_cycle, rel=0.05)

    def test_stable_below_saturation(self):
        rates = interval_rates(self.run(load=0.15))
        assert spread(rates) < 0.5
        # the warm-up was long enough: the first interval is steady state
        rest = sum(rates[1:]) / (len(rates) - 1)
        assert abs(rates[0] - rest) <= 0.3 * rest

    def test_stable_above_saturation(self):
        # §6: source throttling keeps post-saturation throughput flat
        assert spread(interval_rates(self.run(load=1.0))) < 0.25

    def test_inadequate_warmup_detected(self):
        # no warm-up at all: the first interval sees the pipeline filling
        res = self.run(load=1.0, warmup_cycles=0, total_cycles=2000)
        rates = interval_rates(res)
        assert rates[0] < rates[-1]  # ramp-up visible
        rest = sum(rates[1:]) / (len(rates) - 1)
        assert abs(rates[0] - rest) > 0.05 * rest

    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            cube_config(k=4, n=2, interval_cycles=-1)


class TestDuatoInstrumentation:
    def test_escape_fraction_grows_with_load(self):
        fractions = []
        for load in (0.1, 0.9):
            eng = build_engine(
                cube_config(
                    k=4, n=2, algorithm="duato", load=load, seed=7,
                    warmup_cycles=100, total_cycles=1100,
                )
            )
            eng.run()
            fractions.append(eng.routing.escape_fraction())
        assert fractions[0] < fractions[1]
        assert fractions[0] < 0.1  # light load: almost purely adaptive

    def test_counts_cover_all_network_grants(self):
        eng = build_engine(
            cube_config(
                k=4, n=2, algorithm="duato", load=0.5, seed=7,
                warmup_cycles=100, total_cycles=1100,
            )
        )
        eng.run()
        grants = eng.routing.adaptive_grants + eng.routing.escape_grants
        # every non-ejection hop of every packet was granted exactly once;
        # there is at least one network hop per delivered packet
        assert grants >= eng.delivered_packets_total

    def test_zero_traffic_fraction(self):
        eng = build_engine(cube_config(k=4, n=2, algorithm="duato", load=0.0, total_cycles=50, warmup_cycles=0))
        eng.run()
        assert eng.routing.escape_fraction() == 0.0


class TestTreeTimeline:
    def test_tree_runs_record_too(self):
        eng = build_engine(
            tree_config(
                k=2, n=2, vcs=2, load=0.5, seed=7,
                warmup_cycles=100, total_cycles=1100, interval_cycles=200,
            )
        )
        res = eng.run()
        assert len(res.throughput_timeline) == 5