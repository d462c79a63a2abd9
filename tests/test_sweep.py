"""Unit tests for sweep orchestration (repro.experiments.sweep)."""

from functools import partial

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweep import (
    _CACHE,
    clear_cache,
    default_loads,
    run_point,
    run_sweep,
)

from repro.obs.ledger import Ledger
from repro.sim.run import simulate

from .conftest import small_cube_config


def _simulate_logging_start(config, log):
    """Module-level so the pool can pickle it: notes the point in ``log``
    when it starts."""
    with open(log, "a") as fh:
        fh.write(f"{config.load}\n")
    return simulate(config)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestDefaultLoads:
    def test_grid_shape(self):
        loads = default_loads(7)
        assert len(loads) == 7
        assert loads[0] == pytest.approx(0.1)
        assert loads[-1] == pytest.approx(1.0)
        assert loads == sorted(loads)

    def test_custom_range(self):
        loads = default_loads(3, lo=0.2, hi=0.8)
        assert loads == [0.2, 0.5, 0.8]

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            default_loads(1)


class TestRunPoint:
    def test_caches(self):
        cfg = small_cube_config(load=0.2)
        a = run_point(cfg)
        assert len(_CACHE) == 1
        b = run_point(small_cube_config(load=0.2))
        assert b is a  # identical recipe -> same object

    def test_cache_key_sensitivity(self):
        run_point(small_cube_config(load=0.2))
        run_point(small_cube_config(load=0.2, seed=99))
        run_point(small_cube_config(load=0.3))
        assert len(_CACHE) == 3

    def test_cache_opt_out(self):
        cfg = small_cube_config(load=0.2)
        run_point(cfg, use_cache=False)
        assert len(_CACHE) == 0

    def test_clear_cache_reports_count(self):
        run_point(small_cube_config(load=0.2))
        assert clear_cache() == 1
        assert clear_cache() == 0


class TestRunSweep:
    def test_series_assembled_in_order(self):
        series = run_sweep(
            lambda load: small_cube_config(load=load),
            [0.3, 0.1, 0.2],
            label="test",
        )
        assert series.offered() == [0.1, 0.2, 0.3]
        assert series.label == "test"
        assert series.network == "cube"

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(lambda load: small_cube_config(load=load), [], label="x")

    def test_sweep_reuses_cache(self):
        run_point(small_cube_config(load=0.1))
        run_sweep(lambda load: small_cube_config(load=load), [0.1, 0.2], label="x")
        assert len(_CACHE) == 2

    def test_pool_starts_heaviest_point_first(self, tmp_path):
        # a saturated point runs longest: started last, it leaves the other
        # workers idle at the end of the pass.  One worker, so the order
        # points start in is the order they were submitted in.
        loads = [0.2, 0.9, 0.1, 0.5]
        log = tmp_path / "started.txt"
        ledger = Ledger(tmp_path / "runs.jsonl")
        consumed = []
        series = run_sweep(
            lambda load: small_cube_config(load=load),
            loads,
            label="p",
            parallel=True,
            max_workers=1,
            simulate_fn=partial(_simulate_logging_start, log=str(log)),
            ledger=ledger,
            on_result=lambda result: consumed.append(result.config.load),
        )
        assert [float(line) for line in log.read_text().split()] == [0.9, 0.5, 0.2, 0.1]
        # everything downstream still sees the recipe's order
        assert consumed == loads
        assert [rec["run"]["config"]["load"] for rec in ledger.records()] == loads
        assert series.offered() == sorted(loads)

    def test_parallel_matches_serial(self):
        loads = [0.1, 0.3]
        serial = run_sweep(
            lambda load: small_cube_config(load=load), loads, label="s"
        )
        clear_cache()
        parallel = run_sweep(
            lambda load: small_cube_config(load=load),
            loads,
            label="p",
            parallel=True,
            max_workers=2,
        )
        assert [p.accepted for p in serial.points] == [
            p.accepted for p in parallel.points
        ]
        assert [p.latency_cycles for p in serial.points] == [
            p.latency_cycles for p in parallel.points
        ]
