"""The link directions' flit counters over the measurement window
(``LinkDirection.flits`` / ``measured_flits``): what the forensics
``hotspots`` section and the scorecard heatmaps report per link."""

from repro.sim.run import build_engine, cube_config


def run_cube(**overrides):
    defaults = dict(
        k=4, n=2, algorithm="dor", load=0.3, seed=7,
        warmup_cycles=100, total_cycles=1100,
    )
    defaults.update(overrides)
    eng = build_engine(cube_config(**defaults))
    eng.run()
    return eng


class TestChannelLoads:
    def test_measured_flit_totals_match_window_deliveries(self):
        # the measurement window excludes warm-up traffic: ejected flits
        # must equal the result's measurement-window delivery counter
        eng = run_cube()
        ejected = sum(d.measured_flits for d in eng.dirs if d.to_node)
        assert ejected == eng.result.delivered_flits
        assert ejected < eng.delivered_flits_total  # warm-up was excluded

    def test_total_window_matches_engine_movement(self):
        eng = run_cube()
        ejected = sum(d.flits for d in eng.dirs if d.to_node)
        assert ejected == eng.delivered_flits_total

    def test_idle_network_is_silent(self):
        eng = build_engine(cube_config(k=4, n=2, load=0.0, total_cycles=50, warmup_cycles=0))
        eng.run()
        assert all(d.flits == 0 for d in eng.dirs)
