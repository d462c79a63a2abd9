"""Property-based tests for traces, collectives and the saturation estimator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.saturation import saturation_point, sustained_rate
from repro.metrics.series import LoadPoint, LoadSweepSeries
from repro.workloads.collectives import alltoall_trace, butterfly_barrier_trace


class TestTraceProperties:
    @given(st.integers(min_value=2, max_value=32), st.integers(min_value=2, max_value=64))
    @settings(max_examples=20)
    def test_alltoall_is_complete_exchange(self, num_nodes, flits):
        trace = alltoall_trace(num_nodes, flits=flits)
        pairs = {(m.src, m.dst) for m in trace.messages}
        assert len(pairs) == len(trace.messages)  # no duplicates
        assert pairs == {
            (s, d) for s in range(num_nodes) for d in range(num_nodes) if s != d
        }

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=6)
    def test_barrier_message_count(self, log_n):
        n = 1 << log_n
        trace = butterfly_barrier_trace(n, flits=4)
        assert len(trace) == n * log_n


@st.composite
def monotone_curves(draw):
    """Synthetic sweep: accepted = min(offered, ceiling) plus small noise."""
    ceiling = draw(st.floats(min_value=0.15, max_value=0.95))
    npoints = draw(st.integers(min_value=3, max_value=10))
    loads = [round(0.1 + i * (1.0 - 0.1) / (npoints - 1), 4) for i in range(npoints)]
    # noise proportional to the signal (like the Bernoulli sampling noise
    # the estimator's *relative* tolerance is designed for), well inside
    # the 5% saturation threshold
    factors = [draw(st.floats(min_value=-0.015, max_value=0.015)) for _ in loads]
    series = LoadSweepSeries(
        label="synthetic", network="cube", algorithm="dor", vcs=4, pattern="uniform"
    )
    series.points = [
        LoadPoint(
            offered=x,
            offered_measured=x,
            accepted=max(min(x, ceiling) * (1 + e), 0.0),
            latency_cycles=50.0,
            delivered_packets=100,
        )
        for x, e in zip(loads, factors)
    ]
    return series, ceiling


class TestSaturationEstimatorProperties:
    @given(monotone_curves())
    def test_estimate_within_grid(self, case):
        series, _ = case
        sat = saturation_point(series)
        assert series.points[0].offered <= sat <= series.points[-1].offered

    @given(monotone_curves())
    def test_estimate_tracks_ceiling(self, case):
        series, ceiling = case
        sat = saturation_point(series)
        if ceiling >= 1.0 - 0.05:
            return  # never saturates within the sweep
        # the estimate lands within one grid step + tolerance of the knee
        step = series.points[1].offered - series.points[0].offered
        assert sat >= ceiling - step - 0.1
        assert sat <= min(ceiling + step + 0.12, 1.0)

    @given(monotone_curves())
    def test_sustained_rate_close_to_ceiling(self, case):
        series, ceiling = case
        rate = sustained_rate(series)
        assert rate <= ceiling + 0.05
        if saturation_point(series) < 0.95:
            assert rate >= ceiling - 0.1