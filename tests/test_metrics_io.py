"""Unit tests for the sweep document (repro.metrics.io.series_to_dict)."""

import json

from repro.metrics.io import FORMAT_VERSION, series_to_dict, sweep_document
from repro.metrics.series import LoadPoint, LoadSweepSeries


def sample_series(label="s"):
    series = LoadSweepSeries(
        label=label, network="cube", algorithm="duato", vcs=4, pattern="uniform"
    )
    series.points = [
        LoadPoint(offered=0.2, offered_measured=0.19, accepted=0.2,
                  latency_cycles=70.5, delivered_packets=500),
        LoadPoint(offered=0.9, offered_measured=0.91, accepted=0.78,
                  latency_cycles=None, delivered_packets=0),
    ]
    return series


class TestSeriesRoundTrip:
    def test_round_trip(self):
        # the document survives JSON text and names every LoadPoint field
        series = sample_series()
        doc = json.loads(json.dumps(sweep_document(series)))
        assert doc["format"] == FORMAT_VERSION
        assert doc["series"] == series_to_dict(series)
        assert doc["series"]["label"] == "s" and doc["series"]["vcs"] == 4
        assert [LoadPoint(**p) for p in doc["series"]["points"]] == series.points

    def test_none_latency_survives(self):
        text = json.dumps(series_to_dict(sample_series()))
        assert '"latency_cycles": null' in text
        assert json.loads(text)["points"][1]["latency_cycles"] is None
