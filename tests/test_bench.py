"""The probe operating points benchmarks/perf times (repro.obs.bench)."""

from repro.obs.bench import PROBE_FACTORIES


class TestMeasure:
    def test_probe_specs_cover_off_and_on(self):
        assert set(PROBE_FACTORIES) == {
            "off", "null", "traced", "forensics", "flight", "statehash",
            "checkpoint",
        }
        assert PROBE_FACTORIES["off"]() is None
        assert PROBE_FACTORIES["null"]() is not None
        assert PROBE_FACTORIES["forensics"]() is not None
        assert PROBE_FACTORIES["flight"]() is not None
        assert PROBE_FACTORIES["statehash"]() is not None
        assert PROBE_FACTORIES["checkpoint"]() is not None
