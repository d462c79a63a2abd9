"""Property tests for the forensics tier across every paper routing
configuration: the attribution invariant, probe composition under fault
schedules, and deadlock-precursor detection ahead of the watchdog."""

import re

import pytest

from repro.faults import CubeLinkFault, FaultSchedule
from repro.obs import MultiProbe, TraceProbe
from repro.obs.forensics import Forensics, ForensicsProbe, LatencyAttributionProbe
from repro.sim.run import build_engine, cube_config, simulate_post_mortem, tree_config

from .test_sweep_resilient import ring_config  # registers unsafe_ring

#: the five paper routing configurations (Fig 5: tree by VC count,
#: Fig 6: cube by algorithm), shrunk to test-size networks
FIVE_CONFIGS = [
    pytest.param(dict(network="tree", vcs=1), id="tree-1vc"),
    pytest.param(dict(network="tree", vcs=2), id="tree-2vc"),
    pytest.param(dict(network="tree", vcs=4), id="tree-4vc"),
    pytest.param(dict(network="cube", algorithm="dor", vcs=4), id="cube-dor"),
    pytest.param(dict(network="cube", algorithm="duato", vcs=4), id="cube-duato"),
]


def _build(spec: dict, load: float = 0.7, **overrides):
    common = dict(
        load=load, seed=23, warmup_cycles=100, total_cycles=700, **overrides
    )
    if spec["network"] == "tree":
        return tree_config(k=2, n=3, vcs=spec["vcs"], **common)
    return cube_config(
        k=4, n=2, algorithm=spec["algorithm"], vcs=spec["vcs"], **common
    )


class TestAttributionInvariantAllConfigs:
    @pytest.mark.parametrize("spec", FIVE_CONFIGS)
    def test_every_delivered_packet_sums_exactly(self, spec):
        probe = LatencyAttributionProbe(include_warmup=True, keep_packets=100_000)
        engine = build_engine(_build(spec), probe=probe)
        engine.run()
        assert probe.finished > 0, "configuration delivered nothing"
        assert probe.invariant_violations == 0
        for rec in probe.packets:
            # queue + stall + blocked + transfer == created -> delivered,
            # equivalently stall + blocked + transfer == network latency
            assert rec.check()
            assert rec.source_wait == rec.injected - rec.created
            assert (
                rec.routing_stall + rec.blocked + rec.transfer
                == rec.delivered - rec.injected
            )

    @pytest.mark.parametrize("spec", FIVE_CONFIGS)
    def test_components_are_nonnegative(self, spec):
        probe = LatencyAttributionProbe(include_warmup=True, keep_packets=100_000)
        build_engine(_build(spec, load=1.0), probe=probe).run()
        for rec in probe.packets:
            assert rec.source_wait >= 0
            assert rec.routing_stall >= 0
            assert rec.blocked >= 0
            assert rec.transfer >= rec.size - 1 + 3  # at least one hop


class TestCompositionUnderFaults:
    def test_invariant_survives_a_fault_schedule(self):
        # forensics + tracer through MultiProbe while lanes fail and
        # repair mid-run: attribution must still sum exactly
        config = cube_config(
            k=4, n=2, algorithm="duato", vcs=4, load=0.5, seed=5,
            warmup_cycles=100, total_cycles=800,
        )
        forensics = ForensicsProbe(sample_every=100)
        forensics.attribution.keep_packets = 100_000
        tracer = TraceProbe(max_events=50_000)
        engine = build_engine(config, probe=MultiProbe([forensics, tracer]))
        schedule = FaultSchedule()
        schedule.add(CubeLinkFault(node=5, dim=0), fail_at=200, repair_at=500)
        schedule.add(CubeLinkFault(node=9, dim=1), fail_at=300)
        schedule.install(engine)
        engine.run()
        attr = forensics.attribution
        assert attr.finished > 0
        assert attr.invariant_violations == 0
        for rec in attr.packets:
            assert rec.check()
        assert len(tracer.events) > 0  # the composed probe kept tracing
        # faulted lanes appear as waits_on_faulted, never as graph edges
        assert all(s.waits_on_faulted >= 0 for s in forensics.waitfor.samples)


class TestDeadlockPrecursor:
    def test_sampler_flags_the_wedge_before_the_watchdog(self):
        _, engine, deadlock = simulate_post_mortem(ring_config(0.8), [Forensics(32)])
        assert deadlock is not None, "the unsafe ring must wedge at this load"
        wf = engine.find_probe(ForensicsProbe).waitfor
        assert wf.cycles_detected > 0
        assert wf.precursor is not None
        wedged_at = int(re.search(r"cycle (\d+)", str(deadlock)).group(1))
        assert wf.precursor_cycle < wedged_at
        # the precursor snapshot is a full diagnostic: it names the wedge
        text = wf.precursor.describe()
        assert "deadlock" in text.lower() or "packet" in text.lower()
        # the wait cycle is a real cycle: every pid occurs once
        sample = next(s for s in wf.samples if s.cycle_pids)
        assert len(set(sample.cycle_pids)) == len(sample.cycle_pids) >= 2

    def test_partial_result_still_carries_forensics(self):
        result, _, deadlock = simulate_post_mortem(ring_config(0.8), [Forensics()])
        assert deadlock is not None
        assert result.telemetry is not None
        doc = result.telemetry.forensics
        assert doc["waitfor"]["cycles_detected"] > 0
        assert doc["waitfor"]["precursor"] is not None
