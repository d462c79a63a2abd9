"""Deadlock diagnostics across process boundaries, and tracing a wedge.

A parallel sweep ships worker exceptions back through pickling, so
:class:`DeadlockError` and its :class:`DeadlockSnapshot` payload must
survive a pickle round-trip intact.  And the observability probes must
keep working when a run *fails*: a forced deadlock still finalizes the
trace, so the stuck worms are inspectable after the fact.

The forced deadlock reuses the deliberately unsafe ring routing
registered by ``test_sweep_resilient`` (all-clockwise ring, no lane
discipline: a textbook cyclic channel dependency).
"""

import pickle

import pytest

from repro.errors import DeadlockError
from repro.obs import TraceProbe, WindowedCounterProbe
from repro.sim.diagnostics import BlockedPacket, DeadlockSnapshot
from repro.sim.run import build_engine, simulate

from .test_sweep_resilient import ring_config


def force_deadlock(probe=None):
    """Run the wedging ring config to its watchdog; return the error."""
    cfg = ring_config(load=0.8)
    with pytest.raises(DeadlockError) as excinfo:
        simulate(cfg, probe=probe)
    return excinfo.value


class TestSnapshotPickleRoundTrip:
    def test_snapshot_survives_pickling(self):
        err = force_deadlock()
        snap = err.snapshot
        assert isinstance(snap, DeadlockSnapshot)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        assert clone.describe() == snap.describe()

    def test_error_carries_snapshot_through_pickle(self):
        # parallel sweep workers return exceptions by pickling: the
        # snapshot must still be attached and readable on the far side
        err = force_deadlock()
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, DeadlockError)
        assert str(clone) == str(err)
        assert clone.snapshot == err.snapshot
        assert clone.snapshot.in_flight > 0

    def test_snapshot_contents_describe_the_wedge(self):
        snap = force_deadlock().snapshot
        assert snap.cycle > snap.last_progress_cycle
        assert snap.held_lanes > 0
        assert snap.blocked  # at least one observed stuck worm
        for b in snap.blocked:
            assert isinstance(b, BlockedPacket)
            assert b.received >= b.forwarded
        # every reported packet is a real in-flight one
        assert len({b.pid for b in snap.blocked}) <= snap.in_flight

    def test_hand_built_snapshot_round_trips(self):
        snap = DeadlockSnapshot(
            cycle=500,
            last_progress_cycle=180,
            in_flight=3,
            blocked=(
                BlockedPacket(
                    pid=7, src=0, dst=4, size=32, switch=2, port=1, vc=0,
                    received=5, forwarded=2, routed=True,
                ),
            ),
            truncated=True,
            held_lanes=6,
            pending_headers=1,
            faulted_lanes=0,
        )
        assert pickle.loads(pickle.dumps(snap)) == snap


class TestTracingAForcedDeadlock:
    def test_trace_finalizes_despite_the_deadlock(self):
        probe = TraceProbe()
        err = force_deadlock(probe)
        kinds = {e.kind for e in probe.events}
        # traffic flowed before the wedge ...
        assert {"inject", "route", "tail"} <= kinds
        # ... and the stall itself is visible as blocked intervals
        assert "blocked" in kinds
        # on_run_end ran even though run() raised: every open blocked
        # interval was closed with a duration
        blocked = [e for e in probe.events if e.kind == "blocked"]
        assert all(e.dur >= 1 for e in blocked)
        # the wedge shows up as intervals still open at watchdog time
        watchdog_open = [
            e for e in blocked if e.cycle + e.dur >= err.snapshot.cycle
        ]
        assert watchdog_open

    def test_stuck_packets_render_as_open_chrome_slices(self):
        probe = TraceProbe()
        err = force_deadlock(probe)
        doc = probe.chrome_trace_dict()
        open_slices = [
            e
            for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("args", {}).get("delivered") is False
        ]
        stuck_pids = {b.pid for b in err.snapshot.blocked}
        rendered_pids = {e["args"]["packet"] for e in open_slices}
        assert stuck_pids & rendered_pids

    def test_counters_flush_despite_the_deadlock(self):
        probe = WindowedCounterProbe(window_cycles=100)
        force_deadlock(probe)
        assert probe.windows
        # once wedged, whole windows are pure blocking: the most blocked
        # direction accumulated a large share of its cycles
        columns = zip(*(w.directions for w in probe.windows))
        most = max(sum(d.blocked_cycles for d in column) for column in columns)
        assert most > sum(w.cycles for w in probe.windows) // 4
