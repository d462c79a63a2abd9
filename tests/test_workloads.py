"""Unit and behavioral tests for trace-driven workloads (repro.workloads)."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.analytic import path_channels, zero_load_latency
from repro.sim.run import build_engine, cube_config, tree_config
from repro.workloads.collectives import (
    alltoall_trace,
    broadcast_trace,
    butterfly_barrier_trace,
    stencil_trace,
)
from repro.workloads.runner import run_trace
from repro.workloads.trace import Replay, Trace, TraceMessage, TraceSource


class TestTrace:
    def test_add_and_count(self):
        t = Trace(8)
        t.send(0, 0, 1, 16)
        t.send(5, 2, 3, 8)
        assert len(t) == 2
        assert t.total_flits() == 24

    def test_validation(self):
        t = Trace(8)
        with pytest.raises(ConfigurationError):
            t.send(-1, 0, 1, 16)
        with pytest.raises(ConfigurationError):
            t.send(0, 0, 8, 16)  # dst out of range
        with pytest.raises(ConfigurationError):
            t.send(0, 3, 3, 16)  # self message
        with pytest.raises(ConfigurationError):
            t.send(0, 0, 1, 1)  # no tail flit

    def test_sorted(self):
        t = Trace(4)
        t.send(9, 0, 1, 4)
        t.send(2, 1, 2, 4)
        assert [m.time for m in t.sorted()] == [2, 9]

    def test_json_round_trip(self):
        # a node plays its same-time messages in trace order: that order is
        # the schedule, and all that tells the shifted all-to-all from the
        # naive one
        shifted = alltoall_trace(8, flits=32)
        naive = alltoall_trace(8, flits=32, schedule="naive")
        again = Trace.from_json(shifted.to_json())
        assert again.num_nodes == 8
        assert again.messages == shifted.messages
        assert shifted.to_json() != naive.to_json()
        cfg = tree_config(k=2, n=3, vcs=2)
        assert run_trace(cfg, again).makespan_cycles == 341
        assert run_trace(cfg, naive).makespan_cycles == 517

    def test_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            Trace.from_json("{}")
        with pytest.raises(ConfigurationError):
            Trace.from_json('{"num_nodes": 4, "messages": [[0, 0, 0, 4]]}')

    def test_segmented(self):
        t = Trace(4)
        t.send(0, 0, 1, 40)
        seg = t.segmented(16)
        assert seg.total_flits() == 40
        assert [m.flits for m in seg.messages] == [16, 16, 8]

    def test_segmented_never_leaves_one_flit_tail(self):
        t = Trace(4)
        t.send(0, 0, 1, 17)
        seg = t.segmented(16)
        assert sorted(m.flits for m in seg.messages) == [2, 15]

    def test_segmented_validation(self):
        with pytest.raises(ConfigurationError):
            Trace(4).segmented(1)


class TestTraceSource:
    def test_release_schedule(self):
        src = TraceSource(0, [TraceMessage(5, 0, 1, 4), TraceMessage(2, 0, 2, 4)])
        assert src.active
        assert src.advance(1) == 0
        assert src.advance(2) == 1
        assert src.queue[0] == (2, 2, 4)  # sorted by time
        assert not src.done()
        src.advance(10)
        assert len(src.queue) == 2
        src.queue.clear()
        assert src.done()
        assert src.finite

    def test_empty_schedule_inactive(self):
        src = TraceSource(0, [])
        assert not src.active
        assert src.done()


class TestReplay:
    def test_per_node_split(self):
        t = Trace(4)
        t.send(0, 0, 1, 4)
        t.send(0, 0, 2, 4)
        t.send(1, 3, 0, 4)
        engine = build_engine(tree_config(k=2, n=2, vcs=2, load=0.5))
        for node in engine.nodes:
            node.wake = 99
        Replay(t).install(engine)
        assert [len(node.source.schedule) for node in engine.nodes] == [2, 0, 0, 1]
        assert [node.wake for node in engine.nodes] == [0] * 4
        assert engine.active_nodes == [engine.nodes[0], engine.nodes[3]]

    def test_the_identity_is_the_schedule(self):
        shifted = alltoall_trace(8, flits=32)
        assert repr(Replay(shifted)) == repr(Replay(alltoall_trace(8, flits=32)))
        naive = Replay(alltoall_trace(8, flits=32, schedule="naive"))
        # the same messages, in another order
        assert sorted(naive.messages) == sorted(Replay(shifted).messages)
        assert repr(naive) != repr(Replay(shifted))
        assert len(repr(naive)) < 150


class TestCollectives:
    def test_alltoall_counts(self):
        t = alltoall_trace(8, flits=16)
        assert len(t) == 8 * 7
        assert t.total_flits() == 56 * 16

    def test_alltoall_shifted_rounds_are_permutations(self):
        t = alltoall_trace(8, flits=16, spacing=10, schedule="shifted")
        by_round = {}
        for m in t.messages:
            by_round.setdefault(m.time, []).append(m)
        for msgs in by_round.values():
            assert sorted(m.src for m in msgs) == list(range(8))
            assert sorted(m.dst for m in msgs) == list(range(8))

    def test_alltoall_schedules(self):
        naive = alltoall_trace(8, schedule="naive")
        rand = alltoall_trace(8, schedule="random", seed=3)
        assert len(naive) == len(rand) == 56
        with pytest.raises(ConfigurationError):
            alltoall_trace(8, schedule="greedy")

    def test_barrier_rounds(self):
        t = butterfly_barrier_trace(16, flits=8, round_gap=100)
        assert len(t) == 16 * 4  # log2(16) rounds
        times = {m.time for m in t.messages}
        assert times == {0, 100, 200, 300}
        # every round pairs each node with its XOR partner
        for m in t.messages:
            assert m.dst == m.src ^ (1 << (m.time // 100))

    def test_barrier_needs_power_of_two(self):
        with pytest.raises(ConfigurationError):
            butterfly_barrier_trace(12)

    def test_broadcast_coverage(self):
        t = broadcast_trace(16, root=5, flits=8)
        assert len(t) == 15  # N-1 transfers
        reached = {5}
        for m in t.sorted():
            assert m.src in reached
            reached.add(m.dst)
        assert reached == set(range(16))

    def test_stencil_counts(self):
        t = stencil_trace(4, 2, flits=8, rounds=2)
        assert len(t) == 2 * 16 * 4  # rounds * nodes * 2 dims * 2 dirs
        # every message is a grid neighbor
        from repro.topology.cube import KAryNCube

        cube = KAryNCube(4, 2)
        assert all(cube.min_distance(m.src, m.dst) == 1 for m in t.messages)

    def test_stencil_k2_skips_duplicate_direction(self):
        t = stencil_trace(2, 2, flits=8)
        # on a 2-ring, +1 and -1 reach the same peer: one message per dim
        assert len(t) == 4 * 2 * 2


class TestRunTrace:
    def test_single_message_matches_model(self):
        t = Trace(16)
        t.send(0, 0, 5, 16)
        cfg = cube_config(k=4, n=2, algorithm="dor")
        result = run_trace(cfg, t)
        expect = zero_load_latency(2 + 2, 16)
        assert result.avg_latency_cycles == expect
        assert result.max_latency_cycles == expect
        # injected at cycle 0, delivered at the end of cycle `expect`:
        # `expect + 1` cycles elapse before the network is seen empty
        assert result.makespan_cycles == expect + 1

    def test_variable_message_sizes(self):
        t = Trace(16)
        t.send(0, 0, 1, 4)
        t.send(0, 5, 6, 64)
        result = run_trace(cube_config(k=4, n=2, algorithm="duato"), t)
        assert result.total_flits == 68
        assert result.messages == 2

    def test_respects_injection_serialization(self):
        # two same-source messages share the single injection channel:
        # the makespan must exceed their combined serialization time
        t = Trace(16)
        t.send(0, 0, 1, 16)
        t.send(0, 0, 2, 16)
        result = run_trace(cube_config(k=4, n=2, algorithm="dor"), t)
        assert result.makespan_cycles >= 32

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            run_trace(cube_config(k=4, n=2), Trace(8, [TraceMessage(0, 0, 1, 4)]))

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            run_trace(cube_config(k=4, n=2), Trace(16))

    def test_shifted_alltoall_beats_naive(self):
        # the linear-shift schedule avoids the hot-destination convoy of
        # the naive destination order
        cfg = tree_config(k=2, n=3, vcs=2)
        naive = run_trace(cfg, alltoall_trace(8, flits=32, schedule="naive"))
        shifted = run_trace(cfg, alltoall_trace(8, flits=32, schedule="shifted"))
        assert shifted.makespan_cycles <= naive.makespan_cycles

    def test_barrier_makespan_scales_with_rounds(self):
        cfg = cube_config(k=4, n=2, algorithm="duato")
        one = run_trace(cfg, butterfly_barrier_trace(16, flits=16, round_gap=200))
        assert one.makespan_cycles >= 3 * 200  # last round starts at 600