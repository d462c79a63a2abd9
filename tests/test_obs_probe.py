"""Unit tests for the observability probes (repro.obs)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    EVENT_KINDS,
    MultiProbe,
    NullProbe,
    Probe,
    TraceProbe,
    WindowedCounterProbe,
)
from repro.obs.flight import FlightConfig, FlightRecorder
from repro.obs.probe import (
    EVENTS,
    bind_event,
    bind_events,
    compose_probe,
    event_consumers,
)
from repro.sim.checkpoint import (
    CheckpointPolicy,
    CheckpointProbe,
    checkpoint_files,
    load_checkpoint,
)
from repro.sim.run import build_engine, simulate
from repro.traffic.transport import TransportConfig, simulate_reliable

from .conftest import small_cube_config, small_tree_config
from .test_determinism import _canonical


def traced_run(config=None, **probe_kwargs):
    config = config or small_tree_config()
    probe = TraceProbe(**probe_kwargs)
    result = simulate(config, probe=probe)
    return probe, result


class TestProbeAttachment:
    def test_null_probe_does_not_change_results(self):
        cfg = small_tree_config()
        plain = simulate(cfg)
        probed = simulate(cfg, probe=NullProbe())
        assert probed.delivered_packets == plain.delivered_packets
        assert probed.delivered_flits == plain.delivered_flits
        assert probed.latency_sum == plain.latency_sum
        assert probed.generated_packets == plain.generated_packets

    def test_trace_probe_does_not_change_results(self):
        cfg = small_cube_config()
        plain = simulate(cfg)
        probe, probed = traced_run(cfg)
        assert probed.delivered_packets == plain.delivered_packets
        assert probed.latency_sum == plain.latency_sum

    def test_second_probe_rejected(self):
        engine = build_engine(small_tree_config(), probe=NullProbe())
        with pytest.raises(ConfigurationError, match="MultiProbe"):
            engine.attach_probe(NullProbe())

    def test_multi_probe_fans_out(self):
        seen = []

        class Recorder(Probe):
            def __init__(self, tag):
                self.tag = tag

            def on_packet_injected(self, cycle, packet):
                seen.append(self.tag)

        simulate(
            small_tree_config(total_cycles=300),
            probe=MultiProbe([Recorder("a"), Recorder("b")]),
        )
        assert seen and seen[:2] == ["a", "b"]


class TestTraceProbe:
    def test_lifecycle_ordering_per_packet(self):
        probe, result = traced_run()
        assert result.delivered_packets > 0
        delivered_pids = {e.pid for e in probe.events if e.kind == "tail"}
        assert delivered_pids
        for pid in delivered_pids:
            kinds = [e.kind for e in probe.events if e.pid == pid]
            assert kinds[0] == "inject"
            assert kinds[-1] == "tail"
            assert "head" in kinds
            # the head cannot be delivered before at least one route
            assert kinds.index("route") < kinds.index("head")

    def test_event_kinds_are_known(self):
        probe, _ = traced_run()
        assert {e.kind for e in probe.events} <= set(EVENT_KINDS)

    def test_route_events_count_hops(self):
        # in a tree, every packet crosses at least one switch
        probe, _ = traced_run()
        for pid in {e.pid for e in probe.events if e.kind == "tail"}:
            routes = [e for e in probe.events if e.pid == pid and e.kind == "route"]
            assert len(routes) >= 1
            assert all(e.switch is not None for e in routes)

    def test_max_events_truncates(self):
        probe, _ = traced_run(max_events=10)
        assert probe.truncated
        assert len(probe.events) == 10

    def test_blocked_intervals_coalesce(self):
        # saturating load on a tiny network produces blocked intervals;
        # consecutive blocked cycles must merge into one interval each
        probe, _ = traced_run(small_tree_config(load=1.0, total_cycles=800))
        blocked = [e for e in probe.events if e.kind == "blocked"]
        assert blocked
        assert all(e.dur >= 1 for e in blocked)
        # intervals of one direction never touch or overlap
        by_dir = {}
        for e in blocked:
            by_dir.setdefault((e.switch, e.port), []).append(e)
        for events in by_dir.values():
            events.sort(key=lambda e: e.cycle)
            for a, b in zip(events, events[1:]):
                assert a.cycle + a.dur < b.cycle

    def test_jsonl_export(self, tmp_path):
        probe, _ = traced_run()
        path = tmp_path / "events.jsonl"
        count = probe.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert count == len(probe.events) == len(lines)
        docs = [json.loads(line) for line in lines]
        assert all("cycle" in d and "kind" in d for d in docs)
        # None fields are stripped from the JSONL form
        assert all(v is not None for d in docs for v in d.values())

    def test_chrome_trace_export(self, tmp_path):
        probe, result = traced_run()
        path = tmp_path / "trace.json"
        probe.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        packet_slices = [e for e in slices if e["pid"] == 0]
        delivered = [e for e in packet_slices if e["args"].get("delivered")]
        assert len(delivered) == sum(1 for e in probe.events if e.kind == "tail")
        assert all(e["dur"] >= 1 for e in slices)
        assert all(set(e) >= {"name", "ph", "ts", "pid", "tid"} for e in slices)

    def test_in_flight_packets_appear_as_open_slices(self):
        # a run cut off mid-flight still renders its unfinished packets
        probe, result = traced_run(small_tree_config(load=1.0, total_cycles=300))
        assert result.in_flight_at_end > 0
        doc = probe.chrome_trace_dict()
        open_slices = [
            e
            for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("args", {}).get("delivered") is False
        ]
        assert open_slices


class TestWindowedCounterProbe:
    def run_counted(self, config=None, window_cycles=100, **kwargs):
        config = config or small_tree_config()
        probe = WindowedCounterProbe(window_cycles=window_cycles, **kwargs)
        result = simulate(config, probe=probe)
        return probe, result

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            WindowedCounterProbe(window_cycles=0)

    def test_windows_tile_the_measurement_window(self):
        cfg = small_tree_config()  # warmup 100, total 600
        probe, _ = self.run_counted(cfg, window_cycles=100)
        assert len(probe.windows) == 5
        assert probe.windows[0].start == cfg.warmup_cycles
        assert probe.windows[-1].end == cfg.total_cycles
        for a, b in zip(probe.windows, probe.windows[1:]):
            assert a.end == b.start

    def test_window_flits_sum_to_measured_direction_counters(self):
        probe, _ = self.run_counted()
        engine = probe._engine
        for i, d in enumerate(engine.dirs):
            windowed = sum(w.directions[i].flits for w in probe.windows)
            assert windowed == d.measured_flits

    def test_include_warmup_counts_everything(self):
        cfg = small_tree_config()
        probe = WindowedCounterProbe(window_cycles=100, include_warmup=True)
        simulate(cfg, probe=probe)
        assert probe.windows[0].start == 0
        engine = probe._engine
        for i, d in enumerate(engine.dirs):
            assert sum(w.directions[i].flits for w in probe.windows) == d.flits

    def test_blocked_cycles_show_up_under_saturation(self):
        probe, _ = self.run_counted(small_tree_config(load=1.0, total_cycles=800))
        columns = zip(*(w.directions for w in probe.windows))
        assert max(sum(d.blocked_cycles for d in column) for column in columns) > 0

    def test_occupancy_bounded_by_buffer_depth(self):
        cfg = small_tree_config(load=1.0, total_cycles=800)
        probe, _ = self.run_counted(cfg)
        for w in probe.windows:
            for d in w.directions:
                assert all(0.0 <= occ <= cfg.buffer_flits for occ in d.occupancy)

    def test_to_dicts_round_trips_through_json(self):
        probe, _ = self.run_counted()
        doc = json.loads(json.dumps(probe.to_dicts()))
        assert len(doc) == len(probe.windows)
        assert doc[0]["directions"][0].keys() >= {
            "switch", "port", "flits", "blocked_cycles", "occupancy",
        }


class TestWarmupSnapshot:
    def test_direction_counters_snapshot_at_warmup(self):
        engine = build_engine(small_tree_config())
        engine.run()
        assert any(d.flits_at_warmup > 0 for d in engine.dirs)
        for d in engine.dirs:
            assert 0 <= d.measured_flits <= d.flits

    def test_zero_warmup_measures_everything(self):
        engine = build_engine(small_tree_config(warmup_cycles=0))
        engine.run()
        for d in engine.dirs:
            assert d.flits_at_warmup == 0
            assert d.measured_flits == d.flits


# -- event binding -------------------------------------------------------------


def _recorder(events, log):
    """A probe class overriding exactly ``events``; each delivery appends
    ``(tag, event, args)`` to ``log``."""

    def make(event):
        def handler(self, *args):
            log.append((self.tag, event, args))

        return handler

    def __init__(self, tag):
        self.tag = tag

    return type("Recorder", (Probe,), {"__init__": __init__, **{e: make(e) for e in events}})


def _busy_engine(probe=None):
    """A saturated small tree: blocked directions within a few cycles."""
    return build_engine(small_tree_config(load=0.9, total_cycles=300), probe=probe)


def _run_with_a_kill(engine):
    """Run to the end, killing one in-flight worm on the way, so that all
    nine events fire."""
    engine.add_cycle_hook(
        150,
        lambda eng: eng.kill_packet(
            next(lane.packet for lane in eng.bindings if lane.packet.pid >= 0)
        ),
    )
    return engine.run()


class TestEventBinding:
    def test_nested_tree_delivers_once_in_order_to_overriders_only(self):
        log = []
        Full = _recorder(EVENTS, log)
        Some = _recorder(("on_cycle", "on_packet_injected"), log)
        a, b, c = Full("a"), Some("b"), Full("c")
        engine = _busy_engine(MultiProbe([MultiProbe([a, b]), c]))
        _run_with_a_kill(engine)
        assert {event for _, event, _ in log} == set(EVENTS)
        # per event occurrence: a, then b if it listens, then c — same args
        i = 0
        while i < len(log):
            _, event, args = log[i]
            tags = ["a", "b", "c"] if event in ("on_cycle", "on_packet_injected") else ["a", "c"]
            assert log[i : i + len(tags)] == [(tag, event, args) for tag in tags]
            i += len(tags)

    def test_flat_delivery_equals_nested_fan_out(self):
        # a MultiProbe subclass that wraps every event around super() is a
        # leaf to the engine: its children are reached through the nested
        # fan-outs, the way every tree was before binding
        def wrapping(event):
            def handler(self, *args):
                getattr(super(Wrapping, self), event)(*args)

            return handler

        Wrapping = type("Wrapping", (MultiProbe,), {})
        for event in EVENTS:
            setattr(Wrapping, event, wrapping(event))

        def run(node):
            log = []
            Full = _recorder(EVENTS, log)
            Some = _recorder(("on_direction_blocked", "on_tail_delivered"), log)
            _run_with_a_kill(_busy_engine(node([node([Full("a"), Some("b")]), Full("c")])))
            # packets by pid, lanes and directions by type: comparable across runs
            return [
                (tag, event, [a if isinstance(a, (int, str)) else getattr(a, "pid", type(a)) for a in args])
                for tag, event, args in log
            ]

        flat, nested = run(MultiProbe), run(Wrapping)
        assert flat and flat == nested

    def test_bare_probe_has_no_consumer_and_changes_nothing(self):
        bare, probed = _busy_engine(), _busy_engine(Probe())
        # nobody consumes anything: the engine keeps no handlers at all
        assert probed._handlers is None and bare._handlers is None
        assert bind_events(MultiProbe([Probe(), MultiProbe([])])) is None
        assert _canonical(probed.run()) == _canonical(bare.run())
        assert probed.state_fingerprint() == bare.state_fingerprint()

    def test_probe_assigned_after_build_is_called_from_the_next_step(self):
        # how benchmarks/perf composes its counter onto a built engine
        log = []
        Cycles = _recorder(("on_cycle",), log)
        engine = build_engine(small_tree_config(), probe=Cycles("first"))
        engine.step()
        late = Cycles("late")
        engine.probe = MultiProbe([engine.probe, late])
        late.bind(engine)
        engine.step()
        assert log == [("first", "on_cycle", (0,)), ("first", "on_cycle", (1,)), ("late", "on_cycle", (1,))]
        engine.probe = None
        engine.step()
        assert len(log) == 3

    def test_multiprobe_subclass_is_a_leaf_only_for_events_it_overrides(self):
        class Gate(MultiProbe):
            def on_cycle(self, cycle):
                super().on_cycle(cycle)

        inner = _recorder(("on_cycle", "on_packet_injected"), [])("inner")
        gate = Gate([inner])
        tree = MultiProbe([gate])
        assert event_consumers(tree, "on_cycle") == [gate.on_cycle]
        assert event_consumers(tree, "on_packet_injected") == [inner.on_packet_injected]
        assert event_consumers(tree, "on_head_arrived") == []
        # one consumer: the engine calls its bound method, no fan-out between
        assert bind_event(tree, "on_cycle") == gate.on_cycle
        assert bind_event(tree, "on_head_arrived") is None
        assert bind_event(None, "on_cycle") is None

    def test_compose_probe_binds_only_the_newcomer(self):
        binds = []

        class Binder(Probe):
            def bind(self, engine):
                binds.append(self)

        first, second = Binder(), Binder()
        engine = build_engine(small_tree_config())
        compose_probe(engine, first)
        assert engine.probe is first
        compose_probe(engine, second)
        assert engine.probe.probes == [first, second]
        assert binds == [first, second]

    def test_restored_engine_delivers_to_the_restored_probes(self, tmp_path):
        # transport + flight + checkpoint: on_cycle has three consumers, so
        # its handler is a closure — which must stay out of the pickle, and
        # be rebuilt over the *restored* probes.  None of them consumes
        # on_direction_blocked: the recorder reads the link counters
        config = small_tree_config(load=0.6)
        transport = TransportConfig(base_timeout=16, jitter=8, seed=3)

        def run(checkpoint=None):
            return simulate_reliable(
                config, transport, probe=FlightRecorder(FlightConfig(interval_cycles=64)),
                checkpoint=checkpoint,
            )

        reference = _canonical(run())
        policy = CheckpointPolicy(str(tmp_path), interval_cycles=200)
        assert _canonical(run(policy)) == reference
        newest = checkpoint_files(tmp_path)[0]
        assert b"_handlers" not in newest.read_bytes()
        engine, _ = load_checkpoint(newest, config=config)
        flight, reliable, ckpt = engine.probe.probes[0].probes + engine.probe.probes[1:]
        assert isinstance(flight, FlightRecorder) and isinstance(ckpt, CheckpointProbe)
        handlers = engine._handlers
        assert handlers.on_direction_blocked is None
        assert handlers.on_packet_dropped == reliable.on_packet_dropped
        assert handlers.on_head_arrived is None
        # the second call restores that snapshot and replays the tail
        assert _canonical(run(policy)) == reference
