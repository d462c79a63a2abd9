"""Property-based tests for the simulation engine's global invariants.

Every randomly drawn configuration must satisfy, after a full run:

* the audit invariants (flit conservation, credit consistency, buffer
  bounds, binding consistency);
* monotone accounting (delivered <= injected <= generated-ish);
* all delivered latencies at or above the analytic zero-load bound.

And the compiled phases (``sim/_phases.c``, ``_routing.c``, ``_select.c``)
must be indistinguishable from the reference phases (``sim/phases.py``) and
the Python ``select`` of the routing algorithms: a kernel engine and its
pure-Python twin, stepped side by side over random recipes, agree on
``state_fingerprint()``, the routing algorithm's RNG state and its counters
after every cycle and on the ordered log of all nine probe events.  The twin
is the same engine class built with the module-level kernel handle patched
to ``None``, so that it keeps the reference as its phase table
(``Engine.phases``) and is stepped beside the kernel engine with nothing
patched — over the same storage: where these tests run the lanes, packets
and nodes of both twins are C structs, so what can be corrupted is a
reference, not a counter.

The space those recipes are drawn from is declared as data (``LOCKSTEP_*``
below) and is the contract of the twin rule ``sim/phases.py`` states:
``TestTheTwinContract`` fails when ``SimulationConfig`` grows a field the
tables do not name, or the reference a function the C units have no twin for.
"""

import collections
import contextlib
import copy
import dataclasses
import inspect
import pathlib
import pickle
import random
import re
import sys
import types
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_module
from repro.faults import (
    CubeLinkFault,
    FaultPolicy,
    FaultSchedule,
    TreeUplinkFault,
    random_cube_link_faults,
    random_uplink_faults,
)
from repro.metrics.analytic import zero_load_latency
from repro.obs.flight import Flight, FlightConfig, FlightRecorder
from repro.obs.probe import EVENTS, Probe
from repro.obs.statehash import snapshot_diff, state_snapshot
from repro.routing.base import RoutingAlgorithm, register
from repro.routing.tree_adaptive import TreeAdaptiveRouting
from repro.sim import phases as reference
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointPolicy,
    checkpoint_files,
    read_checkpoint_header,
)
from repro.sim.config import ARBITER_POLICIES, CUBE_ALGORITHMS, TREE_ALGORITHMS, SimulationConfig
from repro.sim.native import INT
from repro.sim.run import build_engine, cube_config, simulate, start, tree_config
from repro.traffic.generator import PacketSource
from repro.traffic.transport import Reliable, TransportConfig
from repro.workloads.trace import Replay, Trace, TraceMessage

from .test_determinism import _canonical
from .test_routing_contract import algorithm_state
from .test_sweep_resilient import UnsafeRingRouting

engine_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tree_recipe(draw):
    # power-of-two node counts: bit-permutation patterns require them
    k, n = draw(st.sampled_from([(2, 2), (2, 3), (4, 2)]))
    return tree_config(
        k=k,
        n=n,
        vcs=draw(st.sampled_from([1, 2, 4])),
        pattern=draw(st.sampled_from(["uniform", "complement", "neighbor"])),
        load=draw(st.floats(min_value=0.05, max_value=1.0)),
        seed=draw(st.integers(0, 10_000)),
        buffer_flits=draw(st.sampled_from([2, 4, 8])),
        warmup_cycles=100,
        total_cycles=700,
    )


@st.composite
def cube_recipe(draw):
    # even k for a balanced bisection; power-of-two N for the patterns
    k, n = draw(st.sampled_from([(2, 2), (4, 2), (2, 3)]))
    return cube_config(
        k=k,
        n=n,
        algorithm=draw(st.sampled_from(["dor", "duato"])),
        vcs=4,
        pattern=draw(st.sampled_from(["uniform", "complement", "tornado"])),
        load=draw(st.floats(min_value=0.05, max_value=1.0)),
        seed=draw(st.integers(0, 10_000)),
        warmup_cycles=100,
        total_cycles=700,
    )


def check_invariants(engine, result):
    engine.audit()
    assert engine.delivered_packets_total <= engine.injected_packets_total
    assert result.delivered_packets <= engine.delivered_packets_total
    assert result.in_flight_at_end == engine.in_flight_packets() >= 0
    assert result.latency_sum >= 0
    if result.delivered_packets:
        # every latency >= smallest possible path latency
        lmin = zero_load_latency(
            1 if engine.config.network == "tree" else 3,
            engine.config.packet_flits,
        )
        assert result.avg_latency_cycles >= lmin - 1
    # accepted bandwidth can never exceed the ejection-channel limit
    assert result.accepted_flits_per_cycle <= 1.0 + 1e-9


class TestEngineInvariants:
    @engine_settings
    @given(tree_recipe())
    def test_tree_runs_clean(self, cfg):
        engine = build_engine(cfg)
        result = engine.run()
        check_invariants(engine, result)

    @engine_settings
    @given(cube_recipe())
    def test_cube_runs_clean(self, cfg):
        engine = build_engine(cfg)
        result = engine.run()
        check_invariants(engine, result)

    @engine_settings
    @given(cube_recipe(), st.integers(1, 3))
    def test_step_count_independent_of_chunking(self, cfg, chunks):
        # running N cycles in one go or in pieces is identical
        a = build_engine(cfg)
        b = build_engine(cfg)
        a.run()
        total = cfg.total_cycles
        while b.cycle < total:
            b.step()
        assert a.delivered_flits_total == b.delivered_flits_total
        assert a.result.latency_sum == b.result.latency_sum


# -- the compiled phases against the Python loops ---------------------------------

needs_kernel = pytest.mark.skipif(
    engine_module.NATIVE_PHASES is None,
    reason="no compiled phases: no C compiler, no writable cache directory, or not CPython",
)


@contextlib.contextmanager
def python_loops():
    """An engine built, unpickled or deep-copied inside keeps the reference
    phases as its table (``Engine.phases``), as where the kernel cannot be
    built, and walks them after the block too: the engine chooses then, and
    only then."""
    with mock.patch.object(engine_module, "NATIVE_PHASES", None):
        yield


class EventLog(Probe):
    """Every per-cycle event, in delivery order, by value."""

    def __init__(self):
        self.events: list[tuple] = []

    def on_packets_generated(self, cycle, node, count):
        self.events.append(("generated", cycle, node, count))

    def on_packet_injected(self, cycle, packet):
        self.events.append(("injected", cycle, packet.pid, packet.src, packet.dst, packet.size))

    def on_header_routed(self, cycle, switch, in_lane, out_lane):
        self.events.append(
            ("routed", cycle, switch, in_lane.packet.pid, in_lane.port, in_lane.vc,
             out_lane.port, out_lane.vc)
        )

    def on_head_arrived(self, cycle, lane, packet):
        self.events.append(
            ("head_arrived", cycle, lane.switch, lane.port, lane.vc, lane.received, packet.pid)
        )

    def on_head_delivered(self, cycle, packet):
        self.events.append(("head_delivered", cycle, packet.pid, packet.head_delivered))

    def on_tail_delivered(self, cycle, packet):
        self.events.append(("tail_delivered", cycle, packet.pid, packet.delivered - packet.injected))

    def on_packet_dropped(self, cycle, packet, reason):
        self.events.append(("dropped", cycle, packet.pid, reason))

    def on_direction_blocked(self, cycle, direction):
        self.events.append(("blocked", cycle, direction.index, direction.nbusy))

    def on_cycle(self, cycle):
        self.events.append(("cycle", cycle))


assert all(getattr(EventLog, event) is not getattr(Probe, event) for event in EVENTS)


# Two algorithms the compiled walk must call back into Python for: its
# select() exists compiled for exactly the four shipped classes.


@register
class FirstFitTreeRouting(RoutingAlgorithm):
    """A custom algorithm: up*/down*, the first free lane of the first
    port that has one.  No ``candidates()``: the audit cannot second-guess
    its sleeping switches."""

    name = "lockstep_first_fit"
    network = "tree"

    def attach(self, engine) -> None:
        super().attach(engine)
        self.topology = topo = engine.topology
        self.k = topo.k
        self.up_ports = list(topo.up_ports())
        self.calls = 0

    def select(self, switch, inlane, packet):
        self.calls += 1
        topo = self.topology
        if topo._range_lo[switch] <= packet.dst < topo._range_hi[switch]:
            ports = [(packet.dst // self.k ** topo.level_of(switch)) % self.k]
        else:
            ports = self.up_ports
        for port in ports:
            for lane in self.out[switch][port]:
                if lane.is_free():
                    return lane
        return None


@register
class CountingTreeRouting(TreeAdaptiveRouting):
    """A subclass of a shipped algorithm that overrides ``select``."""

    name = "lockstep_counting"
    calls = 0

    def select(self, switch, inlane, packet):
        self.calls += 1
        return super().select(switch, inlane, packet)


@dataclasses.dataclass(frozen=True)
class Recipe:
    """A config plus what is done to the engine before its first cycle."""

    config: object
    #: (position in the random fault draw, fail_at, repair_at, policy)
    faults: tuple = ()
    reliable: bool = False
    #: (src, dst, flits) messages of explicit size, the way trace-driven
    #: sources queue them; 1-flit worms are head and tail at once
    sized: tuple = ()
    #: (release cycle, src, dst, flits): when non-empty every node replays
    #: its share of these from a ``TraceSource`` instead of drawing traffic
    trace: tuple = ()
    #: (src, dst) packets queued through ``Engine.preload_packet``
    preload: tuple = ()
    #: nodes whose source creates a packet every cycle (``prob == 1.0``)
    flood: tuple = ()


# -- the recipe space: what the twin rule is held to --------------------------------

#: ``SimulationConfig`` fields drawn whatever the network, and from what
LOCKSTEP_DRAWS = {
    "load": st.floats(min_value=0.05, max_value=1.0),
    "seed": st.integers(0, 10_000),
    "buffer_flits": st.sampled_from([1, 2, 4, 8]),
    "packet_flits": st.sampled_from([2, 5, 16]),
    "arbiter": st.sampled_from(ARBITER_POLICIES),
    # record_delivery and the timeline at the end of step branch on these two
    "collect_latencies": st.booleans(),
    "interval_cycles": st.sampled_from([0, 1, 7, 50]),
}

#: per value of ``network``, what the fields that depend on it are drawn from
LOCKSTEP_NETWORKS = {
    "tree": {
        "k, n": [(2, 2), (2, 3), (4, 2)],
        "algorithm": ["tree_adaptive", "tree_adaptive", "tree_deterministic",
                      FirstFitTreeRouting.name, CountingTreeRouting.name],
        "vcs": [1, 2, 4],
        "pattern": ["uniform", "complement", "neighbor"],
    },
    "cube": {
        # a ring (n == 1) runs the unsafe routing, which wedges past light
        # load: its twins stay in step wedged
        "k, n": [(2, 2), (4, 2), (2, 3), (8, 1)],
        "algorithm": ["dor", "duato", UnsafeRingRouting.name],
        "vcs": [4],
        "pattern": ["uniform", "complement", "tornado"],
    },
}

#: fields every recipe holds at one value, and why that loses nothing
LOCKSTEP_PINS = {
    "warmup_cycles": "40 of 240 cycles: every run crosses the boundary, so both values of `warm` are stepped",
    "total_cycles": "240: the length of the comparison, not a thing a phase reads",
    "capacity_flits_per_cycle": "set from (k, n) by tree_config / cube_config (section 5); read by the sources only",
    "pattern_kwargs": "read by the pattern's constructor before the first cycle",
    "watchdog_cycles": "read by run(), which the suite does not call: it steps by hand",
}

#: what is installed on the engines beside the config: the transport tier,
#: fault schedules under both policies, four kinds of source, and the
#: ``EventLog`` probe (all nine events) on every run
LOCKSTEP_INSTRUMENTS = (Reliable, FaultSchedule, Replay, PacketSource)


def undeclared(names) -> set:
    """The config fields among ``names`` that the recipe space neither draws
    nor pins."""
    declared = {"network", "k", "n", *LOCKSTEP_DRAWS, *LOCKSTEP_PINS}
    for space in LOCKSTEP_NETWORKS.values():
        declared.update(key for key in space if key != "k, n")
    return set(names) - declared


#: functions of the C units that have no twin in the reference, by what they are for
C_ONLY = {
    "look-ahead (prefetch) of the walks": {"lanes_ahead", "bound_ahead"},
    "boxing, and items and attributes of objects that are not on the storage": {
        "as_int_slow", "need_slow", "attr_int", "attr_add", "attr_true", "item_slow", "put_slow",
        "put_int", "count_one", "call", "advance_rr",
    },
    "references held for a phase (the reference's Link / Inject / Cross / Walk take none)": {
        "headers_open", "headers_close", "link_open", "link_close",
    },
    "the stable sort the reference asks sorted() for": {"age_order"},
    "the struct types under the stored classes, and setup()": {
        "members_of", "traverse", "clear", "dealloc", "storage", "setup",
    },
    "assignment and pickling of the struct types (fields.field_list is the __slots__ form)": {
        "member_named", "setattro", "reduce_ex", "extend",
    },
    "the fingerprint's images, whose references are obs/statehash.py's _fabric_rows, "
    "_node_tables and _routing_tables": {
        "fabric_image", "node_images", "routing_image", "image_lane", "image_source", "image_node",
    },
    "the images' writer, and the sort the reference asks sorted() for": {
        "image_open", "image_close", "image_flush", "image_room", "image_word", "image_take",
        "image_int", "image_ints", "image_pid", "image_bound", "pid_word", "optional_attr",
        "entry_order", "entries_free",
    },
    "what the whole-fabric walks (fabric_image, find_worm, link_totals) read of a direction": {
        "lanes_of",
    },
    "random.Random's Mersenne state in place, whose references are getstate(), setstate() and "
    "hash()": {
        "mt_setup", "mt_agrees", "mt_sample", "mt_internal", "mt_reads", "mt_check",
        "mt_words", "mt_load", "mt_hash", "mt_hash_of", "put_u32", "get_u32",
    },
    "what the wiring's calls of the lane and direction classes do (no __init__ runs)": {
        "ready", "input_lanes", "output_lanes", "ejection_lanes", "append_direction",
        "put_in", "list_attr", "links_of",
    },
}


def twinless(module, *units: str) -> tuple[set, set]:
    """The functions of ``module`` with no function of their name in the C
    ``units`` (source text), and the C functions that are neither a twin nor
    listed in ``C_ONLY``."""
    ours = {
        name for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
    }
    # a definition has its name in the first column; PyInit__phases is the loader's
    theirs = set(re.findall(r"^([a-z][a-z_0-9]*)\(", "\n".join(units), re.MULTILINE))
    return ours - theirs, theirs - ours - set().union(*C_ONLY.values())


class TestTheTwinContract:
    def test_the_recipe_space_names_every_config_field(self):
        names = [field.name for field in dataclasses.fields(SimulationConfig)]
        assert undeclared(names) == set()
        # the check bites: a field nobody declared (ROADMAP item 2's) is found
        assert undeclared([*names, "lane_reuse"]) == {"lane_reuse"}
        # and every shipped algorithm is drawn
        drawn = {name for space in LOCKSTEP_NETWORKS.values() for name in space["algorithm"]}
        assert drawn >= {*TREE_ALGORITHMS, *CUBE_ALGORITHMS}

    def test_every_reference_function_has_a_c_twin_of_its_name(self):
        sim = pathlib.Path(reference.__file__).parent
        units = [
            (sim / unit).read_text()
            for unit in ("_phases.c", "_routing.c", "_storage.c", "_images.c", "_walkers.c")
        ]
        assert twinless(reference, *units) == (set(), set())
        # the check bites: a reference function under another name has no twin
        renamed = types.ModuleType("renamed")
        exec("def choose_lane(k, d): pass", renamed.__dict__)
        assert twinless(renamed, *units)[0] == {"choose_lane"}
        # and so does a C function nobody accounted for
        assert twinless(reference, *units, "static int\nfast_path(Link *k)\n{")[1] == {"fast_path"}


@st.composite
def lockstep_recipe(draw):
    common = {name: draw(strategy) for name, strategy in LOCKSTEP_DRAWS.items()}
    common.update(warmup_cycles=40, total_cycles=240)
    network = draw(st.sampled_from(sorted(LOCKSTEP_NETWORKS)))
    space = LOCKSTEP_NETWORKS[network]
    k, n = draw(st.sampled_from(space["k, n"]))
    # the unsafe ring is the algorithm of the rings, and of nothing else
    algorithms = [name for name in space["algorithm"] if (name == UnsafeRingRouting.name) == (n == 1)]
    config = (tree_config if network == "tree" else cube_config)(
        k=k, n=n,
        algorithm=draw(st.sampled_from(algorithms)),
        vcs=draw(st.sampled_from(space["vcs"])),
        pattern=draw(st.sampled_from(space["pattern"])),
        **common,
    )
    nodes = config.num_nodes
    # an algorithm with one legal link per hop has no lane to spare: unstruck
    faults = [] if config.algorithm in ("dor", "tree_deterministic", "unsafe_ring") else draw(st.lists(
        st.tuples(
            st.integers(0, 1),
            st.integers(1, 150),
            st.one_of(st.none(), st.integers(151, 230)),
            st.sampled_from(list(FaultPolicy)),
        ),
        max_size=2, unique_by=lambda fault: fault[0],
    ))
    sized = draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(1, nodes - 1), st.sampled_from([1, 1, 2, 7])),
        max_size=6,
    ))
    pairs = st.tuples(st.integers(0, nodes - 1), st.integers(1, nodes - 1))
    reliable = draw(st.booleans())
    # the transport wraps the sources it finds: a trace replaces them bare
    trace = [] if reliable else draw(st.lists(
        st.tuples(st.integers(0, 200), pairs, st.sampled_from([2, 3, 16, 40])), max_size=12,
    ))
    return Recipe(
        config,
        faults=tuple(faults),
        reliable=reliable,
        sized=tuple((src, (src + hop) % nodes, flits) for src, hop, flits in sized),
        trace=tuple((at, src, (src + hop) % nodes, flits) for at, (src, hop), flits in trace),
        preload=tuple((src, (src + hop) % nodes) for src, hop in draw(st.lists(pairs, max_size=3))),
        flood=tuple(draw(st.lists(st.integers(0, nodes - 1), max_size=2, unique=True))),
    )


def build_recipe(recipe: Recipe):
    """``(engine, log)`` of a recipe, ready for its first ``step``."""
    log = EventLog()
    instruments = []
    if recipe.trace:
        instruments.append(Replay(Trace(recipe.config.num_nodes, [TraceMessage(*m) for m in recipe.trace])))
    if recipe.reliable:
        instruments.append(Reliable(TransportConfig(base_timeout=48, seed=3)))
    engine, _ = start(recipe.config, instruments, probe=log)
    if recipe.faults:
        topology = engine.topology
        if recipe.config.network == "tree":
            drawn = [TreeUplinkFault(*f) for f in random_uplink_faults(topology, 2, seed=recipe.config.seed)]
        else:
            drawn = [CubeLinkFault(*f) for f in random_cube_link_faults(topology, 2, seed=recipe.config.seed)]
        schedule = FaultSchedule()
        for position, fail_at, repair_at, policy in recipe.faults:
            schedule.add(drawn[position], fail_at, repair_at, policy=policy)
        schedule.install(engine)
    for nid in recipe.flood:
        node = engine.nodes[nid]
        flooding = PacketSource(nid, engine.injector.pattern, 1.0, random.Random(nid))
        if recipe.reliable:
            node.source.inner, node.source.active = flooding, flooding.active
        else:
            node.source = flooding
        if node not in engine.active_nodes:
            engine.active_nodes.append(node)
    for src, dst in recipe.preload:
        engine.preload_packet(src, dst)
    for src, dst, flits in recipe.sized:
        node = engine.nodes[src]
        # under the transport the engine pops the wrapper's queue, which
        # registers what it drains from the wrapped source's
        source = getattr(node.source, "inner", node.source)
        source.queue.append((0, dst, flits))
        if node not in engine.active_nodes:
            engine.active_nodes.append(node)
    engine._start_run()
    return engine, log


def divergence(cycle: int, kernel, twin) -> str:
    """The failure message of a root mismatch: every leaf that differs."""
    findings, dropped = snapshot_diff(state_snapshot(kernel), state_snapshot(twin))
    lines = [f"diverged in cycle {cycle}"]
    lines += [f"  {f['path']}: kernel {f['a']!r}, twin {f['b']!r}" for f in findings]
    if dropped:
        lines.append(f"  ... {dropped} more differing leaves")
    return "\n".join(lines)


def run_in_lockstep(recipe: Recipe) -> list[tuple]:
    """Step a kernel engine and its pure-Python twin through ``recipe``,
    comparing them after every cycle; the (common) event log."""
    kernel, kernel_log = build_recipe(recipe)
    with python_loops():
        twin, twin_log = build_recipe(recipe)
    assert twin.phases is reference
    for cycle in range(recipe.config.total_cycles):
        moved = kernel.step()
        # the twin also kills (``find_worm``) and fingerprints (``_fabric_rows``)
        # through the reference walks, the kernel through its own
        assert twin.step() == moved
        assert kernel.state_fingerprint()["root"] == twin.state_fingerprint()["root"], (
            divergence(cycle, kernel, twin)
        )
        # the fingerprint leaves the routing algorithm's own state out: its
        # tie-break stream, Duato's grants, the call counts of the test ones
        assert algorithm_state(kernel.routing) == algorithm_state(twin.routing), (
            f"routing diverged in cycle {cycle}"
        )
    assert kernel_log.events == twin_log.events
    # and what the fingerprint leaves out: the observation-only link
    # counters (``blocked``, the warm-up snapshots) among every counter
    assert counters(kernel) == counters(twin)
    kernel.audit()
    twin.audit()
    assert dataclasses.asdict(kernel.result) == dataclasses.asdict(twin.result)
    assert kernel.delivered_flits_per_node == twin.delivered_flits_per_node
    return kernel_log.events


@needs_kernel
class TestCompiledPhasesInLockstep:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(lockstep_recipe())
    def test_kernel_and_python_twin_agree_every_cycle(self, recipe):
        events = run_in_lockstep(recipe)
        assert {event[0] for event in events} >= {"generated", "injected", "cycle"}

    def test_the_recipes_reach_all_nine_events(self):
        # one fixed recipe that is known to block, drop, deliver and route
        recipe = Recipe(
            cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.9, seed=6, buffer_flits=2,
                        arbiter="age", collect_latencies=True, interval_cycles=16,
                        warmup_cycles=50, total_cycles=400),
            faults=((0, 80, 200, FaultPolicy.FAIL_STOP), (1, 120, 260, FaultPolicy.DRAIN)),
            sized=((0, 5, 1), (3, 9, 1)),
        )
        assert {event[0] for event in run_in_lockstep(recipe)} == {
            "generated", "injected", "routed", "head_arrived", "head_delivered",
            "tail_delivered", "dropped", "blocked", "cycle",
        }

    def test_every_kind_of_source_is_polled_and_drained_alike(self):
        # preloaded packets, a source that creates every cycle, then a trace
        config = cube_config(k=4, n=2, algorithm="dor", vcs=4, load=0.4, seed=9,
                             warmup_cycles=40, total_cycles=240)
        events = run_in_lockstep(Recipe(config, preload=((2, 7), (2, 8)), flood=(11,), reliable=True))
        assert [event[2] for event in events if event[0] == "generated" and event[1] < 3] == [11] * 3
        assert [event[3:5] for event in events if event[0] == "injected"][:1] == [(2, 7)]
        trace = ((0, 1, 6, 40), (0, 1, 7, 2), (3, 1, 2, 2), (9, 5, 0, 3), (230, 4, 5, 16))
        events = run_in_lockstep(Recipe(config, trace=trace, flood=(11,)))
        sizes = {event[2]: event[5] for event in events if event[0] == "injected" and event[3] != 11}
        assert sorted(sizes.values()) == [2, 2, 3, 16, 40]

    @pytest.mark.parametrize("algorithm", [FirstFitTreeRouting, CountingTreeRouting])
    def test_an_algorithm_that_is_not_a_shipped_class_has_its_python_select_called(self, algorithm):
        # a subclass too: its select() is not the one that exists compiled
        config = tree_config(k=2, n=3, vcs=2, algorithm=algorithm.name, load=0.7, seed=4,
                             warmup_cycles=40, total_cycles=240)
        events = run_in_lockstep(Recipe(config, trace=((0, 1, 6, 40), (3, 1, 2, 2), (9, 5, 0, 3))))
        kernel, _ = build_recipe(Recipe(config))
        for _ in range(config.total_cycles):
            kernel.step()
        assert type(kernel.routing) is algorithm
        assert kernel.routing.calls >= sum(event[0] == "routed" for event in events) > 0

    @pytest.mark.parametrize("first, second", [(False, True), (True, False)])
    def test_checkpoint_written_under_one_path_restores_under_the_other(self, first, second, tmp_path):
        config = cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.6, seed=8,
                             warmup_cycles=100, total_cycles=700)
        instruments = [Reliable(TransportConfig(base_timeout=64))]
        policy = CheckpointPolicy(str(tmp_path), interval_cycles=250)

        def run(python: bool, **kwargs) -> str:
            with python_loops() if python else contextlib.nullcontext():
                return _canonical(simulate(config, instruments, **kwargs))

        reference = run(first)
        assert run(second) == reference
        # the first call leaves its mid-run snapshots behind; the second
        # restores the newest and finishes the run on the other path
        assert run(first, checkpoint=policy) == reference
        snapshots = checkpoint_files(tmp_path)
        assert sorted(read_checkpoint_header(path)["cycle"] for path in snapshots) == [250, 500]
        for path in snapshots:
            assert read_checkpoint_header(path)["format"] == CHECKPOINT_FORMAT_VERSION
            assert b"_phases" not in path.read_bytes()  # nothing of the kernel is pickled
        assert run(second, checkpoint=policy) == reference


class TestTheEngineChoosesItsPhases:
    """An engine takes its phase table when it is built or restored and
    pickles nothing of it: a copy loaded under ``python_loops()`` walks the
    reference, one loaded outside it the kernel where that was built.
    Without the kernel both sides are the reference, and this still holds."""

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_a_copy_takes_the_phases_of_where_it_is_loaded(self, how):
        config = cube_config(k=8, n=2, algorithm="duato", vcs=4, load=0.8, seed=3,
                             warmup_cycles=40, total_cycles=2000)
        instruments = [Reliable(TransportConfig(base_timeout=48, seed=3)), Flight(FlightConfig(interval_cycles=10))]
        engine, _ = start(config, instruments)
        engine._start_run()
        while engine.cycle < 150:
            engine.step()
        data = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"phases" not in data  # neither module is named: nothing of the choice
        load = (lambda: pickle.loads(data)) if how == "pickle" else (lambda: copy.deepcopy(engine))
        native = load()
        with python_loops():
            twin = load()
        assert twin.phases is reference
        assert native.phases is engine.phases is (engine_module.NATIVE_PHASES or reference)
        recorders = native.find_probe(FlightRecorder), twin.find_probe(FlightRecorder)
        # each side steps through the table it took, with nothing patched that it reads
        with mock.patch.object(reference, "link_phase", wraps=reference.link_phase) as walked:
            while native.cycle < 350:
                assert native.step() == twin.step()
                assert native.state_fingerprint()["root"] == twin.state_fingerprint()["root"], (
                    divergence(native.cycle, native, twin)
                )
                assert recorders[0].document() == recorders[1].document()
        assert walked.call_count == (200 if native.phases is not reference else 400)
        assert len(recorders[0].document()["series"]["cycle"]) > 30


class PacketLog(Probe):
    """Every injected packet, by reference."""

    def __init__(self):
        self.packets = []

    def on_packet_injected(self, cycle, packet):
        self.packets.append(packet)


def int_fields(obj) -> list:
    return [getattr(obj, name) for name, kind in obj.FIELDS if kind == INT]


def counters(engine, row=int_fields) -> tuple:
    """Every counter the phases write, whatever the references around them
    have become: what is left to compare of an engine too corrupt to hash."""
    stored = [*engine.nodes, *engine.dirs]
    stored += [lane for d in engine.dirs for lane in d.lanes]
    stored += [lane for ports in engine.in_lanes for lanes in ports for lane in lanes]
    stored += [sink for sinks in engine.eject_lanes for sink in sinks]
    return (
        [row(obj) for obj in stored],
        engine.injected_flits_total, engine.delivered_flits_total, engine.injected_packets_total,
        engine.delivered_packets_total, engine._next_pid, len(engine.bindings),
        [len(pend) for pend in engine.pending], engine.route_queue, engine._route_awake,
    )


def stepped(engine, cycles: int = 8, row=int_fields):
    """What stepping ``engine`` on its phases raised (its type, ``None`` for
    nothing), what ``audit()`` then says of it, and the fingerprint and
    counters it was left with."""
    raised = None
    try:
        for _ in range(cycles):
            engine.step()
    except Exception as err:
        raised = type(err)
    try:
        engine.audit()
        verdict = "clean"
    except Exception as err:  # the audit may trip over the corruption itself
        verdict = f"{type(err).__name__}: {err}"
    try:
        root = engine.state_fingerprint()["root"]
    except Exception as err:
        root = type(err).__name__
    return raised, verdict, root, counters(engine, row)


def lookalike(obj):
    """``obj``'s fields and values in a ``__slots__`` class of its own: the
    Python loops, which go by attribute, take it for the real thing; the
    kernel, which goes by offset, must not."""
    names = tuple(name for name, _ in obj.FIELDS)
    double = type(f"{type(obj).__name__}Lookalike", (), {"__slots__": names})()
    for name in names:
        setattr(double, name, getattr(obj, name))
    return double


def busy_direction(engine):
    """A fabric direction the link walk scans this cycle, far enough down the
    list for the look-ahead to have met it before the cursor does."""
    return next(d for d in engine._fabric_dirs[8:] if d.nbusy > 0)


def fields_or_type(obj):
    """A row for ``counters`` that lets an intruder without a field table
    stand where a test put it: both twins must find the same type there."""
    return int_fields(obj) if hasattr(obj, "FIELDS") else type(obj).__name__


def replace_item(items: list, at: int, make) -> None:
    items[at] = make(items[at])


def replace_first_scanned_lane(engine, make) -> None:
    d = busy_direction(engine)
    replace_item(d.lanes, d.rr, make)


#: where the compiled walks look ahead of their cursor, and how to put
#: ``make(what is there)`` in such a place
AHEAD_OF_THE_CURSOR = {
    "_fabric_dirs": lambda engine, make: replace_item(engine._fabric_dirs, 40, make),
    "_eject_dirs": lambda engine, make: replace_item(engine._eject_dirs, -1, make),
    "bindings": lambda engine, make: replace_item(engine.bindings, -1, make),
    "lanes": replace_first_scanned_lane,
}


@needs_kernel
class TestCompiledPhasesFailurePaths:
    def loaded(self, probe=None, python=False):
        """A cube 60 cycles into a run, built on the reference phases
        (``python``) or on the kernel."""
        with python_loops() if python else contextlib.nullcontext():
            engine = build_engine(cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.6, seed=2,
                                              warmup_cycles=20, total_cycles=5000), probe=probe)
        while engine.cycle < 60:
            engine.step()
        return engine

    def test_no_reference_leaks_over_a_thousand_cycles(self):
        engine = self.loaded()
        direction = engine.dirs[0]
        lane = direction.lanes[0]
        packet = next(b.packet for b in engine.bindings)
        node = engine.nodes[3]
        watched = (
            direction, lane, lane.sink, engine.dirs[-1].lanes[0].sink, engine.bindings[0],
            node, node.source, node.source.queue, node.lanes[0], engine.nodes[-1],
            engine.routing, engine.routing.rng, engine.pending[0], engine.out_lanes[5][0][1],
        )
        before = [sys.getrefcount(obj) for obj in watched]
        holders = sys.getrefcount(packet)
        for _ in range(1000):
            engine.step()
        engine.audit()
        assert engine.delivered_flits_total > 5000
        assert [sys.getrefcount(obj) for obj in watched] == before
        # delivered long ago: only this frame still holds the packet
        assert packet.delivered > 0 and sys.getrefcount(packet) < holders

    def test_packets_created_in_c_are_released_like_the_python_ones(self):
        def holders(python: bool) -> set:
            log = PacketLog()
            engine = self.loaded(probe=log, python=python)
            for _ in range(400):
                engine.step()
            done = [packet for packet in log.packets if packet.delivered >= 0]
            assert len(done) > 100
            return {sys.getrefcount(packet) for packet in done}

        # the log, the list above and the loop variable
        assert holders(python=False) == holders(python=True) == {4}

    @staticmethod
    def crossing_lane(engine):
        """An output lane about to send a body flit over its link."""
        return next(
            lane for d in engine._fabric_dirs for lane in d.lanes
            if lane.buffered > 0 and lane.credits > 0 and lane.sink.packet is not None
        )

    @pytest.mark.parametrize("value, error", [("4", TypeError), (None, TypeError), (2.0, TypeError),
                                              (2**63, OverflowError), (-2**63 - 1, OverflowError)])
    def test_a_counter_refuses_at_the_assignment_what_is_not_a_machine_integer(self, value, error):
        # on the C storage the loops cannot meet a str or a None in a counter:
        # nobody can put one there (tests/test_lane.py has the other storage)
        engine = self.loaded()
        lane = self.crossing_lane(engine)
        node = next(n for n in engine.nodes if n.packet is not None)
        for obj, name in ((lane, "credits"), (lane, "buffered"), (lane.sink, "received"),
                          (engine.dirs[lane.dir], "nbusy"), (lane.packet, "size"), (node, "sent")):
            with pytest.raises(error):
                setattr(obj, name, value)
            with pytest.raises(TypeError):
                delattr(obj, name)
            assert type(getattr(obj, name)) is int

    @pytest.mark.parametrize("corrupt, error", [
        (lambda lane: setattr(lane, "packet", None), AttributeError),
        (lambda lane: delattr(lane, "packet"), AttributeError),
        (lambda lane: setattr(lane, "sink", None), AttributeError),
        (lambda lane: setattr(lane.sink, "bound", None), AttributeError),
    ])
    def test_corrupt_state_raises_what_the_python_loops_raise(self, corrupt, error):
        outcomes = []
        for python in (False, True):
            engine = self.loaded(python=python)
            corrupt(self.crossing_lane(engine))
            outcomes.append((*stepped(engine), engine.cycle))
        assert outcomes[0] == outcomes[1]  # in the same cycle, leaving the same engine
        assert outcomes[0][0] is error

    @pytest.mark.parametrize("where", AHEAD_OF_THE_CURSOR)
    @pytest.mark.parametrize("make", [lambda obj: None, lambda obj: object()], ids=["none", "foreign"])
    def test_what_is_not_a_lane_ahead_of_the_cursor_raises_at_the_visit_as_in_python(self, where, make):
        # the look-ahead skips it: the walk gets as far as the Python loop does
        outcomes = []
        for python in (False, True):
            engine = self.loaded(python=python)
            assert len(engine.bindings) > 24 and len(engine._fabric_dirs) > 48
            AHEAD_OF_THE_CURSOR[where](engine, make)
            outcomes.append((*stepped(engine, row=fields_or_type), engine.cycle))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is AttributeError and outcomes[0][-1] == 60

    @pytest.mark.parametrize("where", AHEAD_OF_THE_CURSOR)
    def test_a_lookalike_ahead_of_the_cursor_is_refused_at_the_visit_and_never_read(self, where):
        # no twin to hold it to: the Python loops go by attribute and carry on
        engine = self.loaded()
        AHEAD_OF_THE_CURSOR[where](engine, lookalike)
        with pytest.raises(TypeError, match="the compiled phases need a .*, not a .*Lookalike"):
            engine.step()
        assert engine.cycle == 60

    def test_lanes_shorter_than_the_round_robin_pointer_raise_the_same_on_both_paths(self):
        outcomes = []
        for python in (False, True):
            engine = self.loaded(python=python)
            d = busy_direction(engine)
            d.lanes = d.lanes[:1]
            d.rr = 2
            outcomes.append((*stepped(engine), engine.cycle))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is IndexError and outcomes[0][-1] == 60

    @pytest.mark.parametrize("rr", [4, 5, -1])
    def test_a_round_robin_pointer_past_the_lanes_raises_the_same_on_both_paths(self, rr):
        # both scan the lanes from ``rr`` with a wrapping index, after
        # holding ``rr`` to them
        outcomes = []
        for python in (False, True):
            engine = self.loaded(python=python)
            d = busy_direction(engine)
            assert len(d.lanes) == 4
            d.rr = rr
            outcomes.append((*stepped(engine), engine.cycle))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is IndexError and outcomes[0][-1] == 60

    def test_a_direction_out_of_its_place_fails_the_audit_on_both_paths(self):
        # no phase reads ``index`` (the probes' tables do), so the steps run
        # on and the audit names the direction
        outcomes = []
        for python in (False, True):
            engine = self.loaded(python=python)
            engine.dirs[7].index = 8
            outcomes.append((*stepped(engine), engine.cycle))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is None and outcomes[0][-1] == 68
        assert outcomes[0][1].startswith("SimulationError: direction index out of place: ")

    @pytest.mark.parametrize("corrupt", [
        lambda engine: [setattr(lane, "dir", len(engine.dirs)) for d in engine.dirs for lane in d.lanes],
        lambda engine: [setattr(lane.sink, "src_dir", len(engine._fabric_dirs)) for lane in engine._fabric_out],
    ], ids=["dir", "src_dir"])
    def test_an_index_outside_its_list_raises_the_same_index_error_on_both_paths(self, corrupt):
        # the crossbar reaches a lane's direction and its feeding lane by
        # index: dirs[out.dir], _fabric_out[src_dir * vcs + vc]
        outcomes = []
        for python in (False, True):
            engine = self.loaded(python=python)
            corrupt(engine)
            outcomes.append((*stepped(engine), engine.cycle))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is IndexError and outcomes[0][-1] == 60

    def test_lanes_in_a_tuple_are_refused_at_the_visit(self):
        # the kernel has always wanted a list here (the Python loops walk any
        # sequence); the look-ahead leaves saying so to the visit
        engine = self.loaded()
        d = busy_direction(engine)
        d.lanes = tuple(d.lanes)
        with pytest.raises(TypeError, match="LinkDirection.lanes must be a list"):
            engine.step()
        assert engine.cycle == 60

    @pytest.mark.parametrize("event", ["on_direction_blocked", "on_head_arrived"])
    def test_a_handler_that_shortens_the_list_being_walked_ends_the_walk_alike(self, event):
        class Cutter(Probe):
            engine, cuts = None, 0

        def cut(self, cycle, *args):
            # the first call halves both lists, every later one drops the last
            # direction: the cursor's look-ahead keeps running off the end
            for dirs in (self.engine._fabric_dirs, self.engine._eject_dirs):
                del dirs[len(dirs) // 2 if self.cuts == 0 else -1:]
            self.cuts += 1

        setattr(Cutter, event, cut)

        def outcome(python: bool):
            probe = Cutter()
            with python_loops() if python else contextlib.nullcontext():
                probe.engine = engine = build_engine(
                    cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.9, seed=2, buffer_flits=2,
                                warmup_cycles=20, total_cycles=5000),
                    probe=probe,
                )
            result = stepped(engine, cycles=60)
            assert 1 < probe.cuts and len(engine._fabric_dirs) < 30
            return (*result, probe.cuts, len(engine._fabric_dirs), len(engine._eject_dirs))

        assert outcome(python=False) == outcome(python=True)

    def test_the_look_ahead_holds_no_reference(self):
        # every object it touches -- the directions, their lane lists, the
        # output lanes, the bindings and what they are bound to -- is held by
        # exactly as many as after the same cycles of the Python loops
        def holders(python: bool) -> list:
            engine = self.loaded(python=python)
            for _ in range(200):
                engine.step()
            touched = [*engine.dirs, *engine.bindings]
            touched += [d.lanes for d in engine.dirs]
            touched += [lane for d in engine.dirs for lane in d.lanes]
            touched += [lane for ports in engine.in_lanes for lanes in ports for lane in lanes]
            assert len(engine.bindings) > 24
            return [sys.getrefcount(obj) for obj in touched]

        assert holders(python=False) == holders(python=True)

    @staticmethod
    def stalled_switch(engine) -> int:
        """A switch with a header that has waited a cycle: asked next."""
        return next(s for s, lane in engine.unrouted_headers() if lane.last_arrival < engine.cycle - 1)

    @pytest.mark.parametrize("corrupt, error", [
        (lambda e, s: setattr(next(n for n in e.nodes if n.packet is not None), "lane", None),
         AttributeError),
        (lambda e, s: setattr(next(n for n in e.nodes if n.packet is None), "packet", "a str"),
         AttributeError),
        (lambda e, s: e.route_rr.__setitem__(s, "0"), TypeError),
        (lambda e, s: e.pending[s].insert(0, None), AttributeError),
        (lambda e, s: setattr(e.pending[s][0], "packet", None), AttributeError),
        (lambda e, s: setattr(e.routing, "_hops", None), TypeError),
    ])
    def test_corrupt_injection_and_routing_state_raises_the_same_on_both_paths(self, corrupt, error):
        outcomes = []
        for python in (False, True):
            engine = self.loaded(python=python)
            s = self.stalled_switch(engine)
            engine._wake_routing()
            engine.route_rr[s] = 0
            corrupt(engine, s)
            outcomes.append((*stepped(engine), engine.cycle))
        assert outcomes[0] == outcomes[1]  # in the same cycle, leaving the same engine
        assert outcomes[0][0] is error

    def test_a_raising_select_propagates_and_leaves_the_same_engine(self):
        class Fused(FirstFitTreeRouting):
            def select(self, switch, inlane, packet):
                if self.calls == 150:
                    raise ZeroDivisionError("select")
                return super().select(switch, inlane, packet)

        def outcome(python: bool):
            with python_loops() if python else contextlib.nullcontext():
                engine = build_engine(tree_config(k=2, n=3, vcs=2, load=0.8, seed=5,
                                                  warmup_cycles=20, total_cycles=5000))
            routing = Fused()
            routing.attach(engine)
            engine.routing = routing
            return stepped(engine, cycles=400)

        assert outcome(python=False) == outcome(python=True)
        assert outcome(python=False)[0] is ZeroDivisionError

    def test_a_raising_source_propagates_and_leaves_the_same_engine(self):
        class Broken:
            active = True
            queue = collections.deque()

            def advance(self, cycle):
                raise ZeroDivisionError("advance")

            def next_cycle(self):
                return 0

        def outcome(python: bool):
            engine = self.loaded(python=python)
            node = engine.nodes[9]
            node.source, node.wake = Broken(), engine.cycle + 3
            return stepped(engine)

        raised, verdict, *_ = kernel = outcome(python=False)
        assert kernel == outcome(python=True)
        # the nodes before it had streamed: their flits were never counted
        assert raised is ZeroDivisionError and "conservation" in verdict

    @pytest.mark.parametrize("python", [False, True])
    @pytest.mark.parametrize("event", [
        "on_head_arrived", "on_direction_blocked", "on_head_delivered", "on_tail_delivered",
        "on_packets_generated", "on_packet_injected", "on_header_routed",
    ])
    def test_a_raising_probe_propagates(self, python, event):
        class Boom(Probe):
            pass

        def boom(self, *args):
            raise ZeroDivisionError(event)

        setattr(Boom, event, boom)
        with python_loops() if python else contextlib.nullcontext():
            engine = build_engine(
                cube_config(k=4, n=2, algorithm="duato", vcs=4, load=0.9, seed=2, buffer_flits=2,
                            warmup_cycles=20, total_cycles=5000),
                probe=Boom(),
            )
        watched = (engine.dirs[0], engine.dirs[0].lanes[0], engine.dirs[0].lanes[0].sink,
                   engine.nodes[0], engine.nodes[0].source, engine.routing)
        before = [sys.getrefcount(obj) for obj in watched]
        with pytest.raises(ZeroDivisionError, match=event):
            for _ in range(2000):
                engine.step()
        assert [sys.getrefcount(obj) for obj in watched] == before

    @pytest.mark.parametrize("event", ["on_packets_generated", "on_packet_injected", "on_header_routed"])
    def test_a_probe_raising_in_injection_or_routing_leaves_the_same_engine(self, event):
        class Boom(Probe):
            pass

        def boom(self, cycle, *args):
            if cycle >= 70:
                raise ZeroDivisionError(event)

        setattr(Boom, event, boom)
        kernel = stepped(self.loaded(probe=Boom()), cycles=40)
        assert kernel == stepped(self.loaded(probe=Boom(), python=True), cycles=40)
        assert kernel[0] is ZeroDivisionError
