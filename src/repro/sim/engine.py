"""The flit-level wormhole simulation engine (paper §4).

Every clock cycle runs three phases, in an order that guarantees a flit
advances through at most one pipeline stage per cycle (the §5
normalization makes T_link = T_crossbar = T_routing = 1 clock):

1. **Link phase** — for every unidirectional channel with buffered output
   flits, an arbiter picks one output lane holding a flit and a credit;
   that flit crosses to the downstream input lane (or ejection lane).
   The policy is ``config.arbiter``: round-robin (paper default) or
   oldest-packet-first by creation cycle (``"age"``), which bounds tail
   latency under sustained overload.  Node injection runs in the same phase: each node streams at
   most one flit per cycle of its current packet into an injection lane
   (the single injection channel / source throttling of §3).
2. **Crossbar phase** — every crossbar-bound (input → output) lane pair
   forwards one flit if the output lane has space, returning a credit
   upstream; flits that arrived in this cycle's link phase are held one
   cycle (``last_arrival`` stamp).  Forwarding the tail releases the input
   lane and the crossbar path.
3. **Routing phase** — each switch routes at most one new header per
   cycle; pending headers are served round-robin and a header that cannot
   be routed (all candidate lanes busy) stays pending.  A stalled header is
   asked again only once something could have changed the answer — a
   switch whose pass tried every pending header in vain *sleeps* until a
   header arrives there, one of its output lanes becomes allocatable, or a
   cycle hook / ``kill_packet`` ran — which is indistinguishable from
   asking every cycle because a ``select`` that returns ``None`` has no
   side effect (the :class:`~repro.routing.base.RoutingAlgorithm` contract).

``step`` itself holds no loop: it runs the cycle hooks, takes the warm-up
snapshot, and makes four timed calls — ``link_phase``, ``injection_phase``,
``crossbar_phase``, ``routing_phase`` — into one of two implementations of
the same interface over the very same node, lane and packet objects:

* :mod:`repro.sim.phases`, the **reference**: Python, one small function per
  step of a flit's way, written to be read against §4;
* the kernel (``_phases.c``, ``_routing.c``, ``_select.c``, built on first
  import by :mod:`repro.sim.native`), where a C compiler is at hand: the same
  functions under the same names, with the ``select`` of the four shipped
  routing algorithms compiled in (any other class has its Python ``select``
  called; sources stay Python objects).  There the six classes the phases
  walk — the lanes, the link direction, the packet, the node — also keep
  their fields in C structs the same extension defines (``_storage.c``;
  :func:`repro.sim.native.storage`), so a counter is a machine integer to the
  kernel and an ``int`` boxed on demand to everything else; elsewhere they
  keep them in ``__slots__``.

Nothing but whether the kernel could be built decides which of the two runs
and which storage is used.  An engine makes that choice once, when it is
built and when it is unpickled or deep-copied (:func:`chosen_phases`), and
keeps it in :attr:`Engine.phases`: ``step``, the wiring, ``kill_packet``,
the flight recorder's link totals and the state fingerprint all read the
engine's table, never decide again.  How the pair is kept one model — the
twin rule and the two tests that enforce it — is stated once, in the
docstring of :mod:`repro.sim.phases`.

Either way a cycle touches only what can move: idle link directions cost one
comparison, idle sources one comparison and one queue test, sleeping switches
one flag test, and a probe event nobody consumes one ``is not None`` test
(the engine binds each event to the probes that override it whenever its
probe changes — :mod:`repro.obs.probe`).  :meth:`Engine.audit` verifies the
global invariants (buffer bounds, credit consistency, flit conservation)
after any run, and ``tests/test_engine_digest.py`` pins
:meth:`Engine.state_fingerprint` so neither implementation can drift from
the model.
"""

from __future__ import annotations

import gc
import itertools
import time

from ..errors import ConfigurationError, DeadlockError, SimulationError
from ..obs.probe import bind_events
from ..obs.telemetry import PHASE_NAMES, RunTelemetry, config_digest
from ..router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from ..routing.base import RoutingAlgorithm
from ..routing.dor import DimensionOrderRouting
from ..routing.duato import DuatoAdaptiveRouting
from ..routing.tree_adaptive import TreeAdaptiveRouting
from ..routing.tree_deterministic import TreeDeterministicRouting
from ..topology.base import Topology
from ..topology.cube import KAryNCube
from ..traffic.generator import BernoulliInjector
from . import phases as reference
from .config import SimulationConfig
from .diagnostics import capture_snapshot
from .native import INT, REF, load_phases, storage
from .packet import FAULT_SENTINEL, Packet
from .results import RunResult

class _Node(
    storage(
        "_Node",
        (
            ("nid", INT),
            ("source", REF),
            ("wake", INT),
            ("lanes", REF),
            ("rr", INT),
            ("packet", REF),
            ("sent", INT),
            ("lane", REF),
        ),
    )
):
    """Per-node injection state: the single injection channel of §3."""

    __slots__ = ()

    def __init__(self, nid: int, source, lanes: list[InputLane]):
        self.nid = nid
        self.source = source
        #: first cycle ``source.advance`` must be called in again (its
        #: ``next_cycle()`` at the last poll; 0 = poll at the next step, so
        #: whoever swaps ``source`` before the run needs no bookkeeping)
        self.wake = 0
        #: injection lanes at the attached switch port
        self.lanes = lanes
        self.rr = 0
        #: packet currently being streamed into the network
        self.packet: Packet | None = None
        self.sent = 0
        self.lane: InputLane | None = None


#: the four phases of ``step``, compiled (``_phases.c``, ``_routing.c`` and
#: ``_select.c``, built on first import — see :mod:`repro.sim.native`) and
#: bound to the classes whose fields they address, or ``None`` where they
#: cannot be had and engines walk the reference (:mod:`repro.sim.phases`).
#: Read by :func:`chosen_phases` only, when an engine is built or restored,
#: and by the checkpoint's Mersenne packing; the lockstep tests set it to
#: ``None`` to build (or restore) a twin that walks the reference.
NATIVE_PHASES = load_phases(
    InputLane, OutputLane, EjectionLane, LinkDirection, Packet, _Node,
    TreeAdaptiveRouting, TreeDeterministicRouting, DimensionOrderRouting, DuatoAdaptiveRouting,
)


def chosen_phases():
    """The phase table an engine built or restored now keeps: the kernel
    where it could be built, else the reference.  Either has the four
    phases, the wiring, ``find_worm`` and ``link_totals``; the kernel also
    the fingerprint's images."""
    return NATIVE_PHASES or reference


class collector_paused:
    """The cyclic collector off for the body, then as it was found, also
    when the body raises.  Wiring or unpickling an engine allocates tens of
    thousands of containers, and the collections they set off, full ones
    among them, walk the heap the imports left; the engine graph holds no
    cycle (``tests/test_release.py``), so reference counting frees all it
    drops and the pause leaves nothing for a later collection.  A class,
    not a generator: leaving allocates nothing (a generator's exit raises
    ``StopIteration``), so a caller that drops the engine at once frees it
    before any collection walks it."""

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, kind, value, traceback):
        if self.enabled:
            gc.enable()


class Engine:
    """One simulation run over a built network.

    Args:
        topology: the network under test.
        routing: a routing algorithm compatible with the topology.
        injector: per-node traffic sources.
        config: run recipe (must be consistent with the other arguments).
    """

    # ``_handlers`` and ``phases`` live in slots, outside ``__dict__``: a
    # bound handler is derived from the probe tree and a fan-out is a
    # closure, which does not pickle, and the phase table is this process's
    # choice, so the pickled state is the ``__dict__`` itself — no copy for
    # the pickler's memo to keep — and ``__setstate__`` binds and chooses anew
    __slots__ = ("_handlers", "phases", "__dict__", "__weakref__")

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        injector: BernoulliInjector,
        config: SimulationConfig,
    ):
        if injector.num_nodes != topology.num_nodes:
            raise ConfigurationError(
                f"injector built for {injector.num_nodes} nodes, "
                f"topology has {topology.num_nodes}"
            )
        #: the module whose phases, wiring and walks this engine runs
        #: (:func:`chosen_phases`)
        self.phases = phases = chosen_phases()
        self.topology = topology
        self.config = config
        self.injector = injector
        vcs = config.vcs
        cap = config.buffer_flits

        num_switches = topology.num_switches
        base_ports = topology.ports_per_switch()
        is_direct = isinstance(topology, KAryNCube)
        total_ports = base_ports + (1 if is_direct else 0)

        #: in_lanes[switch][port] -> list of InputLane; a port nothing is
        #: wired to (e.g. the root switches' up-ports) keeps an empty list
        self.in_lanes: list[list[list[InputLane]]] = [
            [[] for _ in range(total_ports)] for _ in range(num_switches)
        ]
        self.out_lanes: list[list[list[OutputLane]]] = [
            [[] for _ in range(total_ports)] for _ in range(num_switches)
        ]

        #: every link direction, switch->switch ones first: the link
        #: phase walks the two kinds in two loops, in this order
        self.dirs: list[LinkDirection] = []
        # wired by the phases ``step`` runs (the same objects either way)
        phases.wire_switch_links(self, cap, vcs)
        self._fabric_dirs = list(self.dirs)
        #: the output lanes of ``_fabric_dirs``, flat and in order: the lane
        #: feeding a fabric input lane is ``_fabric_out[src_dir * vcs + vc]``
        #: (the crossbar returns its credits there)
        self._fabric_out = [lane for d in self._fabric_dirs for lane in d.lanes]
        #: eject_lanes[node] -> its ejection sinks, one per VC
        self.eject_lanes: list[list[EjectionLane]] = [[] for _ in range(topology.num_nodes)]
        self._injection_lanes: list[list[InputLane]] = [[] for _ in range(topology.num_nodes)]
        phases.wire_node_links(self, cap, vcs, 1 if is_direct else vcs)
        self._eject_dirs = self.dirs[len(self._fabric_dirs) :]

        # cycle hooks (fault schedules, instrumentation): cycle -> callbacks.
        # _next_hook_cycle caches the earliest key so ``step`` pays a
        # single int comparison per cycle; -1 means no hooks armed.
        self._cycle_hooks: dict[int, list] = {}
        self._next_hook_cycle = -1

        #: attached observability probe (repro.obs); assigning it binds
        #: ``_handlers``, which is all ``step`` and ``kill_packet`` look at
        #: (``None`` while no probe consumes any event)
        self.probe = None
        #: ``(spec, live)`` per instrument :func:`repro.sim.run.start`
        #: installed, in order: they ride inside checkpoints, so a restored
        #: run is finished by the specs it was started with
        self.instruments: list[tuple] = []
        #: the :class:`~repro.sim.checkpoint.CheckpointPolicy` this run
        #: snapshots itself under, known before the instruments install so
        #: one that cannot ride inside a snapshot refuses up front
        self.checkpoint_policy = None

        # routing bookkeeping
        self.pending: list[list[InputLane]] = [[] for _ in range(num_switches)]
        self.route_rr = [0] * num_switches
        self._in_route_queue = [False] * num_switches
        self.route_queue: list[int] = []
        #: False while a switch sleeps: its last routing pass tried every
        #: pending header in vain and nothing that could change the outcome
        #: has happened since (see :func:`repro.sim.phases.route_switch`)
        self._route_awake = [True] * num_switches
        self.bindings: list[InputLane] = []

        # statistics
        self.cycle = 0
        self.injected_packets_total = 0
        self.delivered_packets_total = 0
        self.injected_flits_total = 0
        self.delivered_flits_total = 0
        #: worms destroyed in flight by fail-stop faults (kill_packet)
        self.dropped_packets_total = 0
        self.dropped_flits_total = 0
        self.result = RunResult(config=config, measured_cycles=config.total_cycles - config.warmup_cycles)
        #: flits delivered to each node during the measurement window
        #: (fairness/hotspot analyses)
        self.delivered_flits_per_node = [0] * topology.num_nodes
        #: rolling counter behind RunResult.throughput_timeline
        self._interval_delivered = 0
        self._last_progress = 0
        #: cycle the current run() entered at — an attribute rather than a
        #: run() local so a checkpointed engine can resume_run() and still
        #: report telemetry.cycles over the whole logical run
        self._run_started_at = 0
        self._next_pid = 0
        #: high-water mark of packets simultaneously in flight (telemetry)
        self._peak_in_flight = 0
        #: cumulative wall seconds per step phase, indexed like PHASE_NAMES
        #: (5 perf_counter reads per cycle — well under 1% of a step)
        self._phase_seconds = [0.0, 0.0, 0.0, 0.0]
        self._phase_at_start = (0.0, 0.0, 0.0, 0.0)
        self._warmup_snapshot_taken = config.warmup_cycles == 0
        #: oldest-first arbitration (config.arbiter == "age"); checked once
        #: per direction and per switch by the phases
        self._age_arbiter = config.arbiter == "age"
        #: round-robin pointer after serving lane ``vc``: the next lane
        #: (every direction has ``vcs`` lanes, lane ``i`` being VC ``i``)
        self._rr_after = tuple(range(1, vcs)) + (0,)
        #: the lanes' indices in round-robin order from pointer ``rr``,
        #: wrapping past the last: the reference arbiter reads its scan here
        #: (the kernel counts the wrap itself; in Python that would double
        #: the cost of a pick)
        self._rr_order = tuple(tuple((rr + i) % vcs for i in range(vcs)) for rr in range(vcs))

        routing.attach(self)
        self.routing = routing
        self._build_nodes()

    # -- construction ----------------------------------------------------------

    def __getstate__(self) -> dict:
        return self.__dict__

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.phases = chosen_phases()
        # the engine is the root of its pickle, so the probe tree under it
        # is complete by now: events reach the restored probes
        self._bind_events()

    def release(self) -> None:
        """Cut the edges that close a cycle through the engine object
        itself, so reference counting frees it when the last outside
        reference drops:

        * the probe and its handlers, the ``(spec, live)`` instruments and
          the cycle hooks — probes, live objects and hook closures hold the
          engine;
        * ``_Node.source`` (a ``ReliableSource`` holds its transport, which
          holds the engine).

        An engine built without a probe has none of these edges, so dropping
        it frees it without this call: below the engine every edge points
        downstream (a lane names its direction and its feeding lane by
        index), so the rest of the graph is a tree.

        What a post-run reader takes stays readable and unchanged:
        ``cycle``, the totals, ``result``, ``config``, ``topology`` and
        ``dirs`` with every counter, ``to_node`` and ``label``.  What would
        now answer differently because it reads a cut edge — ``step``,
        ``run``, ``resume_run``, the fingerprint and so a checkpoint,
        ``find_probe``, ``kill_packet``, ``preload_packet`` — raises
        :class:`~repro.errors.SimulationError` instead
        (:class:`ReleasedEngine`).  :func:`repro.sim.run.simulate` calls
        this once every instrument has finished.
        """
        for node in self.nodes:
            node.source = None
        self.probe = None
        self.instruments = []
        self._cycle_hooks = {}
        self._next_hook_cycle = -1
        self.__class__ = ReleasedEngine

    def _build_nodes(self) -> None:
        self.nodes = [
            _Node(nid, self.injector.sources[nid], self._injection_lanes[nid])
            for nid in range(self.topology.num_nodes)
        ]
        self.active_nodes = [node for node in self.nodes if node.source.active]

    def preload_packet(self, src: int, dst: int, created: int = 0) -> None:
        """Queue one packet at a source before the run starts.

        Useful for deterministic unit tests, examples and debugging: the
        packet joins the node's source queue (behind any stochastic
        traffic) and is injected through the normal single-channel path.

        Raises:
            ConfigurationError: for out-of-range nodes or ``src == dst``.
        """
        nodes = self.topology.num_nodes
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise ConfigurationError(f"nodes out of range: {src}->{dst} (N={nodes})")
        if src == dst:
            raise ConfigurationError("a packet needs distinct source and destination")
        node = self.nodes[src]
        node.source.queue.append((created, dst))
        if node not in self.active_nodes:
            self.active_nodes.append(node)

    # -- observability -------------------------------------------------------------

    @property
    def probe(self):
        """The attached probe (tree), or ``None``.  Assignment replaces it
        without calling ``bind`` — :func:`~repro.obs.probe.compose_probe`
        is the way to add a probe beside one already attached."""
        return self._probe

    @probe.setter
    def probe(self, probe) -> None:
        self._probe = probe
        self._bind_events()

    def _bind_events(self) -> None:
        """Bind each per-cycle event to the probes that override it, in
        delivery order; ``None`` when no probe consumes any event."""
        self._handlers = bind_events(self._probe)

    def find_probe(self, cls):
        """The first attached probe that is a ``cls`` (depth first over the
        probe tree, i.e. in delivery order), or ``None``."""
        stack = [self._probe]
        while stack:
            probe = stack.pop()
            if isinstance(probe, cls):
                return probe
            stack.extend(reversed(getattr(probe, "probes", ())))
        return None

    def attach_probe(self, probe) -> None:
        """Attach an observability probe (see :mod:`repro.obs.probe`).

        The probe's ``bind`` runs immediately so it can pre-size per-lane
        state from the live engine.  Only one probe slot exists; compose
        several with :class:`~repro.obs.probe.MultiProbe`.

        Raises:
            ConfigurationError: when a probe is already attached.
        """
        if self.probe is not None:
            raise ConfigurationError(
                "a probe is already attached; compose probes with MultiProbe"
            )
        probe.bind(self)
        self.probe = probe

    def _start_run(self) -> tuple[int, float]:
        """Snapshot cycle, wall clock and phase timers at run entry."""
        self._phase_at_start = tuple(self._phase_seconds)
        self._wake_routing()  # the caller may have changed lanes since the last step
        if self.probe is not None:
            self.probe.on_run_start(self)
        return self.cycle, time.perf_counter()

    def _finish_run(self, started_at_cycle: int, wall_start: float) -> None:
        """Attach telemetry to the result and close out the probe."""
        wall = time.perf_counter() - wall_start
        cycles = self.cycle - started_at_cycle
        self.result.telemetry = RunTelemetry(
            config_hash=config_digest(self.config),
            seed=self.config.seed,
            cycles=cycles,
            wall_clock_s=wall,
            cycles_per_sec=cycles / wall if wall > 0 else 0.0,
            peak_in_flight=self._peak_in_flight,
            phase_seconds={
                name: self._phase_seconds[i] - self._phase_at_start[i]
                for i, name in enumerate(PHASE_NAMES)
            },
        )
        if self.probe is not None:
            self.probe.on_run_end(self)

    # -- cycle hooks ---------------------------------------------------------------

    def add_cycle_hook(self, cycle: int, fn) -> None:
        """Schedule ``fn(engine)`` to run at the start of cycle ``cycle``.

        Hooks fire before the link phase, so state changed by a hook (a
        fault struck or repaired, say) is visible to every phase of that
        same cycle.  Hooks may re-arm themselves or add hooks for the
        same or later cycles while running.

        Raises:
            ConfigurationError: when ``cycle`` lies in the past.
        """
        if cycle < self.cycle:
            raise ConfigurationError(
                f"cannot hook cycle {cycle}; the engine is already at {self.cycle}"
            )
        self._cycle_hooks.setdefault(cycle, []).append(fn)
        if self._next_hook_cycle < 0 or cycle < self._next_hook_cycle:
            self._next_hook_cycle = cycle

    def _run_cycle_hooks(self, t: int) -> None:
        # hooks may add same-cycle hooks while running, hence the loop;
        # bookkeeping is settled BEFORE each hook runs so a hook that
        # snapshots the engine (checkpointing) captures exactly the
        # not-yet-run remainder — never itself, never a stale next-cycle
        while self._next_hook_cycle == t:
            pending = self._cycle_hooks[t]
            fn = pending.pop(0)
            if not pending:
                del self._cycle_hooks[t]
                self._next_hook_cycle = (
                    min(self._cycle_hooks) if self._cycle_hooks else -1
                )
            fn(self)
        # faults strike and repair through hooks
        self._wake_routing()

    # -- one simulation cycle ----------------------------------------------------

    def step(self) -> bool:
        """Advance one cycle; returns True when any flit moved (progress)."""
        t = self.cycle
        if t == self._next_hook_cycle:
            self._run_cycle_hooks(t)
        config = self.config
        warm = t >= config.warmup_cycles
        if warm and not self._warmup_snapshot_taken:
            self._snapshot_warmup()
        # None unless a probe consumes some event
        handlers = self._handlers
        phases = self.phases
        seconds = self._phase_seconds
        clock = time.perf_counter
        phase_start = clock()

        progress = phases.link_phase(self, t, handlers, warm)
        now = clock()
        seconds[0] += now - phase_start
        phase_start = now

        if phases.injection_phase(self, t, handlers, warm):
            progress = True
        now = clock()
        seconds[1] += now - phase_start
        phase_start = now

        if phases.crossbar_phase(self, t):
            progress = True
        now = clock()
        seconds[2] += now - phase_start
        phase_start = now

        if phases.routing_phase(self, t, handlers):
            progress = True

        interval = config.interval_cycles
        if interval and warm and (t - config.warmup_cycles + 1) % interval == 0:
            self.result.throughput_timeline.append(self._interval_delivered)
            self._interval_delivered = 0

        if handlers is not None and handlers.on_cycle is not None:
            handlers.on_cycle(t)
        seconds[3] += clock() - phase_start
        self.cycle = t + 1
        return progress

    def _snapshot_warmup(self) -> None:
        """Freeze the cumulative per-direction link counters at the warm-up
        boundary, so the analyses can report measurement-window counts."""
        self._warmup_snapshot_taken = True
        for d in self.dirs:
            d.flits_at_warmup = d.flits
            d.blocked_at_warmup = d.blocked

    def _wake_routing(self) -> None:
        """Re-try every stalled header at the next routing phase: lanes
        may have changed hands outside the three phases."""
        self._route_awake[:] = [True] * len(self._route_awake)

    # -- full run ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Run to ``config.total_cycles`` and return the measurements.

        A run whose traffic is finite — every node's source says so
        (``source.finite``: a trace's does, a Bernoulli process's does not)
        — stops earlier, at the first cycle the network is empty and every
        source exhausted: a drain, whose makespan is ``telemetry.cycles``.

        Raises:
            DeadlockError: if the watchdog sees no flit movement for
                ``config.watchdog_cycles`` cycles while packets are in
                flight (indicates a routing bug, not an expected outcome),
                or finite traffic has not drained by ``config.total_cycles``.
        """
        start_cycle, wall_start = self._start_run()
        self._run_started_at = start_cycle
        return self._run_to_total(wall_start)

    def resume_run(self) -> RunResult:
        """Continue a restored run to where :meth:`run` stops.

        The checkpoint/restore counterpart of :meth:`run` (see
        :mod:`repro.sim.checkpoint`): probes keep the accumulated state
        they were pickled with, so ``on_run_start`` must *not* re-fire —
        a statehash chain or flight timeline continues seamlessly across
        the restore.  Telemetry spans the whole logical run
        (``_run_started_at`` travelled inside the checkpoint); only the
        wall-clock fields measure this process's share.
        """
        return self._run_to_total(time.perf_counter())

    def _run_to_total(self, wall_start: float) -> RunResult:
        watchdog = self.config.watchdog_cycles
        total = self.config.total_cycles
        start_cycle = self._run_started_at
        finite = all(node.source.finite for node in self.nodes)
        while self.cycle < total and not (finite and self._drained()):
            if self.step():
                self._last_progress = self.cycle
            elif (
                watchdog
                and self.in_flight_packets() > 0
                and self.cycle - self._last_progress >= watchdog
            ):
                self._finish_run(start_cycle, wall_start)
                raise self._deadlock(
                    f"no flit movement for {watchdog} cycles at cycle {self.cycle} "
                    f"with {self.in_flight_packets()} packets in flight "
                    f"({self.config.label()})"
                )
        if finite and not self._drained():
            self._finish_run(start_cycle, wall_start)
            raise self._deadlock(
                f"drain did not complete within {total} cycles "
                f"({self.in_flight_packets()} packets in flight)"
            )
        self.result.in_flight_at_end = self.in_flight_packets()
        self._finish_run(start_cycle, wall_start)
        return self.result

    def _drained(self) -> bool:
        """Nothing in flight and every source exhausted (``source.done()``)."""
        return self.in_flight_packets() == 0 and all(
            node.source.done() for node in self.active_nodes
        )

    def _deadlock(self, message: str) -> DeadlockError:
        """Build a DeadlockError carrying a diagnostic network snapshot."""
        snapshot = capture_snapshot(self)
        return DeadlockError(f"{message}\n{snapshot.describe()}", snapshot=snapshot)

    def in_flight_packets(self) -> int:
        """Packets injected but neither delivered nor dropped."""
        return (
            self.injected_packets_total
            - self.delivered_packets_total
            - self.dropped_packets_total
        )

    def state_fingerprint(self, detail: bool = False) -> dict:
        """Layered digest of the complete simulation state at this cycle.

        The backend validation contract (see DESIGN.md): any alternative
        engine backend must produce identical fingerprints at identical
        cycles for identical configs.  Covers lanes, credits, routing,
        injection queues, transport/AIMD state and RNG stream positions;
        excludes measurement accumulators and wall-clock state.  With
        ``detail``, per-link, per-lane and per-node leaf digests are
        included for divergence localization.  Delegates to
        :func:`repro.obs.statehash.engine_fingerprint`.
        """
        from ..obs.statehash import engine_fingerprint

        return engine_fingerprint(self, detail=detail)

    def kill_packet(self, pkt: Packet, reason: str = "fault") -> int:
        """Tear down an in-flight worm (fail-stop fault semantics).

        Flushes every flit of ``pkt`` still buffered in the network,
        releases all input, output and ejection lanes it holds, restores
        the credit counters of the flushed lane pairs, unbinds it from
        the crossbar and the routing queues, and stops the source if the
        worm was still streaming in (the unstreamed remainder is never
        injected, so flit conservation holds).  The drop is stamped on
        the packet, counted in the engine totals and the measurement
        window, and reported through ``on_packet_dropped``.

        The lanes are found by one search over ``dirs`` — ``find_worm``,
        which the kernel has beside the reference in :mod:`repro.sim.phases`,
        taken from the engine's :attr:`phases` like those of ``step`` — and
        flushed by the one body below, whichever walk found them.

        Safe to call from a cycle hook: hooks fire before the link phase
        so no phase iteration is in progress.

        Returns:
            The number of flits flushed from the network (0 when the
            packet already left it — delivered or previously dropped).

        Raises:
            SimulationError: when asked to kill the fault sentinel.
        """
        if pkt is FAULT_SENTINEL:
            raise SimulationError("cannot kill the fault sentinel")
        if pkt.delivered >= 0 or pkt.dropped >= 0:
            return 0
        t = self.cycle
        flushed = 0

        node = self.nodes[pkt.src]
        if node.packet is pkt:
            node.packet = None
            node.lane = None
            node.sent = 0

        # a worm holds output lanes and their sinks — fabric input lanes or
        # its destination's ejection lanes — and the injection lanes of its
        # source: one search over the directions and one over those
        owned, holding = self.phases.find_worm(self.dirs, pkt)
        for lane in owned:
            if lane.buffered > 0:
                self.dirs[lane.dir].nbusy -= 1
                flushed += lane.buffered
            lane.packet = None
            lane.buffered = 0
        victims: list[InputLane] = []
        for sink in holding:
            if isinstance(sink, EjectionLane):
                sink.packet = None
                sink.received = 0
            else:
                victims.append(sink)
        victims.extend(lane for lane in node.lanes if lane.packet is pkt)
        dead = {lane for lane in victims if lane.bound is not None}
        if dead:
            # lanes hash and compare by identity; the filter runs in C
            self.bindings[:] = itertools.filterfalse(dead.__contains__, self.bindings)
        for lane in victims:
            if lane.bound is None:
                # an unbound header is still waiting in the routing queue
                pend = self.pending[lane.switch]
                if lane in pend:
                    pend.remove(lane)
            flushed += lane.received - lane.forwarded
            lane.packet = None
            lane.received = 0
            lane.forwarded = 0
            lane.bound = None
            if lane.src_dir >= 0:
                # the (output lane -> input lane) pair carries a single
                # packet, so after the flush the downstream buffer is
                # empty and the upstream credit counter returns to cap
                self._fabric_out[lane.src_dir * self.config.vcs + lane.vc].credits = lane.cap

        self._wake_routing()
        pkt.dropped = t
        self.dropped_packets_total += 1
        self.dropped_flits_total += flushed
        if pkt.injected >= self.config.warmup_cycles:
            self.result.dropped_packets += 1
            self.result.dropped_flits += flushed
        handlers = self._handlers
        if handlers is not None and handlers.on_packet_dropped is not None:
            handlers.on_packet_dropped(t, pkt, reason)
        return flushed

    def unrouted_headers(self):
        """Yield every input lane holding a header that routing has not
        bound yet, as ``(switch, lane)`` pairs.

        These are exactly the *waiting* parties of the network's wait-for
        relation: a blocked wormhole chain always terminates at one of
        them (or at an ejection channel).  Read-only over live engine
        state — used by the deadlock snapshot and the wait-for graph
        sampler, safe to call between cycles.
        """
        for s in self.route_queue:
            for lane in self.pending[s]:
                if lane.bound is None and lane.packet is not None:
                    yield s, lane

    # -- invariants ----------------------------------------------------------------

    def audit(self) -> None:
        """Verify global invariants; raises SimulationError on violation.

        Checked after runs by the test-suite:

        * buffer occupancies within ``[0, cap]``;
        * credit counters mirror downstream free space exactly;
        * crossbar bindings are mutually consistent;
        * flit conservation: every injected flit is either delivered or
          buffered in exactly one lane;
        * each direction's ``index`` is its position in ``dirs`` (the tables
          of probes are indexed by it, and a pickle carries it), and so is
          each of its lanes' ``dir``;
        * the wiring the crossbar reads by index: ``_fabric_out`` lists the
          fabric directions' lanes in order, a fabric input lane names the
          output lane it is the ``sink`` of (``src_dir`` and ``vc``), and an
          injection lane names none (``src_dir == -1``);
        * a direction's link counters are at least their warm-up snapshots,
          and in each cycle run it moved one flit, was blocked, or was idle
          (``flits + blocked <= cycle``);
        * the derived state the phases maintain instead of recomputing: a
          direction's ``nbusy`` counts its lanes holding flits (a wrong
          count silently skips the direction), ``bindings`` holds exactly
          the bound input lanes, once each, ``_in_route_queue`` marks
          exactly the members of ``route_queue``, a switch sleeps only
          while none of its pending headers could be routed (a wrong flag
          strands them), each node's streaming state is consistent and
          ``active_nodes`` lists a node once.
        """
        buffered_flits = 0
        bindings = {id(lane) for lane in self.bindings}
        if len(bindings) != len(self.bindings):
            raise SimulationError("an input lane is in the crossbar bindings twice")
        bound_lanes = 0
        for ports in self.in_lanes:
            for port_lanes in ports:
                for lane in port_lanes:
                    received, forwarded, bound = lane.received, lane.forwarded, lane.bound
                    buf = received - forwarded
                    if not 0 <= buf <= lane.cap:
                        raise SimulationError(f"input buffer out of range: {lane!r}")
                    packet = lane.packet
                    if packet is None and (received or forwarded or bound):
                        raise SimulationError(f"free input lane with residue: {lane!r}")
                    if bound is not None:
                        if bound.packet is not packet:
                            raise SimulationError(f"binding mismatch: {lane!r} -> {bound!r}")
                        if id(lane) not in bindings:
                            raise SimulationError(f"bound lane missing from the bindings: {lane!r}")
                        bound_lanes += 1
                    buffered_flits += buf
        if bound_lanes != len(bindings):
            raise SimulationError(
                f"the bindings hold {len(bindings) - bound_lanes} lane(s) that are not bound"
            )
        for index, d in enumerate(self.dirs):
            if d.index != index:
                raise SimulationError(
                    f"direction index out of place: {d.label} index={d.index}, at {index} in dirs"
                )
            # every output lane is in one direction: checked on this walk
            holding = 0
            for v, lane in enumerate(d.lanes):
                if lane.dir != index:
                    raise SimulationError(
                        f"output lane out of place: {lane!r} dir={lane.dir}, "
                        f"listed by {d.label} at {index} in dirs"
                    )
                buffered = lane.buffered
                if not 0 <= buffered <= lane.cap:
                    raise SimulationError(f"output buffer out of range: {lane!r}")
                sink = lane.sink
                if isinstance(sink, InputLane):
                    if sink.src_dir != index or sink.vc != v:
                        raise SimulationError(
                            f"input lane names the wrong feeding lane: {sink!r} src_dir={sink.src_dir}, "
                            f"the sink of {lane!r} of {d.label} at {index} in dirs"
                        )
                    expect = sink.cap - (sink.received - sink.forwarded)
                    if lane.credits != expect:
                        raise SimulationError(
                            f"credit drift: {lane!r} credits={lane.credits}, "
                            f"downstream free space={expect}"
                        )
                if buffered:
                    holding += 1
                    buffered_flits += buffered
            if d.nbusy != holding:
                raise SimulationError(
                    f"busy-lane count drift: {d.label} nbusy={d.nbusy}, lanes holding flits={holding}"
                )
            if not (d.flits_at_warmup <= d.flits and d.blocked_at_warmup <= d.blocked
                    and d.flits + d.blocked <= self.cycle):
                raise SimulationError(
                    f"link counters out of range at cycle {self.cycle}: {d.label} flits={d.flits} "
                    f"blocked={d.blocked}, at warm-up {d.flits_at_warmup} / {d.blocked_at_warmup}"
                )
        if self._fabric_out != [lane for d in self._fabric_dirs for lane in d.lanes]:
            raise SimulationError("_fabric_out does not list the fabric directions' lanes in order")
        for lanes in self._injection_lanes:
            for lane in lanes:
                if lane.src_dir != -1:
                    raise SimulationError(f"injection lane names a feeding lane: {lane!r} src_dir={lane.src_dir}")
        queued = [False] * len(self._in_route_queue)
        for s in self.route_queue:
            if queued[s]:
                raise SimulationError(f"switch {s} is in the routing queue twice")
            queued[s] = True
        if queued != self._in_route_queue:
            raise SimulationError("_in_route_queue does not mirror route_queue")
        candidates = self.routing.candidates
        for s, pend in enumerate(self.pending):
            if self._route_awake[s]:
                continue
            for lane in pend:
                lanes = candidates(s, lane, lane.packet)
                # None: the algorithm cannot say which lanes it would take
                if lanes is not None and any(out.is_free() for out in lanes):
                    raise SimulationError(
                        f"switch {s} sleeps on a header that could be routed: {lane!r}"
                    )
        for node in self.nodes:
            pkt, lane = node.packet, node.lane
            if (pkt is None) != (lane is None):
                raise SimulationError(
                    f"node {node.nid} streams {pkt!r} into {lane!r}: one without the other"
                )
            if pkt is not None and not (lane.packet is pkt and 0 < node.sent < pkt.size):
                raise SimulationError(
                    f"node {node.nid} has sent {node.sent} flits of {pkt!r} into {lane!r}"
                )
        if len({id(node) for node in self.active_nodes}) != len(self.active_nodes):
            raise SimulationError("a node is in active_nodes twice")
        # delivered_flits_total counts every ejected flit (including those
        # of packets still partially in flight) and dropped_flits_total
        # every flit flushed by a fail-stop kill, so what remains in the
        # network is exactly the sum of lane buffers.
        in_network = (
            self.injected_flits_total
            - self.delivered_flits_total
            - self.dropped_flits_total
        )
        if buffered_flits != in_network:
            raise SimulationError(
                f"flit conservation violated: buffered={buffered_flits}, "
                f"injected-delivered={in_network}"
            )


def _refused(name: str):
    def refuse(self, *args, **kwargs):
        raise SimulationError(
            f"{name}() on a released engine: Engine.release (simulate() calls it on return) "
            f"cut the edges it would read; keep a live engine with simulate_post_mortem() "
            f"or build_engine(...).run()"
        )

    return refuse


class ReleasedEngine(Engine):
    """An engine after :meth:`Engine.release`: the counters, totals, result
    and directions of its run, and a refusal from every entry point whose
    answer or effect would depend on an edge the release cut.  A live
    engine pays nothing for it: the refusals are methods of this class
    alone."""

    step = _refused("step")
    run = _refused("run")
    resume_run = _refused("resume_run")
    state_fingerprint = _refused("state_fingerprint")
    find_probe = _refused("find_probe")
    kill_packet = _refused("kill_packet")
    preload_packet = _refused("preload_packet")
