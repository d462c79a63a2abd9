"""The probe interface: flit-level engine instrumentation points.

The engine owns exactly one probe slot (``Engine.probe``), ``None`` by
default.  The methods below are the events of its three-phase cycle.
:class:`Probe` is both the interface and the null implementation: every
callback is a no-op, so concrete probes override only the events they
care about — and **a probe pays only for the events it overrides**.
Whenever the slot changes the engine binds each event of :data:`EVENTS`
to the probes that override it (:func:`bind_events`): nobody does and
the engine skips the event behind an ``is not None`` test, one probe
does and the engine calls its bound method directly, several do and one
fan-out calls them in order.  A bare ``Probe()`` therefore costs
nothing: it runs the very loop a probe-less engine runs.

Probes compose as a tree of :class:`MultiProbe` nodes (``probes`` lists
the children).  Binding walks it depth first, so events reach the leaves
in the order nested ``MultiProbe`` fan-outs would deliver them; a
``MultiProbe`` subclass that leaves an event alone is flattened away,
one that overrides it is called as a leaf and delivers to its children
itself.  :func:`compose_probe` adds a probe beside whatever an engine
already carries, :meth:`Engine.find_probe` looks one up by class.
``bind``, ``on_run_start`` and ``on_run_end`` are not per-cycle events
and stay ordinary calls through the tree.  An :class:`Instrument` is the
picklable recipe for a tier of probes.

Event vocabulary (``cycle`` is always the engine cycle of the event):

=====================  =========================================================
callback               fires when
=====================  =========================================================
``on_packets_generated``  a source process created new packets (they join the
                          node's injection queue; source queueing time starts)
``on_packet_injected``    a packet's header entered an injection lane (network
                          latency starts; the packet object now has a pid)
``on_header_routed``      the routing phase bound an input lane to an output
                          lane (one event per hop of the header)
``on_head_arrived``       the header flit crossed a link into the input lane
                          of the *next* switch (one event per hop, paired
                          with the ``on_header_routed`` that sent it; the
                          final hop fires ``on_head_delivered`` instead)
``on_direction_blocked``  a link direction had buffered flits but moved none
                          this cycle (no lane held both a flit and a credit).
                          The engine counts every such cycle in
                          ``LinkDirection.blocked`` whether or not anyone
                          listens, and counts are read off that; the event
                          is for consumers that need *when*:
                          :class:`~repro.obs.trace.TraceProbe`'s blocked
                          intervals and the benchmark's event counter
``on_head_delivered``     the header flit reached the destination node
``on_tail_delivered``     the tail flit reached the destination (delivery)
``on_packet_dropped``     a fail-stop fault destroyed an in-flight worm
                          (its lanes were flushed; it will never deliver)
``on_cycle``              the cycle's three phases all completed
``on_run_start/end``      bracketing ``Engine.run``, whether it runs to
                          ``total_cycles`` or drains (a restored run's
                          ``resume_run`` fires only ``on_run_end``)
=====================  =========================================================
"""

from __future__ import annotations

#: the per-cycle events (the lifecycle calls ``bind``, ``on_run_start`` and
#: ``on_run_end`` are not among them)
EVENTS = (
    "on_packets_generated",
    "on_packet_injected",
    "on_header_routed",
    "on_head_arrived",
    "on_head_delivered",
    "on_tail_delivered",
    "on_packet_dropped",
    "on_direction_blocked",
    "on_cycle",
)


class Probe:
    """No-op probe: the interface and the disabled default in one class.

    Subclasses override the events they need.  ``bind`` runs once at
    attach time, before any event, so probes can pre-size per-lane state
    from the live engine (lane population, warm-up window, topology).
    """

    def bind(self, engine) -> None:
        """Called by :meth:`Engine.attach_probe` with the live engine."""

    # -- run lifecycle -------------------------------------------------------

    def on_run_start(self, engine) -> None:
        """A full run (``Engine.run``, a drain included) is starting."""

    def on_run_end(self, engine) -> None:
        """The run finished (also called when a deadlock aborts it)."""

    # -- packet lifecycle ----------------------------------------------------

    def on_packets_generated(self, cycle: int, node: int, count: int) -> None:
        """``count`` new packets joined ``node``'s injection queue."""

    def on_packet_injected(self, cycle: int, packet) -> None:
        """``packet``'s header entered an injection lane at its source."""

    def on_header_routed(self, cycle: int, switch: int, in_lane, out_lane) -> None:
        """A header was routed through ``switch``: ``in_lane`` bound to
        ``out_lane`` (``in_lane.packet`` identifies the packet)."""

    def on_head_arrived(self, cycle: int, lane, packet) -> None:
        """``packet``'s header flit crossed a link and now occupies input
        ``lane`` at the next switch (it joins that switch's routing
        queue).  Together with ``on_packet_injected`` and
        ``on_header_routed`` this checkpoints the header at every hop, so
        a probe can attribute each cycle of head latency to routing
        stall vs. blocked-in-network time."""

    def on_head_delivered(self, cycle: int, packet) -> None:
        """``packet``'s header reached its destination node."""

    def on_tail_delivered(self, cycle: int, packet) -> None:
        """``packet``'s tail reached its destination (fully delivered)."""

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        """``packet`` was destroyed in flight (fail-stop fault teardown):
        every lane it held was flushed and it will never be delivered.
        ``reason`` names the cause (currently always ``"fault"``)."""

    # -- fabric state --------------------------------------------------------

    def on_direction_blocked(self, cycle: int, direction) -> None:
        """``direction`` held buffered flits but none could cross this
        cycle (every busy lane was out of credits); ``direction.blocked``
        already counts it."""

    def on_cycle(self, cycle: int) -> None:
        """All three phases of ``cycle`` completed."""


#: alias making intent explicit at call sites that attach a do-nothing
#: probe (it consumes no event, so the engine runs its probe-less path)
NullProbe = Probe


class MultiProbe(Probe):
    """Several probes in one slot, events delivered in list order.

    The engine binds events to the leaves directly (see the module
    docstring); the ``on_*`` fan-outs below serve the lifecycle calls
    and subclasses that wrap an event around ``super()``.
    """

    def __init__(self, probes):
        self.probes = list(probes)

    def bind(self, engine) -> None:
        for p in self.probes:
            p.bind(engine)

    def on_run_start(self, engine) -> None:
        for p in self.probes:
            p.on_run_start(engine)

    def on_run_end(self, engine) -> None:
        for p in self.probes:
            p.on_run_end(engine)

    def on_packets_generated(self, cycle: int, node: int, count: int) -> None:
        for p in self.probes:
            p.on_packets_generated(cycle, node, count)

    def on_packet_injected(self, cycle: int, packet) -> None:
        for p in self.probes:
            p.on_packet_injected(cycle, packet)

    def on_header_routed(self, cycle: int, switch: int, in_lane, out_lane) -> None:
        for p in self.probes:
            p.on_header_routed(cycle, switch, in_lane, out_lane)

    def on_head_arrived(self, cycle: int, lane, packet) -> None:
        for p in self.probes:
            p.on_head_arrived(cycle, lane, packet)

    def on_head_delivered(self, cycle: int, packet) -> None:
        for p in self.probes:
            p.on_head_delivered(cycle, packet)

    def on_tail_delivered(self, cycle: int, packet) -> None:
        for p in self.probes:
            p.on_tail_delivered(cycle, packet)

    def on_packet_dropped(self, cycle: int, packet, reason: str) -> None:
        for p in self.probes:
            p.on_packet_dropped(cycle, packet, reason)

    def on_direction_blocked(self, cycle: int, direction) -> None:
        for p in self.probes:
            p.on_direction_blocked(cycle, direction)

    def on_cycle(self, cycle: int) -> None:
        for p in self.probes:
            p.on_cycle(cycle)


class Instrument:
    """One tier of an instrumented run, as a recipe: a small frozen,
    picklable spec (so sweeps ship it to pool workers and it rides inside
    checkpoints) that :func:`repro.sim.run.simulate` installs on the built
    engine and lets finish the result.

    :meth:`install` attaches the tier's probes, sources or hooks to the
    engine and returns its *live* object (whatever :meth:`finish` needs);
    the engine keeps the ``(spec, live)`` pair.  :meth:`finish` runs after
    the run — restored from a checkpoint or not — and returns the result
    with the tier's document attached; tiers whose probe files its
    document in ``on_run_end`` inherit the no-op.
    """

    def install(self, engine):
        raise NotImplementedError

    def finish(self, engine, live, result):
        return result


def event_consumers(probe, event: str) -> list:
    """Bound ``event`` methods of the probes in ``probe``'s tree that
    override it, in delivery order (depth first)."""
    method = getattr(probe, event)
    impl = getattr(method, "__func__", None)
    if impl is getattr(Probe, event):
        return []
    if isinstance(probe, MultiProbe) and impl is getattr(MultiProbe, event):
        return [m for child in probe.probes for m in event_consumers(child, event)]
    return [method]


def bind_event(probe, event: str):
    """The engine's handler for ``event`` under ``probe`` (``None`` = no
    probe): ``None`` when no probe consumes the event, the bound method
    of the only one that does, else a fan-out over all of them."""
    consumers = () if probe is None else tuple(event_consumers(probe, event))
    if len(consumers) < 2:
        return consumers[0] if consumers else None

    def deliver(*args) -> None:
        for consume in consumers:
            consume(*args)

    return deliver


class EventHandlers:
    """What the engine calls, one attribute per event of :data:`EVENTS`:
    each is what :func:`bind_event` returned for it."""

    __slots__ = EVENTS


def bind_events(probe) -> EventHandlers | None:
    """The engine's handlers under ``probe``; ``None`` when no probe in
    the tree consumes any event (no probe at all, or a bare ``Probe()``),
    which leaves the engine one test per event site."""
    handlers = EventHandlers()
    consumed = False
    for event in EVENTS:
        handler = bind_event(probe, event)
        setattr(handlers, event, handler)
        consumed = consumed or handler is not None
    return handlers if consumed else None


def compose_probe(engine, probe) -> None:
    """Add ``probe`` to ``engine`` beside whatever it already carries.

    An empty slot takes it through :meth:`Engine.attach_probe`; otherwise
    the two share the slot as a :class:`MultiProbe` and only the
    newcomer is bound — the existing tree already is.
    """
    if engine.probe is None:
        engine.attach_probe(probe)
    else:
        engine.probe = MultiProbe([engine.probe, probe])
        probe.bind(engine)
