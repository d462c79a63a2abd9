"""Routing algorithm interface.

A routing algorithm is consulted by the engine's routing phase: given the
input lane whose head flit is an unrouted header, :meth:`select` must
return a *free* output lane on a minimal path to the packet's destination
(or the ejection channel when the packet has arrived), or ``None`` to
stall the header.  Algorithms are stateless per attempt — adaptivity comes
from inspecting current lane occupancy — and a stalling ``select`` has no
side effect at all, so the engine retries a stalled header only once an
output lane of its switch has become allocatable (see :meth:`select`).

Algorithms are bound to a live engine with :meth:`attach`, which hands
them direct references to the engine's lane arrays — ``select`` runs in
the hottest part of the simulation and must not go through indirection
layers.

The engine's compiled routing phase (``sim/_select.c``) carries a
transcription of ``select`` for the four shipped classes —
``tree_adaptive``, ``tree_deterministic``, ``dor``, ``duato`` — and of
:func:`randbelow` and :meth:`RoutingAlgorithm.pick_free_lane` under them,
reading the tables ``attach`` builds and drawing from :attr:`rng` through
``getrandbits``.  It serves an object whose type is *exactly* one of the
four; a subclass or a newly registered algorithm has its Python ``select``
called instead, so nothing here needs a C twin to work.  Those selects,
``pick_free_lane`` and ``randbelow`` fall under the twin rule stated in
:mod:`repro.sim.phases` (change one, change its C twin):
``tests/test_routing_contract.py`` holds the two to the same lane, draws and
counters, the lockstep suite to the same run.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..errors import ConfigurationError
from ..router.lane import InputLane, OutputLane
from ..sim.packet import Packet


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for ``n >= 1`` without its argument checks: the
    rejection loop ``randrange`` itself runs, over the same ``getrandbits``
    draws, so the stream position and the result are identical."""
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


class RoutingAlgorithm(ABC):
    """Per-hop output-lane selection policy."""

    #: registry identifier
    name: str = "abstract"
    #: network family the algorithm runs on: "tree" or "cube".  Consulted
    #: by SimulationConfig validation, so registering a subclass with this
    #: set makes the name usable in configs (and therefore in sweeps).
    network: str | None = None

    def __init__(self) -> None:
        self.engine = None
        self.rng = random.Random(0)

    def attach(self, engine) -> None:
        """Bind to a live engine (called once, before the first cycle).

        Stores the engine's output-lane table and a dedicated RNG stream
        for fair tie-breaking.  Subclasses extend this with precomputed
        per-switch tables.
        """
        self.engine = engine
        self.out = engine.out_lanes
        self.rng = random.Random(engine.config.seed ^ 0x9E3779B9)

    @abstractmethod
    def select(self, switch: int, inlane: InputLane, packet: Packet) -> OutputLane | None:
        """Return a free output lane for this header, or None to stall.

        Contract the engine relies on to let stalled headers sleep:

        * the result is one of :meth:`candidates` (when that is known) and
          is free (:meth:`OutputLane.is_free`);
        * ``None`` is returned exactly when no candidate lane is free, and
          such a call **draws no random number and changes no state** — of
          the algorithm, the lanes or the packet.  A stalled header is
          therefore not asked again until a lane that could serve it has
          become allocatable, and the run is the same as if it had been
          asked every cycle.
        """

    def candidates(
        self, switch: int, inlane: InputLane, packet: Packet
    ) -> list[OutputLane] | None:
        """Every output lane this header could legally take at ``switch``.

        A *read-only* companion to :meth:`select` for observability code
        (the wait-for graph sampler): it must enumerate the full
        candidate set without touching :attr:`rng` or any other mutable
        state, so sampling a live engine never perturbs the simulation.
        The base implementation returns ``None`` ("unknown"); callers
        must then over-approximate (e.g. treat every busy output lane at
        the switch as a potential wait target).  Concrete algorithms
        override this with their exact legal-lane sets.
        """
        return None

    # -- shared helpers --------------------------------------------------------

    def pick_free_lane(self, lanes: list[OutputLane]) -> OutputLane | None:
        """Fair choice among the free lanes of one port (uniform random).

        "Free" is :meth:`OutputLane.is_free`, spelled out here because this
        runs once per routed header.  With no free lane no random number is
        drawn (the :meth:`select` contract).
        """
        free = [
            lane
            for lane in lanes
            if lane.packet is None and ((sink := lane.sink) is None or sink.packet is None)
        ]
        if len(free) < 2:
            return free[0] if free else None
        return free[randbelow(self.rng, len(free))]


#: name -> class registry, populated by the concrete modules' imports
ROUTING_ALGORITHMS: dict[str, type[RoutingAlgorithm]] = {}


def register(cls: type[RoutingAlgorithm]) -> type[RoutingAlgorithm]:
    """Class decorator adding an algorithm to the registry.

    Also announces the algorithm's network family to the config layer, so
    a registered name validates in :class:`~repro.sim.config.SimulationConfig`
    — this is how custom (including deliberately unsafe, for fault tests)
    algorithms become sweepable.
    """
    ROUTING_ALGORITHMS[cls.name] = cls
    if cls.network in ("tree", "cube"):
        from ..sim.config import register_algorithm_family

        register_algorithm_family(cls.name, cls.network)
    return cls


def make_routing(name: str, **kwargs) -> RoutingAlgorithm:
    """Instantiate a registered routing algorithm by name."""
    try:
        cls = ROUTING_ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ROUTING_ALGORITHMS))
        raise ConfigurationError(
            f"unknown routing algorithm {name!r}; known: {known}"
        ) from None
    return cls(**kwargs)
