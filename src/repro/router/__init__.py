"""Routing-switch building blocks (paper §4, Fig. 4).

The modeled switch has, per bidirectional channel and direction, V virtual
channel *lanes* (input and output buffers), an internal crossbar binding
input lanes to output lanes for the duration of a packet (wormhole
switching), credit ("ack") counters that mirror the downstream input-lane
buffer space, and a fair arbiter per link direction multiplexing its lanes
onto the physical link (:func:`repro.sim.phases.pick_lane`).

Flits are never materialized as objects: wormhole allocation means a lane
holds flits of one packet at a time, so a lane is a handful of counters
(:class:`~repro.router.lane.InputLane`, :class:`~repro.router.lane.OutputLane`)
and flit movement is counter arithmetic.
"""

from .lane import EjectionLane, InputLane, LinkDirection, OutputLane

__all__ = [
    "EjectionLane",
    "InputLane",
    "LinkDirection",
    "OutputLane",
]
