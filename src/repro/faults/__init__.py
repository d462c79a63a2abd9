"""Fault-tolerance subsystem: injection, schedules and safety validation.

The paper's §1–2 operational case for fat-trees is graceful degradation
under channel faults (CM-5 lineage); this package completes that story
across *both* evaluated networks and across *time*:

* :mod:`repro.faults.tree` — permanent ascending-channel faults on k-ary
  n-trees, masked by the adaptive up-phase (the deterministic baseline
  deadlocks — the asserted contrast);
* :mod:`repro.faults.cube` — lane-level link faults on k-ary n-cubes,
  masked by Duato's adaptive channels while the escape subnetwork stays
  connected (validated); full-channel faults as the unprotected contrast
  that wedges deterministic dimension-order routing;
* :mod:`repro.faults.schedule` — transient faults (fail at cycle T,
  optionally repair at T') driven by engine cycle hooks, so faults can
  strike mid-run instead of only before it; per-fault
  :class:`~repro.faults.schedule.FaultPolicy` selects drain-then-seize
  (lossless) or fail-stop (in-flight worms are destroyed) semantics;
* :mod:`repro.faults.instrument` — :class:`Faults`, a random fraction of
  the channel population as an instrument of
  :func:`~repro.sim.run.simulate`, with the one random spec draw
  (:func:`random_fault_specs`) and the one population count
  (:func:`fault_population`) every experiment shares.

Every fault works by allocating the target lanes to the
:data:`~repro.sim.packet.FAULT_SENTINEL` packet — permanently busy for
routing, invisible to the hot paths.
"""

from ..sim.packet import FAULT_SENTINEL
from .cube import (
    CubeLinkFault,
    adaptive_lane_count,
    inject_cube_link_faults,
    random_cube_link_faults,
    validate_escape_connectivity,
)
from .instrument import Faults, fault_population, random_fault_specs
from .schedule import FaultPolicy, FaultSchedule, ScheduledFault
from .tree import (
    TreeUplinkFault,
    inject_tree_uplink_faults,
    random_uplink_faults,
    validate_tree_uplink_faults,
)

__all__ = [
    "FAULT_SENTINEL",
    "CubeLinkFault",
    "TreeUplinkFault",
    "FaultPolicy",
    "FaultSchedule",
    "Faults",
    "ScheduledFault",
    "adaptive_lane_count",
    "fault_population",
    "inject_cube_link_faults",
    "inject_tree_uplink_faults",
    "random_cube_link_faults",
    "random_fault_specs",
    "random_uplink_faults",
    "validate_escape_connectivity",
    "validate_tree_uplink_faults",
]
