"""Cube dimensionality study — "hypercubes again?" (extension).

The paper closes predicting that "low-dimensional cubes will increase the
gap with the fat-trees, because they can be easily mapped on the
three-dimensional space", citing Duato & Malumbres' *Optimal Topology for
Distributed Shared-Memory Multiprocessors: Hypercubes Again?* as the
contemporary counterpoint.  This experiment applies the paper's own §5
methodology to the question: compare equal-node-count k-ary n-cubes —
the 16-ary 2-cube, the 4-ary 4-cube and the binary 8-cube at 256 nodes —
normalized for pin count, router complexity and wire length.

Normalization rules (direct extensions of §5):

* **pin budget** — the 2-D cube's 4 link ports × 4-byte paths define the
  budget (16 byte-pins); an n-dimensional router divides the same budget
  over its ``2n`` ports (``n`` for the hypercube), so flits are
  ``16 / ports`` bytes wide;
* **wire length** — cubes with n ≤ 3 embed in 3-space with constant
  wires (eq. 3, short); higher dimensions cannot, and pay the medium-wire
  base of eq. 4 like the fat-tree;
* **capacity** — bisection-derived (§5 footnote) but capped by the single
  injection/ejection channel at 1 flit/cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..metrics.cnf import saturation_bits_per_ns
from ..metrics.series import LoadSweepSeries
from ..profiles import Profile, get_profile
from ..sim.config import SimulationConfig
from ..timing.chien import WireLength, router_delays
from ..timing.normalization import NetworkScaling, PACKET_BYTES
from ..topology.properties import cube_effective_capacity
from .sweep import run_curves

#: byte-pins of the reference router (16-ary 2-cube: 4 ports x 4 bytes)
PIN_BUDGET_BYTES = 16

#: the equal-node-count shapes studied at N = 256
SHAPES_256 = ((16, 2), (4, 4), (2, 8))


@dataclass(frozen=True)
class CubeVariant:
    """One normalized cube configuration."""

    k: int
    n: int
    flit_bytes: int
    wire: WireLength
    clock_ns: float
    capacity_flits_per_cycle: float

    @property
    def label(self) -> str:
        return f"{self.k}-ary {self.n}-cube"

    @property
    def packet_flits(self) -> int:
        return PACKET_BYTES // self.flit_bytes

    def scaling(self) -> NetworkScaling:
        return NetworkScaling(
            flit_bytes=self.flit_bytes,
            packet_flits=self.packet_flits,
            capacity_flits_per_cycle=self.capacity_flits_per_cycle,
            clock_ns=self.clock_ns,
            num_nodes=self.k**self.n,
        )


def normalize_cube(k: int, n: int, algorithm: str = "duato", vcs: int = 4) -> CubeVariant:
    """Apply the §5-style normalization to one cube shape."""
    ports = n if k == 2 else 2 * n
    flit_bytes = PIN_BUDGET_BYTES // ports
    if flit_bytes < 1 or PIN_BUDGET_BYTES % ports or PACKET_BYTES % flit_bytes:
        raise ConfigurationError(
            f"pin budget {PIN_BUDGET_BYTES} B cannot feed {ports} ports evenly"
        )
    wire = WireLength.SHORT if n <= 3 else WireLength.MEDIUM
    if algorithm == "duato":
        freedom = n * (vcs // 2) + 2
    else:
        freedom = vcs // 2
    delays = router_delays(freedom, ports * vcs + 1, vcs, wire)
    return CubeVariant(
        k=k,
        n=n,
        flit_bytes=flit_bytes,
        wire=wire,
        clock_ns=delays.clock_ns,
        capacity_flits_per_cycle=cube_effective_capacity(k, n),
    )


@dataclass
class DimensionStudyRow:
    """One shape's sweep plus its absolute-unit summary."""

    variant: CubeVariant
    sweep: LoadSweepSeries
    saturation_bits_per_ns: float
    low_load_latency_ns: float


def dimension_study(
    shapes: tuple[tuple[int, int], ...] = SHAPES_256,
    algorithm: str = "duato",
    pattern: str = "uniform",
    profile: Profile | None = None,
    seed: int = 37,
) -> list[DimensionStudyRow]:
    """Sweep every shape and summarize in absolute units."""
    profile = profile or get_profile()
    variants = [normalize_cube(k, n, algorithm) for k, n in shapes]
    curves = [
        (
            variant.label,
            SimulationConfig(
                network="cube",
                k=variant.k,
                n=variant.n,
                algorithm=algorithm,
                vcs=4,
                packet_flits=variant.packet_flits,
                capacity_flits_per_cycle=variant.capacity_flits_per_cycle,
                pattern=pattern,
                seed=seed,
                **profile.windows,
            ),
            (),
        )
        for variant in variants
    ]
    rows = []
    for variant, (sweep, _) in zip(variants, run_curves(curves, profile=profile)):
        scaling = variant.scaling()
        first = sweep.points[0]
        rows.append(
            DimensionStudyRow(
                variant=variant,
                sweep=sweep,
                saturation_bits_per_ns=saturation_bits_per_ns(sweep, scaling),
                low_load_latency_ns=scaling.cycles_to_ns(first.latency_cycles or 0),
            )
        )
    return rows
