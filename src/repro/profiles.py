"""Simulation effort profiles.

The paper runs every data point for 20000 cycles (statistics collected after
a 2000-cycle warm-up) on 256-node networks.  That is expensive in pure
Python, so experiments and benchmarks select a *profile* that controls the
warm-up length, the measurement window and the offered-load grid density.
The default profile keeps the full 256-node networks — topology scale is
what the paper is about — and shortens only the time axis.

Profiles are chosen with the ``REPRO_PROFILE`` environment variable
(``fast``, ``default``, ``full``) or explicitly through
:func:`get_profile`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigurationError

_ENV_VAR = "REPRO_PROFILE"


@dataclass(frozen=True)
class Profile:
    """Effort knobs shared by all experiments.

    Attributes:
        name: profile identifier.
        warmup_cycles: cycles discarded before statistics collection
            (paper: 2000).
        total_cycles: cycle at which each simulation halts (paper: 20000).
        sweep_points: number of offered-load points per curve.
    """

    name: str
    warmup_cycles: int
    total_cycles: int
    sweep_points: int

    @property
    def measure_cycles(self) -> int:
        """Length of the measurement window in cycles."""
        return self.total_cycles - self.warmup_cycles

    @property
    def windows(self) -> dict[str, int]:
        """The time axis as :class:`~repro.sim.config.SimulationConfig`
        keywords."""
        return dict(warmup_cycles=self.warmup_cycles, total_cycles=self.total_cycles)


#: Tiny profile for smoke tests: small time axis, coarse grid.
FAST = Profile(name="fast", warmup_cycles=100, total_cycles=500, sweep_points=4)

#: Default profile used by the benchmark harness: full-size networks,
#: shortened time axis.  Saturation estimates move by a few percent
#: relative to the paper's windows; curve shapes are unchanged.
DEFAULT = Profile(name="default", warmup_cycles=250, total_cycles=1450, sweep_points=7)

#: The paper's exact measurement windows (2000-cycle warm-up, halt at
#: 20000) and a dense load grid.  Expect hours of CPU time for the full
#: figure set.
FULL = Profile(name="full", warmup_cycles=2000, total_cycles=20000, sweep_points=10)

_PROFILES = {p.name: p for p in (FAST, DEFAULT, FULL)}


def get_profile(name: str | None = None) -> Profile:
    """Resolve a profile by name, falling back to ``REPRO_PROFILE`` then default.

    Args:
        name: explicit profile name; when ``None`` the ``REPRO_PROFILE``
            environment variable is consulted, and if that is unset the
            ``default`` profile is returned.

    Raises:
        ConfigurationError: if the name is not a known profile.
    """
    if name is None:
        name = os.environ.get(_ENV_VAR, "default")
    try:
        return _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise ConfigurationError(
            f"unknown profile {name!r}; known profiles: {known}"
        ) from None
