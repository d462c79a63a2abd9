"""Figure 5 — communication performance of the 4-ary 4-tree (paper §8).

Eight panels: accepted bandwidth and network latency vs offered bandwidth
for each of the four traffic patterns, with the adaptive routing algorithm
at one, two and four virtual channels.

Paper shape to reproduce:

* uniform — saturation at ≈36% (1 vc), ≈55% (2 vc), ≈72% (4 vc); stable
  post-saturation throughput in all cases;
* complement — congestion-free: ≈95% saturation for every variant, and
  *more* virtual channels give *worse* latency (link multiplexing
  stretches the tail);
* transpose — ≈33% / 60% / 78%;
* bit reversal — analogous to transpose.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..metrics.cnf import CNFResult
from ..profiles import Profile, get_profile
from ..sim.run import tree_config
from ..traffic.patterns import PAPER_PATTERNS
from .sweep import default_loads, run_curves

#: virtual-channel variants evaluated by the paper
TREE_VC_VARIANTS = (1, 2, 4)


def fig5_loads(profile: Profile) -> list[float]:
    """The offered-load grid for this figure."""
    return default_loads(profile.sweep_points)


def fig5_experiment(
    pattern: str,
    profile: Profile | None = None,
    k: int = 4,
    n: int = 4,
    vc_variants: tuple[int, ...] = TREE_VC_VARIANTS,
    seed: int = 11,
    parallel: bool = False,
) -> CNFResult:
    """Run one Figure-5 panel pair (one traffic pattern, all VC variants).

    Returns a CNF result with one series per VC count.
    """
    if pattern not in PAPER_PATTERNS:
        raise ConfigurationError(
            f"figure 5 covers {PAPER_PATTERNS}, got {pattern!r} "
            f"(use run_curves directly for extension patterns)"
        )
    profile = profile or get_profile()
    curves = [
        (
            f"{vcs} vc",
            tree_config(k=k, n=n, vcs=vcs, pattern=pattern, seed=seed, **profile.windows),
            (),
        )
        for vcs in vc_variants
    ]
    series = [s for s, _ in run_curves(curves, profile=profile, parallel=parallel)]
    return CNFResult(title=f"4-ary 4-tree, {pattern} traffic", series=series)
