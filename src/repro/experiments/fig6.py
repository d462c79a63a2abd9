"""Figure 6 — communication performance of the 16-ary 2-cube (paper §9).

Eight panels: accepted bandwidth and network latency vs offered bandwidth
for each traffic pattern, comparing deterministic dimension-order routing
against Duato's minimal adaptive algorithm (both with 4 virtual channels).

Paper shape to reproduce:

* uniform — Duato saturates at ≈80%, deterministic at ≈60%; latency ≈70
  cycles before saturation for both;
* complement — the inversion: deterministic near-optimal at ≈47% (the
  theoretical bound is 50% since every packet crosses the bisection),
  Duato saturating early at ≈35%;
* transpose — adaptive ≈50%, more than twice the deterministic;
* bit reversal — adaptive ≈60% vs deterministic ≈20%.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..metrics.cnf import CNFResult
from ..profiles import Profile, get_profile
from ..sim.run import cube_config
from ..traffic.patterns import PAPER_PATTERNS
from .sweep import run_curves

#: the two algorithms with their figure legend labels
CUBE_ALGORITHMS = (("dor", "deterministic"), ("duato", "Duato"))


def fig6_experiment(
    pattern: str,
    profile: Profile | None = None,
    k: int = 16,
    n: int = 2,
    vcs: int = 4,
    seed: int = 13,
    parallel: bool = False,
) -> CNFResult:
    """Run one Figure-6 panel pair (one traffic pattern, both algorithms)."""
    if pattern not in PAPER_PATTERNS:
        raise ConfigurationError(
            f"figure 6 covers {PAPER_PATTERNS}, got {pattern!r} "
            f"(use run_curves directly for extension patterns)"
        )
    profile = profile or get_profile()
    curves = [
        (
            label,
            cube_config(
                k=k, n=n, algorithm=algorithm, vcs=vcs, pattern=pattern, seed=seed,
                **profile.windows,
            ),
            (),
        )
        for algorithm, label in CUBE_ALGORITHMS
    ]
    series = [s for s, _ in run_curves(curves, profile=profile, parallel=parallel)]
    return CNFResult(title=f"16-ary 2-cube, {pattern} traffic", series=series)
