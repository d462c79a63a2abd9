"""One factory per probe tier: the operating points ``benchmarks/perf``
times (``python -m benchmarks.perf`` — the 256-node matrix behind every
performance claim; ``benchmarks/perf/layers.py`` reads
:data:`PROBE_FACTORIES` for its ``obs.*_cps`` entries).
"""

from __future__ import annotations

from .counters import WindowedCounterProbe
from .probe import MultiProbe, NullProbe
from .trace import TraceProbe


def _forensics_probe():
    # imported on use: forensics sits above this module in the layering
    from .forensics import ForensicsProbe

    return ForensicsProbe()


def _flight_probe():
    # imported on use: flight sits above this module in the layering
    from .flight import FlightRecorder

    return FlightRecorder()


def _statehash_probe():
    # imported on use: statehash sits above this module in the layering
    from .statehash import StateDigestProbe

    return StateDigestProbe()


#: bench-created checkpoint scratch directories, held for process life —
#: they cannot ride on the probe itself (the probe is pickled into every
#: checkpoint it writes, and TemporaryDirectory finalizers don't pickle)
_BENCH_CHECKPOINT_DIRS: list = []


def _checkpoint_probe():
    # imported on use: checkpoint sits above this module in the layering
    import tempfile

    from ..sim.checkpoint import CheckpointProbe

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-")
    _BENCH_CHECKPOINT_DIRS.append(tmp)
    return CheckpointProbe(tmp.name)


#: probe spec names -> factories; "off" runs the uninstrumented fast path
PROBE_FACTORIES = {
    "off": lambda: None,
    "null": NullProbe,
    "traced": lambda: MultiProbe(
        [TraceProbe(), WindowedCounterProbe(window_cycles=200)]
    ),
    "forensics": _forensics_probe,
    "flight": _flight_probe,
    "statehash": _statehash_probe,
    "checkpoint": _checkpoint_probe,
}
