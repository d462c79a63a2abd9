"""Traffic patterns and message generation (paper §7).

Public surface:

* :mod:`repro.traffic.address` — base-k digit and bit-string labeling of
  processing nodes, shared by patterns and topologies.
* :mod:`repro.traffic.patterns` — destination maps: the paper's uniform,
  complement, bit-reversal and transpose patterns plus common extensions
  (shuffle, butterfly, tornado, neighbor, hotspot).
* :mod:`repro.traffic.generator` — Bernoulli packet injection processes at
  a given fraction of network capacity.
* :mod:`repro.traffic.transport` — source-side reliable transport (a
  transport-wide sequence number per message, modeled ACKs, timeout
  retransmission, duplicate suppression) for exactly-once delivery under
  fail-stop faults.
"""

from .address import (
    bit_complement,
    bit_length,
    bit_reverse,
    bit_transpose,
    digits_to_node,
    node_to_digits,
)
from .generator import BernoulliInjector, PacketSource
from .transport import (
    Reliable,
    ReliableSource,
    ReliableTransport,
    TransportConfig,
    attach_reliability,
    simulate_reliable,
)
from .patterns import (
    PATTERNS,
    BitComplementPattern,
    BitReversalPattern,
    ButterflyPattern,
    HotspotPattern,
    NeighborPattern,
    PermutationPattern,
    ShufflePattern,
    TornadoPattern,
    TrafficPattern,
    TransposePattern,
    UniformPattern,
    make_pattern,
)

__all__ = [
    "bit_complement",
    "bit_length",
    "bit_reverse",
    "bit_transpose",
    "digits_to_node",
    "node_to_digits",
    "BernoulliInjector",
    "PacketSource",
    "Reliable",
    "ReliableSource",
    "ReliableTransport",
    "TransportConfig",
    "attach_reliability",
    "simulate_reliable",
    "PATTERNS",
    "BitComplementPattern",
    "BitReversalPattern",
    "ButterflyPattern",
    "HotspotPattern",
    "NeighborPattern",
    "PermutationPattern",
    "ShufflePattern",
    "TornadoPattern",
    "TrafficPattern",
    "TransposePattern",
    "UniformPattern",
    "make_pattern",
]
