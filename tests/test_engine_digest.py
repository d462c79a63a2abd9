"""Pinned state fingerprints: the engine hot path against its own past.

``Engine.state_fingerprint()["root"]`` covers every lane, credit,
routing queue, source cursor and RNG stream position (DESIGN.md §7), so
a rewrite of ``Engine.step`` that changes *any* simulated behaviour —
an arbitration order, the cycle a stalled header is routed in, the
cycle a source is polled in — moves these values.  They were recorded
at the commit before the single-``step`` hot-path rewrite (PR 13) and
must only ever change together with a deliberate model change.

The roots fold each RNG stream through CPython's unsalted tuple hash,
which is stable across the 64-bit CPython versions CI runs.
"""

import pytest

from repro.faults import CubeLinkFault, FaultPolicy, FaultSchedule
from repro.sim.engine import Engine
from repro.sim.run import build_engine, cube_config, tree_config
from repro.traffic.congestion import install_congestion
from repro.workloads.collectives import alltoall_trace
from repro.workloads.trace import Replay

#: cycles the fingerprint is taken at, after that many ``step()`` calls
CYCLES = (60, 120, 180)


def roots(engine) -> list[str]:
    out = []
    for cycle in CYCLES:
        while engine.cycle < cycle:
            engine.step()
        out.append(engine.state_fingerprint()["root"])
    engine.audit()
    return out


def paper_engine(name: str, load: float) -> Engine:
    window = dict(pattern="uniform", load=load, seed=13, warmup_cycles=40, total_cycles=CYCLES[-1])
    if name.startswith("tree"):
        return build_engine(tree_config(k=4, n=4, vcs=int(name[-3]), **window))
    return build_engine(cube_config(k=16, n=2, algorithm=name[5:], vcs=4, **window))


def fail_stop_engine() -> Engine:
    engine = build_engine(
        cube_config(k=8, n=2, algorithm="duato", vcs=4, load=0.8, seed=5,
                    warmup_cycles=40, total_cycles=CYCLES[-1])
    )
    schedule = FaultSchedule()
    for node, dim, fail_at, repair_at in ((9, 0, 50, 110), (27, 1, 70, None), (44, 0, 90, 150)):
        schedule.add(CubeLinkFault(node, dim), fail_at, repair_at, policy=FaultPolicy.FAIL_STOP)
    schedule.install(engine)
    return engine


def congested_engine() -> Engine:
    engine = build_engine(
        tree_config(k=4, n=3, vcs=2, pattern="transpose", load=0.9, seed=3,
                    warmup_cycles=40, total_cycles=CYCLES[-1])
    )
    install_congestion(engine)
    engine.probe.on_run_start(engine)
    return engine


def age_engine() -> Engine:
    return build_engine(
        cube_config(k=8, n=2, algorithm="dor", vcs=4, load=0.9, seed=17, arbiter="age",
                    warmup_cycles=40, total_cycles=CYCLES[-1])
    )


def trace_engine() -> Engine:
    config = tree_config(k=4, n=2, vcs=2, load=0.0, seed=1, warmup_cycles=0, total_cycles=CYCLES[-1])
    # naive order and a 9-cycle spacing: hot destinations, and a schedule
    # head that keeps moving through the run
    engine = build_engine(config)
    Replay(alltoall_trace(16, flits=6, spacing=9, schedule="naive")).install(engine)
    return engine


PAPER = ("tree-1vc", "tree-2vc", "tree-4vc", "cube-dor", "cube-duato")

CASES = {
    **{f"{name}@{load}": (lambda name=name, load=load: paper_engine(name, load))
       for name in PAPER for load in (0.3, 0.9)},
    "fail-stop": fail_stop_engine,
    "congested": congested_engine,
    "age": age_engine,
    "trace": trace_engine,
}

#: recorded at the parent of PR 13 (commit 4600ea8) by running
#: ``python tests/test_engine_digest.py``
GOLDEN: dict[str, list[str]] = {
    'age': ['764d5e236fd373bb', '15c67ec13472d780', 'b51a4e88cf473028'],
    'congested': ['764213fcf351f6a9', 'efb076e3e87fe25a', 'a81a114b0542931b'],
    'cube-dor@0.3': ['c79fd7c8387f20ed', '2998461457b2e869', 'f830145f009dd2ff'],
    'cube-dor@0.9': ['374dea6ab68c55aa', '9359446b63f5fd40', 'a89803a4716a362b'],
    'cube-duato@0.3': ['73e06f988e1da6d4', 'c52b5f8d7de4d001', '685509e33e083a46'],
    'cube-duato@0.9': ['6ce27edce3f46cb6', '1a3be597820ae788', '79fca04808cfcd1d'],
    'fail-stop': ['ed470e881cfb054b', 'a456dc1abcfaf9b0', 'f4ef56f9a231313f'],
    'trace': ['20c28cf3c5dd42ee', '9de12de47831c959', 'bcba4f9665ccdc24'],
    'tree-1vc@0.3': ['a466006148b8fe14', 'b3cf4c54f0319d0c', '47a71684647a7d1b'],
    'tree-1vc@0.9': ['69c48352bd38d2b7', '0445e245cb1981b5', 'd23624d2f2d3c38c'],
    'tree-2vc@0.3': ['0e306b31e5ef47df', '6e9648901df0565a', 'cdd9e7222fe83474'],
    'tree-2vc@0.9': ['c9e7ea4cf25559b0', 'a8242c5a41c47c27', 'e325e73363c3aa97'],
    'tree-4vc@0.3': ['9b127eea33f64760', '7b6bad76b9d951bf', 'e14dbe168bd3edbd'],
    'tree-4vc@0.9': ['3566b76417cb5cbf', '47972a8535a4055c', '135c6d7766756c2c'],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fingerprint_matches_parent_commit(case):
    assert roots(CASES[case]()) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {roots(CASES[case]())!r},")
