"""The wiring of an engine's lanes and directions, and its compiled twin.

``Engine.__init__`` wires the fabric through ``wire_switch_links`` and
``wire_node_links`` — each a function of :mod:`repro.sim.phases` with a twin
of its name in ``_storage.c``, taken from the phase table the engine has just
chosen (``Engine.phases``), which ``step`` walks too.  A pickle carries every
field, so a restore derives nothing but that choice.

``TestReferenceWiring`` holds the Python wiring to the model and runs with
the kernel or without it; ``TestWiringTwins`` holds the twins to it: an
engine each path wires pickles to the same bytes, has the same detailed
fingerprint and the same value in every field of every lane and direction,
before a save/restore and after it.
"""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.sim.engine as engine_module
from repro.errors import SimulationError
from repro.sim import phases as reference
from repro.sim.run import build_engine, cube_config, network_of, tree_config

from .test_property_engine import (
    LOCKSTEP_DRAWS,
    LOCKSTEP_NETWORKS,
    engine_settings,
    needs_kernel,
    python_loops,
)
from .test_sweep_resilient import UnsafeRingRouting


@st.composite
def wiring_recipe(draw):
    """A config from the lockstep space, as far as wiring reads one: the
    network, k and n, the VCs (a tree leaf port injects on all V of them, a
    cube router on one) and the buffer depth."""
    network = draw(st.sampled_from(sorted(LOCKSTEP_NETWORKS)))
    space = LOCKSTEP_NETWORKS[network]
    k, n = draw(st.sampled_from(space["k, n"]))
    algorithm = UnsafeRingRouting.name if n == 1 else space["algorithm"][0]
    return (tree_config if network == "tree" else cube_config)(
        k=k, n=n, algorithm=algorithm,
        vcs=draw(st.sampled_from(space["vcs"])),
        buffer_flits=draw(LOCKSTEP_DRAWS["buffer_flits"]),
        load=0.3, seed=draw(st.integers(0, 10_000)),
    )


def rows(engine) -> dict:
    """Every field of every lane and direction, in ``FIELDS`` order; a
    reference is named by where it sits in the engine (a lane by its place
    in ``in_lanes`` / ``out_lanes`` / ``eject_lanes``, a direction by its
    place in ``dirs``), so two engines can be compared field by field."""
    names = {}
    tables = {"in": engine.in_lanes, "out": engine.out_lanes}
    for kind, table in tables.items():
        for s, ports in enumerate(table):
            for p, lanes in enumerate(ports):
                names[id(lanes)] = (kind, s, p)
                names.update((id(lane), (kind, s, p, v)) for v, lane in enumerate(lanes))
    for node, sinks in enumerate(engine.eject_lanes):
        names[id(sinks)] = ("eject", node)
        names.update((id(sink), ("eject", node, v)) for v, sink in enumerate(sinks))
    names.update((id(d), ("dir", i)) for i, d in enumerate(engine.dirs))

    def name(value):
        if id(value) in names:
            return names[id(value)]
        if isinstance(value, list):
            return [name(item) for item in value]
        assert value is None or type(value) in (bool, int), value
        return type(value).__name__, value

    def row(obj):
        return tuple((field, name(getattr(obj, field, "<unset>"))) for field, _ in obj.FIELDS)

    found = {kind: [row(lane) for ports in table for lanes in ports for lane in lanes]
             for kind, table in tables.items()}
    found["eject"] = [row(sink) for sinks in engine.eject_lanes for sink in sinks]
    found["dirs"] = [row(d) for d in engine.dirs]
    found["injection"] = [name(lanes) for lanes in engine._injection_lanes]
    return found


def restored(engine):
    """``engine`` through a save/restore on the path that is live."""
    return pickle.loads(pickle.dumps(engine))


def wired_twice(config) -> str:
    """The error of wiring ``config``'s network with its last switch link
    listed twice."""
    cls = type(network_of(config)[0])
    links = cls.switch_links
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, "switch_links", lambda self: [*links(self), links(self)[-1]])
        with pytest.raises(SimulationError) as caught:
            build_engine(config)
    return str(caught.value)


class TestReferenceWiring:
    @engine_settings
    @given(wiring_recipe())
    def test_the_lanes_are_wired_as_the_model_says(self, config):
        with python_loops():
            engine = build_engine(config)
        vcs = config.vcs
        for i, d in enumerate(engine.dirs):
            assert d.index == i and d.lanes is engine.out_lanes[d.switch][d.port]
            assert len(d.lanes) == vcs and d.to_node is (i >= len(engine._fabric_dirs))
            for v, lane in enumerate(d.lanes):
                assert (lane.vc, lane.dir, lane.packet, lane.buffered) == (v, i, None, 0)
                if d.to_node:
                    assert lane.sink is engine.eject_lanes[lane.sink.node][v]
                else:
                    assert (lane.sink.src_dir, lane.sink.vc) == (i, v)
                    assert engine._fabric_out[i * vcs + v] is lane
                    assert lane.credits == lane.sink.cap == config.buffer_flits
        assert len(engine._fabric_out) == vcs * len(engine._fabric_dirs)
        injection = 1 if config.network == "cube" else vcs
        assert {len(lanes) for lanes in engine._injection_lanes} == {injection}
        assert all(lane.src_dir == -1 for lanes in engine._injection_lanes for lane in lanes)

    @engine_settings
    @given(wiring_recipe())
    def test_a_restore_keeps_every_field(self, config):
        with python_loops():
            engine = build_engine(config)
            again = restored(engine)
        assert rows(again) == rows(engine)
        assert again.state_fingerprint(detail=True) == engine.state_fingerprint(detail=True)

    def test_a_port_wired_twice_is_refused(self):
        with python_loops():
            message = wired_twice(tree_config(k=2, n=2, vcs=2))
        assert message.startswith("port wired twice: switch ")


@needs_kernel
class TestWiringTwins:
    @engine_settings
    @given(wiring_recipe())
    def test_the_twins_wire_and_restore_the_same_engine(self, config):
        native = build_engine(config)
        with python_loops():
            python = build_engine(config)
        assert type(native.dirs[0]).__base__.__module__ == "repro.sim._phases"
        assert pickle.dumps(native) == pickle.dumps(python)
        assert native.state_fingerprint(detail=True) == python.state_fingerprint(detail=True)
        assert rows(native) == rows(python)
        native_again = restored(native)
        with python_loops():
            python_again = restored(python)
        assert python.phases is python_again.phases is reference
        assert native.phases is native_again.phases is engine_module.NATIVE_PHASES
        assert pickle.dumps(native_again) == pickle.dumps(python_again)
        assert native_again.state_fingerprint(detail=True) == python.state_fingerprint(detail=True)
        assert rows(native_again) == rows(python_again) == rows(python)

    @pytest.mark.parametrize("config", [tree_config(k=2, n=3, vcs=2), cube_config(k=4, n=2, vcs=4)],
                             ids=["tree", "cube"])
    def test_a_port_wired_twice_raises_the_same_error_on_both_paths(self, config):
        native = wired_twice(config)
        with python_loops():
            assert wired_twice(config) == native

    def test_a_twin_that_numbers_a_direction_out_of_place_is_caught(self, monkeypatch):
        # ``index`` is carried in the pickle like every other field, and the
        # audit holds it to the direction's place
        config = tree_config(k=2, n=3, vcs=4)
        kernel = engine_module.NATIVE_PHASES

        class Misnumbering:
            """The kernel, with a switch wiring that numbers one direction
            as the next."""

            def __getattr__(self, name):
                return getattr(kernel, name)

            @staticmethod
            def wire_switch_links(engine, *args):
                kernel.wire_switch_links(engine, *args)
                engine.dirs[3].index += 1

        with python_loops():
            python = build_engine(config)
        monkeypatch.setattr(engine_module, "NATIVE_PHASES", Misnumbering())
        mutant = build_engine(config)
        assert pickle.dumps(mutant) != pickle.dumps(python)
        differing = [i for i, (a, b) in enumerate(zip(rows(mutant)["dirs"], rows(python)["dirs"])) if a != b]
        assert differing == [3]
        with pytest.raises(SimulationError, match="direction index out of place: .*, at 3 in dirs"):
            mutant.audit()
