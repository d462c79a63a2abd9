"""Unit tests for the high-level entry points (repro.sim.run)."""

import importlib
import pkgutil

import pytest

import repro

from repro import KAryNCube, KAryNTree  # public API re-exports
from repro.sim.run import build_engine, cube_config, simulate, tree_config

#: ``repro`` and every subpackage: each one's ``__all__`` must resolve
PACKAGES = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]


class TestBuildEngine:
    def test_tree_wiring(self):
        eng = build_engine(tree_config(k=2, n=2, vcs=1, load=0.1))
        assert isinstance(eng.topology, KAryNTree)
        assert eng.topology.num_nodes == 4
        assert eng.routing.name == "tree_adaptive"

    def test_cube_wiring(self):
        eng = build_engine(cube_config(k=4, n=2, algorithm="duato", load=0.1))
        assert isinstance(eng.topology, KAryNCube)
        assert eng.routing.name == "duato"

    def test_pattern_kwargs_forwarded(self):
        cfg = cube_config(
            k=4, n=2, pattern="hotspot",
            pattern_kwargs={"hotspots": (3,), "fraction": 0.5},
        )
        eng = build_engine(cfg)
        assert eng.injector.pattern.hotspots == (3,)


class TestSimulate:
    def test_returns_result(self):
        res = simulate(
            cube_config(k=4, n=2, load=0.2, warmup_cycles=50, total_cycles=400)
        )
        assert res.delivered_packets > 0
        assert res.config.network == "cube"


class TestPublicApi:
    def test_version(self):
        import repro

        assert repro.__version__
        assert all(part.isdigit() for part in repro.__version__.split("."))

    def test_all_exports_resolve(self):
        # a deleted definition must not leave a dangling (lazy) name behind
        for package in PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name, None) is not None, f"{package}.{name}"
            assert len(set(module.__all__)) == len(module.__all__), package
