"""The loader of the compiled phases (``repro.sim.native``): what it builds,
where, and every way it declines — each of which must leave ``load_phases``
returning ``None`` (the engine then runs its Python loops), silently unless
a compiler that is present refused the source.
"""

import os
import pathlib
import sysconfig
import warnings

import pytest

from repro.router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
from repro.routing import (
    DimensionOrderRouting,
    DuatoAdaptiveRouting,
    TreeAdaptiveRouting,
    TreeDeterministicRouting,
)
from repro.sim import native
from repro.sim.engine import _Node
from repro.sim.packet import Packet

from .test_property_engine import needs_kernel

CLASSES = (
    InputLane, OutputLane, EjectionLane, LinkDirection, Packet, _Node,
    TreeAdaptiveRouting, TreeDeterministicRouting, DimensionOrderRouting, DuatoAdaptiveRouting,
)

pytestmark = needs_kernel


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty per-user cache; the session's ``build_log`` is put back."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    saved = dict(native.build_log)
    yield tmp_path / "repro-phases"
    native.build_log.clear()
    native.build_log.update(saved)


def load_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return native.load_phases(*CLASSES)


def test_cold_build_then_warm_load(cache):
    module = load_silently()
    assert {"link_phase", "injection_phase", "crossbar_phase", "routing_phase"} <= set(dir(module))
    # one step per translation unit, then the link into the cache directory
    names, commands, seconds = zip(*native.build_log["steps"])
    assert names == (*(source.name for source in native.SOURCES), "link")
    assert commands[-1][-1].startswith(str(cache))
    assert min(seconds) > 0
    (built,) = cache.iterdir()  # the scratch directory is gone
    assert str(built) == native.build_log["path"]
    assert cache.stat().st_mode & 0o777 == 0o700
    # the name carries the interpreter's ABI tag and a hash of the source
    assert built.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    stamp = built.stat().st_mtime_ns
    assert load_silently() is not None
    assert "steps" not in native.build_log  # no second build
    assert built.stat().st_mtime_ns == stamp


def test_source_builds_warning_free(cache, monkeypatch):
    # the loader discards a successful compiler's stderr, so ask here
    monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-Wall", "-Werror"))
    assert load_silently() is not None
    assert all("-Werror" in command for _, command, _ in native.build_log["steps"][:-1])


def test_source_change_builds_a_new_file(cache, tmp_path, monkeypatch):
    load_silently()
    edited = tmp_path / "_phases.c"
    edited.write_bytes(native.SOURCES[0].read_bytes() + b"\n/* edited */\n")
    monkeypatch.setattr(native, "SOURCES", (edited, *native.SOURCES[1:]))
    assert load_silently() is not None
    assert len(list(cache.iterdir())) == 2


def test_no_compiler_is_silent(cache, monkeypatch):
    real = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: "no-such-compiler -pthread" if name == "CC" else real(name)
    )
    assert load_silently() is None
    assert native.build_log == {}
    assert list(cache.iterdir()) == []


def test_refused_source_warns_once_with_the_compilers_words(cache, tmp_path, monkeypatch):
    broken = tmp_path / "_phases.c"
    broken.write_text("#include <Python.h>\nint broken(void) { return undeclared_name; }\n")
    monkeypatch.setattr(native, "SOURCES", (broken,))
    with pytest.warns(RuntimeWarning, match="undeclared_name") as caught:
        assert native.load_phases(*CLASSES) is None
    assert len(caught) == 1
    assert list(cache.iterdir()) == []  # no half-written file left behind


@pytest.fixture
def stale(cache, tmp_path, monkeypatch):
    """A second cache whose extension exists but does not import; its path.
    (Not the first one cut short: this process has that file mapped.)"""
    assert load_silently() is not None
    second = tmp_path / "second"
    monkeypatch.setenv("XDG_CACHE_HOME", str(second))
    path = second / "repro-phases" / pathlib.Path(native.build_log["path"]).name
    path.parent.mkdir(parents=True, mode=0o700)
    path.write_bytes(b"\x7fELF, cut short")
    return path


def test_a_cached_file_that_does_not_import_is_rebuilt_in_place(stale):
    module = load_silently()
    assert hasattr(module, "routing_phase")
    assert native.build_log["steps"][-1][0] == "link"
    assert native.build_log["path"] == str(stale)
    assert [path.name for path in stale.parent.iterdir()] == [stale.name]
    assert load_silently() is not None
    assert "steps" not in native.build_log  # and stays built


def test_a_rebuilt_file_that_still_does_not_import_warns_once(stale, monkeypatch):
    def refuse(target):
        raise ImportError(f"{target}: wrong ELF class")

    monkeypatch.setattr(native, "_import", refuse)
    with pytest.warns(RuntimeWarning, match="wrong ELF class") as caught:
        assert native.load_phases(*CLASSES) is None
    assert len(caught) == 1


def test_unwritable_cache_is_silent(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # a directory cannot be made under it
    assert load_silently() is None


def test_a_file_somebody_else_owns_is_not_loaded(cache, monkeypatch):
    assert load_silently() is not None
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert load_silently() is None


def test_classes_without_the_slots_are_declined(cache):
    class Loose:  # no __slots__: nothing to address by offset
        pass

    assert native.load_phases(Loose, *CLASSES[1:]) is None


def test_not_cpython_is_declined(cache, monkeypatch):
    monkeypatch.setattr(native.sys.implementation, "name", "pypy")
    assert load_silently() is None
    assert not cache.exists()
