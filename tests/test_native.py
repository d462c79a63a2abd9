"""The loader of the kernel (``repro.sim.native``): what ``load`` builds,
where, and every way it declines — each of which must leave it returning
``None`` (the classes then keep their fields in ``__slots__`` and the engine
runs its Python phases), silently unless a compiler that is present refused
the source — and what ``load_phases`` binds the phases to.
"""

import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys
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
from repro.sim.run import build_engine, cube_config

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
        return native.load()


def test_cold_build_then_warm_load(cache):
    module = load_silently()
    assert {"storage", "setup", "link_phase", "injection_phase", "crossbar_phase",
            "routing_phase"} <= set(dir(module))
    module.setup(*CLASSES)  # a second copy of the kernel addresses the same fields
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


@pytest.mark.skipif(shutil.which("objdump") is None, reason="no objdump to read the kernel with")
@pytest.mark.skipif(platform.machine() not in ("x86_64", "aarch64"), reason="prefetch mnemonics unknown")
def test_the_look_ahead_of_the_walks_is_in_the_built_kernel():
    # invisible by construction, so only a timing would miss it -- and gcc
    # drops every call of a function that does nothing but prefetch
    listing = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn", native.build_log["path"]],
        capture_output=True, text=True, check=True,
    ).stdout
    # two lines each of a direction's lanes, a binding and its output lane
    assert len(re.findall(r"\bprefetch|\bprfm\b", listing)) >= 6


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
        assert native.load() is None
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
        assert native.load() is None
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


def test_classes_not_built_on_the_storage_are_declined():
    class Loose:  # no fields at all
        pass

    # the right names in the right order, but every one an object pointer
    slotted = type("InputLane", (), {"__slots__": tuple(name for name, _ in InputLane.FIELDS)})
    assert native.load_phases(Loose, *CLASSES[1:]) is None
    assert native.load_phases(slotted, *CLASSES[1:]) is None
    assert native.load_phases(*CLASSES[:4], OutputLane, *CLASSES[5:]) is None  # no Packet.src
    # a declined setup leaves the one before it in place: the engine's
    engine = build_engine(cube_config(k=4, n=2, load=0.5, warmup_cycles=10, total_cycles=60))
    engine.run()
    engine.audit()
    assert native.load_phases(*CLASSES) is native.KERNEL


def test_the_six_classes_sit_on_the_c_storage_whichever_module_is_imported_first():
    # lane.py and packet.py need the storage types before engine.py binds the phases
    for first in ("repro.router.lane", "repro.sim.packet", "repro"):
        script = f"""if True:
            import {first}
            import repro.sim.engine as engine
            from repro.router.lane import EjectionLane, InputLane, LinkDirection, OutputLane
            from repro.sim.packet import Packet
            assert engine.NATIVE_PHASES is not None
            for cls in (InputLane, OutputLane, EjectionLane, LinkDirection, Packet, engine._Node):
                base = cls.__base__
                assert cls.__slots__ == () and base.__module__ == "repro.sim._phases", cls
                assert not hasattr(base, "__slots__") and base.FIELDS is cls.FIELDS
                assert cls.__basicsize__ == 16 + 8 * len(cls.FIELDS)
        """
        done = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def test_not_cpython_is_declined(cache, monkeypatch):
    monkeypatch.setattr(native.sys.implementation, "name", "pypy")
    assert load_silently() is None
    assert not cache.exists()
