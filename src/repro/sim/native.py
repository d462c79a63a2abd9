"""Builds and loads the compiled link and crossbar phases (``_phases.c``).

The extension is compiled on first import with the C compiler the
interpreter itself was built with, into a per-user cache directory, and
loaded from there ever after: a warm start costs a hash of the source, a
``stat`` and a ``dlopen``.  Where it cannot be had — no CPython, no
compiler, no writable cache, a cached file somebody else owns —
:func:`load_phases` returns ``None`` and ``Engine.step`` runs its Python
loops.  Nothing selects the path but that: no option, no environment
variable.  Deleting the cache directory forces a rebuild.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import pathlib
import sys
import time
import warnings

SOURCE = pathlib.Path(__file__).with_name("_phases.c")

#: one small unit at -O1: the compiler is a child process of whoever imports
#: first, and its resident memory counts against that process
FLAGS = ("-shared", "-fPIC", "-O1")
#: gcc only: collect garbage between functions instead of never (its default
#: below ~100 MiB of heap) — cc1 peaks at 40 MiB, not 45, for no more time
GCC_FLAGS = ("--param", "ggc-min-expand=10", "--param", "ggc-min-heapsize=4096")

#: what the last :func:`load_phases` did, for CI and the curious: ``path``
#: of the extension, and when it had to be built the ``command`` and
#: ``seconds`` it took
build_log: dict = {}


def cache_dir() -> pathlib.Path:
    """The per-user directory compiled phases are kept in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return pathlib.Path(base, "repro-phases")


def _build(target: pathlib.Path) -> bool:
    """Compile ``SOURCE`` to ``target``; False (silently) without a
    compiler, False with one warning when the compiler refuses."""
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    compiler = shlex.split(sysconfig.get_config_var("CC") or "")
    if not compiler or shutil.which(compiler[0]) is None:
        return False
    handle, scratch = tempfile.mkstemp(dir=target.parent, suffix=".so")
    os.close(handle)
    flags = FLAGS + GCC_FLAGS if "gcc" in os.path.basename(compiler[0]) else FLAGS
    command = [*compiler, *flags, "-I", sysconfig.get_paths()["include"], str(SOURCE), "-o", scratch]
    started = time.perf_counter()
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise OSError(done.stderr.strip())
        os.replace(scratch, target)  # atomic: concurrent builders agree on the bytes
    except (OSError, subprocess.SubprocessError) as err:
        warnings.warn(
            f"building {SOURCE.name} failed, the engine runs its Python loops:\n{err}",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    build_log.update(command=command, seconds=time.perf_counter() - started)
    return True


def load_phases(*classes):
    """The compiled phases bound to the slotted ``classes`` (``InputLane,
    OutputLane, EjectionLane, LinkDirection, Packet``), or ``None``."""
    build_log.clear()
    if sys.implementation.name != "cpython" or not hasattr(os, "getuid"):
        return None
    try:
        digest = hashlib.sha256(SOURCE.read_bytes() + repr((FLAGS, GCC_FLAGS)).encode()).hexdigest()[:16]
        # the suffix carries the SOABI: one file per interpreter build
        target = cache_dir() / f"_phases-{digest}{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        if not target.exists():
            target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _build(target):
                return None
        uid = os.getuid()
        if target.stat().st_uid != uid or target.parent.stat().st_uid != uid:
            return None
        spec = importlib.util.spec_from_file_location(f"{__package__}._phases", target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.setup(*classes)
    except (OSError, ImportError, TypeError):
        return None
    build_log["path"] = str(target)
    return module
