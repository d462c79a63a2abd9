"""Builds and loads the kernel: the compiled phases (``_phases.c``,
``_routing.c``, ``_select.c``), the storage they walk (``_storage.c``) and the
reads beside them: the fingerprint's images (``_images.c``), the kill finder,
the link totals and the Mersenne streams (``_walkers.c``).

The extension is compiled on first import with the C compiler the
interpreter itself was built with, into a per-user cache directory, and
loaded from there ever after: a warm start costs a hash of the sources, a
``stat`` and a ``dlopen``.  Where it cannot be had — no CPython, no
compiler, no writable cache, a cached file somebody else owns —
:data:`KERNEL` is ``None``: the lane, packet and node classes keep their
fields in ``__slots__`` and ``Engine.step`` calls the reference phases
(:mod:`repro.sim.phases`).  Nothing selects the path but that: no option, no
environment variable.  Deleting the cache directory forces a rebuild.

Three steps, the first once per process and before any class that needs a
storage is defined: :func:`load` (build and import), :func:`storage` (the base
class a field table becomes), :func:`load_phases` (bind the phases to the
classes).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import pathlib
import random
import sys
import time
import warnings

from ..fields import copied, field_list

_HERE = pathlib.Path(__file__).parent
#: the translation units, compiled one after the other and linked into one
#: extension: the compiler is a child process of whoever imports first, and
#: its resident memory — which grows with the unit — counts against them
SOURCES = tuple(
    _HERE / unit
    for unit in ("_phases.c", "_routing.c", "_select.c", "_storage.c", "_images.c", "_walkers.c")
)
#: what the units share; part of the cache key
HEADER = _HERE / "_phases.h"

#: small units at -O1 (see :data:`SOURCES`); only the module's init function
#: is visible outside the extension
FLAGS = ("-fPIC", "-O1", "-fvisibility=hidden")
#: gcc only, for cc1's peak memory: collect garbage between functions instead
#: of never (its default below ~100 MiB of heap), and do not fold every static
#: function with one caller into a phase-sized body — 4 and 2 MiB lower
GCC_FLAGS = (
    "--param", "ggc-min-expand=10", "--param", "ggc-min-heapsize=4096",
    "-fno-inline-functions-called-once",
)

#: where the kernel reads a ``random.Random``'s Mersenne state: the struct of
#: CPython's ``_random.Random`` holds the position, an ``int``, right after the
#: object header, then the 624 ``uint32_t`` words.  ``mt_setup`` holds that
#: reading to ``getstate()``, ``setstate()`` and ``hash()`` before it binds
#: ``mt_words``, ``mt_load`` and ``mt_hash``; elsewhere they stay unbound.
MT_LAYOUT = (16, 20)

#: what a ``random.Random`` holds in its ``__dict__`` beside the C state
_STREAM_ATTRS = frozenset(("gauss_next",))


def plain_stream(rng) -> bool:
    """Whether ``rng``'s state is its Mersenne words and ``gauss_next`` alone —
    an exact ``random.Random`` with nothing set on it (no ``getstate`` or
    ``VERSION`` of its own) — so that ``mt_words`` and ``mt_hash`` read what
    ``getstate()`` would give.  Any other stream keeps ``getstate()``."""
    return type(rng) is random.Random and vars(rng).keys() == _STREAM_ATTRS


#: the kinds of field a storage has: a counter, id or cycle stamp — a 64-bit
#: integer — or a reference to any object
INT, REF = "int", "object"

#: what the last :func:`load` did, for CI and the curious: ``path``
#: of the extension, and when it had to be built the ``steps`` taken — one
#: ``(name, command, seconds)`` per translation unit, then the link
build_log: dict = {}


def cache_dir() -> pathlib.Path:
    """The per-user directory compiled phases are kept in."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return pathlib.Path(base, "repro-phases")


def _build(target: pathlib.Path) -> bool:
    """Compile ``SOURCES`` to ``target``; False (silently) without a
    compiler, False with one warning when the compiler refuses."""
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    compiler = shlex.split(sysconfig.get_config_var("CC") or "")
    if not compiler or shutil.which(compiler[0]) is None:
        return False
    flags = FLAGS + GCC_FLAGS if "gcc" in os.path.basename(compiler[0]) else FLAGS
    include = ("-I", sysconfig.get_paths()["include"], "-I", str(HEADER.parent))
    steps = []
    try:
        with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
            objects = [os.path.join(scratch, source.stem + ".o") for source in SOURCES]
            shared = os.path.join(scratch, target.name)
            commands = [
                (source.name, [*compiler, *flags, *include, "-c", str(source), "-o", obj])
                for source, obj in zip(SOURCES, objects)
            ]
            commands.append(("link", [*compiler, "-shared", *objects, "-o", shared]))
            for name, command in commands:
                started = time.perf_counter()
                done = subprocess.run(command, capture_output=True, text=True, timeout=120)
                if done.returncode != 0:
                    raise OSError(done.stderr.strip())
                steps.append((name, command, time.perf_counter() - started))
            os.replace(shared, target)  # atomic: concurrent builders agree on the bytes
    except (OSError, subprocess.SubprocessError) as err:
        warnings.warn(
            f"building {target.name} failed, the engine runs its Python phases:\n{err}",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    build_log["steps"] = steps
    return True


def _import(target: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"{__package__}._phases", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load():
    """Build (unless cached) and import the extension; ``None`` where it
    cannot be had."""
    build_log.clear()
    if sys.implementation.name != "cpython" or not hasattr(os, "getuid"):
        return None
    try:
        digest = hashlib.sha256(repr((FLAGS, GCC_FLAGS)).encode())
        for source in (HEADER, *SOURCES):
            digest.update(source.read_bytes())
        # the suffix carries the SOABI: one file per interpreter build
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        target = cache_dir() / f"_phases-{digest.hexdigest()[:16]}{suffix}"
        built = not target.exists()
        if built:
            target.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
            if not _build(target):
                return None
        uid = os.getuid()
        if target.stat().st_uid != uid or target.parent.stat().st_uid != uid:
            return None
        try:
            module = _import(target)
        except ImportError:
            # a cached file that does not load (cut short, or left behind by
            # another build of this interpreter): make it again, once
            if built or not _build(target):
                raise
            built = True
            module = _import(target)
    except ImportError as err:
        if built:
            warnings.warn(
                f"{target.name} was built but does not import, the engine runs its "
                f"Python phases:\n{err}",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    except OSError:
        return None
    build_log["path"] = str(target)
    return module


#: the extension, loaded when this module is first imported — before the
#: classes that take their storage from it are defined — or ``None``
KERNEL = load()


def storage(name: str, fields: tuple) -> type:
    """The base class that holds ``fields`` — ``(name, INT or REF)`` pairs,
    the one place a class declares them — for the class called ``name``: a C
    struct type of the kernel with one 8-byte member per field, or without
    the kernel a class with the same names in ``__slots__``, in the same
    order.  Either way the fields are attributes of the instances, the
    subclass adds ``__slots__ = ()`` and nothing else to the layout, and
    ``FIELDS`` on the class is the table.  An instance pickles as its field
    values, to the same bytes on both storages: through the struct type's own
    ``__reduce_ex__`` and ``extend``, or :func:`field_list`'s."""
    if KERNEL is not None:
        base = KERNEL.storage(name, fields)
        base.__copy__ = base.__deepcopy__ = copied
    else:
        base = field_list(type(name, (), {"__slots__": tuple(field for field, _ in fields)}))
    base.FIELDS = fields
    return base


def load_phases(*classes):
    """The compiled phases bound to ``classes`` — ``InputLane, OutputLane,
    EjectionLane, LinkDirection, Packet, _Node``, then the four routing
    algorithms whose ``select`` exists compiled — or ``None``: without a
    kernel, or for classes that are not built on its storage.  The Mersenne
    functions are bound beside them where :data:`MT_LAYOUT` holds."""
    if KERNEL is None:
        return None
    try:
        KERNEL.setup(*classes)
    except TypeError:
        return None
    KERNEL.mt_setup(random.Random, *MT_LAYOUT)
    return KERNEL
