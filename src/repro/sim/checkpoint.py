"""Digest-verified engine checkpoint/restore and the supervision glue.

A checkpoint is one file holding the *complete* simulation state — the
same closure :mod:`repro.obs.statehash` fingerprints: fabric lanes,
buffers, credits and routes, arbiter and routing state, injection
queues and source stream positions, transport/AIMD state and every RNG
stream.  Rather than re-enumerating that state field by field (and
silently rotting the first time the engine grows a new attribute), the
whole engine object graph is pickled — probes and the installed
instrument specs included, so a restored run is finished by what it
was started with (:func:`repro.sim.run.finish`); the recorded
``Engine.state_fingerprint()`` root then *proves* the restore is exact,
because the fingerprint enumerates the state independently of pickle.

File format: one ASCII JSON header line (format version, config digest,
seed, cycle, fingerprint root, payload digest and byte count), padded
with spaces, followed by the pickle payload.  The pickler streams into
the temp file through a writer that hashes and counts what passes, so
no second copy of the payload is ever held; the header line is written
first at its final width and rewritten in place once digest and count
are known.  Lanes and packets pickle as plain lists of their slot
values (``__getstate__`` in :mod:`repro.router.lane` and
:mod:`repro.sim.packet`).  Files are written atomically (temp file,
fsync, ``os.replace``) so a crash mid-write leaves either the old
checkpoint or none.  On load, three gates run in order — payload
digest, config digest (staleness), restored fingerprint root — and a
failed gate raises :class:`~repro.errors.CheckpointError` with a
``kind`` tag that becomes a structured *discard finding* in the
directory's manifest.

Portability: the payload is plain pickle (protocol 5 on every CPython
since 3.8) and the fingerprint's RNG leaf folds Mersenne state with
CPython's tuple hash, which is unsalted and unchanged across CPython
3.10–3.13 — a checkpoint written by 3.10 passes
all three gates on 3.12 and 3.13 and resumes to the document of an
uninterrupted run (CI kills a run under 3.10 and resumes it under 3.12).
Only a non-CPython interpreter, whose tuple hash may differ, would fail
the third gate on a file it did not write.

Why the pickle stays (ROADMAP item 4, sized and closed): a checkpoint
written from the rows the fingerprint enumerates would need a
``state()``/``from_state()`` pair on every probe class, where a handful
of ``__getstate__`` hooks and one ``pickle.dump`` do the job today — and
a fingerprint that shared its enumeration with the writer could no
longer vouch for the restore.

:class:`CheckpointProbe` takes periodic checkpoints from *engine cycle
hooks*, not from ``on_cycle``: a hook fires at the start of a cycle,
when the state is a consistent post-step boundary and every composed
probe (flight, forensics, statehash) has fully observed the previous
cycle — so probe order inside a :class:`~repro.obs.probe.MultiProbe`
can never leave a sibling half-observed inside the snapshot.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import pickle
import signal
import sys
import threading
import weakref

try:  # pragma: no cover - exercised only on non-POSIX hosts
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from ..errors import CheckpointError, ConfigurationError
from ..obs.probe import Probe, compose_probe
from ..obs.telemetry import config_digest

#: bump on breaking changes to the header schema or pickle envelope, and
#: whenever the attributes the phases of ``Engine.step`` read off a restored
#: engine change: an older payload would unpickle fine and fail mid-run
CHECKPOINT_FORMAT_VERSION = 5
CHECKPOINT_MAGIC = "repro-checkpoint"
CHECKPOINT_SUFFIX = ".rckpt"
MANIFEST_NAME = "manifest.json"

_LOCK_NAME = ".lock"
_MAX_HEADER_BYTES = 65536

#: room left in the header line for the payload byte count's digits
_COUNT_DIGITS = 20

#: pickle walks the engine graph depth-first, and the lanes of a congested
#: network chain into each other (output lane -> sink -> bound output lane
#: -> ...): measured, each chained object costs 3 interpreter frames and a
#: saturated 16-ary 2-cube under Duato routing needs ~4200 of them, far
#: past CPython's default limit of 1000.
#: The dump therefore runs under a limit sized, with a margin, for a chain
#: through every lane, capped where the C stack (8 MiB) is known to hold; a
#: graph deeper than the cap still fails as a CheckpointError, not a crash.
_FRAMES_PER_LANE = 4
_MAX_DUMP_RECURSION = 40_000


# -- cross-process file locking ------------------------------------------------


@contextlib.contextmanager
def file_lock(path):
    """Exclusive advisory lock on ``path`` (``fcntl.flock``).

    Shared by checkpoint manifests and the
    :class:`~repro.experiments.runcache.RunCache` so concurrent workers
    on one directory serialize their read-modify-write windows.  On
    platforms without ``fcntl`` the lock degrades to a no-op (the
    atomic-rename writes still prevent torn files, only manifest merges
    can race).
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "a+b")
    try:
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield fh
    finally:
        if fcntl is not None:
            with contextlib.suppress(OSError):
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        fh.close()


# -- pickle envelope -----------------------------------------------------------
#
# Plain pickle suffices: the one identity-sensitive object in the graph,
# the engine's fault sentinel, reduces itself back to the module
# singleton (see repro.sim.packet._FaultSentinel) — a per-type C-level
# dispatch, unlike a pickler-wide persistent_id hook, which costs one
# Python call per pickled object (~15x slower on a whole-engine dump).


def _fail(kind: str, message: str):
    exc = CheckpointError(message)
    exc.kind = kind
    raise exc


# -- one checkpoint file -------------------------------------------------------


class _HashingWriter:
    """The pickler's file: passes bytes through, keeping their blake2b
    digest and count."""

    def __init__(self, fh):
        self._fh = fh
        self.digest = hashlib.blake2b(digest_size=16)
        self.bytes = 0

    def write(self, data) -> int:
        self.digest.update(data)
        self.bytes += len(data)
        return self._fh.write(data)


def _header_line(header: dict, width: int = 0) -> bytes:
    return json.dumps(header, sort_keys=True).encode("ascii").ljust(width) + b"\n"


def save_checkpoint(engine, path) -> dict:
    """Write ``engine``'s complete state to ``path`` atomically.

    Returns the header dict.  Raises :class:`CheckpointError` when the
    engine graph holds an unpicklable live resource (e.g. a flight
    recorder streaming events to an open file).
    """
    header = {
        "magic": CHECKPOINT_MAGIC,
        "format": CHECKPOINT_FORMAT_VERSION,
        "config": config_digest(engine.config),
        "seed": engine.config.seed,
        "cycle": engine.cycle,
        "total_cycles": engine.config.total_cycles,
        "root": engine.state_fingerprint()["root"],
        "payload_digest": "0" * 32,
        "payload_bytes": 0,
    }
    width = len(_header_line(header)) + _COUNT_DIGITS
    lanes = 2 * sum(len(d.lanes) for d in engine.dirs)
    limit = sys.getrecursionlimit()
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_header_line(header, width))
            payload = _HashingWriter(fh)
            sys.setrecursionlimit(
                max(limit, min(limit + _FRAMES_PER_LANE * lanes, _MAX_DUMP_RECURSION))
            )
            try:
                pickle.Pickler(payload, protocol=pickle.HIGHEST_PROTOCOL).dump(engine)
            except CheckpointError:
                raise
            except Exception as exc:
                raise CheckpointError(
                    f"engine state is not serializable: {exc}"
                ) from exc
            finally:
                sys.setrecursionlimit(limit)
            header["payload_digest"] = payload.digest.hexdigest()
            header["payload_bytes"] = payload.bytes
            fh.seek(0)
            fh.write(_header_line(header, width))
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    os.replace(tmp, path)
    return header


def read_checkpoint_header(path) -> dict:
    """Parse and sanity-check the header line only (cheap; no unpickle)."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_MAX_HEADER_BYTES)
    except OSError as exc:
        _fail("unreadable", f"{path}: {exc}")
    try:
        header = json.loads(line.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        _fail("corrupt", f"{path}: unparseable checkpoint header")
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        _fail("corrupt", f"{path}: not a repro checkpoint")
    if header.get("format") != CHECKPOINT_FORMAT_VERSION:
        _fail(
            "stale",
            f"{path}: checkpoint format {header.get('format')!r}, "
            f"this build reads {CHECKPOINT_FORMAT_VERSION}",
        )
    return header


def load_checkpoint(path, config=None):
    """Restore an engine from ``path``; returns ``(engine, header)``.

    Three verification gates, in cost order: the payload digest (bit
    rot, truncation), the config digest when ``config`` is given
    (staleness — a checkpoint from some other recipe), and finally the
    restored engine's recomputed fingerprint root against the recorded
    one (the restore-is-exact proof).  Any failed gate raises
    :class:`CheckpointError` with ``.kind`` set.
    """
    header = read_checkpoint_header(path)
    if config is not None and config_digest(config) != header.get("config"):
        _fail(
            "stale",
            f"{path}: checkpoint config {header.get('config')} does not "
            f"match requested config {config_digest(config)}",
        )
    with open(path, "rb") as fh:
        fh.readline(_MAX_HEADER_BYTES)
        payload = fh.read()
    if len(payload) != header.get("payload_bytes"):
        _fail(
            "corrupt",
            f"{path}: payload is {len(payload)} bytes, header recorded "
            f"{header.get('payload_bytes')}",
        )
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    if digest != header.get("payload_digest"):
        _fail("corrupt", f"{path}: payload digest mismatch")
    try:
        engine = pickle.loads(payload)
    except CheckpointError:
        raise
    except Exception as exc:
        _fail("corrupt", f"{path}: payload does not unpickle: {exc}")
    if engine.cycle != header.get("cycle"):
        _fail(
            "corrupt",
            f"{path}: restored engine at cycle {engine.cycle}, header "
            f"recorded {header.get('cycle')}",
        )
    root = engine.state_fingerprint()["root"]
    if root != header.get("root"):
        _fail(
            "fingerprint-mismatch",
            f"{path}: restored fingerprint {root} != recorded "
            f"{header.get('root')}",
        )
    return engine, header


# -- directory scanning --------------------------------------------------------


def checkpoint_files(directory) -> list:
    """Checkpoint paths in ``directory``, newest cycle first (the
    zero-padded filenames make lexicographic order cycle order)."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"ckpt-*{CHECKPOINT_SUFFIX}"), reverse=True)


def has_resumable(directory, config=None) -> bool:
    """Cheap header-only scan: does any checkpoint match ``config``?"""
    digest = None if config is None else config_digest(config)
    for path in checkpoint_files(directory):
        try:
            header = read_checkpoint_header(path)
        except CheckpointError:
            continue
        if digest is None or header.get("config") == digest:
            return True
    return False


def newest_valid_checkpoint(directory, config=None):
    """Load the newest checkpoint in ``directory`` that survives all
    verification gates, or ``None``.

    Corrupt/stale/unverifiable files are skipped and recorded as
    structured discard findings in the directory manifest — a resume
    must never trust a checkpoint it cannot prove.
    """
    findings = []
    loaded = None
    for path in checkpoint_files(directory):
        try:
            loaded = load_checkpoint(path, config=config)
            break
        except CheckpointError as exc:
            findings.append(
                {
                    "file": pathlib.Path(path).name,
                    "kind": getattr(exc, "kind", "corrupt"),
                    "error": str(exc),
                }
            )
    if findings:
        record_discards(directory, findings)
    return loaded


# -- the per-directory manifest ------------------------------------------------


def manifest_path(directory) -> pathlib.Path:
    return pathlib.Path(directory) / MANIFEST_NAME


def _empty_manifest() -> dict:
    return {
        "format": CHECKPOINT_FORMAT_VERSION,
        "config": None,
        "seed": None,
        "checkpoints": [],
        "discarded": [],
        "completed": False,
    }


def read_manifest(directory) -> dict:
    """The directory's manifest, or an empty one when absent/unreadable."""
    try:
        with open(manifest_path(directory), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return _empty_manifest()
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT_VERSION:
        return _empty_manifest()
    return doc


def _atomic_json(path, doc) -> None:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _update_manifest(directory, mutate) -> dict:
    """Flocked read-modify-write of the manifest (concurrent workers on
    a shared campaign directory must not interleave partial merges)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with file_lock(directory / _LOCK_NAME):
        doc = read_manifest(directory)
        mutate(doc)
        _atomic_json(manifest_path(directory), doc)
    return doc


def record_discards(directory, findings) -> None:
    """Append discard findings for rejected checkpoint files."""

    def mutate(doc):
        doc["discarded"].extend(findings)

    _update_manifest(directory, mutate)


def clear_checkpoints(directory, completed: bool = True) -> None:
    """Remove a point's checkpoint files once its result is safe.

    Called by campaign supervision after a point's result document
    lands in the per-point cache — the checkpoints have nothing left to
    protect, and leaving them would make a later ``--resume`` replay
    the tail of an already-finished run.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return
    for path in directory.glob(f"ckpt-*{CHECKPOINT_SUFFIX}"):
        with contextlib.suppress(OSError):
            path.unlink()

    def mutate(doc):
        doc["checkpoints"] = []
        doc["completed"] = bool(completed)

    _update_manifest(directory, mutate)


# -- configuration -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CheckpointConfig:
    """Knobs for one run's periodic checkpointing."""

    #: cycles between periodic checkpoints
    interval_cycles: int = 1000
    #: newest checkpoints retained on disk per directory
    keep: int = 2

    def __post_init__(self):
        if self.interval_cycles <= 0:
            raise ConfigurationError(
                f"interval_cycles must be positive, got {self.interval_cycles}"
            )
        if self.keep < 1:
            raise ConfigurationError(f"keep must be at least 1, got {self.keep}")


@dataclasses.dataclass(frozen=True)
class CheckpointPolicy:
    """A picklable checkpoint request threaded through entry points.

    ``simulate(config, checkpoint=CheckpointPolicy("ckpts/"))`` first
    tries to resume from the newest valid checkpoint in ``directory``
    (unless ``resume`` is off), then runs with a
    :class:`CheckpointProbe` composed onto whatever probe and
    instruments the caller supplied.  Picklable so campaign pools ship
    it to worker processes.
    """

    directory: str
    interval_cycles: int = 1000
    keep: int = 2
    resume: bool = True

    @property
    def config(self) -> CheckpointConfig:
        return CheckpointConfig(
            interval_cycles=self.interval_cycles, keep=self.keep
        )


# -- the probe -----------------------------------------------------------------

#: live probes reachable by the SIGUSR1 escalation handler
_LIVE = weakref.WeakSet()


class CheckpointProbe(Probe):
    """Periodic + on-demand checkpoints, composable with any probe tier.

    Periodic checkpoints ride engine cycle hooks (see module docstring
    for why that beats ``on_cycle``).  :meth:`request` — typically from
    the supervisor's SIGUSR1 soft-timeout escalation — schedules an
    extra checkpoint plus a diagnostic snapshot at the next cycle
    boundary, where the state is consistent again.
    """

    def __init__(self, directory, config=None):
        self.directory = str(directory)
        self.config = config or CheckpointConfig()
        self.engine = None
        self.taken = 0
        self.escalations = 0
        self._requested = False
        self._last_cycle = -1

    def bind(self, engine) -> None:
        self.engine = engine

    def on_run_start(self, engine) -> None:
        self.engine = engine
        _LIVE.add(self)
        nxt = engine.cycle + self.config.interval_cycles
        if nxt < engine.config.total_cycles:
            engine.add_cycle_hook(nxt, self._periodic)

    def resumed(self, engine, directory=None) -> None:
        """Re-register after a restore.

        ``on_run_start`` must *not* re-fire on resume (sibling probes
        would reset their accumulated state), so this re-links the
        restored probe to the live registry — the armed cycle hooks
        travelled inside the pickle and need no re-arming.
        """
        self.engine = engine
        if directory is not None:
            self.directory = str(directory)
        _LIVE.add(self)

    def request(self) -> None:
        """Ask for a checkpoint + diagnostic snapshot at the next cycle
        boundary (async-signal safe: just sets a flag)."""
        self._requested = True

    def on_cycle(self, cycle: int) -> None:
        if self._requested and self.engine is not None:
            self._requested = False
            nxt = cycle + 1
            if nxt < self.engine.config.total_cycles:
                self.engine.add_cycle_hook(nxt, self._escalate)

    # -- hook bodies (engine state is at a consistent cycle boundary) --------

    def _periodic(self, engine) -> None:
        # re-arm BEFORE writing, so the snapshot carries the next
        # periodic hook and a restored run keeps checkpointing itself
        nxt = engine.cycle + self.config.interval_cycles
        if nxt < engine.config.total_cycles:
            engine.add_cycle_hook(nxt, self._periodic)
        self._write(engine)

    def _escalate(self, engine) -> None:
        from .diagnostics import capture_snapshot

        self.escalations += 1
        self._write(engine)
        doc = {
            "cycle": engine.cycle,
            "reason": "soft-timeout escalation",
            "in_flight": engine.in_flight_packets(),
            "snapshot": capture_snapshot(engine).describe(),
        }
        _atomic_json(
            pathlib.Path(self.directory) / f"escalation-c{engine.cycle:012d}.json",
            doc,
        )

    def _write(self, engine) -> None:
        if engine.cycle == self._last_cycle:
            return
        directory = pathlib.Path(self.directory)
        name = f"ckpt-{engine.cycle:012d}{CHECKPOINT_SUFFIX}"
        header = save_checkpoint(engine, directory / name)
        self._last_cycle = engine.cycle
        self.taken += 1
        files = sorted(directory.glob(f"ckpt-*{CHECKPOINT_SUFFIX}"))
        stale = files[: -self.config.keep] if len(files) > self.config.keep else []
        pruned = {p.name for p in stale}
        for path in stale:
            with contextlib.suppress(OSError):
                path.unlink()

        def mutate(doc):
            doc["config"] = header["config"]
            doc["seed"] = header["seed"]
            doc["completed"] = False
            entries = [
                e
                for e in doc["checkpoints"]
                if e.get("file") not in pruned and e.get("cycle") != header["cycle"]
            ]
            entries.append(
                {
                    "file": name,
                    "cycle": header["cycle"],
                    "root": header["root"],
                    "payload_bytes": header["payload_bytes"],
                }
            )
            doc["checkpoints"] = sorted(entries, key=lambda e: e["cycle"])

        _update_manifest(directory, mutate)


def attach_checkpoints(engine, policy):
    """Compose a :class:`CheckpointProbe` onto ``engine`` per ``policy``."""
    probe = CheckpointProbe(policy.directory, policy.config)
    compose_probe(engine, probe)
    return probe


# -- resume --------------------------------------------------------------------


def resume_point(policy, config):
    """The interrupted run of ``config``, restored from its newest valid
    checkpoint and ready for ``resume_run()``.

    Returns the engine, or ``None`` when no trustworthy checkpoint for
    ``config`` exists (the caller then runs from scratch).  The resumed
    run's document is byte-identical to an uninterrupted run's,
    wall-clock telemetry aside — the statehash chain, when active,
    proves it; the instruments the run was started with came back in
    ``engine.instruments`` and finish it (:func:`repro.sim.run.finish`).
    """
    if policy is None or not policy.resume:
        return None
    loaded = newest_valid_checkpoint(policy.directory, config=config)
    if loaded is None:
        return None
    engine, _header = loaded
    probe = engine.find_probe(CheckpointProbe)
    if probe is not None:
        probe.resumed(engine, directory=policy.directory)
    return engine


# -- supervision signal plumbing -----------------------------------------------


def request_all_checkpoints() -> None:
    """Flag every live :class:`CheckpointProbe` (signal-handler body)."""
    for probe in list(_LIVE):
        probe.request()


def install_escalation_handler() -> bool:
    """Route SIGUSR1 to :func:`request_all_checkpoints` in this process.

    Installed by supervised sweep workers so the parent's soft-timeout
    escalation lands as a checkpoint + diagnostic snapshot rather than
    nothing.  Returns False (and installs nothing) on platforms without
    SIGUSR1 or off the main thread.
    """
    if not hasattr(signal, "SIGUSR1"):
        return False
    if threading.current_thread() is not threading.main_thread():
        return False
    signal.signal(signal.SIGUSR1, lambda signum, frame: request_all_checkpoints())
    return True
