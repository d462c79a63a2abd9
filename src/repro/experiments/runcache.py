"""Crash-safe on-disk cache of completed simulation points.

Long sweep campaigns die for boring reasons — a power cut, an OOM kill,
a Ctrl-C — and the in-process memo in :mod:`repro.experiments.sweep`
dies with them.  A :class:`RunCache` persists every completed point as
one small JSON file so a restarted campaign resumes from the last
finished point instead of resimulating hours of work.

Crash safety comes from the classic atomic write-then-rename protocol
(:func:`~repro.sim.checkpoint.atomic_write`, which checkpoints use too):
each entry is fully written to a temporary file in the cache directory
and then :func:`os.replace`-d into its final name, so a reader (or a
restart) only ever sees complete entries — a failed write removes its
temporary file, and only a crash mid-write can leave one behind, never a
truncated entry.  Rename atomicity also makes concurrent writers
(parallel sweep workers sharing one directory) safe: last writer wins
with an identical payload.

Entries are keyed by the point's identity — the values of
:meth:`~repro.sim.config.SimulationConfig.recipe`, which leaves out a model
choice at its default, plus the instrument specs: the same tuple as the
in-process memo — and verified on read, so a hash collision or a stale
file from an incompatible format version misses instead of misleading.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from ..errors import AnalysisError
from ..metrics.io import run_result_from_dict, run_result_to_dict
from ..sim.results import RunResult

#: bump on breaking entry-format changes; mismatched entries are ignored.
#: v2 wraps the shared versioned run document of :mod:`repro.metrics.io`
#: (adding telemetry); v1 entries read as misses and are resimulated.
ENTRY_FORMAT = 2


def _key_json(key: tuple) -> str:
    """Canonical JSON text of a cache key (tuples become lists)."""
    return json.dumps(key, sort_keys=False)


class RunCache:
    """Directory-backed cache of :class:`RunResult` entries.

    Args:
        directory: cache location, created on first write.
    """

    def __init__(self, directory: str | pathlib.Path):
        self.directory = pathlib.Path(directory)

    def path_for(self, key: tuple) -> pathlib.Path:
        digest = hashlib.sha256(_key_json(key).encode()).hexdigest()[:32]
        return self.directory / f"{digest}.json"

    def get(self, key: tuple) -> RunResult | None:
        """Load the entry for ``key``, or None on miss/corruption/mismatch.

        Unreadable or stale entries behave as misses: the point is simply
        resimulated and the entry rewritten — a cache must never be able
        to abort a campaign.
        """
        path = self.path_for(key)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # unreadable, not UTF-8, not JSON
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("format") != ENTRY_FORMAT
            or doc.get("key") != json.loads(_key_json(key))
        ):
            return None
        try:
            return run_result_from_dict(doc["run"])
        except (AnalysisError, KeyError, TypeError):
            return None

    def put(self, key: tuple, result: RunResult) -> pathlib.Path:
        """Persist one entry atomically (write to temp, then rename).

        The write runs under an ``fcntl.flock`` on the directory's lock
        file: rename atomicity already prevents torn entries, but the
        lock keeps concurrent workers from interleaving whole
        write+replace windows on a shared (e.g. network) filesystem
        where rename semantics are weaker.
        """
        from ..sim.checkpoint import atomic_write, file_lock

        path = self.path_for(key)
        doc = {
            "format": ENTRY_FORMAT,
            "key": json.loads(_key_json(key)),
            "run": run_result_to_dict(result),
        }
        with file_lock(self.directory / ".lock"), atomic_write(path) as fh:
            fh.write(json.dumps(doc).encode())
        return path

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.json"))
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed
