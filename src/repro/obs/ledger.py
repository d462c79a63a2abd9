"""Append-only JSONL metrics ledger: the durable store of run results.

PR 2 made every run emit a versioned document with telemetry; this module
gives those documents somewhere to live *across* campaigns.  A
:class:`Ledger` is one JSONL file — one self-describing record per line —
that every ``repro-net run/sweep/trace/faults --ledger`` invocation
appends to.  Appending is the only mutation, so concurrent campaigns can
share a ledger (each ``append`` is a single atomic ``write`` of one
line, flushed and fsynced before the call returns), a crashed run loses
at most its in-flight line, and the file diffs/merges cleanly under
version control.

Records wrap the run document of :mod:`repro.metrics.io` with query
metadata (config digest, seed, network/pattern/algorithm echo, a
wall-clock timestamp and a free-form ``kind`` tag), so common questions —
"every cube point of this campaign", "all runs of recipe ``ab12..``",
"what did we measure last week" — are answered by :meth:`Ledger.query`
without parsing the nested documents.  Re-appending a recipe that is
already on file (same config digest *and* seed) is a no-op by default:
sweeps replay cached points freely and the ledger stays deduplicated.

Example::

    from repro.obs.ledger import Ledger
    ledger = Ledger("runs.jsonl")
    ledger.append_run(simulate(config))
    for result in ledger.runs(network="tree", pattern="uniform"):
        print(result.summary())
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections.abc import Iterator

from ..errors import AnalysisError
from ..sim.results import RunResult
from .telemetry import config_digest

#: bump on breaking changes to the per-line record layout
LEDGER_FORMAT_VERSION = 1


def ledger_record(result: RunResult, kind: str = "run", recorded_at: float | None = None) -> dict:
    """Build one ledger line (a plain dict) for a finished run.

    Query metadata is lifted to the top level; the full versioned run
    document (config + counters + telemetry) nests under ``"run"``.
    Reliability accounting surfaces ``given_up`` (messages the transport
    abandoned) alongside it so give-ups are greppable straight off the
    JSONL without unpacking the nested document.
    """
    # local import: metrics.io imports the obs package for RunTelemetry
    from ..metrics.io import run_result_to_dict

    config = result.config
    digest = (
        result.telemetry.config_hash if result.telemetry else config_digest(config)
    )
    return {
        "format": LEDGER_FORMAT_VERSION,
        "kind": kind,
        "recorded_at": time.time() if recorded_at is None else recorded_at,
        "config_hash": digest,
        "seed": config.seed,
        "network": config.network,
        "pattern": config.pattern,
        "algorithm": config.algorithm,
        "k": config.k,
        "n": config.n,
        "vcs": config.vcs,
        "load": config.load,
        "given_up": result.given_up_packets,
        "run": run_result_to_dict(result),
    }


class Ledger:
    """One append-only JSONL results ledger on disk.

    Args:
        path: the ledger file; created (with parents) on first append.

    The file is re-read on demand and never held open, so long-lived
    processes see records appended by others, and a ledger object is
    cheap to construct wherever one is needed.
    """

    def __init__(self, path: str | pathlib.Path):
        self.path = pathlib.Path(path)
        #: (config_hash, seed) pairs known to be on file; lazily built,
        #: then maintained incrementally by append_run
        self._seen: set[tuple[str, int]] | None = None

    # -- writing ---------------------------------------------------------------

    def append_run(self, result: RunResult, kind: str = "run", dedup: bool = True) -> bool:
        """Append one run; returns False when deduplicated away.

        Dedup key is (config digest, seed): the digest already covers the
        seed, but keeping the seed explicit makes the key robust to
        digest-algorithm changes across code versions.
        """
        record = ledger_record(result, kind=kind)
        key = (record["config_hash"], record["seed"])
        if dedup and key in self._known_keys():
            return False
        self._append_line(record)
        if self._seen is not None:
            self._seen.add(key)
        return True

    def _append_line(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True) + "\n"
        # one write call per record: atomic on POSIX for these line sizes,
        # so concurrent appenders interleave whole lines, not fragments;
        # flush + fsync before close so a completed append survives a
        # crash/power cut — the ledger is the durable record of a
        # campaign, losing the line that was just acknowledged defeats it
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def _known_keys(self) -> set[tuple[str, int]]:
        if self._seen is None:
            self._seen = {
                (rec["config_hash"], rec["seed"]) for rec in self.records()
            }
        return self._seen

    # -- reading ---------------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Yield every record on file, oldest first.

        Raises:
            AnalysisError: on an unparseable line (not UTF-8, or not
                JSON) or an incompatible record format (a ledger is data,
                not a log to skim past).
        """
        if not self.path.exists():
            return
        with self.path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line.decode("utf-8"))
                except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
                    raise AnalysisError(
                        f"{self.path}:{lineno}: unparseable ledger line: {exc}"
                    ) from exc
                if not isinstance(rec, dict):
                    raise AnalysisError(
                        f"{self.path}:{lineno}: a ledger record is a JSON object, "
                        f"not {type(rec).__name__}"
                    )
                version = rec.get("format")
                if version != LEDGER_FORMAT_VERSION:
                    raise AnalysisError(
                        f"{self.path}:{lineno}: unsupported ledger format "
                        f"{version!r} (expected {LEDGER_FORMAT_VERSION})"
                    )
                yield rec

    def query(
        self,
        config_hash: str | None = None,
        network: str | None = None,
        pattern: str | None = None,
        algorithm: str | None = None,
        kind: str | None = None,
        since: float | None = None,
        until: float | None = None,
    ) -> list[dict]:
        """Records matching every given filter (None means "any").

        ``since``/``until`` bound the ``recorded_at`` timestamp
        (inclusive / exclusive), so a campaign window can be replayed
        without touching older archives in the same file.
        """
        out = []
        for rec in self.records():
            if config_hash is not None and rec["config_hash"] != config_hash:
                continue
            if network is not None and rec["network"] != network:
                continue
            if pattern is not None and rec["pattern"] != pattern:
                continue
            if algorithm is not None and rec["algorithm"] != algorithm:
                continue
            if kind is not None and rec["kind"] != kind:
                continue
            if since is not None and rec["recorded_at"] < since:
                continue
            if until is not None and rec["recorded_at"] >= until:
                continue
            out.append(rec)
        return out

    def runs(self, **filters) -> list[RunResult]:
        """The matching records rehydrated into :class:`RunResult`\\ s.

        Accepts the same keyword filters as :meth:`query`.
        """
        from ..metrics.io import run_result_from_dict

        return [run_result_from_dict(rec["run"]) for rec in self.query(**filters)]

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ledger({str(self.path)!r})"
