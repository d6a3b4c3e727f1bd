"""Persistent, content-addressed result store.

Records are JSON files keyed by the job's canonical content hash and laid
out git-style (``<root>/<hh>/<hash>.json`` with a two-character fan-out
directory), so re-running a suite only analyzes programs whose source or
options changed.  Every record carries the full :class:`JobResult` payload
including the serialised derivation certificate, plus provenance metadata
(schema version, creation time, the job name it was first computed under)
and a SHA-256 ``checksum`` over the record body, so silent on-disk
corruption (bit rot, a torn write that still parses) is detected rather
than served.

Writes are atomic (temp file + ``os.replace``) so a crashed or concurrent
writer can never leave a half-written record; concurrent writers of the
*same* hash write identical content, so the race is benign.

**Many processes, one root.**  The store is built to be pointed at by any
number of gateway/worker processes simultaneously (the gateway's whole
deployment story).  The discipline, in full:

* readers never lock: atomic replace means a ``get`` either sees the old
  complete record, the new complete record, or no record -- never a torn
  one.  A read that *does* fail to parse is retried once after a short
  pause before being declared corrupt (it may have raced a quarantine
  move or a non-atomic network filesystem), so transient races do not
  destroy healthy records;
* writers never lock either: last atomic replace wins, and because
  records are content-addressed both writers wrote the same bytes;
* **maintenance locks**: operations that walk and delete many files
  (``prune``, ``clear``) serialise on an advisory ``flock`` over
  ``<root>/.maintenance-lock``, so two concurrent pruners cannot
  double-delete or double-account.  Quarantine moves take the same lock
  *non-blockingly*: losing the race just means the other process already
  moved (or replaced) the record, which is counted but harmless.


Bad records are triaged in two tiers:

* **replaceable** -- a well-formed record with a different schema version:
  a legitimate leftover from an older code version.  Counted ``invalid``,
  treated as a miss, overwritten by the next put;
* **corrupt** -- unparseable JSON, a failed checksum, a record filed under
  the wrong hash, or a record missing required fields.  These are moved to
  ``<root>/quarantine/`` (keeping the evidence for post-mortems, and
  keeping the hot path from re-parsing the same broken file on every
  lookup), counted ``quarantined``, and reported as a miss.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover -- non-POSIX fallback
    fcntl = None

from repro.service import faults
from repro.service.jobs import SCHEMA_VERSION, JobResult

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory (never a valid two-character fan-out) corrupt records are
#: moved to instead of being re-parsed on every lookup.
QUARANTINE_DIR = "quarantine"

#: Advisory lock file serialising maintenance passes (prune/clear) and
#: quarantine moves across processes sharing one store root.
MAINTENANCE_LOCK = ".maintenance-lock"

#: How long a reader waits before retrying one failed parse.  Long enough
#: for a racing ``os.replace`` to land, short enough to be invisible on the
#: (rare) genuinely-corrupt path.
READ_RETRY_DELAY = 0.02


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def record_checksum(record: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON image of ``record`` (sans checksum)."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class StoreStats:
    """Hit/miss/write counters of one :class:`ResultStore` instance."""

    __slots__ = ("hits", "misses", "writes", "invalid", "quarantined")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalid = 0        # unreadable/mismatched records seen
        self.quarantined = 0    # corrupt records moved to quarantine/

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes, "invalid": self.invalid,
                "quarantined": self.quarantined,
                "hit_rate": round(self.hit_rate(), 4)}

    def __repr__(self) -> str:
        return (f"StoreStats(hits={self.hits}, misses={self.misses}, "
                f"writes={self.writes}, invalid={self.invalid}, "
                f"quarantined={self.quarantined})")


@dataclass
class PruneReport:
    """What one :meth:`ResultStore.prune` pass did."""

    removed: int = 0
    bytes_freed: int = 0
    kept: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {"removed": self.removed, "bytes_freed": self.bytes_freed,
                "kept": self.kept}


class ResultStore:
    """On-disk cache of :class:`JobResult` records keyed by job hash."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_cache_dir()
        self.stats = StoreStats()

    # -- paths -------------------------------------------------------------

    def _path(self, job_hash: str) -> str:
        return os.path.join(self.root, job_hash[:2], f"{job_hash}.json")

    @property
    def quarantine_root(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR)

    # -- queries -----------------------------------------------------------

    def get(self, job_hash: str) -> Optional[JobResult]:
        """The cached result for ``job_hash``, or None (counts hit/miss)."""
        path = self._path(job_hash)
        faults.fire("store.get", job_hash, path=path)
        try:
            record = self._read_record(path)
        except OSError:
            self.stats.misses += 1
            return None
        except ValueError:
            return self._reject(path, job_hash, corrupt=True)
        if record.get("schema") != SCHEMA_VERSION:
            # A well-formed record from another code version: replaceable,
            # not corrupt.  The next put overwrites it in place.
            return self._reject(path, job_hash, corrupt=False)
        if record.get("checksum") != record_checksum(record) \
                or record.get("job_hash") != job_hash:
            return self._reject(path, job_hash, corrupt=True)
        try:
            result = JobResult.from_record(record)
        except (KeyError, TypeError):
            return self._reject(path, job_hash, corrupt=True)
        self.stats.hits += 1
        return result

    def _read_record(self, path: str) -> Dict[str, object]:
        """Parse one record file, retrying a single transient parse failure.

        With atomic writes a reader can never see a torn record on a POSIX
        filesystem -- but a parse failure *can* be the shadow of a racing
        quarantine move or of weaker rename semantics (network mounts).
        One short-delay retry distinguishes a transient race (second read
        succeeds, or the file is gone -- ``OSError`` -- and the caller
        counts a plain miss) from genuine corruption (second read fails
        identically and the record is quarantined).
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except ValueError:
            time.sleep(READ_RETRY_DELAY)
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)

    def _reject(self, path: str, job_hash: str, corrupt: bool) -> None:
        """Account one bad record (quarantining it when it is corrupt)."""
        self.stats.invalid += 1
        self.stats.misses += 1
        if corrupt and self._quarantine(path, job_hash):
            self.stats.quarantined += 1
        return None

    def _quarantine(self, path: str, job_hash: str) -> bool:
        """Move a corrupt record out of the hot path (True on success).

        Takes the maintenance lock non-blockingly: when another process is
        quarantining (or pruning) concurrently, losing the race is fine --
        the record is gone from the hot path either way.  ``os.replace``
        overwrites an earlier quarantined incarnation atomically (keeping
        the newest evidence), and a late mover whose source is already gone
        fails without touching the winner's file.
        """
        try:
            with self._maintenance_lock(blocking=False) as held:
                if not held:
                    return False
                os.makedirs(self.quarantine_root, exist_ok=True)
                target = os.path.join(self.quarantine_root,
                                      f"{job_hash}.json")
                os.replace(path, target)
                return True
        except OSError:
            return False

    @contextlib.contextmanager
    def _maintenance_lock(self, blocking: bool = True):
        """Advisory cross-process lock for multi-file store maintenance.

        Yields True while the lock is held.  With ``blocking=False`` it
        yields False instead of waiting when another process holds it.  On
        platforms without ``fcntl`` (or an unwritable root) it degrades to
        an unlocked pass-through -- single-process behaviour is unchanged.
        """
        if fcntl is None:
            yield True
            return
        lock_path = os.path.join(self.root, MAINTENANCE_LOCK)
        try:
            os.makedirs(self.root, exist_ok=True)
            handle = open(lock_path, "a+")
        except OSError:
            yield True
            return
        try:
            flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
            try:
                fcntl.flock(handle, flags)
            except OSError:
                yield False
                return
            try:
                yield True
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        finally:
            handle.close()

    def put(self, result: JobResult) -> None:
        """Persist a result (atomic write; only cacheable statuses are kept)."""
        if not result.cacheable:
            return
        record = result.to_record()
        record["stored_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        record["checksum"] = record_checksum(record)
        path = self._path(result.job_hash)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        faults.fire("store.put", result.job_hash, path=path)
        descriptor, temp_path = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self.stats.writes += 1

    def __contains__(self, job_hash: str) -> bool:
        return os.path.exists(self._path(job_hash))

    # -- maintenance -------------------------------------------------------

    def iter_hashes(self) -> Iterator[str]:
        """All record hashes currently on disk (quarantine excluded)."""
        if not os.path.isdir(self.root):
            return
        for fan in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, fan)
            # Records live only under two-character fan-out directories;
            # quarantine/ (and anything else) is not part of the cache.
            if len(fan) != 2 or not os.path.isdir(subdir):
                continue
            for entry in sorted(os.listdir(subdir)):
                if entry.endswith(".json") and not entry.startswith("."):
                    yield entry[:-len(".json")]

    def quarantine_count(self) -> int:
        """How many corrupt records are parked in ``quarantine/`` on disk."""
        try:
            return sum(1 for entry in os.listdir(self.quarantine_root)
                       if entry.endswith(".json"))
        except OSError:
            return 0

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_hashes())

    def disk_stats(self) -> Dict[str, object]:
        """What is on disk right now: entry/byte counts plus session counters.

        Unlike :attr:`stats` (per-instance hit/miss counters), this walks
        the shared root, so it reflects every process writing to it.
        """
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for job_hash, path, size, mtime in self._walk_records():
            entries += 1
            total_bytes += size
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        quarantine_bytes = 0
        try:
            for entry in os.listdir(self.quarantine_root):
                if entry.endswith(".json"):
                    with contextlib.suppress(OSError):
                        quarantine_bytes += os.path.getsize(
                            os.path.join(self.quarantine_root, entry))
        except OSError:
            pass
        now = time.time()
        return {
            "root": self.root,
            "entries": entries,
            "total_bytes": total_bytes,
            "quarantine_records": self.quarantine_count(),
            "quarantine_bytes": quarantine_bytes,
            "oldest_age_seconds": (round(now - oldest, 1)
                                   if oldest is not None else None),
            "newest_age_seconds": (round(now - newest, 1)
                                   if newest is not None else None),
            "session": self.stats.as_dict(),
        }

    def _walk_records(self) -> Iterator[Tuple[str, str, int, float]]:
        """Every record on disk as ``(hash, path, size_bytes, mtime)``."""
        for job_hash in self.iter_hashes():
            path = self._path(job_hash)
            try:
                status = os.stat(path)
            except OSError:
                continue   # deleted under us by a concurrent process
            yield job_hash, path, status.st_size, status.st_mtime

    def prune(self, max_age_seconds: Optional[float] = None,
              max_total_bytes: Optional[int] = None) -> "PruneReport":
        """Evict records by age and/or shrink the store under a size cap.

        Age first (anything older than ``max_age_seconds`` goes), then --
        if the survivors still exceed ``max_total_bytes`` -- oldest-first
        until under the cap (LRU by file mtime: reads do not touch mtime,
        so this is write-recency, the right order for a content-addressed
        cache where rewrites refresh the record).  Holds the cross-process
        maintenance lock for the whole pass.
        """
        report = PruneReport()
        if max_age_seconds is None and max_total_bytes is None:
            report.kept = len(self)
            return report
        with self._maintenance_lock():
            records = sorted(self._walk_records(), key=lambda rec: rec[3])
            now = time.time()
            survivors: List[Tuple[str, str, int, float]] = []
            for record in records:
                job_hash, path, size, mtime = record
                if max_age_seconds is not None \
                        and now - mtime > max_age_seconds:
                    self._prune_one(path, size, report)
                else:
                    survivors.append(record)
            if max_total_bytes is not None:
                remaining = sum(size for _, _, size, _ in survivors)
                for job_hash, path, size, mtime in survivors:
                    if remaining <= max_total_bytes:
                        report.kept += 1
                        continue
                    if self._prune_one(path, size, report):
                        remaining -= size
                    else:
                        report.kept += 1
            else:
                report.kept = len(survivors)
        return report

    def _prune_one(self, path: str, size: int, report: "PruneReport") -> bool:
        try:
            os.unlink(path)
        except OSError:
            return False   # already gone: a concurrent pruner beat us to it
        report.removed += 1
        report.bytes_freed += size
        return True

    def clear(self) -> int:
        """Delete every record; return how many were removed."""
        removed = 0
        with self._maintenance_lock():
            for job_hash in list(self.iter_hashes()):
                try:
                    os.unlink(self._path(job_hash))
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r}, {self.stats!r})"
