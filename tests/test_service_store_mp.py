"""Multi-process stress tests for the shared result store.

The gateway architecture points many gateway/worker processes at one
store root; these tests are the discipline's proof: concurrent writers
lose no records, concurrent readers never see a torn record, and
quarantine under injected corruption stays correct (and race-free) when
several processes hit the same corrupt record at once.
"""

import multiprocessing
import os

import pytest

from repro.service import faults
from repro.service.faults import FaultSpec
from repro.service.jobs import JobResult
from repro.service.store import ResultStore

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method (children inherit the test's "
           "fault registry and closures)")

_CTX = multiprocessing.get_context("fork") \
    if "fork" in multiprocessing.get_all_start_methods() else None

#: One contended hash every writer rewrites and every reader polls.
CONTENDED_HASH = "ff" * 32

WRITERS = 4
RECORDS_PER_WRITER = 20
READERS = 3


def _result(index: int, message: str = "") -> JobResult:
    return JobResult(name=f"job-{index}", job_hash=f"{index:064x}",
                     status="ok", message=message)


def _writer_main(root: str, writer_index: int, queue) -> None:
    store = ResultStore(root)
    try:
        base = writer_index * RECORDS_PER_WRITER
        for offset in range(RECORDS_PER_WRITER):
            store.put(_result(base + offset, message=f"w{writer_index}"))
            # Hammer the contended record between every private write.
            store.put(JobResult(name="contended", job_hash=CONTENDED_HASH,
                                status="ok",
                                message=f"w{writer_index}/{offset}"))
        queue.put(("ok", writer_index))
    except BaseException as exc:  # pragma: no cover - failure path
        queue.put(("error", f"writer {writer_index}: {exc!r}"))


def _reader_main(root: str, reader_index: int, total: int, queue) -> None:
    store = ResultStore(root)
    try:
        valid = misses = 0
        for round_index in range(6):
            for index in range(total):
                fetched = store.get(f"{index:064x}")
                if fetched is None:
                    misses += 1
                else:
                    # A torn read would already have raised inside get();
                    # double-check the record is the one we asked for.
                    assert fetched.job_hash == f"{index:064x}"
                    assert fetched.status == "ok"
                    valid += 1
            contended = store.get(CONTENDED_HASH)
            if contended is not None:
                assert contended.name == "contended"
        queue.put(("ok", (valid, misses, store.stats.quarantined)))
    except BaseException as exc:  # pragma: no cover - failure path
        queue.put(("error", f"reader {reader_index}: {exc!r}"))


def _corrupt_reader_main(root: str, job_hash: str, barrier, queue) -> None:
    store = ResultStore(root)
    try:
        barrier.wait()
        fetched = store.get(job_hash)
        queue.put(("ok", (fetched is None, store.stats.quarantined)))
    except BaseException as exc:  # pragma: no cover - failure path
        queue.put(("error", repr(exc)))


def _drain(queue, expected: int):
    outcomes = []
    for _ in range(expected):
        kind, payload = queue.get(timeout=60)
        if kind == "error":
            pytest.fail(payload)
        outcomes.append(payload)
    return outcomes


class TestConcurrentAccess:
    def test_writers_and_readers_share_one_root(self, tmp_path):
        """N writers + M readers on one root: no lost or torn records."""
        root = str(tmp_path)
        total = WRITERS * RECORDS_PER_WRITER
        queue = _CTX.Queue()
        writers = [_CTX.Process(target=_writer_main,
                                args=(root, writer_index, queue))
                   for writer_index in range(WRITERS)]
        readers = [_CTX.Process(target=_reader_main,
                                args=(root, reader_index, total, queue))
                   for reader_index in range(READERS)]
        for process in writers + readers:
            process.start()
        outcomes = _drain(queue, WRITERS + READERS)
        for process in writers + readers:
            process.join(timeout=60)
            assert process.exitcode == 0
        # No reader ever quarantined anything: every read raced into
        # either a full record or a clean miss.
        reader_outcomes = [outcome for outcome in outcomes
                           if isinstance(outcome, tuple) and len(outcome) == 3]
        assert len(reader_outcomes) == READERS
        assert all(quarantined == 0
                   for _, _, quarantined in reader_outcomes)
        # No lost records: every write that happened is readable afterwards.
        store = ResultStore(root)
        for index in range(total):
            fetched = store.get(f"{index:064x}")
            assert fetched is not None, f"record {index} was lost"
        assert store.get(CONTENDED_HASH) is not None
        assert store.disk_stats()["entries"] == total + 1

    def test_prune_races_concurrent_writers(self, tmp_path):
        """Pruning under write load neither crashes nor corrupts."""
        root = str(tmp_path)
        queue = _CTX.Queue()
        writers = [_CTX.Process(target=_writer_main,
                                args=(root, writer_index, queue))
                   for writer_index in range(2)]
        for process in writers:
            process.start()
        store = ResultStore(root)
        for _ in range(10):
            store.prune(max_total_bytes=4096)
        _drain(queue, 2)
        for process in writers:
            process.join(timeout=60)
        report = store.prune(max_total_bytes=0)
        # Everything the final prune saw was a valid record it could evict;
        # the root is empty afterwards apart from quarantine/lock files.
        assert store.disk_stats()["entries"] == 0
        assert report.kept == 0


class TestQuarantineUnderFaults:
    def test_racing_readers_quarantine_a_corrupt_record_once(self, tmp_path):
        """Many processes hitting one corrupt record: one quarantine move,
        zero crashes, every reader sees a clean miss."""
        root = str(tmp_path)
        record = _result(7)
        ResultStore(root).put(record)
        queue = _CTX.Queue()
        barrier = _CTX.Barrier(READERS + 1)
        faults.configure([FaultSpec("store-corrupt", probability=1.0)])
        try:
            readers = [_CTX.Process(target=_corrupt_reader_main,
                                    args=(root, record.job_hash, barrier,
                                          queue))
                       for _ in range(READERS + 1)]
            for process in readers:
                process.start()
            outcomes = _drain(queue, READERS + 1)
            for process in readers:
                process.join(timeout=60)
                assert process.exitcode == 0
        finally:
            faults.disable()
        assert all(missed for missed, _ in outcomes)
        # Exactly one mover won the non-blocking maintenance lock; the
        # corrupt record is out of the hot path either way.
        store = ResultStore(root)
        assert store.quarantine_count() == 1
        assert store.get(record.job_hash) is None
        assert not os.path.exists(
            os.path.join(root, record.job_hash[:2],
                         f"{record.job_hash}.json"))

    def test_a_late_mover_keeps_the_winners_evidence(self, tmp_path):
        """Two movers in a fixed order: the winner moves the corrupt record
        into quarantine, the loser finds its source gone and must leave the
        winner's quarantined file in place."""
        root = str(tmp_path)
        record = _result(8)
        ResultStore(root).put(record)
        winner, loser = ResultStore(root), ResultStore(root)
        path = winner._path(record.job_hash)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ corrupt")
        assert winner._quarantine(path, record.job_hash)
        assert not loser._quarantine(path, record.job_hash)
        assert loser.quarantine_count() == 1
        evidence = os.path.join(loser.quarantine_root,
                                f"{record.job_hash}.json")
        with open(evidence, "r", encoding="utf-8") as handle:
            assert handle.read() == "{ corrupt"
