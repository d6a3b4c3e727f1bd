"""``serve-mixed``: a ``repro serve --async --workers 1`` gateway
subprocess with a fresh store each pass, driven by two closed-loop
connections through a seeded script of fresh variants and repeats.

Light class: requests answered from the memory tier.  Heavy class:
requests answered by compute.  Repeats answered from the disk store are
checked and counted but belong to neither class.
"""

from __future__ import annotations

import json
import random
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from perfbench.common import ROOT, WORK, HostReference, Outcome, \
    PassClock, child_env, children_peak_rss_mb, fresh_dir, tail_percentile, \
    timed_ops
from perfbench.programs import check_values, evaluate_pretty, \
    load_golden, rename_variables, renamed_state, variant_prefix

#: Hot-tier capacity the workload sets; the script has more distinct jobs,
#: so some repeats are read back from the disk store.
HOT_CACHE_SIZE = 8
FRESH_PER_SEGMENT = 2
MEMORY_PER_SEGMENT = 8
STORE_PER_SEGMENT = 1
CONNECTIONS = 2
#: A gateway that does not answer within this many seconds fails the pass.
REQUEST_TIMEOUT = 60.0

#: Job 0 of every pass: the set-up warm-up request, never repeated.
WARMUP_SOURCE = """proc main(n) {
    while (n > 0) {
        n = n - 1;
        tick(1);
    }
}
"""


@dataclass
class Job:
    name: str
    source: str
    base: str = ""
    mapping: Dict[str, str] = field(default_factory=dict)
    options: Dict[str, object] = field(default_factory=dict)

    def request(self, request_id: int) -> Dict[str, object]:
        return {"op": "analyze", "id": request_id, "name": self.name,
                "source": self.source, "options": self.options}


# ---------------------------------------------------------------------------
# The script
# ---------------------------------------------------------------------------

def make_jobs(rng: random.Random,
              bases: Sequence[Tuple[str, str, Dict[str, object]]]
              ) -> List[Job]:
    """The warm-up job plus one renamed variant of each base program
    ``(name, source, options)``, in seeded order."""
    bases = list(bases)
    rng.shuffle(bases)
    jobs = [Job("warmup", WARMUP_SOURCE)]
    prefixes = set()
    for name, source, options in bases:
        prefix = variant_prefix(rng)
        while prefix in prefixes:
            prefix = variant_prefix(rng)
        prefixes.add(prefix)
        text, mapping = rename_variables(source, prefix)
        jobs.append(Job(f"{name}@{prefix}", text, name, mapping, options))
    return jobs


def plan(job_count: int, rng: random.Random,
         capacity: int = HOT_CACHE_SIZE
         ) -> List[List[Tuple[int, str]]]:
    """Segments of ``(job index, expected tier)`` requests.

    Each segment sends the next fresh jobs (computed), repeats the previous
    segment's fresh jobs (memory), and repeats one job that has certainly
    left the hot tier (store), so reads run beside writes.  The two
    connections interleave a segment's requests in no fixed order, so the
    LRU order is only known up to that interleaving: the plan tracks it as
    blocks of jobs in unknown internal order, with how many of each block
    are still cached, and checks that every repeat has the same tier under
    every interleaving.  Only the choice of jobs depends on ``rng``; how
    many requests of each tier the plan holds does not.  Job 0 (the
    warm-up) starts cached and is never requested.
    """
    blocks: List[List[object]] = [[[0], 1]]     # [members, cached count]
    segments: List[List[Tuple[int, str]]] = []

    def add(fresh: List[int], store: List[int], memory: List[int]) -> None:
        nonlocal blocks
        cached = sum(count for _, count in blocks)
        evictions = max(0, cached + len(fresh) + len(store) - capacity)
        safe: set = set()
        older = 0
        for members, count in blocks:
            # A block wholly cached and older than nothing this segment can
            # evict stays cached whatever the interleaving.
            if count == len(members) and older >= evictions:
                safe.update(members)
            older += count
        if not safe.issuperset(memory):
            raise RuntimeError("plan: a memory repeat could be evicted")
        remaining = evictions
        for block in blocks:
            taken = min(block[1], remaining)
            block[1] -= taken
            remaining -= taken
        moved = set(memory) | set(store)
        for block in blocks:
            kept = [job for job in block[0] if job not in moved]
            if block[1] == len(block[0]):
                block[1] = len(kept)
            block[0] = kept
        blocks = [block for block in blocks if block[0]]
        newest = fresh + store + sorted(set(memory))
        blocks.append([newest, len(newest)])
        requests = [(job, "computed") for job in fresh] \
            + [(job, "store") for job in store] \
            + [(job, "memory") for job in memory]
        rng.shuffle(requests)
        segments.append(requests)

    previous: List[int] = []
    for first in range(1, job_count, FRESH_PER_SEGMENT):
        fresh = list(range(first, min(job_count, first + FRESH_PER_SEGMENT)))
        evicted = [job for members, count in blocks if count == 0
                   for job in members if job != 0]
        add(fresh, rng.sample(evicted, min(STORE_PER_SEGMENT, len(evicted))),
            previous * (MEMORY_PER_SEGMENT // max(1, len(previous))))
        previous = fresh
    return segments


# ---------------------------------------------------------------------------
# The gateway process and its clients
# ---------------------------------------------------------------------------

class Connection:
    """One JSON-lines client connection."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address,
                                             timeout=REQUEST_TIMEOUT)
        self.stream = self.sock.makefile("rwb")

    def call(self, payload: Dict[str, object]) -> Dict[str, object]:
        self.stream.write(json.dumps(payload).encode("utf-8") + b"\n")
        self.stream.flush()
        line = self.stream.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class Gateway:
    """A ``repro serve --async`` subprocess on a fresh store."""

    def __init__(self, name: str) -> None:
        store = fresh_dir(name)
        self.log = open(WORK / f"{name}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--async",
             "--workers", "1", "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", str(store),
             "--hot-cache-size", str(HOT_CACHE_SIZE)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self.log)
        self.address = self._read_address()

    def _read_address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + REQUEST_TIMEOUT
        buffer = b""
        stdout = self.process.stdout
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([stdout], [], [], max(0.0, remaining))
            chunk = stdout.read1(4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError("gateway did not announce its address")
            buffer += chunk
        words = buffer.split(b"\n", 1)[0].decode().split()
        host, port = words[words.index("on") + 1].rsplit(":", 1)
        return host, int(port)

    def stop(self) -> None:
        """Shut down over the wire if possible; always reap the process."""
        if self.process.poll() is None:
            try:
                connection = Connection(self.address)
                try:
                    connection.call({"op": "shutdown"})
                finally:
                    connection.close()
            except (OSError, ValueError, AttributeError):
                self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def start_gateway(name: str, host: HostReference
                  ) -> Tuple[Gateway, float]:
    """Spawn, wait for the first ``ping``, run the warm-up job.

    Returns the gateway and the normalised set-up wall.
    """
    started: List[Gateway] = []

    def spawn() -> None:
        gateway = Gateway(name)
        started.append(gateway)
        connection = Connection(gateway.address)
        try:
            if not connection.call({"op": "ping"}).get("ok"):
                raise RuntimeError("gateway ping failed")
            warm = connection.call(Job("warmup", WARMUP_SOURCE).request(0))
        finally:
            connection.close()
        if warm.get("status") != "ok":
            raise RuntimeError(f"warm-up request failed: {warm}")

    try:
        ((_, wall),) = timed_ops(host, [spawn])
    except BaseException:
        for gateway in started:
            gateway.stop()
        raise
    return started[0], wall


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

@dataclass
class Reply:
    job: int
    expected: str
    seconds: float
    response: Dict[str, object]
    scale: float = 1.0


@dataclass
class PassResult:
    replies: List[Reply]
    wall: float
    raw_wall: float
    setup: float
    stats: Dict[str, int]


def _drive(address: Tuple[str, int], jobs: Sequence[Job],
           segments: Sequence[Sequence[Tuple[int, str]]],
           host: HostReference) -> Tuple[List[Reply], float, float]:
    """Run the segments, the reference timed at the barrier between them."""
    connections = [Connection(address) for _ in range(CONNECTIONS)]
    replies: List[Reply] = []
    segments_replies: List[List[Reply]] = []
    wall = raw_wall = 0.0
    try:
        barriers = [host.measure()]
        walls: List[float] = []
        request_id = 1
        for segment in segments:
            lanes: List[List[Tuple[int, int, str]]] = \
                [[] for _ in connections]
            for index, (job, tier) in enumerate(segment):
                lanes[index % len(connections)].append(
                    (request_id, job, tier))
                request_id += 1
            results: List[List[Reply]] = [[] for _ in connections]
            errors: List[BaseException] = []

            def lane_loop(connection: Connection, lane, out) -> None:
                try:
                    for rid, job, tier in lane:
                        start = time.perf_counter()
                        response = connection.call(jobs[job].request(rid))
                        out.append(Reply(job, tier,
                                         time.perf_counter() - start,
                                         response))
                except (OSError, ValueError) as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=lane_loop,
                                        args=(conn, lane, out))
                       for conn, lane, out in zip(connections, lanes,
                                                  results)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            walls.append(time.perf_counter() - start)
            barriers.append(host.measure())
            if errors:
                raise errors[0]
            segments_replies.append([reply for out in results
                                     for reply in out])
    finally:
        for connection in connections:
            connection.close()
    for segment_replies, segment_wall, scale in zip(
            segments_replies, walls, host.scales(barriers)):
        for reply in segment_replies:
            reply.scale = scale
            replies.append(reply)
        wall += segment_wall * scale
        raw_wall += segment_wall
    return replies, wall, raw_wall


def gateway_counters(address: Tuple[str, int]) -> Dict[str, int]:
    connection = Connection(address)
    try:
        return dict(connection.call({"op": "stats"})["gateway"])
    finally:
        connection.close()


def run_pass(name: str, jobs: Sequence[Job],
             segments: Sequence[Sequence[Tuple[int, str]]],
             host: HostReference) -> PassResult:
    gateway, setup = start_gateway(name, host)
    try:
        before = gateway_counters(gateway.address)
        replies, wall, raw_wall = _drive(gateway.address, jobs, segments,
                                         host)
        after = gateway_counters(gateway.address)
    finally:
        gateway.stop()
    stats = {key: after[key] - before.get(key, 0) for key in after}
    return PassResult(replies, wall, raw_wall, setup, stats)


def check(result: PassResult, jobs: Sequence[Job], outcome: Outcome,
          golden: Dict[str, Dict[str, object]]) -> None:
    """Status, tier and bound of every reply: a fresh variant's bound is
    its base program's golden bound, renamed; a repeat returns the bound
    its first request got."""
    first: Dict[int, object] = {}
    for reply in result.replies:
        job = jobs[reply.job]
        response = reply.response
        record = response.get("result") or {}
        what = f"{job.name} ({reply.expected})"
        if response.get("status") != "ok":
            outcome.record(False, f"{what}: status {response.get('status')}"
                                  f" {response.get('error', '')}")
            continue
        if response.get("tier") != reply.expected:
            outcome.record(False, f"{what}: answered by "
                                  f"{response.get('tier')}")
            continue
        pretty = (record.get("bound") or {}).get("pretty")
        if reply.expected != "computed":
            outcome.record(pretty == first.get(reply.job),
                           f"{what}: repeat returned {pretty!r}")
            continue
        first[reply.job] = pretty
        entry = golden["suite"][job.base]
        try:
            ok, why = check_values(entry, lambda state: evaluate_pretty(
                pretty, renamed_state(state, job.mapping)))
        except (TypeError, ValueError) as exc:
            ok, why = False, str(exc)
        outcome.record(ok, f"{what}: {why}")


def classes(replies: Sequence[Reply], tier: str) -> List[Reply]:
    return [reply for reply in replies if reply.expected == tier]


def measure(seed: int, seconds: float, host: HostReference,
            outcome: Outcome, bases) -> Dict[str, float]:
    """Whole passes (fresh gateway and store each) until ``seconds`` have
    gone; at least one pass, and at least three set-ups."""
    golden = load_golden()
    rng = random.Random(seed)
    passes: List[PassResult] = []
    setups: List[float] = []
    clock = PassClock(seconds)
    while clock.another():
        jobs = make_jobs(rng, bases)
        result = run_pass(f"serve-{len(passes)}", jobs,
                          plan(len(jobs), rng), host)
        check(result, jobs, outcome, golden)
        passes.append(result)
        setups.append(result.setup)
    while len(setups) < 3:
        gateway, setup = start_gateway("serve-setup", host)
        gateway.stop()
        setups.append(setup)
    replies = [reply for result in passes for reply in result.replies]
    light = classes(replies, "memory")
    heavy = classes(replies, "computed")
    return {
        "pass_s": statistics.median(result.wall for result in passes),
        "light_ms": 1000.0 * sum(r.seconds * r.scale for r in light)
        / len(light),
        "heavy_ms": 1000.0 * sum(r.seconds * r.scale for r in heavy)
        / len(heavy),
        "peak_rss_mb": children_peak_rss_mb(),
        "setup_s": statistics.median(setups),
        "raw.pass_s": statistics.median(result.raw_wall
                                        for result in passes),
        "raw.light_ms": 1000.0 * sum(r.seconds for r in light) / len(light),
        "raw.heavy_ms": 1000.0 * sum(r.seconds for r in heavy) / len(heavy),
        "passes": len(passes),
    }


# ---------------------------------------------------------------------------
# The service family of layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(seed: int, host: HostReference, outcome: Outcome, bases
                  ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Tier latencies and gateway counters from one pass over the script,
    plus job hashing and the result store timed in-process.

    Returns the layer metrics and the pass's raw summary.
    """
    golden = load_golden()
    rng = random.Random(seed)
    jobs = make_jobs(rng, bases)
    result = run_pass("serve-trace", jobs, plan(len(jobs), rng), host)
    check(result, jobs, outcome, golden)
    hits = [reply.seconds * reply.scale * 1000.0
            for reply in classes(result.replies, "memory")]
    computed = classes(result.replies, "computed")
    compute_ms = [reply.seconds * reply.scale * 1000.0 for reply in computed]
    worker_ms = [float(reply.response["result"]["wall_seconds"])
                 * reply.scale * 1000.0 for reply in computed]
    tail_percent, tail_ms = tail_percentile(hits)
    stats = result.stats
    analyzed = len(result.replies)
    metrics = {
        "service.hit_p50_ms": statistics.median(hits),
        "service.hit_tail_ms": tail_ms,
        "service.hit_tail_pct": tail_percent,
        "service.compute_p50_ms": statistics.median(compute_ms),
        "service.worker_ms": statistics.fmean(worker_ms),
        "service.dispatch_ms": statistics.fmean(
            c - w for c, w in zip(compute_ms, worker_ms)),
        "service.memory_hits": stats["memory_hits"],
        "service.store_hits": stats["store_hits"],
        "service.coalesced": stats["coalesced"],
        "service.analyses": stats["analyses"],
        "service.busy": stats["busy_rejections"],
        "service.errors": stats["errors"],
        "service.hit_ratio": (stats["memory_hits"] + stats["store_hits"])
        / analyzed,
    }
    metrics.update(_store_and_hash(jobs, result, host))
    raw_hits = [reply.seconds for reply in classes(result.replies, "memory")]
    own = {"raw.pass_s": result.raw_wall,
           "raw.light_ms": 1000.0 * statistics.fmean(raw_hits),
           "raw.heavy_ms": 1000.0 * statistics.fmean(
               reply.seconds for reply in computed)}
    return metrics, own


def _store_and_hash(jobs: Sequence[Job], result: PassResult,
                    host: HostReference) -> Dict[str, float]:
    """``AnalysisJob.create`` plus its hash, and ``ResultStore`` put/get on
    a temporary root, over the pass's computed results."""
    from repro.service.jobs import AnalysisJob, JobResult
    from repro.service.store import ResultStore

    records = [JobResult.from_record(reply.response["result"])
               for reply in classes(result.replies, "computed")]
    repeats = 20
    store = ResultStore(str(fresh_dir("serve-store-probe")))
    found: List[int] = []

    def hashing() -> None:
        for _ in range(repeats):
            for job in jobs[1:]:
                AnalysisJob.create(job.name, job.source, job.options).job_hash

    def putting() -> None:
        for record in records:
            store.put(record)

    def getting() -> None:
        found.append(sum(store.get(record.job_hash) is not None
                         for record in records))

    (_, hashed), (_, put), (_, got) = timed_ops(host, [hashing, putting,
                                                       getting])
    if found != [len(records)]:
        raise RuntimeError("result store lost records")
    return {
        "service.job_hash_us": 1e6 * hashed / (repeats * (len(jobs) - 1)),
        "service.store_put_ms": 1000.0 * put / len(records),
        "service.store_get_ms": 1000.0 * got / len(records),
    }
