"""``repro serve``: the stdio transport of the analysis service.

One request per line on stdin, one JSON response per line on stdout -- the
simplest protocol that lets an external driver (a CI harness, a notebook, a
socket wrapper like ``socat``) hand programs to a long-lived analyzer
process and benefit from the warm in-process entailment caches *and* the
persistent result store across requests.

Requests::

    {"op": "analyze", "id": 1, "source": "proc main(n) {...}",
     "options": {"max_degree": 2}, "name": "mine"}
    {"op": "batch", "id": 2, "workers": 4,
     "jobs": [{"source": "...", "options": {...}, "name": "a"}, ...]}
    {"op": "lint", "id": 3, "source": "...",
     "options": {"resource_counter": "cost"}}
    {"op": "stats", "id": 4}
    {"op": "health", "id": 5}
    {"op": "ping"}
    {"op": "shutdown"}

The protocol itself -- decoding, the error envelope, the ``id`` echo and
the ``ping``/``lint``/``stats``/``health``/``shutdown`` answers -- is the
request core (:mod:`repro.service.requests`) that the asyncio gateway
(:mod:`repro.service.gateway`, ``repro serve --async``) serves too.  This
module adds the loop: ``analyze`` and ``batch`` run in request order
through :func:`~repro.service.scheduler.run_batch` (``analyze`` inline, as
the latency of spinning up a pool would dwarf a single analysis; a batch
on a pool of the request's ``workers``, bounded by the server's).

The loop is built to outlive its requests: malformed lines and *any*
per-request exception produce an ``{"error": ...}`` response and the
server keeps serving.  A reader that hangs up mid-response (stdout
``BrokenPipeError``) shuts the loop down cleanly instead of tracing back.
Shutdown is graceful: SIGINT/SIGTERM finish the request in flight (its
response is still written, and with it any pending store writes), then
the loop exits 0 instead of tracing back mid-analysis.
"""

from __future__ import annotations

import json
import signal
import sys
from typing import IO, Dict, Optional

from repro.service import requests
from repro.service.scheduler import (SchedulerConfig, default_worker_count,
                                     run_batch)
from repro.service.store import ResultStore


class _GracefulShutdown(Exception):
    """Raised out of a blocking read when a drain signal arrives idle."""


class AnalysisServer:
    """Stateful request loop over a store and (for batches) a worker pool."""

    def __init__(self, store: Optional[ResultStore] = None,
                 workers: int = 0,
                 default_options: Optional[Dict[str, object]] = None) -> None:
        self.store = store
        self.workers = workers
        self.default_options = dict(default_options or {})
        self.requests_served = 0
        self._shutdown = False
        self._busy = False

    def request_shutdown(self, *_signal_args) -> None:
        """Signal-handler entry: drain the request in flight, then exit.

        Mid-request the handler only sets a flag -- the running analysis
        finishes, its response (and store write) lands, and the loop
        breaks before the next read.  Idle (blocked in ``readline``) it
        raises, breaking the blocking read immediately; PEP 475 would
        otherwise retry the read and keep an idle server alive until the
        next request.
        """
        self._shutdown = True
        if not self._busy:
            raise _GracefulShutdown()

    # -- request handlers --------------------------------------------------

    def handle(self, payload: Dict[str, object]) -> Dict[str, object]:
        op = payload.get("op", "analyze")
        if op == "analyze":
            return self._handle_analyze(payload)
        if op == "batch":
            return self._handle_batch(payload)
        return requests.handle(payload, self.store, self._transport_view)

    def _transport_view(self) -> Dict[str, object]:
        return {"requests_served": self.requests_served,
                "pool": {"workers": self.workers,
                         "default_options": self.default_options}}

    def _handle_analyze(self, payload: Dict[str, object]) -> Dict[str, object]:
        job = requests.job_from_request(payload, self.requests_served,
                                        self.default_options)
        report = run_batch([job], SchedulerConfig(workers=0, store=self.store))
        outcome = report.outcomes[0]
        return {"op": "analyze", "status": outcome.result.status,
                "cached": outcome.cached, "result": outcome.result.to_record()}

    def _handle_batch(self, payload: Dict[str, object]) -> Dict[str, object]:
        jobs = requests.jobs_from_batch(payload, self.default_options)
        workers = self._batch_workers(payload)
        timeout = payload.get("timeout")
        report = run_batch(jobs, SchedulerConfig(
            workers=workers, store=self.store,
            timeout=float(timeout) if timeout is not None else None))
        return {
            "op": "batch",
            "wall_seconds": report.wall_seconds,
            "cache_hits": report.cache_hits,
            "results": [outcome.result.to_record()
                        for outcome in report.outcomes],
            "cached": [outcome.cached for outcome in report.outcomes],
        }

    def _batch_workers(self, payload: Dict[str, object]) -> int:
        """The request's pool size, checked before any pool starts.

        A request may ask for fewer or more processes than the server's
        ``--workers``, but never more than the larger of that and the
        host's default fan-out.
        """
        workers = payload.get("workers", self.workers)
        limit = max(self.workers, default_worker_count())
        if isinstance(workers, bool) or not isinstance(workers, int) \
                or not 0 <= workers <= limit:
            raise ValueError(f"'workers' must be an integer in "
                             f"[0, {limit}], got {workers!r}")
        return workers

    # -- the loop ----------------------------------------------------------

    def serve(self, input_stream: IO[str], output_stream: IO[str]) -> int:
        """Process requests until shutdown/EOF/signal; return served count."""
        while not self._shutdown:
            self._busy = False
            try:
                line = input_stream.readline()
            except _GracefulShutdown:
                break
            self._busy = True
            if not line:
                break   # EOF
            line = line.strip()
            if not line:
                continue
            request_id = op = None
            try:
                payload = requests.decode(line)
                request_id, op = payload.get("id"), payload.get("op")
                response = self.handle(payload)
            except Exception as exc:  # noqa: BLE001 -- one request must
                # never take the server down.
                response = requests.error_response(exc)
            self.requests_served += 1
            try:
                self._respond(output_stream,
                              requests.echo_id(response, request_id))
            except BrokenPipeError:
                # The reader hung up: there is nobody left to answer, so
                # shut down cleanly instead of tracing back.
                break
            if op == "shutdown":
                break
        return self.requests_served

    @staticmethod
    def _respond(output_stream: IO[str], response: Dict[str, object]) -> None:
        json.dump(response, output_stream, separators=(",", ":"))
        output_stream.write("\n")
        output_stream.flush()


def serve_stdio(store: Optional[ResultStore] = None, workers: int = 0,
                default_options: Optional[Dict[str, object]] = None) -> int:
    """Entry point for ``repro serve``: loop over stdin/stdout.

    SIGINT/SIGTERM drain gracefully (finish the in-flight request, flush
    its response and store write, exit 0) instead of tracing back.
    """
    server = AnalysisServer(store=store, workers=workers,
                            default_options=default_options)
    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum,
                                             server.request_shutdown)
        except ValueError:
            # Not the main thread (embedded use): signals stay whoever's
            # they were; EOF/shutdown-op still stop the loop.
            pass
    try:
        server.serve(sys.stdin, sys.stdout)
    except _GracefulShutdown:
        # The drain signal landed outside the loop's own read guard
        # (e.g. while writing a response just before the next read).
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0
