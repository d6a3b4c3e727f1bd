"""The request core both service transports serve.

``repro serve`` (stdio, :mod:`repro.service.server`) and ``repro serve
--async`` (the TCP gateway, :mod:`repro.service.gateway`) speak one JSON
lines protocol.  Everything about that protocol that does not depend on
how requests travel or how jobs execute lives here, once:

* decoding a line into a request (it must be a JSON object);
* the error envelope: validation errors (``ValueError``/``TypeError``/
  ``KeyError``) answer ``{"error": msg}``, anything else
  ``{"error": "Cls: msg"}``, and every answer echoes the request ``id``;
* turning request payloads into content-hashed
  :class:`~repro.service.jobs.AnalysisJob` objects;
* the ops whose answer is the same on both transports -- ``ping``,
  ``lint``, ``stats``, ``health`` and the ``shutdown`` ack -- and the
  unknown-op error.

A transport adds only what is its own: the stdio loop runs ``analyze`` and
``batch`` in order through :func:`~repro.service.scheduler.run_batch`; the
gateway answers them through its cache tiers, coalescing and admission
control, and streams batches.  Each passes a ``transport_view`` callable
whose keys (pool, counters, ...) extend the shared ``stats``/``health``
answer.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Union

from repro.lang.analysis import lint_source, max_severity, severity_counts
from repro.logic.entailment import engine_fingerprint, get_engine
from repro.service import faults
from repro.service.jobs import SCHEMA_VERSION, AnalysisJob
from repro.service.store import ResultStore

#: Exceptions that signal a bad request: their message is the whole answer.
REQUEST_ERRORS = (ValueError, TypeError, KeyError)


def decode(line: Union[str, bytes]) -> Dict[str, object]:
    """Parse one request line; it must be a JSON object."""
    payload = json.loads(line)
    if not isinstance(payload, dict):
        raise ValueError("request must be a JSON object")
    return payload


def describe_error(exc: BaseException) -> str:
    """``"Cls: msg"``: an unexpected failure, named by its class."""
    return f"{type(exc).__name__}: {exc}"


def error_response(exc: Exception) -> Dict[str, object]:
    """The answer to a request that raised ``exc``.

    One request must never take a server down: expected validation errors
    answer with their message, unexpected failures with their class name
    too, and the transport keeps serving either way.
    """
    if isinstance(exc, REQUEST_ERRORS):
        return {"error": str(exc)}
    return {"error": describe_error(exc)}


def echo_id(response: Dict[str, object],
            request_id: object) -> Dict[str, object]:
    """Mirror the request ``id`` so pipelined clients can match answers."""
    if request_id is not None:
        response.setdefault("id", request_id)
    return response


def job_from_request(payload: Dict[str, object], index: int = 0,
                     defaults: Optional[Dict[str, object]] = None
                     ) -> AnalysisJob:
    """The analysis job one ``analyze`` request (or batch entry) asks for."""
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ValueError("request needs a non-empty 'source' string")
    options = _options(payload)
    if defaults:
        # Server-level defaults (e.g. ``--degree-limit``) apply underneath
        # the request's own options; merged options take part in the job
        # hash, so cached results never alias across different defaults.
        options = {**defaults, **options}
    name = payload.get("name")
    return AnalysisJob.create(str(name) if name else f"request-{index}",
                              source, options)


def jobs_from_batch(payload: Dict[str, object],
                    defaults: Optional[Dict[str, object]] = None
                    ) -> List[AnalysisJob]:
    """The jobs of one ``batch`` request, in request order."""
    raw_jobs = payload.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ValueError("'batch' needs a non-empty 'jobs' array")
    return [job_from_request(raw, index, defaults)
            for index, raw in enumerate(raw_jobs)]


def _options(payload: Dict[str, object]) -> Dict[str, object]:
    options = payload.get("options") or {}
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object")
    return options


# ---------------------------------------------------------------------------
# The shared ops
# ---------------------------------------------------------------------------

def handle(payload: Dict[str, object], store: Optional[ResultStore],
           transport_view: Callable[[], Dict[str, object]]
           ) -> Dict[str, object]:
    """Answer ``ping``/``lint``/``stats``/``health``/``shutdown``.

    Any other op is unknown (the transports dispatch ``analyze`` and
    ``batch`` themselves before calling here).
    """
    op = payload.get("op", "analyze")
    if op == "ping":
        return {"op": "ping", "ok": True}
    if op == "shutdown":
        return {"op": "shutdown", "ok": True}
    if op == "lint":
        return lint(payload)
    if op in ("stats", "health"):
        return {**service_view(op, store), **transport_view()}
    raise ValueError(f"unknown op {op!r}")


def lint(payload: Dict[str, object]) -> Dict[str, object]:
    """Run the static lint passes over one source text (no analysis)."""
    source = payload.get("source")
    if not isinstance(source, str):
        raise ValueError("'lint' needs a 'source' string")
    counter = _options(payload).get("resource_counter")
    diagnostics = lint_source(source,
                              counter=str(counter) if counter else None)
    return {
        "op": "lint",
        "name": str(payload.get("name") or "<request>"),
        "severity": max_severity(diagnostics),
        "counts": severity_counts(diagnostics),
        "diagnostics": [diag.to_dict() for diag in diagnostics],
    }


def service_view(op: str,
                 store: Optional[ResultStore]) -> Dict[str, object]:
    """The store/engine/faults part of a ``stats`` or ``health`` answer."""
    if op == "stats":
        store_stats = None
        if store is not None:
            store_stats = store.stats.as_dict()
            store_stats["quarantine_records"] = store.quarantine_count()
        return {"op": "stats", "store": store_stats,
                "engine": get_engine().stats.as_dict()}
    store_state = None
    if store is not None:
        store_state = {
            "root": store.root,
            "records": len(store),
            "quarantine_records": store.quarantine_count(),
            "stats": store.stats.as_dict(),
        }
    return {"op": "health", "ok": True, "schema": SCHEMA_VERSION,
            "store": store_state, "engine": engine_fingerprint(),
            "faults": faults.describe()}
