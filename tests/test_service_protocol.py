"""One protocol table, run through both transports of the request core.

Every case is a list of request lines and the answers they must get, and
runs twice: through the stdio loop (:class:`AnalysisServer` over
``StringIO``) and through the asyncio gateway (:class:`GatewayThread` and a
real TCP :class:`GatewayClient`).  Whatever the shared core
(:mod:`repro.service.requests`) answers must read the same on both.
"""

import io
import json

import pytest

from repro.service import requests
from repro.service.gateway import GatewayClient, GatewayThread
from repro.service.server import AnalysisServer


def _stdio(lines):
    stdout = io.StringIO()
    AnalysisServer().serve(io.StringIO("".join(line + "\n"
                                               for line in lines)), stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


def _gateway(lines):
    with GatewayThread(workers=0, store=None) as (host, port):
        with GatewayClient(host, port) as client:
            responses = []
            for line in lines:
                client._writer.write(line + "\n")
                client._writer.flush()
                responses.append(client.read())
    return responses


@pytest.fixture(params=[_stdio, _gateway], ids=["stdio", "gateway"])
def exchange(request):
    """Send request lines (dicts are JSON-encoded); return the answers."""
    def run(requests_):
        return request.param([item if isinstance(item, str)
                              else json.dumps(item) for item in requests_])
    return run


def _lint_codes(response):
    return [item["code"] for item in response["diagnostics"]]


def test_ping(exchange):
    assert exchange([{"op": "ping"}]) == [{"op": "ping", "ok": True}]


def test_unknown_op_echoes_the_id(exchange):
    assert exchange([{"op": "frobnicate", "id": 9}]) \
        == [{"error": "unknown op 'frobnicate'", "id": 9}]


def test_malformed_lines_then_a_working_request(exchange):
    responses = exchange(["this is not json", "[1, 2]", {"op": "ping"}])
    assert "error" in responses[0]
    assert responses[1] == {"error": "request must be a JSON object"}
    # The transport survives bad lines and serves the next request.
    assert responses[2] == {"op": "ping", "ok": True}


def test_missing_source(exchange):
    assert exchange([{"op": "analyze", "id": 2}]) \
        == [{"error": "request needs a non-empty 'source' string", "id": 2}]


def test_lint_seeds_the_resource_counter(exchange):
    (response,) = exchange([{
        "op": "lint",
        "source": "proc main(n) { cost = cost + n; tick(1); }",
        "options": {"resource_counter": "cost"},
    }])
    assert response == {"op": "lint", "name": "<request>", "severity": None,
                        "counts": {"error": 0, "warning": 0, "info": 0},
                        "diagnostics": []}


def test_lint_reports_diagnostics_and_parse_errors(exchange):
    flagged, broken = exchange([
        {"op": "lint", "source": "proc main(n) { x = q + 1; }",
         "name": "demo"},
        {"op": "lint", "source": "proc main( {"},
    ])
    assert flagged["op"] == "lint" and flagged["name"] == "demo"
    assert flagged["severity"] == "error"
    assert flagged["counts"]["error"] == 1
    assert "R101" in _lint_codes(flagged)
    assert _lint_codes(broken) == ["R001"]


def test_shutdown_is_acknowledged_with_the_id(exchange):
    assert exchange([{"op": "shutdown", "id": 1}]) \
        == [{"op": "shutdown", "ok": True, "id": 1}]


def test_unexpected_exception_names_its_class(exchange, monkeypatch):
    def boom(payload):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(requests, "lint", boom)
    responses = exchange([{"op": "lint", "source": "proc main() {}", "id": 1},
                          {"op": "ping"}])
    assert responses == [{"error": "RuntimeError: wires crossed", "id": 1},
                         {"op": "ping", "ok": True}]
