"""Tests for the stdio transport (``repro serve``).

The protocol cases both transports share are in ``test_service_protocol.py``.
"""

import io
import json

import pytest

from repro.service import scheduler as scheduler_module
from repro.service.scheduler import default_worker_count
from repro.service.server import AnalysisServer
from repro.service.store import ResultStore

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""


def _run(requests, store=None, workers=0):
    server = AnalysisServer(store=store, workers=workers)
    stdin = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    stdout = io.StringIO()
    server.serve(stdin, stdout)
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


class TestProtocol:
    def test_analyze_request(self):
        responses = _run([{"id": 7, "source": RDWALK}])
        (response,) = responses
        assert response["id"] == 7
        assert response["status"] == "ok"
        assert response["result"]["bound"]["pretty"] == "2*|[x, n]|"

    def test_analyze_with_options(self):
        responses = _run([{"source": RDWALK,
                           "options": {"max_degree": 1,
                                       "auto_degree": False}}])
        assert responses[0]["status"] == "ok"

    def test_parse_error_is_structured(self):
        responses = _run([{"source": "proc main( {"}])
        assert responses[0]["status"] == "parse-error"

    def test_shutdown_stops_the_loop(self):
        responses = _run([{"op": "shutdown", "id": 1},
                          {"op": "ping"}])           # never reached
        assert responses == [{"op": "shutdown", "ok": True, "id": 1}]

    def test_blank_lines_are_skipped(self):
        server = AnalysisServer()
        stdin = io.StringIO("\n\n")
        stdout = io.StringIO()
        assert server.serve(stdin, stdout) == 0


class TestStoreAndBatch:
    def test_store_serves_repeat_requests(self, tmp_path):
        store = ResultStore(str(tmp_path))
        responses = _run([{"id": 1, "source": RDWALK},
                          {"id": 2, "source": RDWALK}], store=store)
        assert [r["cached"] for r in responses] == [False, True]
        assert responses[0]["result"]["bound"] \
            == responses[1]["result"]["bound"]

    def test_batch_request(self, tmp_path):
        store = ResultStore(str(tmp_path))
        request = {"op": "batch", "id": 3, "jobs": [
            {"source": RDWALK, "name": "a"},
            {"source": RDWALK.replace("3/4", "4/5"), "name": "b"},
        ]}
        (response,) = _run([request], store=store)
        assert response["id"] == 3
        assert [r["status"] for r in response["results"]] == ["ok", "ok"]
        assert response["cache_hits"] == 0
        # Second round trips entirely through the store.
        (again,) = _run([request], store=store)
        assert again["cache_hits"] == 2

    def test_stats_op(self, tmp_path):
        store = ResultStore(str(tmp_path))
        responses = _run([{"source": RDWALK}, {"op": "stats"}], store=store)
        stats = responses[1]
        assert stats["requests_served"] == 1
        assert stats["store"]["writes"] == 1
        assert "queries" in stats["engine"]


class TestBatchWorkers:
    """The request's ``workers`` is checked before any pool starts."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(scheduler_module, "_run_on_pool", refuse)
        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", refuse)

    @pytest.mark.parametrize("workers", [10 ** 6, -1, 2.5, "4", True, None])
    def test_bad_workers_is_an_error_and_starts_no_pool(self, no_pool,
                                                         workers):
        limit = max(1, default_worker_count())
        (response,) = _run([{"op": "batch", "id": 4, "workers": workers,
                             "jobs": [{"source": RDWALK}] * 3}], workers=1)
        assert response == {
            "error": f"'workers' must be an integer in [0, {limit}], "
                     f"got {workers!r}",
            "id": 4}

    def test_limit_is_the_larger_of_server_and_default(self, no_pool):
        limit = default_worker_count() + 3
        (response,) = _run([{"op": "batch", "workers": limit + 1,
                             "jobs": [{"source": RDWALK}]}], workers=limit)
        assert f"[0, {limit}]" in response["error"]

    def test_inline_batch_within_the_limit_runs(self, no_pool):
        (response,) = _run([{"op": "batch", "workers": 0,
                             "jobs": [{"source": RDWALK}]}], workers=2)
        assert [r["status"] for r in response["results"]] == ["ok"]
