"""Tests for repro.service.jobs: hashing, execution, serialisation."""

from fractions import Fraction

import pytest

from repro.bench.registry import get_benchmark
from repro.service.jobs import (SCHEMA_VERSION, AnalysisJob, JobResult,
                                bound_from_payload, canonical_source,
                                job_from_benchmark, job_from_file, run_job)

RDWALK = """
proc main(x, n) {
    while (x < n) {
        prob(3/4) { x = x + 1; } else { x = x - 1; }
        tick(1);
    }
}
"""

NO_BOUND = "proc main(x) { assume(x >= 1); while (x > 0) { tick(1); } }"


class TestJobHash:
    def test_hash_is_stable(self):
        a = AnalysisJob.create("a", RDWALK, {"max_degree": 1})
        b = AnalysisJob.create("b", RDWALK, {"max_degree": 1})
        # The name is presentation, not content.
        assert a.job_hash == b.job_hash

    def test_hash_ignores_trailing_whitespace_and_crlf(self):
        messy = RDWALK.replace("\n", "  \r\n") + "\n\n\n"
        assert AnalysisJob.create("a", messy).job_hash \
            == AnalysisJob.create("a", RDWALK).job_hash

    def test_hash_changes_with_source(self):
        other = RDWALK.replace("tick(1)", "tick(2)")
        assert AnalysisJob.create("a", other).job_hash \
            != AnalysisJob.create("a", RDWALK).job_hash

    def test_hash_changes_with_options(self):
        assert AnalysisJob.create("a", RDWALK, {"max_degree": 2}).job_hash \
            != AnalysisJob.create("a", RDWALK, {"max_degree": 1}).job_hash

    def test_option_order_is_canonical(self):
        a = AnalysisJob.create("a", RDWALK,
                               {"max_degree": 2, "auto_degree": False})
        b = AnalysisJob.create("a", RDWALK,
                               {"auto_degree": False, "max_degree": 2})
        assert a.job_hash == b.job_hash

    def test_canonical_source_ends_with_newline(self):
        assert canonical_source("proc main() { skip; }").endswith("}\n")


class TestRunJob:
    def test_ok_job(self):
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        assert result.status == "ok" and result.success
        assert result.bound_pretty == "2*|[x, n]|"
        assert result.wall_seconds > 0
        assert result.lp_variables > 0
        assert result.certificate is not None
        assert result.certificate["points"]
        assert result.engine["queries"] > 0

    def test_parse_error_job(self):
        result = run_job(AnalysisJob.create("bad", "proc main( {"))
        assert result.status == "parse-error"
        assert not result.success
        assert result.bound is None
        assert result.message

    def test_no_bound_job(self):
        result = run_job(AnalysisJob.create(
            "diverges", NO_BOUND, {"auto_degree": False}))
        assert result.status == "no-bound"
        assert result.bound is None
        assert "infeasible" in result.message

    def test_record_round_trip(self):
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        record = result.to_record()
        assert record["schema"] == SCHEMA_VERSION
        restored = JobResult.from_record(record)
        assert restored == result


class TestBoundPayload:
    def test_bound_reconstruction_evaluates_identically(self):
        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        bound = result.expected_bound()
        assert bound.pretty() == "2*|[x, n]|"
        assert bound.evaluate({"x": 3, "n": 10}) == Fraction(14)
        assert bound.evaluate({"x": 12, "n": 10}) == 0

    def test_polynomial_bound_reconstruction(self):
        bench = get_benchmark("pol04")
        result = run_job(job_from_benchmark(bench))
        assert result.success
        bound = result.expected_bound()
        direct = bench.build()
        from repro.core.analyzer import analyze_program

        expected = analyze_program(direct, **bench.analyzer_options).bound
        assert bound.pretty() == expected.pretty()
        for x in (0, 5, 17):
            assert bound.evaluate({"x": x}) == expected.evaluate({"x": x})

    def test_payload_is_json_clean(self):
        import json

        result = run_job(AnalysisJob.create("rdwalk", RDWALK))
        encoded = json.dumps(result.to_record())
        decoded = JobResult.from_record(json.loads(encoded))
        assert bound_from_payload(decoded.bound).pretty() == "2*|[x, n]|"


class TestJobFactories:
    def test_job_from_file(self, tmp_path):
        path = tmp_path / "walk.imp"
        path.write_text(RDWALK)
        job = job_from_file(str(path), name="walk")
        assert job.name == "walk"
        assert job.job_hash == AnalysisJob.create("walk", RDWALK).job_hash

    def test_job_from_benchmark_matches_direct_analysis(self):
        bench = get_benchmark("ber")
        result = run_job(job_from_benchmark(bench))
        from repro.core.analyzer import analyze_program

        direct = analyze_program(bench.build(), **bench.analyzer_options)
        assert result.bound_pretty == direct.bound.pretty()


class TestOneProductionPath:
    """No environment selects a variant; older records read as misses."""

    def test_retired_selector_env_vars_do_not_move_the_hash(self,
                                                           monkeypatch):
        for name in ("REPRO_DOMAIN", "REPRO_SOLVER", "REPRO_PREFILTER"):
            monkeypatch.delenv(name, raising=False)
        clean = AnalysisJob.create("walk", RDWALK, {"max_degree": 1})
        monkeypatch.setenv("REPRO_DOMAIN", "polyhedra")
        monkeypatch.setenv("REPRO_SOLVER", "highs")
        monkeypatch.setenv("REPRO_PREFILTER", "off")
        stamped = AnalysisJob.create("walk", RDWALK, {"max_degree": 1})
        assert stamped.options == clean.options == (("max_degree", 1),)
        assert stamped.job_hash == clean.job_hash

    def test_a_schema_v7_record_reads_as_a_miss(self, tmp_path):
        import json
        import os

        from repro.service.store import ResultStore, record_checksum

        store = ResultStore(str(tmp_path))
        job = AnalysisJob.create("walk", RDWALK)
        record = run_job(job).to_record()
        record.update(schema=7, domain="fm")
        record["checksum"] = record_checksum(record)
        path = store._path(job.job_hash)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        assert SCHEMA_VERSION == 8
        assert store.get(job.job_hash) is None
        assert store.stats.invalid == 1
        assert store.quarantine_count() == 0   # replaceable, not corrupt
