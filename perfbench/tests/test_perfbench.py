"""Tests of the benchmark itself: reference kernel, variant generator,
cache-tier plan, self-time arithmetic, output checks and a smoke run."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import common, programs, serve_mixed, spans  # noqa: E402


# -- reference kernel and normalisation -------------------------------------

def test_reference_kernel_is_fixed_work():
    assert common.reference_kernel() == common.REFERENCE_VALUE
    assert common.reference_kernel(100) == common.reference_kernel(100)


def test_scales_pool_the_window_of_barriers_around_each_operation():
    nominal = common.NOMINAL_REF_MS
    steady = [[nominal] * 2] * 4
    assert common.HostReference.scales(steady) == \
        pytest.approx([1.0, 1.0, 1.0])
    # One slow barrier in the middle: every operation within WINDOW
    # barriers of it sees it, weighted by its share of the pooled runs.
    barriers = [[nominal], [nominal], [3 * nominal], [nominal], [nominal]]
    factors = common.HostReference.scales(barriers)
    assert len(factors) == 4
    pooled = [barriers[max(0, i + 1 - common.WINDOW):i + 1 + common.WINDOW]
              for i in range(4)]
    for factor, window in zip(factors, pooled):
        runs = [run for barrier in window for run in barrier]
        assert factor == pytest.approx(nominal * len(runs) / sum(runs))
    assert max(factors) < 1.0


def test_host_reference_rejects_a_changed_kernel(monkeypatch):
    host = common.HostReference()
    monkeypatch.setattr(common, "reference_kernel", lambda: Fraction(1))
    with pytest.raises(RuntimeError):
        host.measure()


def test_timed_ops_runs_untimed_hooks_around_every_operation():
    host = common.HostReference()
    seen = []
    walls = common.timed_ops(host, [lambda: seen.append("a"),
                                    lambda: seen.append("b")],
                             lambda index: seen.append(index))
    assert seen == [0, "a", 1, "b", 2]
    assert len(walls) == 2
    assert len(host.samples_ms) == 3 * common.REFERENCE_REPEATS
    for raw, norm in walls:
        assert raw >= 0.0 and norm >= 0.0


def test_pass_clock_starts_only_passes_that_fit(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(common.time, "perf_counter", lambda: now[0])
    clock = common.PassClock(10.0)
    assert clock.another()          # the first pass always runs
    now[0] += 4.0
    assert clock.another()          # 4 s gone, 4 s more ends at 8 s
    now[0] += 4.5
    assert not clock.another()      # 8.5 s gone, 4.5 s more would be 13 s
    assert clock.passes == 2
    slow = common.PassClock(1.0)
    assert slow.another()
    now[0] += 30.0
    assert not slow.another()


def test_tail_percentile_keeps_ten_samples_beyond_it():
    percent, value = common.tail_percentile(list(range(1, 101)))
    assert (percent, value) == (90.0, 90)
    percent, value = common.tail_percentile(list(range(1, 1001)))
    assert (percent, value) == (99.0, 990)
    assert common.tail_percentile([5.0, 1.0, 3.0]) == (50.0, 3.0)


# -- self-time arithmetic ----------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf(seconds):
        clock.now += seconds

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(3.0)
        clock.now += 0.5

    def root():
        clock.now += 0.25
        traced_middle()
        traced_leaf(4.0)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("root", root)()
    assert tracer.self_seconds["leaf"] == pytest.approx(9.0)
    assert tracer.self_seconds["middle"] == pytest.approx(1.5)
    assert tracer.self_seconds["root"] == pytest.approx(0.25)
    assert sum(tracer.self_seconds.values()) == pytest.approx(clock.now)
    assert tracer.calls == {"leaf": 3, "middle": 1, "root": 1}


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def failing():
        clock.now += 1.0
        raise ValueError("boom")

    traced = tracer.wrap("fail", failing)
    with pytest.raises(ValueError):
        tracer.wrap("root", traced)()
    assert tracer.self_seconds["fail"] == pytest.approx(1.0)
    assert tracer.self_seconds["root"] == pytest.approx(0.0)


def test_install_patches_importers_and_uninstall_restores():
    from repro.core import certificates, derivation, pipeline, rewrite
    from repro.utils.polynomials import Polynomial

    originals = (rewrite.generate_rewrites, derivation.generate_rewrites,
                 pipeline.build_certificate, Polynomial.__mul__)
    tracer = spans.Tracer()
    tracer.install(spans.CORE_TARGETS)
    try:
        assert derivation.generate_rewrites is rewrite.generate_rewrites
        assert derivation.generate_rewrites.__wrapped__ is originals[0]
        assert pipeline.build_certificate is certificates.build_certificate
        assert pipeline.build_certificate.__wrapped__ is originals[2]
        product = Polynomial.constant(2) * Polynomial.constant(3)
        assert product == Polynomial.constant(6)
        assert tracer.calls["utils.poly_mul"] == 1
    finally:
        tracer.uninstall()
    assert (rewrite.generate_rewrites, derivation.generate_rewrites,
            pipeline.build_certificate, Polynomial.__mul__) == originals


def test_traced_analysis_attributes_nearly_all_time():
    from perfbench import suite_cold

    golden = programs.load_golden()["suite"]
    order = [(name, source, options, "linear")
             for name, source, options in programs.registry_sources("linear")
             if name in ("rdwalk", "C4B_t13")]
    outcome = common.Outcome()
    metrics, _ = suite_cold.traced_pass(order, common.HostReference(),
                                        outcome, golden)
    assert outcome.failed == 0 and outcome.attempted == 2
    assert metrics["logic.queries"] == sum(
        metrics[f"logic.tier_{tier}"] for tier in suite_cold.ENGINE_TIERS)
    assert metrics["core.rewrite_calls"] > 0
    again, _ = suite_cold.traced_pass(order, common.HostReference(),
                                      outcome, golden)
    for name in ("logic.queries", "logic.tier_exact", "core.lp_rows",
                 "core.rewrite_calls", "utils.poly_mul_calls"):
        assert again[name] == metrics[name]


# -- variants and output checks ----------------------------------------------

@pytest.mark.parametrize("name", ["rdwalk", "fcall", "race", "bin",
                                  "cooling"])
def test_renamed_variant_parses_and_keeps_the_bound(name):
    from perfbench.suite_cold import reset_memos
    from repro.core.analyzer import analyze_source
    from repro.lang.parser import parse_program

    (source, options), = [(text, opts) for base, text, opts
                          in programs.registry_sources("linear")
                          if base == name]
    prefix = programs.variant_prefix(random.Random(7))
    text, mapping = programs.rename_variables(source, prefix)
    parse_program(text)
    assert mapping and all(new == prefix + old
                           for old, new in mapping.items())
    assert "proc main" in text and prefix + "main" not in text
    reset_memos()
    base = analyze_source(source, **options).require_bound()
    reset_memos()
    variant = analyze_source(text, **options).require_bound()
    for state in programs.reference_states(base.variables()):
        assert variant.evaluate(programs.renamed_state(state, mapping)) \
            == base.evaluate(state)


def test_pretty_evaluation_matches_the_exact_bound():
    golden = programs.load_golden()
    for group in golden.values():
        for entry in group.values():
            states = programs.reference_states(entry["variables"])
            for state, expected in zip(states, entry["values"]):
                assert programs.close(
                    programs.evaluate_pretty(entry["pretty"], state),
                    float(Fraction(expected)))


def test_pretty_evaluation_rejects_anything_but_arithmetic():
    assert programs.evaluate_pretty("2*|[x, n]|^2 + 1", {"x": 1, "n": 4}) \
        == 19
    for text in ("__import__('os')", "x.real", "open('f')"):
        with pytest.raises(ValueError):
            programs.evaluate_pretty(text, {"x": 1})


def test_bound_check_tolerates_the_exact_lp_shift_only():
    entry = programs.load_golden()["suite"]["bin"]
    states = programs.reference_states(entry["variables"])
    exact = dict(zip(map(repr, states), map(Fraction, entry["values"])))
    ok, _ = programs.check_values(
        entry, lambda state: exact[repr(state)] * (1 + Fraction(1, 10 ** 6)))
    assert ok
    ok, _ = programs.check_values(
        entry, lambda state: exact[repr(state)] * Fraction(101, 100))
    assert not ok


def test_golden_covers_every_program_with_discriminating_states():
    golden = programs.load_golden()
    names = {name for name, _, _ in programs.registry_sources()}
    assert set(golden["suite"]) == names
    assert set(golden["examples"]) == {path.name
                                       for path in programs.example_files()}
    for group in golden.values():
        for entry in group.values():
            assert len(set(entry["values"])) > 1


# -- the serve-mixed plan -----------------------------------------------------

def replay(segments, rng):
    """Run the segments against the real hot tier, each in a random
    interleaving of its two lanes (request ``i`` of a segment goes to lane
    ``i % 2``, as ``serve_mixed._drive`` sends them).  Returns expected and
    observed tiers."""
    from repro.service.cache import HotResultCache
    from repro.service.jobs import JobResult

    cache = HotResultCache(serve_mixed.HOT_CACHE_SIZE)
    stored = set()

    def put(job):
        cache.put(JobResult(name=str(job), job_hash=str(job), status="ok"))
        stored.add(job)

    put(0)
    expected, observed = [], []
    for segment in segments:
        lanes = [list(segment[0::2]), list(segment[1::2])]
        while any(lanes):
            job, tier = rng.choice([lane for lane in lanes if lane]).pop(0)
            expected.append(tier)
            if cache.get(str(job)) is not None:
                observed.append("memory")
            else:
                observed.append("store" if job in stored else "computed")
                put(job)
    return expected, observed


@pytest.mark.parametrize("seed", range(6))
def test_plan_tiers_hold_under_every_interleaving(seed):
    plan = serve_mixed.plan(31, random.Random(seed))
    for trial in range(40):
        expected, observed = replay(plan, random.Random(trial))
        assert observed == expected
    tiers = [tier for segment in plan for _, tier in segment]
    assert tiers.count("computed") == 30
    assert tiers.count("store") > 0 and tiers.count("memory") > 0


def test_plan_class_sizes_do_not_depend_on_the_seed():
    counts = set()
    for seed in range(10):
        plan = serve_mixed.plan(31, random.Random(seed))
        tiers = [tier for segment in plan for _, tier in segment]
        counts.add(tuple(tiers.count(tier)
                         for tier in ("computed", "memory", "store")))
    assert len(counts) == 1


# -- smoke --------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_a_correct_result(trace):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = manifest["per_layer" if trace else "end_to_end"]
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed",
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {metric["name"] for metric in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
