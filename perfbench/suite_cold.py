"""``suite-cold``: every registry program through in-process
``analyze_source`` with its registry options, memos reset before each one.

Light class: the 30 linear programs.  Heavy class: the 9 polynomial ones.
"""

from __future__ import annotations

import gc
import random
import statistics
from typing import Dict, List, Sequence, Tuple

from perfbench.common import HostReference, Outcome, PassClock, timed_ops
from perfbench.programs import check_values, load_golden, registry_sources

#: The untimed warm-up analysis of set-up: small, but it takes the degree-2
#: path, so the lazy imports of the LP stack are paid before timing.
WARMUP_SOURCE = """proc main(n) {
    while (n > 0) {
        n = n - 1;
        tick(1);
    }
}
"""
WARMUP_OPTIONS = {"max_degree": 2, "auto_degree": False}

Program = Tuple[str, str, Dict[str, object], str]   # name, source, options,
                                                   # category


def setup() -> List[Program]:
    """Imports, program texts and one untimed warm-up analysis."""
    from repro.bench.registry import get_benchmark
    from repro.core import analyzer

    programs = [(name, source, options, get_benchmark(name).category)
                for name, source, options in registry_sources()]
    reset_memos()
    result = analyzer.analyze_source(WARMUP_SOURCE, **WARMUP_OPTIONS)
    if not result.success:
        raise RuntimeError("warm-up analysis failed")
    reset_memos()
    return programs


def reset_memos() -> None:
    """Drop every process-wide memo so each analysis starts cold.

    ``clear_rewrite_caches`` leaves the atom-difference memo of
    ``repro.core.rewrite`` alone; it is cleared here too (when present), so
    an analysis never depends on which programs ran before it.
    """
    from repro.core import rewrite
    from repro.logic.entailment import reset_engine

    reset_engine()
    rewrite.clear_rewrite_caches()
    getattr(rewrite, "_DIFF_CACHE", {}).clear()
    gc.collect()


def script(programs: Sequence[Program], rng: random.Random
           ) -> List[Program]:
    order = list(programs)
    rng.shuffle(order)
    return order


def run_pass(order: Sequence[Program], host: HostReference,
             outcome: Outcome, entries: Dict[str, Dict[str, object]]
             ) -> List[Tuple[str, float, float]]:
    """Analyse every program once; ``(category, raw_s, norm_s)`` each."""
    from repro.core import analyzer

    results: List[object] = []

    def operation(source: str, options: Dict[str, object]):
        def run() -> None:
            results.append(analyzer.analyze_source(source, **options))
        return run

    def untimed(index: int) -> None:
        if index:
            check(order[index - 1][0], results[index - 1], outcome, entries)
        if index < len(order):
            reset_memos()

    walls = timed_ops(host, [operation(source, options)
                             for _, source, options, _ in order], untimed)
    return [(category, raw, norm)
            for (_, _, _, category), (raw, norm) in zip(order, walls)]


def check(name: str, result, outcome: Outcome,
          entries: Dict[str, Dict[str, object]]) -> None:
    if not result.success or result.bound is None:
        outcome.record(False, f"{name}: {result.failure_kind} "
                              f"{result.message}")
        return
    try:
        ok, why = check_values(entries[name], result.bound.evaluate)
    except KeyError as exc:
        ok, why = False, f"bound mentions unexpected variable {exc}"
    outcome.record(ok, f"{name}: {why}")


def summarise(walls: Sequence[Tuple[str, float, float]], passes: int
              ) -> Dict[str, float]:
    """Class means and pass totals, normalised and raw."""
    out: Dict[str, float] = {}
    for label, index in (("", 2), ("raw.", 1)):
        light = [wall[index] for wall in walls if wall[0] == "linear"]
        heavy = [wall[index] for wall in walls if wall[0] != "linear"]
        out[label + "light_ms"] = 1000.0 * sum(light) / len(light)
        out[label + "heavy_ms"] = 1000.0 * sum(heavy) / len(heavy)
        out[label + "pass_s"] = sum(light + heavy) / passes
    return out


def measure(seed: int, seconds: float, host: HostReference,
            outcome: Outcome, programs: Sequence[Program]
            ) -> Dict[str, float]:
    """Whole passes until ``seconds`` have gone (at least one)."""
    golden = load_golden()
    rng = random.Random(seed)
    walls: List[Tuple[str, float, float]] = []
    pass_totals: List[float] = []
    raw_totals: List[float] = []
    clock = PassClock(seconds)
    while clock.another():
        one = run_pass(script(programs, rng), host, outcome,
                       golden["suite"])
        walls.extend(one)
        pass_totals.append(sum(norm for _, _, norm in one))
        raw_totals.append(sum(raw for _, raw, _ in one))
    summary = summarise(walls, len(pass_totals))
    summary["pass_s"] = statistics.median(pass_totals)
    summary["raw.pass_s"] = statistics.median(raw_totals)
    summary["passes"] = len(pass_totals)
    return summary


# ---------------------------------------------------------------------------
# The core family of layer metrics
# ---------------------------------------------------------------------------

#: Layers whose self time is reported, by metric name.
LAYER_TIMES = (
    ("lang.parse_ms", "lang.parse"),
    ("core.prepare_ms", "core.prepare"),
    ("core.derive_ms", "core.derive"),
    ("core.rewrite_ms", "core.rewrite"),
    ("utils.poly_mul_ms", "utils.poly_mul"),
    ("core.solve_ms", "core.solve"),
    ("core.lp_ms", "core.lp"),
    ("core.certificate_ms", "core.certificate"),
    ("logic.entail_ms", "logic.entail"),
    ("trace.unattributed_ms", "root"),
)
ENGINE_TIERS = ("memo", "syntactic", "interval", "exact")


def traced_pass(order: Sequence[Program], host: HostReference,
                outcome: Outcome, entries: Dict[str, Dict[str, object]]
                ) -> Tuple[Dict[str, float], float]:
    """One pass with the layer wrappers installed.

    Returns the layer metrics and the pass's normalised wall.  Layer deltas
    are read right after each analysis, before the untimed output check,
    and scaled by that analysis's normalisation factor.
    """
    from repro.core import analyzer
    from repro.logic.entailment import engine_stats

    from perfbench.spans import CORE_TARGETS, Tracer

    tracer = Tracer()
    results: List[object] = []
    deltas: List[Tuple[Dict[str, float], Dict[str, int]]] = []
    counts: Dict[str, int] = {name: 0 for name in (
        "core.lp_rows", "core.lp_cols", "core.lp_solves", "core.escalations",
        "logic.queries", "logic.fm_eliminations",
        *(f"logic.tier_{tier}" for tier in ENGINE_TIERS))}
    mark: List[Tuple[Dict[str, float], Dict[str, int]]] = []

    def snapshot() -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(tracer.self_seconds), dict(tracer.calls)

    def operation(source: str, options: Dict[str, object]):
        def run() -> None:
            results.append(analyzer.analyze_source(source, **options))
        return run

    def untimed(index: int) -> None:
        if index:
            seconds, calls = snapshot()
            since_seconds, since_calls = mark[0]
            deltas.append((
                {key: value - since_seconds.get(key, 0.0)
                 for key, value in seconds.items()},
                {key: value - since_calls.get(key, 0)
                 for key, value in calls.items()}))
            result = results[index - 1]
            stats = engine_stats()
            counts["logic.queries"] += stats["queries"]
            counts["logic.fm_eliminations"] += stats["fm_eliminations"]
            for tier in ENGINE_TIERS:
                counts[f"logic.tier_{tier}"] += stats["tiers"][tier]
            counts["core.lp_rows"] += result.lp_constraints
            counts["core.lp_cols"] += result.lp_variables
            if result.stats is not None:
                counts["core.lp_solves"] += (result.stats.warm_solves
                                             + result.stats.cold_solves)
                counts["core.escalations"] += max(
                    0, len(result.stats.attempted_degrees) - 1)
            check(order[index - 1][0], result, outcome, entries)
        if index < len(order):
            reset_memos()
            mark[:] = [snapshot()]

    tracer.install(CORE_TARGETS)
    try:
        walls = timed_ops(host, [operation(source, options)
                                 for _, source, options, _ in order],
                          untimed)
    finally:
        tracer.uninstall()
    metrics: Dict[str, float] = {}
    for metric, layer in LAYER_TIMES:
        metrics[metric] = 1000.0 * sum(
            seconds.get(layer, 0.0) * norm / raw
            for (seconds, _), (raw, norm) in zip(deltas, walls))
    calls = {key: sum(c.get(key, 0) for _, c in deltas)
             for key in ("core.rewrite", "utils.poly_mul")}
    metrics["core.rewrite_calls"] = calls["core.rewrite"]
    metrics["utils.poly_mul_calls"] = calls["utils.poly_mul"]
    metrics.update(counts)
    queries = counts["logic.queries"]
    metrics["logic.cheap_ratio"] = \
        (queries - counts["logic.tier_exact"]) / queries if queries else 0.0
    return metrics, sum(norm for _, norm in walls)


def layer_metrics(order: Sequence[Program],
                  entries: Dict[str, Dict[str, object]],
                  host: HostReference, outcome: Outcome
                  ) -> Tuple[Dict[str, float], List[Tuple[str, float, float]]]:
    """The core family: an untraced and a traced pass over ``order``.

    Returns the layer metrics and the untraced pass's walls.
    """
    untraced = run_pass(order, host, outcome, entries)
    metrics, traced_wall = traced_pass(order, host, outcome, entries)
    metrics["trace.overhead_ratio"] = \
        traced_wall / sum(norm for _, _, norm in untraced)
    metrics["trace.coverage_ratio"] = \
        1.0 - metrics["trace.unattributed_ms"] / (1000.0 * traced_wall)
    return metrics, untraced
