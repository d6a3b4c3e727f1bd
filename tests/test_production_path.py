"""The one production path, pinned registry-wide.

Every analysis runs Fourier-Motzkin behind the interval tier for
entailment and scipy ``linprog`` for every LP solve; no configuration
field selects anything else.  Each registry program analyzed this way
must reproduce the golden bound the benchmark checks its output against
(``perfbench/golden_bounds.json``), with the benchmark's reference states
and tolerance.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.bench.registry import all_benchmarks
from repro.core.analyzer import AnalyzerConfig, analyze_program
from repro.lang import builder as B

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.programs import check_values, load_golden  # noqa: E402

GOLDEN = load_golden()["suite"]


def test_golden_bounds_cover_the_registry():
    assert sorted(GOLDEN) == sorted(bench.name for bench in all_benchmarks())


@pytest.mark.parametrize("bench", all_benchmarks(),
                         ids=lambda bench: bench.name)
def test_registry_bound_matches_the_golden_values(bench):
    result = analyze_program(bench.build(), **bench.analyzer_options)
    assert result.success, f"{bench.name}: {result.message}"
    ok, why = check_values(GOLDEN[bench.name], result.bound.evaluate)
    assert ok, f"{bench.name}: {why} (bound {result.bound.pretty()})"
    # Every LP solve is a plain scipy solve, counted once per stage.
    stats = result.stats
    assert stats.warm_solves == 0
    assert stats.cold_solves == stats.lp_solves > 0
    assert sum(stage.to_dict()["lp_solves"] for stage in stats.stages) \
        == stats.lp_solves


@pytest.mark.parametrize("field,value", [("domain", "polyhedra"),
                                         ("solver", "scipy"),
                                         ("prefilter", False)])
def test_no_config_field_selects_a_variant(field, value):
    assert not hasattr(AnalyzerConfig(), field)
    program = B.program(B.proc("main", ["n"],
        B.while_("n > 0", B.assign("n", "n - 1"), B.tick(1))))
    with pytest.raises(TypeError, match=field):
        AnalyzerConfig(**{field: value})
    with pytest.raises(TypeError, match=field):
        analyze_program(program, **{field: value})
