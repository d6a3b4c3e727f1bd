"""Tests for the staged LP solve over one growing assembly.

Every solve is a scipy ``linprog`` call over
:meth:`~repro.core.solver.AssembledSystem.matrices`.  What is pinned here:
the extras cache appends one objective-fixing row per stage instead of
re-stacking the whole block, and :class:`~repro.core.solver.
IterativeMinimizer` keeps its stage rows to one attempt, so the next
degree starts from the base system alone.
"""

import numpy as np
import pytest

from repro.core.analyzer import analyze_program
from repro.core.constraints import ConstraintSystem
from repro.core.solver import AssembledSystem, IterativeMinimizer
from repro.lang import builder as B


def nested_loop_program():
    return B.program(B.proc("main", ["n"],
        B.while_("n > 0",
            B.assign("n", "n - 1"),
            B.assign("m", "n"),
            B.while_("m > 0", B.assign("m", "m - 1"), B.tick(1)))))


def small_system():
    """min x + y  s.t.  x + y >= 2,  x - y == 0  (optimum x = y = 1)."""
    system = ConstraintSystem()
    x = system.new_var("x", nonneg=True)
    y = system.new_var("y", nonneg=True)
    system.add_ge(x + y - 2)
    system.add_eq(x - y)
    return system, x, y


# ---------------------------------------------------------------------------
# The extras-assembly cache (no full re-stack per stage)
# ---------------------------------------------------------------------------

class TestExtrasCache:
    def _dense(self, matrices):
        a_ub, b_ub, _, _, _ = matrices
        return (a_ub.toarray() if a_ub is not None else None,
                b_ub.copy() if b_ub is not None else None)

    def test_incremental_extras_equal_fresh_assembly(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        stage_rows = []
        for bound in (2.0, 1.5, 1.25):
            stage_rows.append((x + y, bound))
            cached_a, cached_b = self._dense(assembled.matrices(stage_rows))
            fresh_a, fresh_b = self._dense(
                AssembledSystem(system).matrices(list(stage_rows)))
            assert np.array_equal(cached_a, fresh_a)
            assert np.array_equal(cached_b, fresh_b)

    def test_cache_appends_only_the_suffix(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        rows = [(x + y, 2.0)]
        assembled.matrices(rows)
        first_block = assembled._extras_cache[1]
        rows.append((x - y, 0.5))
        assembled.matrices(rows)
        prefix, block, rhs = assembled._extras_cache
        assert len(prefix) == 2 and block.shape[0] == 2
        # The prefix row's CSR data was carried over, not re-assembled.
        assert np.array_equal(block.toarray()[0], first_block.toarray()[0])

    def test_changed_prefix_rebuilds(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        assembled.matrices([(x + y, 2.0)])
        a, b = self._dense(assembled.matrices([(x + y, 3.0)]))
        fresh_a, fresh_b = self._dense(
            AssembledSystem(system).matrices([(x + y, 3.0)]))
        assert np.array_equal(a, fresh_a)
        assert np.array_equal(b, fresh_b)

    def test_fresh_stage_list_resets(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        assembled.matrices([(x + y, 2.0), (x - y, 0.5)])
        a, b = self._dense(assembled.matrices([(y - x, 0.25)]))
        fresh_a, fresh_b = self._dense(
            AssembledSystem(system).matrices([(y - x, 0.25)]))
        assert np.array_equal(a, fresh_a)
        assert np.array_equal(b, fresh_b)


# ---------------------------------------------------------------------------
# Stage rows belong to one attempt
# ---------------------------------------------------------------------------

class TestStageRows:
    def test_minimizer_solves_without_an_assembly(self):
        system, x, y = small_system()
        solver = IterativeMinimizer(system)
        solution = solver.solve([x + y])
        assert solution is not None
        assert float(solution.objective_values[0]) == pytest.approx(2.0)
        assert solver.solves == 1

    def test_stage_rows_constrain_later_stages(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        # Minimising x + y fixes x + y <= 2; the second stage maximises x
        # (minimises -x) under that row and x == y, so x stays at 1.
        solution = IterativeMinimizer(system).solve([x + y, x * -1],
                                                    assembled=assembled)
        assert solution is not None
        assert solution.raw_values[0] == pytest.approx(1.0, abs=1e-6)
        # The second solve saw exactly the first stage's fixing row.
        prefix, block, _ = assembled._extras_cache
        assert len(prefix) == 1 and block.shape[0] == 1

    def test_stage_rows_are_cleared_between_attempts(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        IterativeMinimizer(system).solve([x + y], assembled=assembled)
        # A new attempt over the same assembly starts without the earlier
        # attempt's x + y <= 2 row: maximising x is unbounded again.
        assert assembled.solve(x * -1) is None
        again = IterativeMinimizer(system)
        assert again.solve([x * -1], assembled=assembled) is None
        assert again.solves == 1

    def test_stale_assembly_is_rejected(self):
        system, x, y = small_system()
        assembled = AssembledSystem(system)
        system.add_ge(x - 1)
        with pytest.raises(ValueError, match="stale"):
            IterativeMinimizer(system).solve([x + y], assembled=assembled)

    def test_pipeline_counts_one_solve_per_stage(self):
        result = analyze_program(nested_loop_program(), max_degree=1,
                                 auto_degree=True, degree_limit=2)
        assert result.success and result.degree == 2
        stats = result.stats
        assert stats.warm_solves == 0
        assert stats.cold_solves == stats.lp_solves > 0
        stage_dicts = [stage.to_dict() for stage in stats.stages]
        assert sum(entry["lp_solves"] for entry in stage_dicts) \
            == stats.lp_solves
        assert stats.to_dict()["lp_solves"] == stats.lp_solves
