"""Tests for rewrite-function generation and the base-function heuristic."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.basegen import (
    BaseGenConfig,
    atoms_for_loop,
    dead_at_loop_head,
    monomials_up_to_degree,
    template_monomials_for_loop,
    template_monomials_for_procedure,
)
from repro.core import rewrite
from repro.core.rewrite import applicable_monomials, generate_rewrites
from repro.lang import ast
from repro.lang import builder as B
from repro.lang.distributions import Uniform
from repro.logic.contexts import Context
from repro.utils.linear import LinExpr
from repro.utils.polynomials import IntervalAtom, Monomial


def atom(coeffs, const=0):
    return IntervalAtom(LinExpr(coeffs, const))


X = atom({"x": 1})
X_MINUS_1 = atom({"x": 1}, -1)
N_MINUS_X = atom({"n": 1, "x": -1})


class TestRewriteGeneration:
    def test_every_pool_monomial_can_be_discarded(self):
        pool = [Monomial.one(), Monomial.of_atom(X)]
        rewrites = generate_rewrites(Context.top(), pool, max_degree=1)
        discard_polys = {str(r.polynomial) for r in rewrites}
        assert "1" in discard_polys
        assert "|[0, x]|" in discard_polys

    def test_constant_extraction_requires_context(self):
        pool = [Monomial.of_atom(X)]
        without = generate_rewrites(Context.top(), pool, 1)
        with_ctx = generate_rewrites(Context([LinExpr({"x": 1}, -3)]), pool, 1)
        assert not any("under context" in r.reason for r in without)
        assert any("|[0, x]| >= 3" in r.reason for r in with_ctx)

    def test_telescoping_pair_rewrite(self):
        """|[0,x]| - |[1,x]| - 1 >= 0 is available when the context gives x >= 1."""
        pool = [Monomial.of_atom(X), Monomial.of_atom(X_MINUS_1)]
        context = Context([LinExpr({"x": 1}, -1)])
        rewrites = generate_rewrites(context, pool, 1)
        targets = [r for r in rewrites
                   if r.polynomial.coefficient(Monomial.of_atom(X)) == 1
                   and r.polynomial.coefficient(Monomial.of_atom(X_MINUS_1)) == -1]
        assert any(r.polynomial.constant_value() == -1 for r in targets)

    def test_negative_shift_pair_rewrite(self):
        """|[1,x]| - |[0,x]| + 1 >= 0 holds unconditionally."""
        pool = [Monomial.of_atom(X), Monomial.of_atom(X_MINUS_1)]
        rewrites = generate_rewrites(Context.top(), pool, 1)
        assert any(r.polynomial.coefficient(Monomial.of_atom(X_MINUS_1)) == 1
                   and r.polynomial.coefficient(Monomial.of_atom(X)) == -1
                   and r.polynomial.constant_value() == 1 for r in rewrites)

    def test_rewrites_are_nonnegative_on_context_states(self):
        pool = [Monomial.of_atom(X), Monomial.of_atom(X_MINUS_1), Monomial.of_atom(N_MINUS_X)]
        context = Context([LinExpr({"x": 1}, -1), LinExpr({"n": 1, "x": -1})])
        rewrites = generate_rewrites(context, pool, 1)
        rng = np.random.default_rng(0)
        states = []
        while len(states) < 25:
            state = {"x": int(rng.integers(-5, 30)), "n": int(rng.integers(-5, 30))}
            if context.satisfied_by(state):
                states.append(state)
        for rewrite in rewrites:
            for state in states:
                assert rewrite.polynomial.evaluate(state) >= 0, rewrite.reason

    def test_degree_two_lifting(self):
        quad = Monomial({X: 2})
        pool = [Monomial.of_atom(X), Monomial.of_atom(X_MINUS_1), quad]
        context = Context([LinExpr({"x": 1}, -1)])
        rewrites = generate_rewrites(context, pool, 2)
        assert any(r.polynomial.degree() == 2 for r in rewrites)

    def test_applicable_monomials(self):
        pool = [Monomial.of_atom(X)]
        rewrites = generate_rewrites(Context([LinExpr({"x": 1}, -1)]), pool, 1)
        monomials = applicable_monomials(rewrites)
        assert Monomial.of_atom(X) in monomials
        assert Monomial.one() in monomials

    def test_clear_rewrite_caches_drops_every_memo(self):
        # A context whose atom pool has a pair, so the atom-difference memo
        # is filled alongside the rewrite memos.
        context = Context([LinExpr({"x": 1}, -1), LinExpr({"n": 1})])
        pool = [Monomial.of_atom(X), Monomial.of_atom(N_MINUS_X)]
        generate_rewrites(context, pool, 1)
        assert rewrite._REWRITE_CACHE and rewrite._ATOM_REWRITE_CACHE
        assert rewrite._DIFF_CACHE
        rewrite.clear_rewrite_caches()
        assert not rewrite._REWRITE_CACHE
        assert not rewrite._ATOM_REWRITE_CACHE
        assert not rewrite._DIFF_CACHE


class TestDeadVariables:
    def test_reset_variable_is_dead(self):
        loop = B.while_("s > 0",
            B.assign("s", "s - 1"),
            B.sample("k", Uniform(0, 3)),
            B.while_("k > 0", B.assign("k", "k - 1"), B.tick(1)))
        assert dead_at_loop_head(loop, "k")
        assert not dead_at_loop_head(loop, "s")

    def test_variable_read_first_is_live(self):
        loop = B.while_("x > 0", B.assign("y", "y + 1"), B.assign("x", "x - 1"))
        assert not dead_at_loop_head(loop, "y")

    def test_branch_defined_on_one_side_only_is_live(self):
        loop = B.while_("x > 0",
            B.if_("x > 5", B.assign("t", "0"), B.skip()),
            B.assign("x", "x - 1"))
        assert not dead_at_loop_head(loop, "t")

    def test_guard_variable_is_live(self):
        loop = B.while_("k > 0", B.assign("k", "0"))
        assert not dead_at_loop_head(loop, "k")


class TestBaseFunctionHeuristic:
    def _race_loop(self):
        program = B.program(B.proc("main", ["h", "t"],
            B.while_("h <= t",
                B.assign("t", "t + 1"),
                B.prob("1/2", B.incr_sample("h", Uniform(0, 10)), B.skip()),
                B.tick(1))))
        return [n for n in program.iter_nodes() if isinstance(n, ast.While)][0]

    def test_guard_atoms_widened_by_sampling_range(self):
        loop = self._race_loop()
        atoms = atoms_for_loop(loop, Context.top(), [], BaseGenConfig())
        rendered = {str(a) for a in atoms}
        assert "|[h, t]|" in rendered
        assert "|[h, t + 9]|" in rendered

    def test_post_monomials_always_included(self):
        loop = self._race_loop()
        extra = Monomial.of_atom(atom({"q": 1}))
        monomials = template_monomials_for_loop(loop, Context.top(), [extra],
                                                BaseGenConfig())
        assert extra in monomials

    def test_hint_atoms_included(self):
        loop = self._race_loop()
        hint = LinExpr({"t": 1, "h": -1}, 42)
        config = BaseGenConfig(hint_atoms=(hint,))
        atoms = atoms_for_loop(loop, Context.top(), [], config)
        assert any(a.diff == hint for a in atoms)

    def test_atom_budget_respected(self):
        loop = self._race_loop()
        config = BaseGenConfig(atom_limit=5)
        atoms = atoms_for_loop(loop, Context.top(), [], config)
        assert len(atoms) <= 5

    def test_monomials_up_to_degree_two(self):
        monomials = monomials_up_to_degree([X, N_MINUS_X], 2)
        degrees = {m.degree() for m in monomials}
        assert degrees == {0, 1, 2}
        assert Monomial({X: 1, N_MINUS_X: 1}) in monomials

    def test_monomial_limit(self):
        atoms = [atom({f"v{i}": 1}) for i in range(20)]
        monomials = monomials_up_to_degree(atoms, 2, limit=30)
        assert len(monomials) <= 30

    def test_procedure_templates_cover_guards(self):
        body = B.seq(
            B.if_("h > l",
                  B.seq(B.tick(1), B.prob("1/2", B.assign("l", "l + 1"),
                                          B.assign("h", "h - 1")),
                        B.call("narrow")),
                  B.skip()))
        monomials = template_monomials_for_procedure(body, Context.top(),
                                                     BaseGenConfig(max_degree=2))
        rendered = {str(m) for m in monomials}
        assert "|[l, h]|" in rendered or "|[l + 1, h]|" in rendered
        assert any(m.degree() == 2 for m in monomials)
