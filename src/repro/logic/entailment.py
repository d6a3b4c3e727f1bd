"""Cached entailment engines fronting the exact abstract-domain backends.

The abstract interpreter and the rewrite generator ask the same small family
of questions over and over: ``Gamma |= e >= 0`` (entailment), the greatest
lower bound of an expression under ``Gamma``, and satisfiability of
``Gamma``.  A loop fixpoint alone re-asks each of them once per iteration,
and ``join``/``widen`` fan a single lattice operation out into one
entailment per fact.  Running a fresh Fourier-Motzkin elimination for each
query dominates the analyzer's wall-clock time.

:class:`EntailmentEngine` answers these queries through three layers, each
tried in order:

1. **memo cache** -- results keyed on ``(frozenset(facts), query)``, shared
   process-wide, so repeated queries (fixpoint iterations, repeated degrees,
   repeated program points) are O(1);
2. **syntactic fast paths** -- the query is a literal fact, a non-negative
   combination of at most two facts, a trivially true constant, or shares no
   variable with the context; these answer without any elimination;
3. **cached projection** -- the context is projected once onto the variables
   of the query (and, for :meth:`entails_many`, once onto the union of all
   query variables); the projection is memoised so every further query over
   the same variables reuses it and only runs a tiny final minimisation.

All layers are exact: fast paths only return definite answers, projections
are exact for rational Fourier-Motzkin, and the memo never crosses contexts.
``MemoryError`` raised by the constraint cap is never cached and always
propagates so callers (e.g. :meth:`Context.assign <repro.logic.contexts.Context.assign>`)
keep their fallback behaviour.

**Backends.**  The cold layer underneath the caches is a
:class:`DomainBackend` supplying exact projection, feasibility and
minimisation.  Every analysis runs on one process-wide engine
(:func:`get_engine`) over the hand-rolled Fourier-Motzkin eliminator of
:mod:`repro.logic.fourier_motzkin`, fronted by the interval tier.  The
generator-representation polyhedral domain of :mod:`repro.logic.polyhedra`
(double description / Chernikova) is exact as well and serves as the test
oracle: the differential and identity suites swap it in, or switch the
interval tier off, through :func:`oracle_engine`, and assert that nothing
an analysis reports changes.

The engine also hosts the lattice/transfer operations (:meth:`EntailmentEngine.join`,
:meth:`~EntailmentEngine.widen`, :meth:`~EntailmentEngine.assign`), so
``Context`` never touches a solver module directly and every backend serves
the full logical-context surface.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.logic import fourier_motzkin as fm
from repro.logic.intervals import UNDECIDED, IntervalBox
from repro.utils.linear import LinExpr

FactKey = FrozenSet[LinExpr]

#: Sentinel stored in the projection cache for infeasible contexts.
_INFEASIBLE = object()

#: Do not attempt the two-fact combination fast path on larger contexts.
_PAIR_FAST_PATH_LIMIT = 16

_ZERO = Fraction(0)


class EntailmentStats:
    """Counters describing how queries were answered.

    The first four counters partition the top-level queries by the tier
    that answered them (memo -> syntactic -> interval -> exact backend);
    :meth:`tiers` exposes that partition by tier name.  Note that
    ``Context.entails_context``'s syntactic-subset short circuit never
    reaches the engine at all, so it appears in *no* tier -- the counters
    describe engine queries, not every logical question asked.
    """

    __slots__ = ("queries", "memo_hits", "fast_hits", "interval_hits",
                 "misses", "eliminations", "fm_eliminations", "cap_blowups")

    def __init__(self) -> None:
        self.queries = 0          # top-level entails/glb/feasibility queries
        self.memo_hits = 0        # answered from the (facts, query) memo
        self.fast_hits = 0        # answered by a syntactic fast path
        self.interval_hits = 0    # answered by the interval pre-filter tier
        self.misses = 0           # required exact-backend work
        self.eliminations = 0     # eliminate/minimize/DD-conversion invocations
        self.fm_eliminations = 0  # Fourier-Motzkin eliminate_all invocations
        self.cap_blowups = 0      # projections killed by the constraint cap

    def hit_rate(self) -> float:
        """Fraction of queries answered without any elimination."""
        if not self.queries:
            return 0.0
        return (self.memo_hits + self.fast_hits
                + self.interval_hits) / self.queries

    def interval_hit_rate(self) -> float:
        """Fraction of tier-reaching queries the interval tier decided.

        Measured against the queries that fell through the memo and the
        syntactic fast paths (``interval_hits + misses``): of the queries
        that *would have* hit the exact backend, how many did the
        pre-filter shield?  This is the headline perfsmoke number.
        """
        reached = self.interval_hits + self.misses
        if not reached:
            return 0.0
        return self.interval_hits / reached

    def tiers(self) -> Dict[str, int]:
        """Per-tier answer counts, in the order the tiers are tried."""
        return {"memo": self.memo_hits, "syntactic": self.fast_hits,
                "interval": self.interval_hits, "exact": self.misses}

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def delta(self, since: Dict[str, int]) -> Dict[str, int]:
        return {name: getattr(self, name) - since.get(name, 0)
                for name in self.__slots__}

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = self.snapshot()
        data["hit_rate"] = round(self.hit_rate(), 4)
        data["interval_hit_rate"] = round(self.interval_hit_rate(), 4)
        data["tiers"] = self.tiers()
        return data

    def __repr__(self) -> str:
        return (f"EntailmentStats(queries={self.queries}, "
                f"memo_hits={self.memo_hits}, fast_hits={self.fast_hits}, "
                f"interval_hits={self.interval_hits}, "
                f"misses={self.misses}, eliminations={self.eliminations})")


class DomainBackend:
    """Interface of an exact abstract-domain backend under the engine.

    Every method must be *exact* over the rationals: different backends are
    interchangeable precisely because they can never disagree on a decision
    query.  Representation-producing operations (:meth:`project`) feed
    context reconstruction, so their byte-level output is part of the
    reproducibility contract (see ``tests/test_domain_identity.py``).
    """

    name = "abstract"
    #: Whether :meth:`EntailmentEngine.entails_many` should pre-project the
    #: context onto the union of the query variables (worth it when queries
    #: re-run an eliminator; pointless when the backend caches a generator
    #: representation per context).
    batch_by_projection = True

    def attach(self, engine: "EntailmentEngine") -> None:
        self.engine = engine

    def is_feasible(self, facts: Sequence[LinExpr], key: FactKey) -> bool:
        raise NotImplementedError

    def minimize(self, objective: LinExpr, facts: Sequence[LinExpr],
                 key: FactKey) -> Fraction:
        """``inf { objective | facts }``; raises ``Infeasible``/``Unbounded``."""
        raise NotImplementedError

    def project(self, facts: Sequence[LinExpr],
                keep: FrozenSet[str]) -> Tuple[LinExpr, ...]:
        """Exact projection onto ``keep``; raises ``Infeasible``."""
        raise NotImplementedError

    def assign(self, facts: Sequence[LinExpr], key: FactKey, var: str,
               rhs: LinExpr, low_shift: Fraction,
               high_shift: Fraction) -> Tuple[LinExpr, ...]:
        """Strongest postcondition of ``var := rhs + [low_shift, high_shift]``.

        Must return the *canonical minimal* constraint system of the
        result region (the :meth:`Polyhedron.constraints
        <repro.logic.polyhedra.Polyhedron.constraints>` normal form):
        context fact tuples seed base-function atoms and appear verbatim
        in certificates, so the byte-level output is part of the
        cross-domain reproducibility contract.  Raises ``Infeasible`` for
        unreachable results.
        """
        raise NotImplementedError

    def clear(self) -> None:
        """Drop any backend-private caches (engine.clear() calls this)."""


def assign_system(facts: Sequence[LinExpr], var: str, rhs: LinExpr,
                  low_shift: Fraction, high_shift: Fraction
                  ) -> Tuple[List[LinExpr], FrozenSet[str]]:
    """The renamed constraint system of an assignment, plus its keep set.

    The old value of ``var`` is renamed to a fresh symbol, the defining
    (in)equalities ``rhs + low <= var' <= rhs + high`` are added, and the
    caller projects the fresh symbol away.  Shared by every backend so the
    encoded relation (and thus the result region) is identical.
    """
    old = f"__old_{var}__"
    renamed = [fact.substitute(var, LinExpr.var(old)) for fact in facts]
    rhs_old = rhs.substitute(var, LinExpr.var(old))
    new_var = LinExpr.var(var)
    renamed.append(new_var - rhs_old - LinExpr.const(low_shift))
    renamed.append(rhs_old + LinExpr.const(high_shift) - new_var)
    keep = frozenset(v for fact in renamed
                     for v in fact.variables() if v != old)
    return renamed, keep


class FourierMotzkinBackend(DomainBackend):
    """The default backend: cached Fourier-Motzkin elimination.

    Minimisation projects the context onto the objective's variables first
    (through the engine's shared projection cache, so repeated queries over
    the same variables reuse one elimination) and then minimises over the
    much smaller projected system.
    """

    name = "fm"
    batch_by_projection = True

    def is_feasible(self, facts: Sequence[LinExpr], key: FactKey) -> bool:
        try:
            self.engine.project(facts, frozenset(), key)
        except fm.Infeasible:
            return False
        return True

    def minimize(self, objective: LinExpr, facts: Sequence[LinExpr],
                 key: FactKey) -> Fraction:
        projected = self.engine.project(
            facts, frozenset(objective.variables()), key)
        self.engine.stats.eliminations += 1
        return fm.minimize(objective, projected)

    def project(self, facts: Sequence[LinExpr],
                keep: FrozenSet[str]) -> Tuple[LinExpr, ...]:
        self.engine.stats.fm_eliminations += 1
        return tuple(fm.eliminate_all(facts, keep=sorted(keep)))

    def assign(self, facts: Sequence[LinExpr], key: FactKey, var: str,
               rhs: LinExpr, low_shift: Fraction,
               high_shift: Fraction) -> Tuple[LinExpr, ...]:
        """FM-project the renamed system, then canonicalise the output.

        The elimination itself is the classic pairwise one (with the
        constraint cap; ``ConstraintCapExceeded`` propagates so callers
        keep their havoc fallback), but the *representation* handed back
        is the shared polyhedral normal form -- that is what makes this
        byte-identical to the generator-side ``PolyhedraBackend.assign``.
        """
        from repro.logic.polyhedra import canonical_constraints

        renamed, keep = assign_system(facts, var, rhs, low_shift, high_shift)
        projected = self.engine.project(renamed, keep)
        return canonical_constraints(projected)


class EntailmentEngine:
    """Cache + fast paths + interval tier fronting an exact backend."""

    #: Clear a cache wholesale once it grows past this many entries; the
    #: contexts of one program are small, so in practice this only guards
    #: long-running multi-program processes.
    MAX_ENTRIES = 200_000

    def __init__(self, backend: Optional[DomainBackend] = None,
                 prefilter: bool = True) -> None:
        self.backend = backend if backend is not None else FourierMotzkinBackend()
        self.backend.attach(self)
        #: Whether the interval tier answers before the exact backend.
        #: Always on in production; only :func:`oracle_engine` turns it off.
        self.prefilter = prefilter
        self.stats = EntailmentStats()
        self.evictions = 0
        self._entails_cache: Dict[Tuple[FactKey, LinExpr], bool] = {}
        self._glb_cache: Dict[Tuple[FactKey, LinExpr], Optional[Fraction]] = {}
        self._feasible_cache: Dict[FactKey, bool] = {}
        self._projection_cache: Dict[Tuple[FactKey, FrozenSet[str]], object] = {}
        self._assign_cache: Dict[Tuple[FactKey, str, LinExpr, Fraction,
                                       Fraction], object] = {}
        # Per-context interval boxes for the pre-filter tier.
        self._box_cache: Dict[FactKey, IntervalBox] = {}
        # Per-context index for the single-fact fast path: canonical linear
        # part -> smallest canonical constant among the facts.
        self._norm_index: Dict[FactKey, Dict[Tuple, Fraction]] = {}

    # -- maintenance ------------------------------------------------------

    def clear(self) -> None:
        """Drop every cached result (statistics are kept)."""
        self._entails_cache.clear()
        self._glb_cache.clear()
        self._feasible_cache.clear()
        self._projection_cache.clear()
        self._assign_cache.clear()
        self._box_cache.clear()
        self._norm_index.clear()
        self.backend.clear()

    def reset_stats(self) -> None:
        self.stats = EntailmentStats()

    def _guard(self, cache: Dict) -> None:
        if len(cache) > self.MAX_ENTRIES:
            cache.clear()
            self.evictions += 1

    # -- public queries ----------------------------------------------------

    def entails(self, facts: Sequence[LinExpr], query: LinExpr,
                key: Optional[FactKey] = None) -> bool:
        """Whether ``facts |= query >= 0`` over the rationals."""
        if key is None:
            key = frozenset(facts)
        self.stats.queries += 1
        return self._entails_impl(facts, key, query)

    def entails_many(self, facts: Sequence[LinExpr],
                     queries: Sequence[LinExpr],
                     key: Optional[FactKey] = None) -> List[bool]:
        """Batched :meth:`entails`: project the context once for all queries.

        The context is projected onto the union of the query variables a
        single time; every query is then decided against that (much smaller)
        system.  Answers are memoised under the *original* context so later
        point queries hit the cache.
        """
        if key is None:
            key = frozenset(facts)
        results: List[Optional[bool]] = [None] * len(queries)
        pending: List[int] = []
        for index, query in enumerate(queries):
            self.stats.queries += 1
            cached = self._entails_cache.get((key, query))
            if cached is not None:
                self.stats.memo_hits += 1
                results[index] = cached
                continue
            fast = self._fast_entails(facts, key, query)
            if fast is not None:
                self.stats.fast_hits += 1
                self._store_entails(key, query, fast)
                results[index] = fast
                continue
            if self.prefilter:
                verdict = self._box_for(key).entails(query)
                if verdict is not UNDECIDED:
                    self.stats.interval_hits += 1
                    self._store_entails(key, query, verdict)
                    results[index] = verdict
                    continue
            pending.append(index)
        if pending:
            self.stats.misses += len(pending)
            if not self.backend.batch_by_projection:
                # The backend answers point queries cheaply (e.g. from a
                # cached generator representation): no shared projection.
                for index in pending:
                    results[index] = self._entails_impl(facts, key,
                                                        queries[index],
                                                        count=False)
                return results  # type: ignore[return-value]
            union_vars = frozenset(var for index in pending
                                   for var in queries[index].variables())
            try:
                base = self.project(facts, union_vars, key)
            except fm.Infeasible:
                base = None
            if base is None:
                # The context is unsatisfiable: it entails everything.
                for index in pending:
                    self._store_entails(key, queries[index], True)
                    results[index] = True
            else:
                base_key = frozenset(base)
                for index in pending:
                    query = queries[index]
                    answer = self._entails_impl(base, base_key, query,
                                                count=False)
                    self._store_entails(key, query, answer)
                    results[index] = answer
        return results  # type: ignore[return-value]

    def is_feasible(self, facts: Sequence[LinExpr],
                    key: Optional[FactKey] = None) -> bool:
        """Whether the conjunction of ``e >= 0`` facts is satisfiable."""
        if key is None:
            key = frozenset(facts)
        self.stats.queries += 1
        cached = self._feasible_cache.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        if not facts:
            self.stats.fast_hits += 1
            self._feasible_cache[key] = True
            return True
        if self.prefilter:
            verdict = self._box_for(key).is_satisfiable()
            if verdict is not UNDECIDED:
                self.stats.interval_hits += 1
                self._guard(self._feasible_cache)
                self._feasible_cache[key] = verdict
                return verdict
        self.stats.misses += 1
        result = self.backend.is_feasible(facts, key)
        self._guard(self._feasible_cache)
        self._feasible_cache[key] = result
        return result

    def greatest_lower_bound(self, facts: Sequence[LinExpr],
                             expression: LinExpr,
                             key: Optional[FactKey] = None) -> Optional[Fraction]:
        """Largest ``c`` with ``facts |= expression >= c`` (None if none)."""
        if key is None:
            key = frozenset(facts)
        self.stats.queries += 1
        cache_key = (key, expression)
        if cache_key in self._glb_cache:
            self.stats.memo_hits += 1
            return self._glb_cache[cache_key]
        result: Optional[Fraction]
        fast_answered = True
        if expression.is_constant():
            # min over any non-empty feasible set is the constant itself; the
            # unsatisfiable case returns None by convention.
            result = (expression.const_term
                      if self._feasible_quiet(facts, key) else None)
        elif not self._overlaps(facts, expression):
            # Unconstrained variables: unbounded below when feasible, and the
            # infeasible convention is None as well.
            result = None
        else:
            fast_answered = False
            if self.prefilter:
                verdict = self._box_for(key).glb(expression)
                if verdict is not UNDECIDED:
                    self.stats.interval_hits += 1
                    self._guard(self._glb_cache)
                    self._glb_cache[cache_key] = verdict
                    return verdict
            self.stats.misses += 1
            result = self._glb_cold(facts, key, expression)
        if fast_answered:
            self.stats.fast_hits += 1
        self._guard(self._glb_cache)
        self._glb_cache[cache_key] = result
        return result

    def project(self, facts: Sequence[LinExpr], keep: FrozenSet[str],
                key: Optional[FactKey] = None) -> Tuple[LinExpr, ...]:
        """Cached exact projection of ``facts`` onto the ``keep`` variables.

        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` for
        unsatisfiable systems (also on cache hits).  ``MemoryError`` from the
        constraint cap is never cached and propagates to the caller.
        """
        if key is None:
            key = frozenset(facts)
        cache_key = (key, keep)
        cached = self._projection_cache.get(cache_key)
        if cached is not None:
            if cached is _INFEASIBLE:
                raise fm.Infeasible()
            return cached  # type: ignore[return-value]
        self.stats.eliminations += 1
        # Fault-injection site: lets the chaos suite force a constraint-cap
        # blowup on the cold path without crafting a pathological program.
        # Cheap no-op unless a fault registry is installed.  The site key is
        # the projection's kept variables, so a spec can target one query.
        from repro.service import faults

        try:
            faults.fire("engine.project", ",".join(sorted(keep)))
            projected = self.backend.project(facts, keep)
        except fm.Infeasible:
            self._guard(self._projection_cache)
            self._projection_cache[cache_key] = _INFEASIBLE
            raise
        except MemoryError:
            # Constraint-cap blowups are counted but never cached: the same
            # query may succeed over a smaller context.
            self.stats.cap_blowups += 1
            raise
        self._guard(self._projection_cache)
        self._projection_cache[cache_key] = projected
        return projected

    # -- internals ---------------------------------------------------------

    def _store_entails(self, key: FactKey, query: LinExpr, result: bool) -> None:
        self._guard(self._entails_cache)
        self._entails_cache[(key, query)] = result

    def _box_for(self, key: FactKey) -> IntervalBox:
        """The (cached) interval box of a context, for the pre-filter tier."""
        box = self._box_cache.get(key)
        if box is None:
            box = IntervalBox.from_facts(key)
            self._guard(self._box_cache)
            self._box_cache[key] = box
        return box

    def _entails_impl(self, facts: Sequence[LinExpr], key: FactKey,
                      query: LinExpr, count: bool = True) -> bool:
        cached = self._entails_cache.get((key, query))
        if cached is not None:
            if count:
                self.stats.memo_hits += 1
            return cached
        fast = self._fast_entails(facts, key, query)
        if fast is not None:
            if count:
                self.stats.fast_hits += 1
            self._store_entails(key, query, fast)
            return fast
        # Interval pre-filter tier: only on counted (top-level) queries --
        # the ``count=False`` calls from :meth:`entails_many` are either
        # already-projected residues or pending queries whose tier checks
        # ran in the batch loop, and both were counted as misses there.
        if count and self.prefilter:
            verdict = self._box_for(key).entails(query)
            if verdict is not UNDECIDED:
                self.stats.interval_hits += 1
                self._store_entails(key, query, verdict)
                return verdict
        if count:
            self.stats.misses += 1
        result = self._entails_cold(facts, key, query)
        self._store_entails(key, query, result)
        return result

    def _entails_cold(self, facts: Sequence[LinExpr], key: FactKey,
                      query: LinExpr) -> bool:
        try:
            lowest = self.backend.minimize(query, facts, key)
        except fm.Infeasible:
            return True
        except fm.Unbounded:
            return False
        return lowest >= 0

    def _glb_cold(self, facts: Sequence[LinExpr], key: FactKey,
                  expression: LinExpr) -> Optional[Fraction]:
        try:
            return self.backend.minimize(expression, facts, key)
        except (fm.Infeasible, fm.Unbounded):
            return None

    def _feasible_quiet(self, facts: Sequence[LinExpr], key: FactKey) -> bool:
        """Feasibility without bumping the top-level query counters."""
        cached = self._feasible_cache.get(key)
        if cached is not None:
            return cached
        result = True if not facts else self.backend.is_feasible(facts, key)
        self._guard(self._feasible_cache)
        self._feasible_cache[key] = result
        return result

    # -- lattice and transfer operations ------------------------------------

    def join(self, facts: Sequence[LinExpr], other_facts: Sequence[LinExpr],
             key: Optional[FactKey] = None,
             other_key: Optional[FactKey] = None) -> List[LinExpr]:
        """The "common facts" join: facts of each side entailed by the other.

        Order is reproducible: ``facts`` first (in order), then the facts
        unique to ``other_facts`` (in order) -- context construction relies
        on this being independent of the backend.
        """
        kept = [fact for fact, ok
                in zip(facts, self.entails_many(other_facts, facts, other_key))
                if ok]
        seen = set(kept)
        candidates = [fact for fact in other_facts if fact not in seen]
        kept.extend(fact for fact, ok
                    in zip(candidates,
                           self.entails_many(facts, candidates, key))
                    if ok)
        return kept

    def widen(self, facts: Sequence[LinExpr], newer_facts: Sequence[LinExpr],
              newer_key: Optional[FactKey] = None) -> List[LinExpr]:
        """Standard widening: the facts of ``facts`` still valid in ``newer``."""
        return [fact for fact, ok
                in zip(facts, self.entails_many(newer_facts, facts, newer_key))
                if ok]

    def assign(self, facts: Sequence[LinExpr], var: str, rhs: LinExpr,
               low_shift: Fraction = _ZERO,
               high_shift: Fraction = _ZERO,
               key: Optional[FactKey] = None) -> Tuple[LinExpr, ...]:
        """Strongest postcondition of ``var := rhs + [low_shift, high_shift]``.

        Delegated to the backend (see :meth:`DomainBackend.assign`): the
        Fourier-Motzkin backend renames the old value of ``var`` to a
        fresh symbol and projects it away, the polyhedra backend applies
        the assignment to the generator representation directly.  Both
        return the *canonical minimal* constraint system of the result, so
        the output is byte-identical across backends.  Raises
        :class:`~repro.logic.fourier_motzkin.Infeasible` for unreachable
        results; ``MemoryError`` from the eliminator's constraint cap
        propagates (callers fall back to ``havoc``) and is never cached.
        """
        if key is None:
            key = frozenset(facts)
        cache_key = (key, var, rhs, low_shift, high_shift)
        cached = self._assign_cache.get(cache_key)
        if cached is not None:
            if cached is _INFEASIBLE:
                raise fm.Infeasible()
            return cached  # type: ignore[return-value]
        try:
            result = self.backend.assign(facts, key, var, rhs,
                                         low_shift, high_shift)
        except fm.Infeasible:
            self._guard(self._assign_cache)
            self._assign_cache[cache_key] = _INFEASIBLE
            raise
        result = tuple(result)
        self._guard(self._assign_cache)
        self._assign_cache[cache_key] = result
        return result

    # -- syntactic fast paths ----------------------------------------------

    def _overlaps(self, facts: Sequence[LinExpr], query: LinExpr) -> bool:
        query_vars = query.variables()
        for fact in facts:
            for var, _ in fact.coeff_items:
                if var in query_vars:
                    return True
        return False

    def _norm_index_for(self, key: FactKey) -> Dict[Tuple, Fraction]:
        index = self._norm_index.get(key)
        if index is None:
            index = {}
            for fact in key:
                if fact.is_constant():
                    continue
                _, canonical = fact.normalised()
                lin = canonical.coeff_items
                const = canonical.const_term
                current = index.get(lin)
                if current is None or const < current:
                    index[lin] = const
            self._guard(self._norm_index)
            self._norm_index[key] = index
        return index

    def _fast_entails(self, facts: Sequence[LinExpr], key: FactKey,
                      query: LinExpr) -> Optional[bool]:
        """Definite answers that need no elimination; ``None`` = undecided."""
        # Constants: trivially true when non-negative; a negative constant is
        # entailed exactly by the infeasible contexts.
        if query.is_constant():
            if query.const_term >= 0:
                return True
            return not self._feasible_quiet(facts, key)
        # The query is a fact (or a positive multiple of one, possibly with
        # extra slack on the constant): f says lin >= -c_f, the query needs
        # lin >= -c_q, so any fact with c_f <= c_q decides it.
        if query in key:
            return True
        _, canonical = query.normalised()
        best = self._norm_index_for(key).get(canonical.coeff_items)
        if best is not None and canonical.const_term >= best:
            return True
        # No variable in common with the context: the query's variables are
        # unconstrained, so the minimum is -inf unless the context itself is
        # infeasible (in which case everything is entailed).
        if not self._overlaps(facts, query):
            return not self._feasible_quiet(facts, key)
        # Non-negative combination of two facts.
        if 2 <= len(key) <= _PAIR_FAST_PATH_LIMIT:
            if self._two_fact_combination(key, query):
                return True
        return None

    def _two_fact_combination(self, key: FactKey, query: LinExpr) -> bool:
        """Whether ``query = a*f1 + b*f2 + c`` with ``a, b, c >= 0`` exactly.

        Sound but deliberately incomplete: only facts whose support is
        contained in the query's support are considered, so no cancellation
        between the two facts is explored.
        """
        qmap = dict(query.coeff_items)
        qvars = set(qmap)
        candidates = [fact for fact in key
                      if all(var in qvars for var, _ in fact.coeff_items)]
        if len(candidates) < 2:
            return False
        for i, f1 in enumerate(candidates):
            m1 = dict(f1.coeff_items)
            for f2 in candidates[i + 1:]:
                m2 = dict(f2.coeff_items)
                solution = self._solve_pair(qmap, qvars, m1, m2)
                if solution is None:
                    continue
                a, b = solution
                slack = (query.const_term - a * f1.const_term
                         - b * f2.const_term)
                if slack >= 0:
                    return True
        return False

    @staticmethod
    def _solve_pair(qmap: Dict[str, Fraction], qvars: Iterable[str],
                    m1: Dict[str, Fraction],
                    m2: Dict[str, Fraction]) -> Optional[Tuple[Fraction, Fraction]]:
        """Solve ``a*m1 + b*m2 = qmap`` over all query variables, a, b >= 0."""
        variables = list(qvars)
        pivot = None
        for p, v1 in enumerate(variables):
            for v2 in variables[p + 1:]:
                det = (m1.get(v1, _ZERO) * m2.get(v2, _ZERO)
                       - m1.get(v2, _ZERO) * m2.get(v1, _ZERO))
                if det != 0:
                    pivot = (v1, v2, det)
                    break
            if pivot:
                break
        if pivot is None:
            return None
        v1, v2, det = pivot
        q1, q2 = qmap[v1], qmap[v2]
        a = (q1 * m2.get(v2, _ZERO) - q2 * m2.get(v1, _ZERO)) / det
        b = (m1.get(v1, _ZERO) * q2 - m1.get(v2, _ZERO) * q1) / det
        if a < 0 or b < 0:
            return None
        for var in variables:
            if a * m1.get(var, _ZERO) + b * m2.get(var, _ZERO) != qmap[var]:
                return None
        return a, b


# ---------------------------------------------------------------------------
# The process-wide engine
# ---------------------------------------------------------------------------

#: The engine every ``Context`` operation asks; created lazily.
_ENGINE: Optional[EntailmentEngine] = None


def get_engine() -> EntailmentEngine:
    """The process-wide engine: Fourier-Motzkin behind the interval tier."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = EntailmentEngine()
    return _ENGINE


def clear_cache() -> None:
    """Drop all cached entailment results (useful between experiments)."""
    get_engine().clear()


def reset_stats() -> None:
    """Reset the hit/miss statistics of the process-wide engine."""
    get_engine().reset_stats()


# -- per-process lifecycle hooks (used by repro.service.scheduler) ----------

def reset_engine() -> EntailmentEngine:
    """Install a brand-new process-wide engine and return it.

    Worker processes call this from their initializer: a forked worker
    inherits the parent's engine object, and a fresh instance both drops
    that inherited state and guarantees that nothing the worker computes
    can leak back into (or appear to come from) the parent's caches.
    """
    global _ENGINE
    _ENGINE = EntailmentEngine()
    return _ENGINE


def engine_stats() -> Dict[str, object]:
    """The engine's counters as a dict, including the per-tier breakdown.

    The ``tiers`` entry partitions answered queries by the tier that
    decided them (``memo`` -> ``syntactic`` -> ``interval`` -> ``exact``).
    """
    return get_engine().stats.as_dict()


def engine_fingerprint() -> Dict[str, object]:
    """Identity + cache occupancy of the engine (for isolation tests)."""
    engine = get_engine()
    return {
        "pid": os.getpid(),
        "engine_id": id(engine),
        "queries": engine.stats.queries,
        "eliminations": engine.stats.eliminations,
        "entails_entries": len(engine._entails_cache),
        "projection_entries": len(engine._projection_cache),
    }


def warm_engine() -> EntailmentEngine:
    """Pay per-process one-time costs up front; return the warm engine.

    Importing the LP stack and exercising one tiny end-to-end query moves
    module-import and first-touch costs out of the first real job, so
    per-job wall times measured in a worker are comparable to a warm
    sequential process.
    """
    import repro.core.solver          # noqa: F401  (scipy import)
    import repro.lang.parser          # noqa: F401

    engine = get_engine()
    x = LinExpr({"x": 1})
    engine.entails((x,), x)
    engine.clear()
    engine.reset_stats()
    return engine


# -- the test oracle ---------------------------------------------------------

@contextmanager
def oracle_engine(polyhedra: bool = False,
                  prefilter: bool = True) -> Iterator[EntailmentEngine]:
    """Test hook: run a block on a fresh engine over another exact path.

    ``polyhedra=True`` swaps the Fourier-Motzkin backend for
    :class:`~repro.logic.polyhedra.PolyhedraBackend`; ``prefilter=False``
    sends every query past the interval tier.  Both must leave every answer
    unchanged, which is what the identity and differential suites pin.
    The rewrite memos of :mod:`repro.core.rewrite` embed entailment
    answers, so they are cleared on entry and on exit: the block answers
    its own queries instead of coasting on the production engine's, and
    nothing it computes leaks back.
    """
    from repro.core.rewrite import clear_rewrite_caches

    global _ENGINE
    backend: Optional[DomainBackend] = None
    if polyhedra:
        from repro.logic.polyhedra import PolyhedraBackend

        backend = PolyhedraBackend()
    saved = _ENGINE
    _ENGINE = EntailmentEngine(backend, prefilter=prefilter)
    clear_rewrite_caches()
    try:
        yield _ENGINE
    finally:
        _ENGINE = saved
        clear_rewrite_caches()
