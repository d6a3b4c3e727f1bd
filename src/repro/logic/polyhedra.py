"""Exact rational polyhedra: the canonical form and the oracle backend.

This module implements a convex-polyhedra abstract domain in the style of
the Apron/PPL libraries, entirely over :class:`fractions.Fraction` so every
answer is exact (no widening-by-rounding, no floating point anywhere):

* a :class:`Polyhedron` keeps the classic *dual representation*: the
  constraint side (a conjunction of ``e >= 0`` facts) and the generator
  side (lines, rays and vertices of the homogenised cone), converted into
  each other with the double description method (Chernikova's algorithm
  with the Fukuda-Prodon combinatorial adjacency test, which performs the
  redundancy elimination: only extreme rays / facet-defining inequalities
  survive a conversion);
* decision queries (emptiness, entailment, exact minimisation) are answered
  on the generator side -- a linear function is minimised over a polyhedron
  by evaluating it on finitely many generators;
* projection drops coordinates on the generator side (the projection of the
  generators generates the projection) and converts back to a *canonical
  minimal* constraint system: implicit equalities come out as a reduced
  row-echelon basis, inequalities are reduced modulo that basis, normalised
  and sorted.

:class:`PolyhedraBackend` adapts the domain to the
:class:`~repro.logic.entailment.EntailmentEngine` backend interface, caching
one constructed polyhedron per context so repeated queries against the same
context cost one generator enumeration in total.  Production analyses run
on the Fourier-Motzkin backend, which shares :func:`canonical_constraints`
with this module; this backend is the tests' exact oracle, swapped in
through :func:`repro.logic.entailment.oracle_engine`.  Both backends are
exact, so every decision query must agree --
``tests/test_domain_differential.py`` asserts exactly that over randomized
inequality systems.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from repro.logic import fourier_motzkin as fm
from repro.utils.linear import LinExpr

Vector = Tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact vector helpers
# ---------------------------------------------------------------------------

def _dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), _ZERO)


def _unit(dim: int, index: int) -> Vector:
    return tuple(_ONE if i == index else _ZERO for i in range(dim))


def _primitive(vector: Sequence[Fraction]) -> Vector:
    """Scale to the unique coprime-integer representative (sign preserved).

    Primitive vectors keep coefficients small across repeated combinations
    and make generator/constraint representatives canonical.
    """
    denominator = reduce(lambda acc, value: acc * value.denominator // gcd(
        acc, value.denominator), vector, 1)
    integers = [int(value * denominator) for value in vector]
    common = reduce(gcd, (abs(value) for value in integers), 0)
    if common in (0, 1):
        return tuple(Fraction(value) for value in integers)
    return tuple(Fraction(value // common) for value in integers)


def _combine(a: Vector, ca: Fraction, b: Vector, cb: Fraction) -> Vector:
    return tuple(ca * x + cb * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# The double description method (Chernikova)
# ---------------------------------------------------------------------------

def double_description(dim: int, constraints: Sequence[Vector]
                       ) -> Tuple[List[Vector], List[Vector]]:
    """Generators ``(lines, rays)`` of ``{y : a . y >= 0 for a in constraints}``.

    Starts from the full space (``dim`` lines, no rays) and adds one
    halfspace at a time.  While a line violates the new constraint the
    lineality is pivoted down; once every line saturates it, rays are split
    by sign and adjacent positive/negative pairs are combined (Chernikova's
    step).  Adjacency uses the Fukuda-Prodon combinatorial test on the
    saturation sets, so only *extreme* rays are ever kept -- this is the
    redundancy elimination that makes conversions canonical.
    """
    lines: List[Vector] = [_unit(dim, i) for i in range(dim)]
    rays: List[Vector] = []
    saturated: List[Set[int]] = []          # per ray: saturated constraint ids
    for index, constraint in enumerate(constraints):
        line_products = [_dot(constraint, line) for line in lines]
        pivot = next((i for i, value in enumerate(line_products) if value != 0),
                     None)
        if pivot is not None:
            # A line leaves the constraint's hyperplane: the lineality drops
            # by one.  Every other generator is shifted along the pivot line
            # into the hyperplane; the pivot line itself survives as the one
            # ray pointing into the halfspace.
            pivot_line = lines.pop(pivot)
            pivot_value = line_products.pop(pivot)
            if pivot_value < 0:
                pivot_line = tuple(-x for x in pivot_line)
                pivot_value = -pivot_value
            lines = [_primitive(_combine(line, _ONE,
                                         pivot_line, -value / pivot_value))
                     if value != 0 else line
                     for line, value in zip(lines, line_products)]
            new_rays: List[Vector] = []
            for ray, sat in zip(rays, saturated):
                value = _dot(constraint, ray)
                if value != 0:
                    ray = _primitive(_combine(ray, _ONE,
                                              pivot_line, -value / pivot_value))
                new_rays.append(ray)
                sat.add(index)
            # The pivot line saturates every earlier constraint (all lines
            # do, inductively) but not this one.
            new_rays.append(pivot_line)
            saturated.append(set(range(index)))
            rays = new_rays
            continue
        products = [_dot(constraint, ray) for ray in rays]
        if all(value >= 0 for value in products):
            for sat, value in zip(saturated, products):
                if value == 0:
                    sat.add(index)
            continue
        positive = [i for i, value in enumerate(products) if value > 0]
        zero = [i for i, value in enumerate(products) if value == 0]
        negative = [i for i, value in enumerate(products) if value < 0]
        next_rays: List[Vector] = [rays[i] for i in positive]
        next_sat: List[Set[int]] = [saturated[i] for i in positive]
        for i in zero:
            next_rays.append(rays[i])
            next_sat.append(saturated[i] | {index})
        for p in positive:
            for n in negative:
                common = saturated[p] & saturated[n]
                if not _adjacent(p, n, common, saturated):
                    continue
                combined = _primitive(_combine(rays[n], products[p],
                                               rays[p], -products[n]))
                next_rays.append(combined)
                next_sat.append(common | {index})
        rays = next_rays
        saturated = next_sat
    return lines, rays


def _adjacent(p: int, n: int, common: Set[int],
              saturated: Sequence[Set[int]]) -> bool:
    """Fukuda-Prodon: extreme-ray pair iff no third ray saturates ``common``."""
    for h, sat in enumerate(saturated):
        if h != p and h != n and common <= sat:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonicalisation of constraint output
# ---------------------------------------------------------------------------

def _row_echelon(rows: List[Vector]) -> List[Vector]:
    """Reduced row-echelon form over the column order (primitive rows)."""
    basis: List[Vector] = []
    width = len(rows[0]) if rows else 0
    work = [list(row) for row in rows]
    pivot_row = 0
    for column in range(width):
        chosen = next((r for r in range(pivot_row, len(work))
                       if work[r][column] != 0), None)
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        lead = work[pivot_row][column]
        work[pivot_row] = [value / lead for value in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][column] != 0:
                factor = work[r][column]
                work[r] = [value - factor * pivot for value, pivot
                           in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    for row in work[:pivot_row]:
        basis.append(_primitive(row))
    return basis


def _reduce_modulo(vector: Vector, basis: Sequence[Vector]) -> Vector:
    """Reduce ``vector`` by the echelon ``basis`` (canonical representative)."""
    values = list(vector)
    for row in basis:
        pivot_col = next(i for i, value in enumerate(row) if value != 0)
        if values[pivot_col] != 0:
            factor = values[pivot_col] / row[pivot_col]
            values = [value - factor * pivot for value, pivot
                      in zip(values, row)]
    return _primitive(values)


# ---------------------------------------------------------------------------
# The polyhedron
# ---------------------------------------------------------------------------

class Polyhedron:
    """A closed convex rational polyhedron in generator representation.

    Coordinates are the sorted variable names plus a final homogenising
    coordinate ``t``: the polyhedron is the ``t = 1`` slice of the cone
    spanned by ``lines`` and ``rays``; rays with ``t > 0`` are (scaled)
    vertices, rays with ``t = 0`` are recession directions.
    """

    __slots__ = ("variables", "lines", "rays")

    def __init__(self, variables: Tuple[str, ...], lines: List[Vector],
                 rays: List[Vector]) -> None:
        self.variables = variables
        self.lines = lines
        self.rays = rays

    # -- construction ------------------------------------------------------

    @classmethod
    def from_facts(cls, facts: Iterable[LinExpr]) -> "Polyhedron":
        """The polyhedron ``{x : e(x) >= 0 for every fact e}``."""
        cleaned: List[LinExpr] = []
        infeasible = False
        for fact in facts:
            if fact.is_constant():
                if fact.const_term < 0:
                    infeasible = True
                continue
            _, canonical = fact.normalised()
            cleaned.append(canonical)
        names = sorted({var for fact in cleaned for var in fact.variables()})
        variables = tuple(names)
        dim = len(variables) + 1
        if infeasible:
            return cls(variables, [], [])
        column = {var: i for i, var in enumerate(variables)}
        vectors: List[Vector] = [_unit(dim, dim - 1)]        # t >= 0 first
        for fact in sorted(set(cleaned), key=LinExpr.sort_key):
            row = [_ZERO] * dim
            for var, coeff in fact.coeff_items:
                row[column[var]] = coeff
            row[dim - 1] = fact.const_term
            vectors.append(_primitive(row))
        lines, rays = double_description(dim, vectors)
        return cls(variables, lines, rays)

    # -- basic queries -----------------------------------------------------

    def is_empty(self) -> bool:
        """No generator with a positive homogenising coordinate: no point."""
        return not any(ray[-1] > 0 for ray in self.rays)

    def _objective_vector(self, expression: LinExpr) -> Optional[Vector]:
        """``expression`` as a coordinate vector; None if it mentions an
        unconstrained variable (one this polyhedron says nothing about)."""
        column = {var: i for i, var in enumerate(self.variables)}
        row = [_ZERO] * (len(self.variables) + 1)
        for var, coeff in expression.coeff_items:
            if var not in column:
                return None
            row[column[var]] = coeff
        row[-1] = expression.const_term
        return tuple(row)

    def minimize(self, expression: LinExpr) -> Fraction:
        """``inf { expression(x) | x in self }`` exactly.

        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` on the empty
        polyhedron and :class:`~repro.logic.fourier_motzkin.Unbounded` when
        the infimum is ``-inf``.
        """
        if self.is_empty():
            raise fm.Infeasible()
        vector = self._objective_vector(expression)
        if vector is None:
            # A variable the polyhedron does not constrain: the value can be
            # pushed to -inf along that free coordinate.
            raise fm.Unbounded()
        linear = vector[:-1] + (_ZERO,)     # drop the constant for directions
        for line in self.lines:
            if _dot(linear, line) != 0:
                raise fm.Unbounded()
        best: Optional[Fraction] = None
        for ray in self.rays:
            value = _dot(linear, ray)
            if ray[-1] == 0:
                if value < 0:
                    raise fm.Unbounded()
                continue
            vertex_value = value / ray[-1] + expression.const_term
            if best is None or vertex_value < best:
                best = vertex_value
        assert best is not None     # non-empty => at least one vertex
        return best

    def entails(self, fact: LinExpr) -> bool:
        """Whether every point satisfies ``fact >= 0``."""
        try:
            return self.minimize(fact) >= 0
        except fm.Infeasible:
            return True
        except fm.Unbounded:
            return False

    def contains(self, state: Dict[str, Fraction]) -> bool:
        """Membership of a concrete point (used by the differential tests)."""
        if self.is_empty():
            return False
        facts = self.constraints()
        return all(fact.evaluate(state) >= 0 for fact in facts)

    # -- conversions -------------------------------------------------------

    def extend(self, variables: Iterable[str]) -> "Polyhedron":
        """Embed into the space over ``variables`` (a superset of ours).

        New coordinates are unconstrained: each is added as a full line,
        and existing generators get zero entries in the new columns.
        """
        names = sorted(set(variables) | set(self.variables))
        if tuple(names) == self.variables:
            return self
        column = {var: i for i, var in enumerate(self.variables)}
        dim = len(names) + 1
        positions = [column.get(var) for var in names] + [len(self.variables)]

        def grow(vector: Vector) -> Vector:
            return tuple(_ZERO if source is None else vector[source]
                         for source in positions)

        lines = [grow(line) for line in self.lines]
        lines.extend(_unit(dim, i) for i, var in enumerate(names)
                     if var not in column)
        return Polyhedron(tuple(names), lines,
                          [grow(ray) for ray in self.rays])

    def assign(self, var: str, rhs: LinExpr, low_shift: Fraction = _ZERO,
               high_shift: Fraction = _ZERO) -> "Polyhedron":
        """Image under ``var := rhs + [low_shift, high_shift]`` -- no FM.

        The affine substitution is applied to the generators directly (the
        image of a polyhedron's generators generates the image), then the
        nondeterministic shift is a Minkowski sum with the segment
        ``[low_shift, high_shift]`` along the ``var`` axis: each vertex
        splits into its two shifted endpoints, recession rays and lines
        pass through the (shift-invariant) linear part unchanged.
        """
        extended = self.extend(set(rhs.variables()) | {var})
        names = extended.variables
        index = names.index(var)
        column = {name: i for i, name in enumerate(names)}
        coeffs = [(column[name], coeff) for name, coeff in rhs.coeff_items]
        constant = rhs.const_term

        def image(vector: Vector) -> Vector:
            # The homogenising coordinate scales the constant term; for
            # lines and recession rays it is zero, so they map linearly.
            value = sum((coeff * vector[i] for i, coeff in coeffs), _ZERO)
            value += constant * vector[-1]
            return vector[:index] + (value,) + vector[index + 1:]

        lines = []
        seen: Set[Vector] = set()
        for line in extended.lines:
            mapped = _primitive(image(line))
            if any(value != 0 for value in mapped) and mapped not in seen \
                    and tuple(-v for v in mapped) not in seen:
                seen.add(mapped)
                lines.append(mapped)
        rays = []
        seen_rays: Set[Vector] = set()
        for ray in extended.rays:
            mapped = image(ray)
            shifts = ({low_shift, high_shift} if ray[-1] > 0 else {_ZERO})
            for shift in shifts:
                shifted = mapped[:index] \
                    + (mapped[index] + shift * ray[-1],) \
                    + mapped[index + 1:]
                small = _primitive(shifted)
                if any(value != 0 for value in small) \
                        and small not in seen_rays:
                    seen_rays.add(small)
                    rays.append(small)
        return Polyhedron(names, lines, rays)

    def project(self, keep: Iterable[str]) -> "Polyhedron":
        """Project onto the ``keep`` variables (generator-side: drop columns)."""
        keep_set = set(keep)
        kept = tuple(var for var in self.variables if var in keep_set)
        columns = [i for i, var in enumerate(self.variables)
                   if var in keep_set] + [len(self.variables)]

        def shrink(vector: Vector) -> Vector:
            return tuple(vector[i] for i in columns)

        lines = []
        seen: Set[Vector] = set()
        for line in self.lines:
            small = _primitive(shrink(line))
            if any(value != 0 for value in small) and small not in seen \
                    and tuple(-v for v in small) not in seen:
                seen.add(small)
                lines.append(small)
        rays = []
        seen_rays: Set[Vector] = set()
        for ray in self.rays:
            small = _primitive(shrink(ray))
            if any(value != 0 for value in small) and small not in seen_rays:
                seen_rays.add(small)
                rays.append(small)
        return Polyhedron(kept, lines, rays)

    def constraints(self) -> Tuple[LinExpr, ...]:
        """The canonical minimal constraint system (``e >= 0`` facts).

        Runs the double description method on the polar side: the facets of
        this polyhedron are the extreme rays of the dual cone
        ``{a : a . l = 0, a . r >= 0}``.  Implicit equalities surface as the
        dual cone's lineality and are emitted as a reduced-row-echelon basis
        (each equality as a ``+e``/``-e`` fact pair); inequalities are
        reduced modulo that basis, made primitive and sorted, so equal
        polyhedra yield byte-identical constraint tuples.

        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` on the empty
        polyhedron (it has no finite constraint representation here).
        """
        if self.is_empty():
            raise fm.Infeasible()
        dim = len(self.variables) + 1
        dual_constraints: List[Vector] = []
        for line in sorted(self.lines):
            dual_constraints.append(line)
            dual_constraints.append(tuple(-value for value in line))
        dual_constraints.extend(sorted(self.rays))
        dual_lines, dual_rays = double_description(dim, dual_constraints)
        basis = _row_echelon(list(dual_lines))
        facts: List[LinExpr] = []
        for row in basis:
            expr = self._expr_from(row)
            if expr is None:
                continue        # t = 0 cannot arise on a non-empty polyhedron
            facts.append(expr)
            facts.append(-expr)
        inequalities: Set[LinExpr] = set()
        for ray in dual_rays:
            reduced = _reduce_modulo(ray, basis)
            expr = self._expr_from(reduced)
            if expr is not None:
                inequalities.add(expr)
        facts.extend(sorted(inequalities, key=LinExpr.sort_key))
        return tuple(facts)

    def _expr_from(self, vector: Vector) -> Optional[LinExpr]:
        coeffs = {var: value for var, value
                  in zip(self.variables, vector[:-1]) if value != 0}
        if not coeffs:
            return None          # the trivial ``t >= 0`` / constant facet
        return LinExpr(coeffs, vector[-1])

    def __repr__(self) -> str:
        if self.is_empty():
            return "Polyhedron(empty)"
        return (f"Polyhedron(vars={list(self.variables)}, "
                f"lines={len(self.lines)}, rays={len(self.rays)})")


# ---------------------------------------------------------------------------
# The EntailmentEngine backend
# ---------------------------------------------------------------------------

def canonical_constraints(facts: Iterable[LinExpr]) -> Tuple[LinExpr, ...]:
    """The canonical minimal constraint system of ``{x : facts}``.

    One primal DD conversion plus one dual conversion; the output is the
    :meth:`Polyhedron.constraints` normal form, which depends only on the
    described *point set* -- every backend funnels representation-producing
    results (``Context.assign``) through this form, which is what makes
    context fact tuples (and therefore base-function atoms and
    certificates) byte-identical across backends and pre-filter settings.
    Raises :class:`~repro.logic.fourier_motzkin.Infeasible` when empty.
    """
    return Polyhedron.from_facts(facts).constraints()


class PolyhedraBackend:
    """Adapts :class:`Polyhedron` to the entailment-engine backend interface.

    Decision queries (feasibility, entailment, exact lower bounds) run on
    the generator representation: the polyhedron of a context is built once
    (one Chernikova conversion), cached under the context's fact key, and
    every further query is a generator enumeration.

    Representation-producing operations never touch the Fourier-Motzkin
    eliminator: ``assign`` applies the affine substitution to the cached
    generators (:meth:`Polyhedron.assign`) and projection drops generator
    columns, so dense contexts that drive FM into its constraint cap cost
    one generator pass here.  Both operations emit the canonical
    constraint normal form (:meth:`Polyhedron.constraints`), the same form
    the FM backend canonicalises its eliminations into -- the registry-wide
    bound/certificate identity in ``tests/test_domain_identity.py`` pins
    that the two backends stay byte-identical.
    """

    name = "polyhedra"
    #: The engine may batch ``entails_many`` through one shared projection;
    #: the polyhedron cache makes that pointless here (queries are cheap
    #: once the polyhedron exists), so answer point-wise instead.
    batch_by_projection = False
    #: Caches are cleared wholesale past this size (mirrors the engine cap).
    MAX_ENTRIES = 50_000

    def __init__(self, engine=None) -> None:
        self.engine = engine
        self._polyhedra: Dict[FrozenSet[LinExpr], Polyhedron] = {}

    def attach(self, engine) -> None:
        self.engine = engine

    # -- polyhedron cache --------------------------------------------------

    def polyhedron_for(self, facts: Sequence[LinExpr],
                       key: FrozenSet[LinExpr]) -> Polyhedron:
        polyhedron = self._polyhedra.get(key)
        if polyhedron is None:
            if self.engine is not None:
                self.engine.stats.eliminations += 1
            polyhedron = Polyhedron.from_facts(facts)
            if len(self._polyhedra) > self.MAX_ENTRIES:
                self._polyhedra.clear()
            self._polyhedra[key] = polyhedron
        return polyhedron

    # -- backend interface -------------------------------------------------

    def is_feasible(self, facts: Sequence[LinExpr],
                    key: FrozenSet[LinExpr]) -> bool:
        return not self.polyhedron_for(facts, key).is_empty()

    def minimize(self, objective: LinExpr, facts: Sequence[LinExpr],
                 key: FrozenSet[LinExpr]) -> Fraction:
        return self.polyhedron_for(facts, key).minimize(objective)

    def project(self, facts: Sequence[LinExpr],
                keep: FrozenSet[str]) -> Tuple[LinExpr, ...]:
        """Generator-side projection, in the canonical constraint form."""
        polyhedron = Polyhedron.from_facts(facts)
        if self.engine is not None:
            self.engine.stats.eliminations += 1
        return polyhedron.project(keep).constraints()

    def assign(self, facts: Sequence[LinExpr], key: FrozenSet[LinExpr],
               var: str, rhs: LinExpr, low_shift: Fraction,
               high_shift: Fraction) -> Tuple[LinExpr, ...]:
        """Strongest postcondition from the generator side -- zero FM work.

        Reuses the context's cached polyhedron, so a fixpoint that assigns
        under the same context repeatedly pays one Chernikova conversion
        for the context plus one dual conversion per distinct assignment.
        Raises :class:`~repro.logic.fourier_motzkin.Infeasible` when the
        result is empty (unreachable), like the FM path.
        """
        polyhedron = self.polyhedron_for(facts, key)
        return polyhedron.assign(var, rhs, low_shift, high_shift).constraints()

    def clear(self) -> None:
        self._polyhedra.clear()
