"""Rewrite functions: certified non-negative polynomials used by ``Q:Weaken``.

The ``Relax`` rule (paper Fig. 6) lets the analysis replace an annotation
``Q`` by ``Q' = Q - F * u`` where the columns of ``F`` are *rewrite
functions* -- linear combinations of base functions that are provably
non-negative under the current logical context -- and ``u >= 0``.  Rewrite
functions are how constant potential is extracted from interval potential
(e.g. ``|[x, n]| - |[x+1, n]| - 1 >= 0`` when ``x < n``) and how potential is
transferred between related base functions.

Generators implemented here (``c`` denotes a rational constant, ``A``/``B``
interval atoms, ``M`` a base monomial, and ``Gamma`` the logical context):

1. ``M`` itself -- every base function is non-negative, so potential may
   always be *discarded*.
2. ``A - c`` whenever ``Gamma |= D_A >= c`` with ``c > 0`` -- extracts
   constant potential from an interval known to be large.
3. ``A - B - c`` whenever ``Gamma |= D_A - D_B >= c`` and (for ``c > 0``)
   ``Gamma |= D_A >= c`` -- transfers potential between related intervals,
   possibly extracting (``c > 0``) or paying (``c < 0``) constants.
4. Products ``F * M`` of a degree-1 rewrite function with a base monomial --
   non-negative because both factors are, covering the polynomial cases
   (e.g. ``|[0,n]|^2`` telescoping).

This matches the heuristic described in Sec. 7.1 ("for the base function
max(0, n-x) we add the rewrite function max(0,n-x) - max(0,n-x-1) - 1 ...")
while additionally recording, for every generated function, the entailment
that justifies its non-negativity so certificates can be re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.logic.contexts import Context
from repro.utils.linear import LinExpr
from repro.utils.polynomials import IntervalAtom, Monomial, Polynomial


class RewriteFunction:
    """A polynomial provably non-negative under a logical context.

    ``reason`` documents the entailment justifying non-negativity.  Rendering
    these strings for the thousands of generated rewrites dominates the
    generator's cost, while only the handful picked by the LP (plus tests)
    ever read them -- so the constructor also accepts a zero-argument
    callable that is rendered lazily on first access.
    """

    __slots__ = ("polynomial", "_reason")

    def __init__(self, polynomial: Polynomial, reason) -> None:
        self.polynomial = polynomial
        self._reason = reason

    @property
    def reason(self) -> str:
        rendered = self._reason
        if callable(rendered):
            rendered = rendered()
            self._reason = rendered
        return rendered

    def __repr__(self) -> str:
        return f"RewriteFunction({self.polynomial}  [{self.reason}])"


def _atoms_of(monomials: Iterable[Monomial]) -> List[IntervalAtom]:
    atoms: List[IntervalAtom] = []
    seen: Set[IntervalAtom] = set()
    for monomial in monomials:
        for atom in monomial.atoms():
            if atom not in seen:
                seen.add(atom)
                atoms.append(atom)
    return atoms


def _share_variable(a: IntervalAtom, b: IntervalAtom) -> bool:
    return bool(set(a.variables()) & set(b.variables()))


#: Pairwise differences ``D_A - D_B`` recur across weakenings (the atom pool
#: is stable per program); memoise them process-wide.
_DIFF_CACHE: Dict[Tuple[IntervalAtom, IntervalAtom], LinExpr] = {}
_DIFF_CACHE_LIMIT = 65536


def _atom_difference(a: IntervalAtom, b: IntervalAtom) -> LinExpr:
    key = (a, b)
    difference = _DIFF_CACHE.get(key)
    if difference is None:
        difference = a.diff - b.diff
        if len(_DIFF_CACHE) >= _DIFF_CACHE_LIMIT:
            _DIFF_CACHE.clear()
        _DIFF_CACHE[key] = difference
    return difference


def _pair_constant(context: Context, difference: LinExpr,
                   lower_a: Optional[Fraction]) -> Optional[Fraction]:
    """The largest sound ``c`` for the rewrite ``A - B - c`` (None if invalid).

    ``difference`` is the precomputed ``D_A - D_B``; ``lower_a`` is the
    (cached) greatest lower bound of ``D_A`` under the context, or ``None``
    when unbounded below.
    """
    if difference.is_constant():
        gap: Optional[Fraction] = difference.const_term
    else:
        gap = context.greatest_lower_bound(difference)
    if gap is None:
        return None
    if gap <= 0:
        return gap
    # For a positive extraction we additionally need D_A >= c.
    if lower_a is None or lower_a <= 0:
        return Fraction(0)
    return min(gap, lower_a)


#: Memo for :func:`generate_rewrites`; repeated weakenings at the same
#: program point (loop entry/exit, degree retries) ask for identical sets.
_REWRITE_CACHE: Dict[Tuple, List[RewriteFunction]] = {}
_REWRITE_CACHE_LIMIT = 4096


def clear_rewrite_caches() -> None:
    """Drop the process-wide rewrite memos, the atom differences included.

    The memos embed entailment-derived bounds: clearing them makes the next
    analysis ask the engine afresh.  Cold-timing passes call this between
    programs, and :func:`repro.logic.entailment.oracle_engine` calls it so
    an oracle engine answers its own queries.
    """
    _REWRITE_CACHE.clear()
    _ATOM_REWRITE_CACHE.clear()
    _DIFF_CACHE.clear()


def generate_rewrites(context: Context,
                      monomials: Iterable[Monomial],
                      max_degree: int,
                      max_pair_rewrites: int = 3000) -> List[RewriteFunction]:
    """Generate rewrite functions relevant to a weakening between annotations.

    ``monomials`` should be the union of the base functions appearing in the
    stronger and weaker annotations; only atoms occurring there are
    considered, which keeps the LP small (the paper similarly only enriches
    the rewrite set on demand).  Results are memoised: the returned list is
    shared, so callers must not mutate it.
    """
    monomials = frozenset(monomials)
    cache_key = (context, monomials, max_degree, max_pair_rewrites)
    cached = _REWRITE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    result = _generate_rewrites(context, monomials, max_degree,
                                max_pair_rewrites)
    if len(_REWRITE_CACHE) >= _REWRITE_CACHE_LIMIT:
        _REWRITE_CACHE.clear()
    _REWRITE_CACHE[cache_key] = result
    return result


#: Memo for the atom-level rewrites (categories 2 and 3 below).  They depend
#: only on the context and the atom pool -- *not* on the monomial pool or the
#: degree -- and the atom pool is essentially stable across degree escalation
#: (degree-``d+1`` monomials are products of existing atoms).  Caching them
#: lets the extension walk of :mod:`repro.core.derivation` skip the entire
#: pairwise-transfer generation when escalating, and lets a staged cold run
#: reuse the degree-1 work at degree 2.
_ATOM_REWRITE_CACHE: Dict[Tuple, Tuple[List[RewriteFunction],
                                       List[Tuple[Polynomial, object,
                                                  IntervalAtom]]]] = {}
_ATOM_REWRITE_CACHE_LIMIT = 4096


def _atom_rewrites(context: Context, atoms: Tuple[IntervalAtom, ...],
                   max_pair_rewrites: int
                   ) -> Tuple[List[RewriteFunction],
                              List[Tuple[Polynomial, object, IntervalAtom]]]:
    """Constant-extraction and pair-transfer rewrites over an atom pool.

    Returns ``(rewrites, degree_one)`` where ``degree_one`` additionally
    records ``(polynomial, reason, primary atom)`` for the degree-lifting
    products of :func:`_generate_rewrites`.  The returned lists are shared
    memo entries: callers must not mutate them.
    """
    cache_key = (context, atoms, max_pair_rewrites)
    cached = _ATOM_REWRITE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    unit = Monomial.one()
    atom_monomials: Dict[IntervalAtom, Monomial] = {
        atom: Monomial.of_atom(atom) for atom in atoms}
    rewrites: List[RewriteFunction] = []

    # 2. constant extraction from single atoms (cache the lower bounds; they
    #    are reused by the pair rewrites below).
    degree_one: List[Tuple[Polynomial, object, IntervalAtom]] = []
    lower_bounds: Dict[IntervalAtom, Optional[Fraction]] = {}
    for atom in atoms:
        lower = context.greatest_lower_bound(atom.diff)
        lower_bounds[atom] = lower
        if lower is not None and lower > 0:
            poly = Polynomial({atom_monomials[atom]: 1, unit: -lower})
            reason = (lambda a=atom, c=lower: f"{a} >= {c} under context")
            rewrites.append(RewriteFunction(poly, reason))
            degree_one.append((poly, reason, atom))

    # 3. transfers between pairs of atoms.  Pairs differing only by a constant
    #    (the telescoping rewrites of Sec. 7.1) are generated first -- they
    #    need no entailment query and are the ones the derivations rely on --
    #    followed by general shared-variable pairs up to the budget.
    pair_candidates: List[Tuple[int, Fraction, IntervalAtom, IntervalAtom,
                                LinExpr]] = []
    for a in atoms:
        for b in atoms:
            if a is b:
                continue
            difference = _atom_difference(a, b)
            if difference.is_constant():
                # Smaller shifts first: the telescoping rewrites between
                # neighbouring offsets are the ones every derivation needs.
                pair_candidates.append((0, abs(difference.const_term), a, b,
                                        difference))
            elif _share_variable(a, b):
                pair_candidates.append((1, Fraction(0), a, b, difference))
    pair_candidates.sort(key=lambda item: (item[0], item[1]))
    pair_count = 0
    for _priority, _gap, a, b, difference in pair_candidates:
        if pair_count >= max_pair_rewrites:
            break
        constant = _pair_constant(context, difference, lower_bounds.get(a))
        if constant is None:
            continue
        poly = Polynomial({atom_monomials[a]: 1, atom_monomials[b]: -1,
                           unit: -constant})
        reason = (lambda x=a, y=b, c=constant: f"{x} - {y} >= {c} under context")
        rewrites.append(RewriteFunction(poly, reason))
        degree_one.append((poly, reason, a))
        pair_count += 1
    if len(_ATOM_REWRITE_CACHE) >= _ATOM_REWRITE_CACHE_LIMIT:
        _ATOM_REWRITE_CACHE.clear()
    _ATOM_REWRITE_CACHE[cache_key] = (rewrites, degree_one)
    return rewrites, degree_one


def _generate_rewrites(context: Context,
                       monomials: Iterable[Monomial],
                       max_degree: int,
                       max_pair_rewrites: int) -> List[RewriteFunction]:
    pool = sorted(set(monomials), key=lambda m: m.sort_key())
    atoms = _atoms_of(pool)
    rewrites: List[RewriteFunction] = []

    # 1. every base function may be discarded.
    for monomial in pool:
        rewrites.append(RewriteFunction(
            Polynomial.of_monomial(monomial),
            reason=lambda m=monomial: f"{m} >= 0"))

    # 2.+3. the atom-level rewrites (memoised across degrees/weakenings).
    shared, degree_one = _atom_rewrites(context, tuple(atoms),
                                        max_pair_rewrites)
    rewrites.extend(shared)

    # 4. lift degree-1 rewrites to higher degrees by multiplying with base
    #    monomials (both factors are non-negative).  Only atoms that actually
    #    occur inside higher-degree monomials of the pool are useful factors,
    #    which keeps the number of lifted columns small.
    if max_degree >= 2:
        higher_atoms: Set[IntervalAtom] = set()
        for monomial in pool:
            if monomial.degree() >= 2:
                higher_atoms.update(monomial.atoms())
        lifted: List[RewriteFunction] = []
        max_lifted = 2000
        for poly, reason, base_atom in degree_one:
            if higher_atoms and base_atom not in higher_atoms:
                continue
            for atom in sorted(higher_atoms, key=lambda a: a.sort_key()):
                factor = Monomial.of_atom(atom)
                if factor.degree() + poly.degree() > max_degree:
                    continue
                product = poly * Polynomial.of_monomial(factor)
                lifted.append(RewriteFunction(
                    product,
                    reason=lambda r=reason, f=factor:
                        f"({r() if callable(r) else r}) * {f}"))
                if len(lifted) >= max_lifted:
                    break
            if len(lifted) >= max_lifted:
                break
        rewrites.extend(lifted)

    return rewrites


def applicable_monomials(rewrites: Sequence[RewriteFunction]) -> Set[Monomial]:
    """All monomials mentioned by a collection of rewrite functions."""
    monomials: Set[Monomial] = set()
    for rewrite in rewrites:
        monomials.update(rewrite.polynomial.terms)
    return monomials
