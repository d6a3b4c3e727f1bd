"""LP solving back end (paper Sec. 5, "Solving the constraints").

Absynth feeds its constraints to CoinOr's CLP; here we use SciPy's HiGGS/
HiGHS-based ``linprog``.  The module provides

* :func:`solve_lp` -- solve one LP (minimise a linear objective subject to the
  collected equalities/inequalities),
* :class:`IterativeMinimizer` -- the paper's iterative objective scheme:
  starting with the highest degree, minimise the weighted coefficients of
  that degree, *fix* the achieved value as a constraint, and continue with
  the next lower degree.  This yields the tightest bound degree by degree and
  mirrors how modern LP solvers are used incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix, vstack

from repro.core.constraints import (AffExpr, Constraint, ConstraintSystem,
                                    LPVar, SystemExtension)
from repro.utils.rationals import snap_fraction


@dataclass
class LPSolution:
    """A solved assignment of the LP variables."""

    assignment: Dict[LPVar, Fraction]
    raw_values: np.ndarray
    objective_values: List[float] = field(default_factory=list)
    iterations: int = 0

    def value(self, var: LPVar) -> Fraction:
        return self.assignment[var]

    def evaluate(self, expr: AffExpr) -> Fraction:
        return expr.evaluate(self.assignment)


class SolverError(Exception):
    """Raised when the LP solver fails unexpectedly (not mere infeasibility)."""


def _rows_to_csr(rows: Sequence[AffExpr], num_vars: int,
                 sign: float = 1.0) -> Optional[csr_matrix]:
    """Assemble ``sign * rows`` as one CSR matrix via COO triplet arrays.

    Vectorised replacement for entry-by-entry ``lil_matrix`` writes: the
    (row, col, value) triplets are materialised once with ``np.fromiter`` and
    handed to ``coo_matrix`` in a single call.
    """
    if not rows:
        return None
    triplets = [(row_index, var.index, coeff)
                for row_index, expr in enumerate(rows)
                for var, coeff in expr.term_items()]
    count = len(triplets)
    row_idx = np.fromiter((t[0] for t in triplets), dtype=np.intp, count=count)
    col_idx = np.fromiter((t[1] for t in triplets), dtype=np.intp, count=count)
    values = np.fromiter((float(t[2]) for t in triplets), dtype=np.float64,
                         count=count)
    if sign != 1.0:
        values *= sign
    return coo_matrix((values, (row_idx, col_idx)),
                      shape=(len(rows), num_vars)).tocsr()


def _triplets_to_coo(triplets: Sequence[Tuple[int, int, float]],
                     num_rows: int, num_cols: int) -> coo_matrix:
    """A COO matrix from explicit (row, col, value) triplets."""
    count = len(triplets)
    row_idx = np.fromiter((t[0] for t in triplets), dtype=np.intp, count=count)
    col_idx = np.fromiter((t[1] for t in triplets), dtype=np.intp, count=count)
    values = np.fromiter((t[2] for t in triplets), dtype=np.float64, count=count)
    return coo_matrix((values, (row_idx, col_idx)), shape=(num_rows, num_cols))


class AssembledSystem:
    """A :class:`ConstraintSystem` translated once into ``linprog`` arrays.

    The base equality/inequality matrices are immutable per degree; per-stage
    ``extra`` upper-bound rows from the iterative objective scheme are
    assembled separately and stacked with ``scipy.sparse.vstack``, so
    repeated solves over the same system never rebuild the base matrices.

    Degree escalation grows the assembly *in place* through :meth:`extend`:
    existing rows keep their CSR data verbatim (extension deltas only touch
    freshly created columns), the matrices gain new columns for the new
    template variables / multipliers, and the new constraints are stacked
    below as additional rows.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self.system = system
        self.num_vars = system.num_variables
        self.num_constraints = system.num_constraints
        eq_rows = [c.expr for c in system.constraints if c.kind == "eq"]
        ge_rows = [c.expr for c in system.constraints if c.kind == "ge"]
        #: Constraint index -> (kind, row position within that kind's block).
        self._row_pos: Dict[int, Tuple[str, int]] = {}
        eq_pos = ge_pos = 0
        for index, constraint in enumerate(system.constraints):
            if constraint.kind == "eq":
                self._row_pos[index] = ("eq", eq_pos)
                eq_pos += 1
            else:
                self._row_pos[index] = ("ge", ge_pos)
                ge_pos += 1
        self.a_eq = _rows_to_csr(eq_rows, self.num_vars)
        self.b_eq = (np.fromiter((-float(e.const) for e in eq_rows),
                                 dtype=np.float64, count=len(eq_rows))
                     if eq_rows else None)
        # expr >= 0   <=>   -expr <= 0
        self.a_ub_base = _rows_to_csr(ge_rows, self.num_vars, sign=-1.0)
        self.b_ub_base = (np.fromiter((float(e.const) for e in ge_rows),
                                      dtype=np.float64, count=len(ge_rows))
                          if ge_rows else None)
        self.bounds = [(0.0, None) if var.nonneg else (None, None)
                       for var in system.variables]
        #: Incremental cache of the assembled per-stage ``extra`` rows:
        #: the (expr, bound) prefix already assembled, its CSR block and
        #: right-hand side.  See :meth:`_assemble_extras`.
        self._extras_cache: Optional[
            Tuple[List[Tuple[AffExpr, float]], csr_matrix, np.ndarray]] = None

    # -- incremental growth (degree escalation) ------------------------------

    def extend(self, extension: SystemExtension) -> None:
        """Grow the assembly to match the system after an extension round.

        The journal guarantees extended rows only gained entries in columns
        created during the round, so the previously assembled blocks are
        kept verbatim: columns are widened in place, the (row, new-column)
        delta entries are added sparsely, and the round's new constraints
        are stacked underneath.  The result is bit-identical to a fresh
        ``AssembledSystem(system)`` (see ``tests/test_pipeline_incremental``).
        """
        system = self.system
        if extension.base_variables != self.num_vars \
                or extension.base_constraints != self.num_constraints:
            raise ValueError(
                "extension journal does not start at this assembly's state "
                f"(vars {extension.base_variables} != {self.num_vars} or "
                f"rows {extension.base_constraints} != {self.num_constraints})")
        new_num_vars = system.num_variables
        # 1. widen the existing blocks (pure column growth, data untouched).
        if self.a_eq is not None:
            self.a_eq.resize((self.a_eq.shape[0], new_num_vars))
        if self.a_ub_base is not None:
            self.a_ub_base.resize((self.a_ub_base.shape[0], new_num_vars))
        # 2. sparse-add the delta entries of extended rows (new columns only;
        #    the b vectors are untouched because deltas are constant-free).
        deltas: Dict[str, List[Tuple[int, int, float]]] = {"eq": [], "ge": []}
        for index, delta in extension.extended.items():
            kind, pos = self._row_pos[index]
            sign = 1.0 if kind == "eq" else -1.0
            deltas[kind].extend((pos, var.index, sign * float(coeff))
                                for var, coeff in delta.term_items())
        if deltas["eq"]:
            self.a_eq = (self.a_eq + _triplets_to_coo(
                deltas["eq"], self.a_eq.shape[0], new_num_vars)).tocsr()
        if deltas["ge"]:
            self.a_ub_base = (self.a_ub_base + _triplets_to_coo(
                deltas["ge"], self.a_ub_base.shape[0], new_num_vars)).tocsr()
        # 3. stack the round's new constraints as additional rows.
        new_eq: List[AffExpr] = []
        new_ge: List[AffExpr] = []
        eq_pos = self.a_eq.shape[0] if self.a_eq is not None else 0
        ge_pos = self.a_ub_base.shape[0] if self.a_ub_base is not None else 0
        for index in range(extension.base_constraints, system.num_constraints):
            constraint = system.constraints[index]
            if constraint.kind == "eq":
                self._row_pos[index] = ("eq", eq_pos)
                eq_pos += 1
                new_eq.append(constraint.expr)
            else:
                self._row_pos[index] = ("ge", ge_pos)
                ge_pos += 1
                new_ge.append(constraint.expr)
        if new_eq:
            block = _rows_to_csr(new_eq, new_num_vars)
            values = np.fromiter((-float(e.const) for e in new_eq),
                                 dtype=np.float64, count=len(new_eq))
            self.a_eq = block if self.a_eq is None \
                else vstack([self.a_eq, block], format="csr")
            self.b_eq = values if self.b_eq is None \
                else np.concatenate([self.b_eq, values])
        if new_ge:
            block = _rows_to_csr(new_ge, new_num_vars, sign=-1.0)
            values = np.fromiter((float(e.const) for e in new_ge),
                                 dtype=np.float64, count=len(new_ge))
            self.a_ub_base = block if self.a_ub_base is None \
                else vstack([self.a_ub_base, block], format="csr")
            self.b_ub_base = values if self.b_ub_base is None \
                else np.concatenate([self.b_ub_base, values])
        # 4. bounds for the new variables; bookkeeping.
        self.bounds.extend((0.0, None) if var.nonneg else (None, None)
                           for var in system.variables[self.num_vars:])
        self.num_vars = new_num_vars
        self.num_constraints = system.num_constraints

    def _assemble_extras(self, extra: Sequence[Tuple[AffExpr, float]]
                         ) -> Tuple[csr_matrix, np.ndarray]:
        """Assemble the ``extra`` rows, reusing the cached prefix.

        The iterative objective scheme grows ``extra`` by exactly one row
        per stage, so re-running ``_rows_to_csr`` over the whole list every
        solve re-did all but the newest row's work.  The cache keeps the
        previously assembled block and appends only the unseen suffix;
        any non-prefix call (fresh stage list, changed bound, column count
        grown by an extension) falls back to a full rebuild.
        """
        cached = self._extras_cache
        if cached is not None:
            prefix, block, rhs = cached
            if block.shape[1] == self.num_vars and len(prefix) <= len(extra) \
                    and all(old_expr is new_expr and old_bound == new_bound
                            for (old_expr, old_bound), (new_expr, new_bound)
                            in zip(prefix, extra)):
                if len(prefix) < len(extra):
                    suffix = extra[len(prefix):]
                    block = vstack(
                        [block, _rows_to_csr([expr for expr, _ in suffix],
                                             self.num_vars)],
                        format="csr")
                    rhs = np.concatenate([rhs, np.fromiter(
                        (bound - float(expr.const) for expr, bound in suffix),
                        dtype=np.float64, count=len(suffix))])
                    self._extras_cache = (list(extra), block, rhs)
                return block, rhs
        block = _rows_to_csr([expr for expr, _ in extra], self.num_vars)
        rhs = np.fromiter((bound - float(expr.const)
                           for expr, bound in extra),
                          dtype=np.float64, count=len(extra))
        self._extras_cache = (list(extra), block, rhs)
        return block, rhs

    def matrices(self, extra: Sequence[Tuple[AffExpr, float]] = ()):
        """The ``(A_ub, b_ub, A_eq, b_eq, bounds)`` tuple for ``linprog``."""
        a_ub, b_ub = self.a_ub_base, self.b_ub_base
        if extra:
            a_extra, b_extra = self._assemble_extras(extra)
            if a_ub is None:
                a_ub, b_ub = a_extra, b_extra
            else:
                a_ub = vstack([a_ub, a_extra], format="csr")
                b_ub = np.concatenate([b_ub, b_extra])
        return a_ub, b_ub, self.a_eq, self.b_eq, self.bounds

    def objective_vector(self, objective: Optional[AffExpr]) -> np.ndarray:
        c = np.zeros(self.num_vars)
        if objective is not None:
            for var, coeff in objective.term_items():
                c[var.index] = float(coeff)
        return c

    def solve(self, objective: Optional[AffExpr] = None,
              extra: Sequence[Tuple[AffExpr, float]] = ()) -> Optional[np.ndarray]:
        """Minimise ``objective`` over the system; return values or None."""
        if self.num_vars == 0:
            return np.zeros(0)
        a_ub, b_ub, a_eq, b_eq, bounds = self.matrices(extra)
        result = linprog(self.objective_vector(objective), A_ub=a_ub, b_ub=b_ub,
                         A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if not result.success:
            return None
        return result.x


def solve_lp(system: ConstraintSystem, objective: Optional[AffExpr] = None,
             extra: Sequence[Tuple[AffExpr, float]] = ()) -> Optional[np.ndarray]:
    """Minimise ``objective`` subject to the system; return values or None."""
    return AssembledSystem(system).solve(objective, extra)


class IterativeMinimizer:
    """Minimise a sequence of objectives, fixing each optimum before the next.

    The base LP matrices are assembled exactly once; each stage only adds
    its objective-fixing row on top of them, and the extras cache of
    :meth:`AssembledSystem.matrices` appends just that row per solve.
    """

    def __init__(self, system: ConstraintSystem, tolerance: float = 1e-6) -> None:
        self.system = system
        self.tolerance = tolerance
        #: ``linprog`` calls made so far (including an infeasible last one).
        self.solves = 0

    def solve(self, objectives: Sequence[AffExpr],
              assembled: Optional[AssembledSystem] = None
              ) -> Optional[LPSolution]:
        """Solve the staged objectives; ``assembled`` reuses an assembly.

        The incremental pipeline passes the :class:`AssembledSystem` it has
        been growing across degree escalations; the assembly must be up to
        date with the constraint system (same variable/constraint counts).
        """
        if assembled is None:
            assembled = AssembledSystem(self.system)
        if assembled.num_vars != self.system.num_variables \
                or assembled.num_constraints != self.system.num_constraints:
            raise ValueError("assembled system is stale with respect to the "
                             "constraint system; apply the extension first")
        values: Optional[np.ndarray] = None
        achieved: List[float] = []
        # The objective-fixing rows of this attempt only.
        stage_rows: List[Tuple[AffExpr, float]] = []
        stages = list(objectives) or [AffExpr.zero()]
        for objective in stages:
            self.solves += 1
            values = assembled.solve(objective, stage_rows)
            if values is None:
                return None
            achieved_value = float(
                assembled.objective_vector(objective) @ values
                + float(objective.const))
            achieved.append(achieved_value)
            if not objective.is_constant():
                stage_rows.append((objective,
                                   achieved_value + self.tolerance))
        assignment = {var: snap_fraction(float(values[var.index]))
                      for var in self.system.variables}
        # Clamp tiny negatives introduced by floating point on non-negative vars.
        for var in self.system.variables:
            if var.nonneg and assignment[var] < 0:
                assignment[var] = Fraction(0)
        return LPSolution(assignment=assignment, raw_values=values,
                          objective_values=achieved, iterations=len(stages))
