"""Layer attribution from outside the program: timed wrappers around the
public functions of each layer, installed only for a traced pass.

Each wrapped call is a span.  Spans nest through a stack, so a layer's
*self* time is its spans' durations minus the durations of the spans they
enclosed; the self times of all layers plus the root's own remainder add up
to the root spans' total.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: ``(module, attribute path, layer)``: the functions wrapped for the core
#: family.  ``root`` is the whole analysis; its self time is what no named
#: layer covers.
CORE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.analyzer", "analyze_source", "root"),
    ("repro.lang.parser", "parse_program", "lang.parse"),
    ("repro.core.pipeline", "AnalysisPipeline.prepare", "core.prepare"),
    ("repro.core.pipeline", "AnalysisPipeline.ensure_degree", "core.derive"),
    ("repro.core.rewrite", "generate_rewrites", "core.rewrite"),
    ("repro.utils.polynomials", "Polynomial.__mul__", "utils.poly_mul"),
    ("repro.utils.polynomials", "Polynomial.__rmul__", "utils.poly_mul"),
    ("repro.core.pipeline", "AnalysisPipeline.solve_attempt", "core.solve"),
    ("repro.core.solver", "IterativeMinimizer.solve", "core.lp"),
    ("repro.core.certificates", "build_certificate", "core.certificate"),
) + tuple(
    ("repro.logic.entailment", f"EntailmentEngine.{method}", "logic.entail")
    for method in ("entails", "entails_many", "is_feasible",
                   "greatest_lower_bound", "project", "join", "widen",
                   "assign"))


class Tracer:
    """Accumulates self time and call counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        # One entry per open span: seconds spent in its direct children.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, function: Callable) -> Callable:
        """``function`` with a span of ``layer`` around every call."""
        stack = self._stack
        clock = self.clock
        self_seconds = self.self_seconds
        calls = self.calls

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_seconds[layer] += duration - children[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    # -- installing -------------------------------------------------------

    def install(self, targets: Sequence[Tuple[str, str, str]]) -> None:
        """Wrap every target, and every other binding of the same function
        object in an already-imported ``repro`` module (a name imported with
        ``from module import function`` is patched there too)."""
        import importlib

        for module_name, path, layer in targets:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            traced = self.wrap(layer, original)
            self._patch(owner, attribute, traced)
            if outer:
                continue  # a class attribute: one binding serves all callers
            for name, module in list(sys.modules.items()):
                if (module is not None and module is not owner
                        and name.split(".")[0] == "repro"
                        and module.__dict__.get(attribute) is original):
                    self._patch(module, attribute, traced)

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
