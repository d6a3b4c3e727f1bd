"""Program inputs and output checks: the golden bounds, reference states,
the renaming variant generator and a safe evaluator for printed bounds."""

from __future__ import annotations

import ast as pyast
import json
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from perfbench.common import ROOT

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_bounds.json"
EXAMPLES = ROOT / "examples"

#: Relative tolerance of a bound check.  Loose enough for an exact-LP
#: change that moves a coefficient at the 1e-6 level (``bin``, ``hyper``,
#: ``prnes``) and for the six-digit rounding of printed bounds; tight enough
#: that any other change of a bound shows.
RELATIVE_TOLERANCE = 1e-4


# ---------------------------------------------------------------------------
# Reference states and bound checks
# ---------------------------------------------------------------------------

def reference_states(variables: Iterable[str]) -> List[Dict[str, int]]:
    """Fixed input valuations over ``variables``: all equal, all negative,
    a ramp, and one state per variable in which it alone is large (so an
    atom such as ``|[x + y, n]|`` is positive in at least one state)."""
    names = sorted(variables)
    states = [{name: 10 for name in names},
              {name: -7 for name in names},
              {name: 3 + 7 * index for index, name in enumerate(names)}]
    for spike in names:
        states.append({name: 200 if name == spike else 3 for name in names})
    return states


def close(measured: float, expected: float,
          tolerance: float = RELATIVE_TOLERANCE) -> bool:
    return abs(measured - expected) <= tolerance * max(1.0, abs(expected))


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def golden_entry(bound) -> Dict[str, object]:
    """The golden record of an :class:`ExpectedBound`: its values at the
    reference states over its variables."""
    variables = sorted(bound.variables())
    return {"pretty": bound.pretty(),
            "variables": variables,
            "values": [str(bound.evaluate(state))
                       for state in reference_states(variables)]}


def check_values(entry: Mapping[str, object],
                 evaluate) -> Tuple[bool, str]:
    """Compare ``evaluate(state)`` with the golden values at every state."""
    states = reference_states(entry["variables"])
    for state, expected in zip(states, entry["values"]):
        measured = float(evaluate(state))
        if not close(measured, float(Fraction(expected))):
            return False, (f"bound {measured!r} != golden {expected} "
                           f"at {state}")
    return True, ""


# ---------------------------------------------------------------------------
# Printed bounds (``repro analyze`` output)
# ---------------------------------------------------------------------------

_INTERVAL = re.compile(r"\|\[([^\[\]|]*?), ([^\[\]|]*?)\]\|")
_ALLOWED = (pyast.Expression, pyast.BinOp, pyast.UnaryOp, pyast.Add,
            pyast.Sub, pyast.Mult, pyast.Pow, pyast.USub, pyast.UAdd,
            pyast.Name, pyast.Load, pyast.Constant, pyast.Call)


def evaluate_pretty(text: str, state: Mapping[str, int]) -> float:
    """Value of a printed bound such as ``0.285714*|[0, n + 5]|``.

    ``|[a, b]|`` is ``max(0, b - a)``; only arithmetic on names, numbers
    and that ``max`` is accepted.
    """
    expression = _INTERVAL.sub(r"max(0, (\2) - (\1))", text.strip())
    expression = expression.replace("^", "**")
    tree = pyast.parse(expression, mode="eval")
    for node in pyast.walk(tree):
        if not isinstance(node, _ALLOWED):
            raise ValueError(f"unexpected syntax in bound {text!r}")
        if isinstance(node, pyast.Call) and (
                not isinstance(node.func, pyast.Name)
                or node.func.id != "max"):
            raise ValueError(f"unexpected call in bound {text!r}")
        if isinstance(node, pyast.Name) and node.id != "max" \
                and node.id not in state:
            raise ValueError(f"unknown variable {node.id!r} in {text!r}")
    namespace = {"max": max, **{name: value for name, value in state.items()}}
    return float(eval(compile(tree, "<bound>", "eval"),  # noqa: S307
                      {"__builtins__": {}}, namespace))


# ---------------------------------------------------------------------------
# Renamed variants
# ---------------------------------------------------------------------------

def variable_spans(source: str) -> List[Tuple[int, int, str]]:
    """``(start, end, name)`` of every variable occurrence in ``source``.

    An identifier is a variable unless it names a procedure (after
    ``proc``/``def``/``call``) or a distribution (followed by ``(``).
    """
    from repro.lang.lexer import Lexer

    line_starts = [0]
    for index, char in enumerate(source):
        if char == "\n":
            line_starts.append(index + 1)
    tokens = list(Lexer(source).tokens())
    spans: List[Tuple[int, int, str]] = []
    for index, token in enumerate(tokens):
        if token.kind != "ident":
            continue
        previous = tokens[index - 1] if index else None
        following = tokens[index + 1] if index + 1 < len(tokens) else None
        if previous is not None and previous.kind == "keyword" \
                and previous.value in ("proc", "def", "call"):
            continue
        if following is not None and following.kind == "symbol" \
                and following.value == "(":
            continue
        start = line_starts[token.line - 1] + token.column - 1
        spans.append((start, start + len(token.value), token.value))
    return spans


def rename_variables(source: str, prefix: str) -> Tuple[str, Dict[str, str]]:
    """Prefix every variable of ``source``; returns the text and the map.

    A common prefix keeps the variables' sort order, so the analysis of the
    variant does exactly the work of the original, and its bound is the
    original bound with the variables renamed.
    """
    pieces: List[str] = []
    mapping: Dict[str, str] = {}
    cursor = 0
    for start, end, name in variable_spans(source):
        if source[start:end] != name:
            raise ValueError(f"token position mismatch at {start}")
        mapping[name] = prefix + name
        pieces.append(source[cursor:start])
        pieces.append(prefix + name)
        cursor = end
    pieces.append(source[cursor:])
    return "".join(pieces), mapping


def variant_prefix(rng: random.Random) -> str:
    """A fresh seeded prefix such as ``v3f9a0c_``."""
    return f"v{rng.getrandbits(28):07x}_"


def renamed_state(state: Mapping[str, int],
                  mapping: Mapping[str, str]) -> Dict[str, int]:
    return {mapping.get(name, name): value for name, value in state.items()}


def registry_sources(category: Optional[str] = None
                     ) -> List[Tuple[str, str, Dict[str, object]]]:
    """``(name, source, analyzer options)`` of the registry programs."""
    from repro.bench.registry import all_benchmarks

    return [(bench.name, bench.source_text(), dict(bench.analyzer_options))
            for bench in all_benchmarks()
            if category is None or bench.category == category]


def example_files() -> List[Path]:
    return sorted(EXAMPLES.glob("*.imp"))
