"""Lint drivers: run every pass over a program or source text.

The passes (ISSUE terminology):

1. def-use / initialization  -- R101, R102, R103, R104, R105 (flow walk +
   per-procedure declaration checks)
2. probability / distribution well-formedness -- R201, R202, R203
   (R201/R202 are reachability-aware and live in the flow walk; R203 is
   syntactic)
3. constant-condition reachability -- R301, R302, R303 (flow walk)
4. interval range / overflow -- R401 (flow walk)
5. back-end pre-checks -- R501 (vectorizability), R502 (analyzability)

Out-of-range probabilities and invalid distribution parameters cannot
reach the passes at all: the AST constructors reject them, and the parser
converts those ``ValueError``s into positioned ``ParseError``s -- which
:func:`lint_source` reports as ``R001``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.lang import ast
from repro.lang.analysis.diagnostics import Diagnostic
from repro.lang.analysis.engine import FlowWalker
from repro.lang.analysis.verdicts import (
    DEFAULT_MAX_STEPS,
    analyzability_verdict,
    vectorizability_verdict,
)
from repro.lang.errors import ParseError
from repro.lang.parser import parse_program

__all__ = ["lint_program", "lint_source"]


def _used_closure(program: ast.Program, proc: ast.Procedure) -> Set[str]:
    """Variables read or written by ``proc``, following calls.

    Under the global-state convention a parameter of ``main`` may only be
    touched inside a callee (the ``recursive`` benchmark does exactly
    this), so unused-declaration checks must look through calls.
    """
    used = set(proc.body.used_variables())
    seen = {proc.name}
    frontier = list(proc.body.called_procedures())
    while frontier:
        name = frontier.pop()
        if name in seen or name not in program.procedures:
            continue
        seen.add(name)
        callee = program.procedures[name]
        used |= callee.body.used_variables()
        frontier.extend(callee.body.called_procedures())
    return used


def _declaration_pass(program: ast.Program) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for proc in program.procedures.values():
        declared: Set[str] = set()
        for kind, names in (("parameter", proc.params), ("local", proc.locals)):
            for name in names:
                if name in declared:
                    diagnostics.append(Diagnostic(
                        code="R104",
                        message=f"{kind} {name!r} duplicates an earlier "
                                f"declaration in procedure {proc.name!r}",
                        span=proc.span, procedure=proc.name,
                        hint="remove the duplicate declaration"))
                declared.add(name)
        used = _used_closure(program, proc)
        for kind, names in (("parameter", proc.params), ("local", proc.locals)):
            for name in names:
                if name not in used:
                    diagnostics.append(Diagnostic(
                        code="R103",
                        message=f"{kind} {name!r} is never used in "
                                f"procedure {proc.name!r}",
                        span=proc.span, procedure=proc.name,
                        hint="drop the declaration or use the variable"))
    return diagnostics


def _distribution_pass(program: ast.Program) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for name, proc in program.procedures.items():
        for node in proc.body.iter_nodes():
            if not isinstance(node, ast.Sample):
                continue
            support = node.distribution.support()
            if len(support) == 1:
                value = support[0][0]
                diagnostics.append(Diagnostic(
                    code="R203",
                    message=f"distribution {node.distribution} always "
                            f"yields {value}; the sampling assignment to "
                            f"{node.target!r} is deterministic",
                    span=node.span, procedure=name,
                    hint="use a plain assignment, or widen the "
                         "distribution's parameters"))
    return diagnostics


def _verdict_pass(program: ast.Program, max_steps: int,
                  choice_mode: Optional[str]) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    vec = vectorizability_verdict(program, max_steps=max_steps,
                                  choice_mode=choice_mode)
    if not vec.ok:
        diagnostics.append(Diagnostic(
            code="R501",
            message=f"not vectorizable: {vec.reason}", span=vec.span,
            hint="the sampler's 'auto' engine will use the scalar "
                 "interpreter for this program"))
    ana = analyzability_verdict(program)
    if not ana.ok:
        diagnostics.append(Diagnostic(
            code="R502",
            message=f"not analyzable: {ana.reason}", span=ana.span,
            hint="the derivation system will reject this program before "
                 "attempting a bound"))
    return diagnostics


def _walk_roots(program: ast.Program) -> List[Tuple[ast.Procedure, Set[str]]]:
    """Procedures to walk and the initial-state vars for each walk.

    Execution starts at ``main`` with its parameters as the declared
    initial state; procedures unreachable from ``main``'s call closure are
    walked standalone (leniently seeding main's globals too, since under
    the global-state convention a helper only ever runs after ``main``
    has set things up).
    """
    main = program.main_procedure
    reachable = {program.main}
    frontier = [program.main]
    graph = program.call_graph()
    while frontier:
        for callee in graph.get(frontier.pop(), ()):
            if callee in program.procedures and callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)
    roots = [(main, set(main.params))]
    for name, proc in program.procedures.items():
        if name not in reachable:
            roots.append((proc, set(proc.params) | set(main.params)
                          | set(proc.locals)))
    return roots


def lint_program(program: ast.Program,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 choice_mode: Optional[str] = "random",
                 counter: Optional[str] = None
                 ) -> List[Diagnostic]:
    """Run every lint pass; returns diagnostics in source order.

    On entry to ``main`` its parameters count as initialized, and so does
    the resource ``counter`` when given: it is zero-initialized by
    convention, so ``cost = cost + s`` is not an uninitialized read.
    ``max_steps`` and ``choice_mode`` parameterize the vectorizability
    pre-check exactly like ``VecInterpreter``'s constructor.
    """
    diagnostics: List[Diagnostic] = []
    diagnostics += _declaration_pass(program)
    diagnostics += _distribution_pass(program)

    for index, (proc, initial) in enumerate(_walk_roots(program)):
        if index == 0 and counter:
            initial.add(counter)
        walker = FlowWalker(program, proc, initial)
        walker.run()
        diagnostics += walker.diagnostics

    diagnostics += _verdict_pass(program, max_steps, choice_mode)

    unique: List[Diagnostic] = []
    seen = set()
    for diag in diagnostics:
        key = (diag.code, diag.message,
               None if diag.span is None else (diag.span.line,
                                               diag.span.column))
        if key in seen:
            continue
        seen.add(key)
        unique.append(diag)
    unique.sort(key=Diagnostic.sort_key)
    return unique


def lint_source(text: str, main: Optional[str] = None,
                max_steps: int = DEFAULT_MAX_STEPS,
                choice_mode: Optional[str] = "random",
                counter: Optional[str] = None
                ) -> List[Diagnostic]:
    """Parse and lint ``text``; parse failures become an ``R001`` record.

    Never raises for any input string -- the crash-freedom contract the
    fuzzer enforces.
    """
    try:
        program = parse_program(text, main=main)
    except ParseError as exc:
        span = ast.Span(exc.line, exc.column) \
            if (exc.line or exc.column) else None
        message = getattr(exc, "bare_message", str(exc))
        return [Diagnostic(code="R001", message=message, span=span,
                           hint="fix the syntax error; no further checks "
                                "were run")]
    return lint_program(program, max_steps=max_steps,
                        choice_mode=choice_mode, counter=counter)
