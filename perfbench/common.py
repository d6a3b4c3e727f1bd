"""Shared pieces of the benchmark: paths, the host reference kernel,
normalisation, statistics and the result record.

Every timing the benchmark reports is *host-normalised*: the fixed
pure-Python :func:`reference_kernel` is timed at a barrier right before and
right after each operation (or script segment), and the operation's wall
time is scaled by ``NOMINAL_REF_MS / reference``, the reference being the
mean kernel time at the barriers nearest the operation.  On a
machine whose speed drifts with other tenants' load, the work and the
reference slow down together, so the ratio stays put.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources, imported in-process and by child processes.
SRC = ROOT / "src"
#: Scratch space for stores, temporary files and child output.
WORK = ROOT / ".perfbench_work"

#: Iterations of the reference kernel (about 20 ms on a 2-vCPU x86 VM).
REFERENCE_ITERATIONS = 2400
#: Kernel runs per reference barrier.
REFERENCE_REPEATS = 5
#: Barriers on each side of an operation whose runs scale it.
WINDOW = 3
#: The kernel's exact result; a changed value means a changed kernel.
REFERENCE_VALUE = Fraction(44876947, 8316)
#: The reference time every timing is scaled to, in ms.  It is a fixed
#: constant, not a measurement: normalised numbers read "as if the reference
#: kernel took this long".
NOMINAL_REF_MS = 20.0


def require_program() -> None:
    """Make the program importable, or exit non-zero without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the program on the path, temporary
    files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    env.pop("REPRO_DOMAIN", None)
    env.pop("REPRO_SOLVER", None)
    env.pop("REPRO_PREFILTER", None)
    return env


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# The reference kernel
# ---------------------------------------------------------------------------

def reference_kernel(iterations: int = REFERENCE_ITERATIONS) -> Fraction:
    """Fixed pure-Python work shaped like the analyzer's hot loop.

    ``Fraction`` construction and arithmetic, dict updates keyed by tuples,
    and periodic sorting of the accumulated items -- the operations that
    dominate coefficient and polynomial algebra in ``repro``.
    """
    acc: Dict[Tuple[int, int], Fraction] = {}
    step = Fraction(3, 7)
    for i in range(iterations):
        key = (i % 13, (i * 7) % 11)
        term = Fraction(i % 9 + 1, i % 5 + 2) * step
        acc[key] = acc.get(key, 0) + term
        if i % 17 == 0:
            items = sorted(acc.items())
            step = Fraction(len(items) % 7 + 1, i % 11 + 2) \
                + items[len(items) // 2][1].denominator % 5
    return sum(acc.values(), Fraction(0))


class HostReference:
    """Times the reference kernel at barriers between operations and turns
    raw walls into normalised ones."""

    def __init__(self, spread: bool = False) -> None:
        """``spread`` runs the kernel on each CPU in turn, for work spread
        over several busy processes; otherwise the kernel runs where this
        thread runs, which also tracks a single child that this thread
        waits for."""
        self.samples_ms: List[float] = []
        self.cpus: List[int] = []
        if spread and hasattr(os, "sched_setaffinity"):
            self.cpus = sorted(os.sched_getaffinity(0))
        reference_kernel()  # first call pays code-object warm-up, untimed

    def measure(self) -> List[float]:
        """One barrier: :data:`REFERENCE_REPEATS` timed kernel runs, in ms.

        Checks the kernel's result.
        """
        runs: List[float] = []
        try:
            for index in range(REFERENCE_REPEATS):
                if self.cpus:
                    cpu = self.cpus[index % len(self.cpus)]
                    os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                value = reference_kernel()
                runs.append((time.perf_counter() - start) * 1000.0)
                if value != REFERENCE_VALUE:
                    raise RuntimeError("reference kernel returned a wrong "
                                       "value")
        finally:
            if self.cpus:
                os.sched_setaffinity(0, self.cpus)
        self.samples_ms.extend(runs)
        return runs

    @staticmethod
    def scales(barriers: Sequence[Sequence[float]]) -> List[float]:
        """The factor of each operation between consecutive barriers.

        On a shared host a core is slowed for a fraction of a second at a
        time, so kernel run times are bimodal and one barrier is a noisy
        sample of the slow share.  Operation ``i`` (between barriers ``i``
        and ``i + 1``) is scaled by the mean of the runs at the
        :data:`WINDOW` barriers on each side of it: a mean, because it
        tracks the slow share where a median jumps between the modes.
        """
        factors: List[float] = []
        for index in range(len(barriers) - 1):
            pooled = [run for barrier in
                      barriers[max(0, index + 1 - WINDOW):index + 1 + WINDOW]
                      for run in barrier]
            factors.append(NOMINAL_REF_MS / statistics.fmean(pooled))
        return factors

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)


def timed_ops(host: HostReference, operations: Sequence[Callable[[], None]],
              untimed: Optional[Callable[[int], None]] = None
              ) -> List[Tuple[float, float]]:
    """Run operations back to back with a reference barrier between them.

    Returns ``(raw_seconds, normalised_seconds)`` per operation.
    ``untimed(i)`` runs outside the timer before operation ``i`` and, with
    ``i == len(operations)``, once after the last one (checks, resets).
    """
    if untimed is not None:
        untimed(0)
    barriers = [host.measure()]
    raws: List[float] = []
    for index, operation in enumerate(operations):
        start = time.perf_counter()
        operation()
        raws.append(time.perf_counter() - start)
        if untimed is not None:
            untimed(index + 1)
        barriers.append(host.measure())
    return [(raw, raw * factor)
            for raw, factor in zip(raws, host.scales(barriers))]


class PassClock:
    """Decides whether another whole pass fits in the measuring window.

    A pass is started only if, at the pace of the longest pass so far, it
    ends within ``seconds`` of the first one's start; the first pass
    always runs.  So a run never measures a pass it has to cut, and its
    length does not jump by a whole pass when the host's speed drifts.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.started = self.last = time.perf_counter()
        self.passes = 0
        self.longest = 0.0

    def another(self) -> bool:
        now = time.perf_counter()
        if self.passes:
            self.longest = max(self.longest, now - self.last)
        fits = not self.passes \
            or now - self.started + self.longest <= self.seconds
        if fits:
            self.passes += 1
            self.last = now
        return fits


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def nearest_rank(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: Percentiles considered for a tail, highest first.
TAIL_PERCENTS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percent, value)``; falls back to the median when the sample
    is too small for any tail.
    """
    count = len(samples)
    for percent in TAIL_PERCENTS:
        if count - math.ceil(percent / 100.0 * count) >= 10:
            return percent, nearest_rank(samples, percent)
    return 50.0, nearest_rank(samples, 50.0)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest reaped child (or grandchild it reaped)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The result record
# ---------------------------------------------------------------------------

class Outcome:
    """Operation accounting plus the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def as_json(self) -> Dict[str, object]:
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": self.metrics}
