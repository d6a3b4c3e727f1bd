"""``cli-cold``: cold ``python -m repro.cli`` processes over
``examples/*.imp`` in seed order.

Light class: ``lint``.  Heavy class: ``analyze``.
"""

from __future__ import annotations

import random
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.common import ROOT, HostReference, Outcome, PassClock, \
    child_env, timed_ops
from perfbench.programs import check_values, evaluate_pretty, load_golden

COMMANDS = ("lint", "analyze")
#: A hung child fails the operation instead of hanging the benchmark.
PROCESS_TIMEOUT = 60.0

Step = Tuple[str, Path]   # (command, example file)

_BOUND_LINE = re.compile(r"^expected cost bound: (.+)$", re.MULTILINE)


def script(rng: random.Random, files: Sequence[Path]) -> List[Step]:
    steps = [(command, path) for path in files for command in COMMANDS]
    rng.shuffle(steps)
    return steps


def run_python(arguments: Sequence[str]) -> subprocess.CompletedProcess:
    """One cold interpreter, run from the checkout root."""
    return subprocess.run([sys.executable, *arguments], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT)


def run_cli(command: str, path: Path) -> subprocess.CompletedProcess:
    return run_python(["-m", "repro.cli", command,
                       str(path.relative_to(ROOT))])


def check(step: Step, process: subprocess.CompletedProcess,
          outcome: Outcome, golden: Dict[str, Dict[str, object]]) -> None:
    command, path = step
    what = f"{command} {path.name}"
    if process.returncode != 0:
        outcome.record(False, f"{what}: exit {process.returncode} "
                              f"{process.stderr.strip()[-200:]}")
        return
    if command == "lint":
        outcome.record(process.stdout.strip().endswith("clean"),
                       f"{what}: unexpected lint output")
        return
    found = _BOUND_LINE.search(process.stdout)
    if found is None:
        outcome.record(False, f"{what}: no bound printed")
        return
    try:
        ok, why = check_values(golden["examples"][path.name],
                               lambda state: evaluate_pretty(found.group(1),
                                                             state))
    except ValueError as exc:
        ok, why = False, str(exc)
    outcome.record(ok, f"{what}: {why}")


def run_pass(steps: Sequence[Step], host: HostReference, outcome: Outcome,
             golden: Dict[str, Dict[str, object]]
             ) -> List[Tuple[str, float, float]]:
    """Every step once; ``(command, raw_s, norm_s)`` each."""
    processes: List[subprocess.CompletedProcess] = []

    def operation(step: Step):
        def run() -> None:
            processes.append(run_cli(*step))
        return run

    def untimed(index: int) -> None:
        if index:
            check(steps[index - 1], processes[index - 1], outcome, golden)

    walls = timed_ops(host, [operation(step) for step in steps], untimed)
    return [(command, raw, norm)
            for (command, _), (raw, norm) in zip(steps, walls)]


def setup_once(host: HostReference, path: Path) -> float:
    """One untimed process that warms the page cache; its normalised
    wall."""
    probe: List[subprocess.CompletedProcess] = []
    ((_, wall),) = timed_ops(host, [lambda: probe.append(
        run_cli("lint", path))])
    if probe[0].returncode != 0:
        raise RuntimeError(f"set-up process failed: {probe[0].stderr}")
    return wall


def summarise(walls: Sequence[Tuple[str, float, float]], passes: int
              ) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for label, index in (("", 2), ("raw.", 1)):
        light = [wall[index] for wall in walls if wall[0] == "lint"]
        heavy = [wall[index] for wall in walls if wall[0] == "analyze"]
        out[label + "light_ms"] = 1000.0 * sum(light) / len(light)
        out[label + "heavy_ms"] = 1000.0 * sum(heavy) / len(heavy)
        out[label + "pass_s"] = sum(light + heavy) / passes
    return out


def measure(seed: int, seconds: float, host: HostReference,
            outcome: Outcome, files: Sequence[Path]) -> Dict[str, float]:
    """Whole passes until ``seconds`` have gone (at least one)."""
    golden = load_golden()
    rng = random.Random(seed)
    walls: List[Tuple[str, float, float]] = []
    totals: List[float] = []
    raw_totals: List[float] = []
    clock = PassClock(seconds)
    while clock.another():
        one = run_pass(script(rng, files), host, outcome, golden)
        walls.extend(one)
        totals.append(sum(norm for _, _, norm in one))
        raw_totals.append(sum(raw for _, raw, _ in one))
    summary = summarise(walls, len(totals))
    summary["pass_s"] = statistics.median(totals)
    summary["raw.pass_s"] = statistics.median(raw_totals)
    summary["passes"] = len(totals)
    return summary


#: The traced pass's child: ``python -m repro.cli`` with the import timed
#: apart from the command's work, reported on the last line of stderr.
SPLIT_CHILD = """\
import runpy, sys, time
start = time.perf_counter()
import repro.cli
imported = time.perf_counter()
sys.argv = ["repro.cli"] + sys.argv[1:]
code = 0
try:
    runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
done = time.perf_counter()
sys.stderr.write(f"\\nsplit {imported - start} {done - imported}\\n")
sys.exit(code)
"""


def layer_metrics(seed: int, host: HostReference, outcome: Outcome,
                  files: Sequence[Path], own: bool = False
                  ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The cli family: interpreter start, and the import and command work
    of each process, timed inside the processes of one pass over the
    script.  Returns the layer metrics and, with ``own``, an untraced
    pass's summary (else an empty one)."""
    golden = load_golden()
    summary: Dict[str, float] = {}
    if own:
        summary = summarise(run_pass(script(random.Random(seed), files),
                                     host, outcome, golden), 1)
    starts: List[subprocess.CompletedProcess] = []
    walls = timed_ops(host, [lambda: starts.append(
        run_python(["-c", "pass"]))] * 3)
    for process in starts:
        outcome.record(process.returncode == 0, "python -c pass failed")
    steps = script(random.Random(seed), files)
    processes: List[subprocess.CompletedProcess] = []
    split_walls = timed_ops(host, [
        lambda step=step: processes.append(run_python(
            ["-c", SPLIT_CHILD, step[0], str(step[1].relative_to(ROOT))]))
        for step in steps])
    imports: List[float] = []
    work: Dict[str, List[float]] = {command: [] for command in COMMANDS}
    for step, process, (raw, norm) in zip(steps, processes, split_walls):
        check(step, process, outcome, golden)
        split = [line.split() for line in process.stderr.splitlines()
                 if line.startswith("split ")]
        if not split:
            outcome.record(False, f"{step[0]} {step[1].name}: no split")
            continue
        _, imported, rest = split[-1]
        imports.append(float(imported) * norm / raw)
        work[step[0]].append(float(rest) * norm / raw)
    return {"cli.python_ms": 1000.0 * statistics.median(
                norm for _, norm in walls),
            "cli.import_ms": 1000.0 * statistics.fmean(imports),
            "cli.lint_work_ms": 1000.0 * statistics.fmean(work["lint"]),
            "cli.analyze_work_ms": 1000.0 * statistics.fmean(
                work["analyze"])}, summary
