"""Run one workload of the benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, measured over as many whole
passes as fit in ``--seconds``; ``--trace 1`` the per-layer ones, from a
separate traced run of one pass per layer family.  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  Lines before it are a human-readable summary.
``--write-golden`` regenerates ``golden_bounds.json`` from the current
program instead.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (ROOT, WORK, HostReference,  # noqa: E402
                              Outcome, child_env, children_peak_rss_mb,
                              self_peak_rss_mb, timed_ops)

WORKLOADS = ("suite-cold", "cli-cold", "serve-mixed")
#: Set-ups measured per run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END = (("pass_s", "s"), ("light_ms", "ms"), ("heavy_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Set-up of suite-cold, in this process and in fresh interpreters
# ---------------------------------------------------------------------------

def suite_setup_child() -> None:
    """Entry point of a set-up probe: print this interpreter's set-up time."""
    from perfbench.common import require_program
    from perfbench import suite_cold

    require_program()
    start = time.perf_counter()
    suite_cold.setup()
    print(time.perf_counter() - start)


def suite_setups(host: HostReference) -> Tuple[list, List[float]]:
    """Set up this process, then time the same set-up in fresh interpreters.

    Returns the programs and the normalised set-up walls.  A child's
    set-up is timed inside the child and scaled by the factor of the
    barriers around the child.
    """
    from perfbench import suite_cold

    programs: list = []
    children: List[subprocess.CompletedProcess] = []
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from perfbench.run import suite_setup_child; "
            "suite_setup_child()")

    def child() -> None:
        children.append(subprocess.run(
            [sys.executable, "-c", code, str(ROOT)], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=120))

    walls = timed_ops(host, [lambda: programs.extend(suite_cold.setup())]
                      + [child] * (SETUPS - 1))
    setups = [walls[0][1]]
    for process, (raw, norm) in zip(children, walls[1:]):
        if process.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {process.stderr}")
        setups.append(float(process.stdout.split()[-1]) * norm / raw)
    return programs, setups


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

#: ``--smoke`` shrinks every input list to these (a functional check in
#: seconds, not a measurement).
SMOKE_SUITE = ("rdwalk", "C4B_t13", "pol05")
SMOKE_BASES = ("rdwalk", "C4B_t13", "C4B_t15", "sprdwalk")
SMOKE_EXAMPLES = 1


def suite_inputs(programs: list, smoke: bool) -> list:
    return [program for program in programs
            if not smoke or program[0] in SMOKE_SUITE]


def serve_inputs(smoke: bool) -> list:
    from perfbench.programs import registry_sources

    return [base for base in registry_sources("linear")
            if not smoke or base[0] in SMOKE_BASES]


def cli_inputs(smoke: bool) -> List[Path]:
    from perfbench.programs import example_files

    files = example_files()
    return files[:SMOKE_EXAMPLES] if smoke else files


# ---------------------------------------------------------------------------
# End-to-end runs
# ---------------------------------------------------------------------------

def end_to_end(workload: str, seed: int, seconds: float, smoke: bool,
               host: HostReference, outcome: Outcome) -> Dict[str, float]:
    if workload == "suite-cold":
        from perfbench import suite_cold

        programs, setups = suite_setups(host)
        summary = suite_cold.measure(seed, seconds, host, outcome,
                                     suite_inputs(programs, smoke))
        summary["setup_s"] = statistics.median(setups)
        summary["peak_rss_mb"] = self_peak_rss_mb()
        return summary
    if workload == "cli-cold":
        from perfbench import cli_cold

        files = cli_inputs(smoke)
        setups = [cli_cold.setup_once(host, files[0])
                  for _ in range(SETUPS)]
        summary = cli_cold.measure(seed, seconds, host, outcome, files)
        summary["setup_s"] = statistics.median(setups)
        summary["peak_rss_mb"] = children_peak_rss_mb()
        return summary
    from perfbench import serve_mixed

    return serve_mixed.measure(seed, seconds, host, outcome,
                               serve_inputs(smoke))


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def traced(workload: str, seed: int, smoke: bool, outcome: Outcome
           ) -> Dict[str, float]:
    """Every per-layer metric.

    The core family (lang/core/utils/logic) comes from an untraced and a
    traced in-process pass over the programs this workload analyses; the
    cli family from passes over ``cli-cold``'s script; the service family
    from one ``serve-mixed`` pass.  ``raw.*`` and ``host.ref_ms`` describe
    this workload's own untraced pass.  The gateway's work, spread over
    several processes, is normalised by the kernel run on every CPU in
    turn; other work by the kernel run where this process runs.
    """
    from perfbench import cli_cold, serve_mixed, suite_cold
    from perfbench.programs import load_golden

    golden = load_golden()
    programs = suite_inputs(suite_cold.setup(), smoke)
    files = cli_inputs(smoke)
    bases = serve_inputs(smoke)
    if workload == "suite-cold":
        order = suite_cold.script(programs, random.Random(seed))
        entries = golden["suite"]
    elif workload == "cli-cold":
        order = [(path.name, path.read_text(encoding="utf-8"), {}, "example")
                 for path in files]
        entries = golden["examples"]
    else:
        order = [(name, source, options, "linear")
                 for name, source, options in bases]
        entries = golden["suite"]
    local, spread = HostReference(), HostReference(spread=True)
    metrics, walls = suite_cold.layer_metrics(order, entries, local,
                                              outcome)
    cli_layers, cli_own = cli_cold.layer_metrics(
        seed, local, outcome, files, own=workload == "cli-cold")
    metrics.update(cli_layers)
    service_layers, serve_own = serve_mixed.layer_metrics(seed, spread,
                                                          outcome, bases)
    metrics.update(service_layers)
    if workload == "suite-cold":
        own = suite_cold.summarise(walls, 1)
    elif workload == "cli-cold":
        own = cli_own
    else:
        own = serve_own
    for name in ("pass_s", "light_ms", "heavy_ms"):
        metrics[f"raw.{name}"] = own[f"raw.{name}"]
    own_host = spread if workload == "serve-mixed" else local
    metrics["host.ref_ms"] = own_host.median_ms()
    return metrics


# ---------------------------------------------------------------------------
# Golden bounds
# ---------------------------------------------------------------------------

def write_golden() -> None:
    """Analyse the registry and the examples; store their golden bounds."""
    from perfbench import suite_cold
    from perfbench.programs import (GOLDEN_PATH, example_files,
                                    golden_entry, registry_sources)
    from repro.core.analyzer import analyze_source

    golden: Dict[str, Dict[str, object]] = {"suite": {}, "examples": {}}
    sources = [("suite", name, source, options)
               for name, source, options in registry_sources()]
    sources += [("examples", path.name, path.read_text(encoding="utf-8"), {})
                for path in example_files()]
    for group, name, source, options in sources:
        suite_cold.reset_memos()
        result = analyze_source(source, **options)
        bound = result.require_bound()
        golden[group][name] = golden_entry(bound)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks that everything runs")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")

    from perfbench.common import require_program

    # A terminated run still stops its children and removes its scratch
    # files: the ``finally`` blocks run on SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    require_program()
    WORK.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        if args.write_golden:
            write_golden()
            return 0
        if args.trace:
            measured = traced(args.workload, args.seed, args.smoke, outcome)
            names = sorted(measured)
        else:
            host = HostReference(spread=args.workload == "serve-mixed")
            measured = end_to_end(args.workload, args.seed, args.seconds,
                                  args.smoke, host, outcome)
            measured["host.ref_ms"] = host.median_ms()
            for name in ("raw.pass_s", "raw.light_ms", "raw.heavy_ms",
                         "host.ref_ms", "passes"):
                print(f"{name:>24} {measured[name]:.4f}")
            names = [name for name, _ in END_TO_END]
        units = dict(END_TO_END)
        for name in names:
            outcome.metric(name, measured[name],
                           units.get(name) or unit_of(name))
            print(f"{name:>24} {measured[name]:.4f} "
                  f"{units.get(name) or unit_of(name)}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    print(json.dumps(outcome.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
