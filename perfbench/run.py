"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 15 --trace 0

``--workload all`` runs the four workloads one after another, each in
its own process, and prints every metric by name with its unit and the
number of samples behind it.

Run it from the root of a checkout: the program under test is imported
from ``src/`` of that checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and
prints the per-layer metrics, including the tracing overhead.  The
traced run also writes its spans to ``.perfbench/`` as Chrome
trace-event JSON.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-sweep", "cold-compile", "tune-search", "serve-mix")


def _workload(name: str, seed: int):
    if name == "sim-sweep":
        from perfbench.sim_sweep import SimSweep

        return SimSweep(seed)
    if name == "cold-compile":
        from perfbench.cold_compile import ColdCompile

        return ColdCompile(seed)
    if name == "tune-search":
        from perfbench.tune_search import TuneSearch

        return TuneSearch(seed)
    from perfbench.serve_mix import ServeMix

    return ServeMix(seed)


def _run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric."""
    failed = False
    print(f"{'workload':13} {'metric':34} {'value':>14} {'unit':8} samples")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}")
            failed = True
            continue
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        samples = summary.get("samples", {})
        for metric, reported in result["metrics"].items():
            print(
                f"{name:13} {metric:34} {reported['value']:14.6g} "
                f"{reported['unit']:8} {samples.get(metric, '-')}"
            )
        print(
            f"{name:13} {'(checks)':34} {result['attempted'] - result['failed']:>14}"
            f" of {result['attempted']} passed"
        )
        failed = failed or not result["correct"]
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
            "is missing (run from the root of a full checkout)",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import WORK, Run, drive, load_catalogue, result_line

    # A terminated run still stops the daemon it started (drive's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    catalogue = load_catalogue()
    workload = _workload(args.workload, args.seed)
    run = Run(args.seed, args.seconds, bool(args.trace))
    drive(workload, run)
    line = result_line(workload, run, catalogue)
    if run.trace:
        run.tracer.write_chrome_trace(
            WORK / f"trace-{args.workload}-seed{args.seed}.json"
        )
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        **run.notes,
        "failures": run.failures,
    }
    print(json.dumps(summary, sort_keys=True))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
