"""What every workload shares: the run loop, set-up timing, host-speed
calibration, statistics and the result line."""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.tracing import Tracer

#: The checkout the benchmark runs in (``perfbench/`` lives at its root).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, sockets and trace files, inside the checkout.
WORK = ROOT / ".perfbench"

#: Set-up runs at least this many times per run, and until
#: ``SETUP_BUDGET_S`` have been spent on it (at most ``SETUP_MAX``);
#: ``setup_s`` is the median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.5
SETUP_MAX = 10
#: Nominal duration of one :func:`calibration_loop` on the reference
#: host (2-core x86, Python 3.11, unloaded); see "Calibrated time" in
#: ``perfbench/README.md``.
CALIBRATION_REFERENCE_S = 0.004
#: A stretch of work is calibrated by the loop samples taken up to this
#: many seconds before or after it ends (see :meth:`Run._local_scales`).
CALIBRATION_WINDOW_S = 2.0
#: Measuring stops here even short of its minimums, so a run ends well
#: inside the 180 s a run may take.
MAX_MEASURE_S = 140.0


def calibration_loop(n: int = 30000) -> int:
    """Fixed interpreter-bound work (dict lookups, list updates, integer
    arithmetic) that does not touch the program under test; its duration
    tracks how fast the host runs Python right now."""
    table: Dict[int, List[int]] = {}
    total = 0
    for i in range(n):
        key = (i * 7919) & 511
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [key, 0]
        entry[1] += i
        total += entry[1] % 7
    return total


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: the tree's sources, a private cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["SWGEMM_CACHE_DIR"] = str(WORK / "default-cache")
    return env


def import_package() -> None:
    """Import the package in a fresh interpreter: the part of set-up this
    process paid before it could time anything, timed again each set-up."""
    subprocess.run(
        [sys.executable, "-c", "import numpy, repro, repro.api"],
        env=child_env(),
        check=True,
        timeout=120,
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Everything one benchmark run collects."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: host seconds of each untraced / traced iteration
        self.iteration_s: List[float] = []
        self.traced_iteration_s: List[float] = []
        self.setup_s: List[float] = []
        #: calibrated milliseconds of each unit operation
        self.op_ms: List[float] = []
        #: calibrated work items per second, per iteration
        self.work_rates: List[float] = []
        #: uncalibrated iteration seconds, and each iteration's median
        #: calibration-loop seconds
        self.raw_iteration_s: List[float] = []
        self.calibration_s: List[float] = []
        # per-iteration accumulators, see begin_iteration(): each op's
        # milliseconds and the stretch it ran in; per in-process
        # calibration, the work seconds before it, when it started and
        # its loop samples
        self._ops: List[Tuple[float, int]] = []
        self._work = 0.0
        self._samples: List[float] = []
        self._marks: List[Tuple[float, float, List[float]]] = []
        self._mark_at = time.perf_counter()
        self._calibrating_s = 0.0
        #: simulated / modelled Gflops of the kernels the run produced
        self.gflops: List[float] = []
        #: peak RSS of the process doing the work, when it is not this one
        self.worker_rss_mb: Optional[float] = None
        self.notes: Dict[str, Any] = {}

    # -- what a workload reports per iteration ------------------------------

    def op(self, seconds: float, calibrate: bool = True) -> None:
        """One unit operation's host time (``math.inf`` for a failed one:
        it misses every latency limit); by default followed by a
        calibration sample, so the iteration's samples interleave with
        its work."""
        self._ops.append((1e3 * seconds, len(self._marks)))
        if calibrate:
            self.calibrate()

    def work(self, count: float) -> None:
        self._work += count

    def calibrate(self, samples: int = 1) -> None:
        # With the collector off, the loop's time does not depend on how
        # many objects the workload keeps alive.  The span keeps the
        # loop's time out of the self time of whatever layer called.
        collecting = gc.isenabled()
        gc.disable()
        taken: List[float] = []
        now = time.perf_counter()
        self._marks.append((now - self._mark_at, now, taken))
        try:
            with self.tracer.span("calibration"):
                for _ in range(samples):
                    started = time.perf_counter()
                    calibration_loop()
                    taken.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
            self._samples.extend(taken)
            self._calibrating_s += sum(taken)
            self._mark_at = time.perf_counter()

    def add_calibration(self, samples: Sequence[float]) -> None:
        """Calibration-loop seconds measured by another process."""
        self._samples.extend(samples)

    def begin_iteration(self) -> None:
        self._ops, self._work, self._samples, self._marks = [], 0.0, [], []
        self._calibrating_s = 0.0
        self._mark_at = time.perf_counter()

    def scale(self) -> float:
        """Calibration factor of the samples taken since the last
        :meth:`begin_iteration` (at least three)."""
        if len(self._samples) < 3:
            self.calibrate(3 - len(self._samples))
        return CALIBRATION_REFERENCE_S / statistics.median(self._samples)

    def _local_scales(self) -> List[float]:
        """Calibration factor of each stretch of work that ends in an
        in-process calibration: the median of the loop samples taken
        within ``CALIBRATION_WINDOW_S`` of that calibration.  The host's
        speed changes over tens of seconds, so a long iteration's
        stretches are each scaled by the speed measured around them."""
        scales = []
        for _, at, _ in self._marks:
            samples = [
                sample
                for _, other, taken in self._marks
                if abs(other - at) <= CALIBRATION_WINDOW_S
                for sample in taken
            ]
            scales.append(CALIBRATION_REFERENCE_S / statistics.median(samples))
        return scales

    def end_iteration(
        self, elapsed: float, calibrated: bool
    ) -> Tuple[float, float, float]:
        """Book the iteration's unit operations and work rate.  Returns
        its host seconds without the calibration loops, the same
        calibrated, and the iteration's overall calibration factor (1 for
        an uncalibrated workload)."""
        elapsed -= self._calibrating_s
        after_last = max(0.0, elapsed - sum(work for work, _, _ in self._marks))
        local = self._local_scales() if calibrated else []
        scale = self.scale() if calibrated else 1.0
        if calibrated:
            self.calibration_s.append(CALIBRATION_REFERENCE_S / scale)
        if local:
            stretches = [work for work, _, _ in self._marks[: len(local)]]
            calibrated_s = sum(w * f for w, f in zip(stretches, local))
            calibrated_s += after_last * local[-1]
            local.append(local[-1])  # ops after the last calibration
            self.op_ms.extend(ms * local[j] for ms, j in self._ops)
        else:
            calibrated_s = elapsed * scale
            self.op_ms.extend(ms * scale for ms, _ in self._ops)
        if self._work:
            self.work_rates.append(self._work / calibrated_s)
        return elapsed, calibrated_s, scale

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Workload:
    """One benchmark workload.

    ``setup`` runs :data:`SETUP_REPEATS` times or more (each replaces
    the last one's state); ``iteration`` runs until ``--seconds`` have
    passed, at least ``min_iterations`` are done and at least
    ``min_ops`` unit operations were timed.  Metrics that must repeat
    exactly are taken from iterations every run executes, whatever the
    host speed.
    """

    min_iterations = 1
    #: the percentile ``op_ms_tail`` reports; a run measures until at
    #: least ``tail_beyond`` unit operations lie beyond it
    tail_q = 0.90
    tail_beyond = 10
    #: whether host times are scaled by the calibration loop
    calibrated = True

    @property
    def min_ops(self) -> int:
        return math.ceil(self.tail_beyond / (1.0 - self.tail_q) - 1e-9)

    def setup(self, run: Run) -> None:
        raise NotImplementedError

    def iteration(self, index: int, run: Run) -> Optional[float]:
        """One measured iteration; reports unit operations and work done
        through ``run.op`` and ``run.work``.  Returns its cost in host
        seconds when that is not simply its duration (``serve-mix`` runs
        fixed-length windows and reports seconds per 100 requests)."""
        raise NotImplementedError

    def discard_setup(self) -> None:
        """Release the state of a set-up that a later one replaces; runs
        outside the set-up timing."""

    def finish(self, run: Run) -> None:
        """Final checks and teardown; always called."""

    def layer_metrics(self, run: Run) -> Dict[str, float]:
        """Per-layer values that only this workload can compute."""
        return {}


def fixed_iterations(workload: Workload, trace: bool) -> int:
    """Iterations every run executes, however fast the host.  A traced
    run alternates untraced and traced iterations, so it runs at least
    one of each."""
    return max(2, workload.min_iterations) if trace else workload.min_iterations


def drive(workload: Workload, run: Run) -> None:
    try:
        spent = 0.0
        while len(run.setup_s) < SETUP_REPEATS or (
            spent < SETUP_BUDGET_S and len(run.setup_s) < SETUP_MAX
        ):
            if run.setup_s:
                workload.discard_setup()
            run.begin_iteration()
            if workload.calibrated:
                run.calibrate(3)
            started = time.perf_counter()
            import_package()
            workload.setup(run)
            elapsed = time.perf_counter() - started
            spent += elapsed
            scale = 1.0
            if workload.calibrated:
                run.calibrate(3)
                scale = run.scale()
            run.setup_s.append(elapsed * scale)
        min_iterations = fixed_iterations(workload, run.trace)
        began = time.perf_counter()
        index = 0
        while time.perf_counter() - began < MAX_MEASURE_S and (
            index < min_iterations
            or len(run.op_ms) < workload.min_ops
            or time.perf_counter() - began < run.seconds
        ):
            traced = run.trace and index % 2 == 1
            if traced:
                run.tracer.install()
            run.tracer.iteration = index
            run.begin_iteration()
            started = time.perf_counter()
            with run.tracer.span("iteration"):
                cost = workload.iteration(index, run)
            elapsed = time.perf_counter() - started
            if traced:
                run.tracer.uninstall()
            elapsed, calibrated_s, scale = run.end_iteration(
                elapsed, workload.calibrated
            )
            if cost is None:
                cost, calibrated_cost = elapsed, calibrated_s
            else:
                calibrated_cost = cost * scale
            run.raw_iteration_s.append(cost)
            (run.traced_iteration_s if traced else run.iteration_s).append(
                calibrated_cost
            )
            index += 1
        run.notes["iterations"] = index
        run.notes["raw_wall_s"] = statistics.median(run.raw_iteration_s)
        if run.calibration_s:
            run.notes["calibration_ms"] = 1e3 * statistics.median(
                run.calibration_s
            )
    finally:
        run.tracer.uninstall()
        workload.finish(run)


def load_catalogue() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def end_to_end_values(workload: Workload, run: Run) -> Dict[str, float]:
    tail = percentile(run.op_ms, workload.tail_q)
    run.notes["op_tail_percentile"] = workload.tail_q
    run.notes["samples"] = {
        "setup_s": len(run.setup_s),
        "wall_s": len(run.iteration_s),
        "ok_frac": run.attempted,
        "peak_rss_mb": 1,
        "kernel_gflops": len(run.gflops),
        "op_ms_p50": len(run.op_ms),
        "op_ms_tail": len(run.op_ms),
        "work_per_s": len(run.work_rates),
    }
    return {
        "setup_s": statistics.median(run.setup_s),
        "wall_s": statistics.median(run.iteration_s),
        "ok_frac": 1.0 - run.failed / max(run.attempted, 1),
        "peak_rss_mb": run.worker_rss_mb
        if run.worker_rss_mb is not None
        else peak_rss_mb(),
        "kernel_gflops": geomean(run.gflops),
        "op_ms_p50": percentile(run.op_ms, 0.50),
        "op_ms_tail": tail,
        "work_per_s": statistics.median(run.work_rates),
    }


def _rewrite_outcome(message: str) -> str:
    """A schedule rewrite's diagnostic: ``<name>: applied — …`` or
    ``<name>: not applied — <reason>``."""
    if "not applied" not in message:
        return "applied"
    return "no_opportunity" if message.endswith("no opportunity") else "refused"


def span_layer_values(workload: Workload, run: Run) -> Dict[str, float]:
    """Per-layer values derived from the traced iterations' spans."""
    tracer = run.tracer
    traced = sorted({s["iteration"] for s in tracer.spans})
    # Traced iterations every traced run executes.
    fixed = {i for i in traced if i < fixed_iterations(workload, True)}
    n_traced = max(len(traced), 1)

    def durations(spans) -> List[float]:
        if isinstance(spans, str):
            spans = tracer.named(spans)
        return [s["end"] - s["start"] for s in spans]

    values: Dict[str, float] = {}
    values["frontend.parse_s"] = mean(durations("frontend.parse"))
    values["frontend.extract_s"] = mean(durations("frontend.extract"))
    values["verify.verify_program_s"] = mean(durations("verify.verify_program"))
    values["verify.replay_s"] = mean(durations("verify.replay"))
    values["tune.prune_s"] = mean(durations("tune.prune"))
    values["tune.measure_s"] = mean(durations("tune.measure"))

    cpe = tracer.named("codegen.cpe_source")
    emitted = max(len(cpe), 1)
    values["codegen.emit_s"] = (
        sum(durations("codegen.cpe_source")) + sum(durations("codegen.mpe_source"))
    ) / emitted if cpe else 0.0
    cpe_fixed = tracer.named("codegen.cpe_source", fixed)
    values["codegen.cpe_source_bytes"] = mean(
        [s["attrs"]["bytes"] for s in cpe_fixed]
    )
    values["codegen.ast_statements"] = mean(
        [s["attrs"]["statements"] for s in cpe_fixed]
    )

    gets = tracer.named("service.get_program")
    for source in ("memory", "disk", "compiled", "deduped"):
        spans = [s for s in gets if s["attrs"].get("source") == source]
        values[f"service.get_program_s.{source}"] = mean(durations(spans))
        values[f"service.source.{source}"] = len(spans) / len(gets) if gets else 0.0

    # Passes of every program compiled (not served from a cache) in a
    # traced iteration; counts only from the fixed ones, so they repeat.
    compiled = [s for s in gets if "program" in s["attrs"]]
    pass_seconds: Dict[str, List[float]] = defaultdict(list)
    for span in compiled:
        for stat in span["attrs"]["program"].pass_stats:
            pass_seconds[stat.name].append(stat.seconds)
    for name, seconds in pass_seconds.items():
        values[f"passes.{name.replace(':', '-')}.s"] = mean(seconds)
    programs = [s["attrs"]["program"] for s in compiled if s["iteration"] in fixed]
    values["passes.count"] = mean([len(p.pass_stats) for p in programs])
    outcomes: List[str] = []
    for program in programs:
        for stat in program.pass_stats:
            if stat.name.startswith("schedule:"):
                outcomes += [
                    _rewrite_outcome(d.message)
                    for d in stat.diagnostics
                    if "applied" in d.message
                ]
    for outcome in ("applied", "refused", "no_opportunity"):
        values[f"schedule.{outcome}"] = (
            outcomes.count(outcome) / len(programs) if programs else 0.0
        )

    # Chunk simulations: a chunk_stats call that ran the executor (the
    # rest were served from the simulator's chunk cache).
    kids = tracer.children()
    simulated = [
        s
        for s in tracer.named("simulator.chunk")
        if any(k["name"] == "executor.run" for k in kids.get(s["id"], ()))
    ]
    values["simulator.chunk_s"] = mean(durations(simulated))
    values["simulator.chunks"] = len(simulated) / n_traced
    # Simulated-time counts of the simulator's chunk runs only (schedule
    # rewrites also run the executor, to price a candidate's bubbles).
    chunk_ids = {s["id"] for s in simulated if s["iteration"] in fixed}
    timed_runs = [
        s for s in tracer.named("executor.run") if s["parent"] in chunk_ids
    ]
    for stat in ("dma_bytes", "rma_bytes", "kernel_calls"):
        values[f"sunway.{stat}"] = mean(
            [s["attrs"]["stats"].get(stat, 0) for s in timed_runs]
        )
    values["sunway.bubble_fraction"] = mean(
        [
            s["attrs"]["bubble_fraction"]
            for s in simulated
            if s["iteration"] in fixed
        ]
    )
    values["executor.run_s"] = mean(
        durations(
            [s for s in tracer.named("executor.run") if s["attrs"]["move_data"]]
        )
    )

    selfs = tracer.self_seconds()
    for name, seconds in selfs.items():
        values[f"self.{name}"] = seconds / n_traced
    values["trace.spans"] = len(tracer.spans) / n_traced
    if run.traced_iteration_s and run.iteration_s:
        values["trace.overhead_s"] = statistics.median(
            run.traced_iteration_s
        ) - statistics.median(run.iteration_s)
    return values


def result_line(workload: Workload, run: Run, catalogue: Dict[str, Any]) -> str:
    if run.trace:
        wanted = catalogue["per_layer"]
        values = span_layer_values(workload, run)
        values.update(workload.layer_metrics(run))
        unknown = sorted(set(values) - {m["name"] for m in wanted})
        if unknown:
            raise RuntimeError(
                f"per-layer values missing from BENCHMARK.json: {unknown}"
            )
    else:
        wanted = catalogue["end_to_end"]
        values = end_to_end_values(workload, run)
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    return json.dumps(
        {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
    )
