"""``tune-search``: the budgeted autotuner on ``BENCH_tune``'s shapes.

Why: ``api.tune`` is the user-facing verb that mixes compiling (about
60% of its time) with simulation, and the only workload that runs the
``tune`` pruner and search driver.

An iteration runs a seeded ``api.tune`` with a measurement budget on
each of ``BENCH_tune``'s ragged shapes, through a fresh memory-only
``CompileService`` so the record store starts empty and every candidate
compiles cold.  Every iteration repeats the same searches (the seed
fixes the tuner's seed), so iterations are comparable.  Each winner is
re-simulated on a fresh simulator and must reproduce its recorded Gflops
exactly and be at least the default configuration's.
"""

from __future__ import annotations

import json
import time
from typing import List, Tuple

from perfbench.common import ROOT, Run, Workload


class TuneSearch(Workload):
    budget = 3
    #: 12 measurements an iteration (4 of them ``optimize`` candidates,
    #: the slowest), repeated by every iteration.  Two iterations give 24:
    #: the p58 (rank 14, ten beyond) is the tail percentile they support.
    min_iterations = 2
    tail_q = 0.58

    def __init__(self, seed: int) -> None:
        with open(ROOT / "BENCH_tune.json") as handle:
            rows = json.load(handle)["rows"]
        self.shapes: List[Tuple[int, int, int, int]] = [
            (r["M"], r["N"], r["K"], r["batch"]) for r in rows
        ]
        self.seed = seed
        self.results = []

    def setup(self, run: Run) -> None:
        from repro import tune as tune_mod
        from repro.tune import driver

        workload = self

        class TimedTuner(driver.Tuner):
            """Times each candidate measurement (the unit operation)."""

            def measure(self, *args, **kwargs):
                started = time.perf_counter()
                gflops = super().measure(*args, **kwargs)
                workload.run.op(time.perf_counter() - started)
                return gflops

        # ``api.tune`` looks ``Tuner`` up in ``repro.tune`` at call time.
        tune_mod.Tuner = TimedTuner

    def iteration(self, index: int, run: Run) -> None:
        from repro import GemmSpec, api
        from repro.runtime.simulator import PerformanceSimulator
        from repro.service import CompileService, ServiceConfig

        self.run = run
        for M, N, K, batch in self.shapes:
            service = CompileService(ServiceConfig())
            spec = GemmSpec(batch_param="BS") if batch > 1 else GemmSpec()
            result = api.tune(
                spec,
                shape=(M, N, K, batch),
                seed=self.seed,
                budget=self.budget,
                service=service,
                full_result=True,
            )
            record = result.record
            run.work(result.measured)
            # The service now steers a default compile of this shape class
            # to the recorded winner.
            program = api.compile(
                spec, shape=(M, N, K, batch), service=service, batch=batch > 1
            )
            sim = PerformanceSimulator(service=service)
            Mp, Np, Kp = program.padded_shape(M, N, K)
            perf = sim.simulate(
                Mp, Np, Kp, program.options, batch=batch, spec=spec
            )
            again = 2.0 * M * N * K * batch / perf.seconds / 1e9
            label = f"tune {M}x{N}x{K} b{batch} -> {record.candidate.name()}"
            run.check(
                again == record.best_gflops,
                f"{label}: re-simulated {again!r} != recorded {record.best_gflops!r}",
            )
            run.check(
                record.best_gflops >= record.default_gflops,
                f"{label}: winner below the default",
            )
            if index < self.min_iterations:
                run.gflops.append(record.best_gflops)
                self.results.append(result)

    def finish(self, run: Run) -> None:
        from repro import tune as tune_mod
        from repro.tune import driver

        tune_mod.Tuner = driver.Tuner
        run.notes["op_unit"] = "op = one Tuner.measure (cold compile + simulation)"
        run.notes["budget"] = self.budget

    def layer_metrics(self, run: Run):
        results = self.results
        if not results:
            return {}
        n = len(results)
        useful = measured = 0
        for result in results:
            best = None
            for trial in result.trials:
                if trial.from_journal:
                    continue
                measured += 1
                if best is None or trial.gflops > best:
                    best = trial.gflops
                    useful += 1
        return {
            "tune.candidates": sum(r.candidates_total for r in results) / n,
            "tune.pruned": sum(r.pruned for r in results) / n,
            "tune.measured": sum(r.measured for r in results) / n,
            "tune.useful_ratio": useful / measured if measured else 0.0,
        }
