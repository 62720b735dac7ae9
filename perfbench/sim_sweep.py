"""``sim-sweep``: the timed simulator over the paper's variants.

Why: ``runtime.simulator``, ``runtime.executor`` and the ``sunway``
engines do almost all the work; ``core.passes``, ``verify`` and
``schedule`` do almost none, because every compile is prewarmed in
set-up.  Every point is simulated by a fresh ``PerformanceSimulator``,
so its chunk cache starts empty and no point's time depends on which
points ran before it.

An iteration simulates the four §8.1 breakdown variants at three K
values, ``BENCH_schedule``'s aligned-1024 and ragged 576x1024x512
points under ``recipe`` and ``optimize``, its batched point,
``BENCH_baseline``'s analytical-default points, one fused point, and
runs two functional ``api.run`` calls checked against NumPy.  Simulated
Gflops must equal the committed BENCH values bit for bit.  The seed
draws the M×N of the sweep points (which only moves the spawn share of
their Gflops) and the functional runs' operands.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, List, Tuple

import numpy as np

from perfbench.common import ROOT, Run, Workload

SWEEP_K = (256, 512, 1024)
UNIT = "op = one simulate() call or one functional run"


def _counting_executor():
    """An ``Executor`` that counts simulated events — kernel calls, DMA
    and RMA messages — of the runs the simulator makes with it."""
    from repro.runtime.executor import Executor

    class CountingExecutor(Executor):
        events = 0

        def run(self, *args, **kwargs):
            report = super().run(*args, **kwargs)
            stats = report.stats
            CountingExecutor.events += int(
                stats.get("kernel_calls", 0)
                + stats.get("dma_messages", 0)
                + stats.get("rma_messages", 0)
            )
            return report

    return CountingExecutor


def _bench_rows(name: str) -> List[Dict]:
    with open(ROOT / name) as handle:
        return json.load(handle)["rows"]


class SimSweep(Workload):
    #: 23 ops an iteration: four iterations keep ten samples beyond p89,
    #: whose rank lies inside the cluster of K=1024 points, not at its
    #: lower edge
    min_iterations = 4
    tail_q = 0.89

    def __init__(self, seed: int) -> None:
        from repro import CompilerOptions, GemmSpec, SchedulePolicy, TileConfig
        from repro.sunway import SW26010PRO, TOY_ARCH

        rng = random.Random(seed)
        self.arch = SW26010PRO
        full = CompilerOptions.full()
        optimize = SchedulePolicy(mode="optimize")

        def tiled(base, tile):
            mt, nt, kt = tile
            return base.with_(
                tile_config=TileConfig(
                    mt, nt, kt, buffer_depth=2, k_strip=SW26010PRO.mesh_rows
                )
            )

        def side() -> int:
            return 512 * rng.randint(2, 16)

        #: (label, M, N, K, options, batch, reference Gflops or None,
        #:  useful (M, N, K) when the point is a padded baseline)
        self.points: List[Tuple] = []
        for label, options in (
            ("dma-only", CompilerOptions.baseline()),
            ("+asm", CompilerOptions.with_asm()),
            ("+rma", CompilerOptions.with_rma()),
            ("+hiding", full),
        ):
            for K in SWEEP_K:
                self.points.append(
                    (f"{label} K={K}", side(), side(), K, options, 1, None, None)
                )
        schedule = {r["case"]: r for r in _bench_rows("BENCH_schedule.json")}
        aligned = schedule["aligned-1024"]
        ragged = schedule["ragged-576x1024x512"]
        batched = schedule["ragged-batched-32x256x256"]
        ragged_base = tiled(full, (24, 64, 32))
        batched_base = tiled(full.with_(batch=True), (4, 32, 16))
        self.points += [
            ("aligned-1024 recipe", 1024, 1024, 1024, full, 1,
             aligned["recipe_gflops"], None),
            ("aligned-1024 optimize", 1024, 1024, 1024,
             full.with_(schedule=optimize), 1, aligned["optimize_gflops"], None),
            ("ragged-576x1024x512 recipe", 576, 1024, 512, ragged_base, 1,
             ragged["recipe_gflops"], None),
            ("ragged-576x1024x512 optimize", 576, 1024, 512,
             ragged_base.with_(schedule=optimize), 1,
             ragged["optimize_gflops"], None),
            ("ragged-batched-32x256x256 recipe", 32, 256, 256, batched_base,
             256, batched["recipe_gflops"], None),
            ("fused epilogue K=512", side(), side(), 512,
             full.with_(fusion="epilogue", epilogue_func="relu"), 1, None, None),
        ]
        # BENCH_baseline: the analytical 64x64x32 default on ragged shapes,
        # scored as useful Gflops of the zero-padded problem (the tuner's
        # measure()).
        for row in _bench_rows("BENCH_baseline.json"):
            if row["batch"] != 1:
                continue
            M, N, K = row["M"], row["N"], row["K"]
            pad = lambda v, m: -(-v // m) * m  # noqa: E731
            self.points.append(
                (f"baseline {row['shape']}", pad(M, 512), pad(N, 512),
                 pad(K, 256), full, 1, row["gflops"], (M, N, K))
            )
        data = np.random.default_rng(seed)
        self.functional = [
            (
                "sw26010pro 512x512x256",
                SW26010PRO,
                GemmSpec(),
                full,
                data.standard_normal((512, 256)),
                data.standard_normal((256, 512)),
                data.standard_normal((512, 512)),
            ),
            (
                "toy trans_b 48x40x24 (padded)",
                TOY_ARCH,
                GemmSpec(trans_b=True),
                full,
                data.standard_normal((48, 24)),
                data.standard_normal((40, 24)),
                data.standard_normal((48, 40)),
            ),
        ]
        self.alpha, self.beta = 1.0 + data.random(), data.random()
        self.service = None

    # -- set-up ---------------------------------------------------------------

    def setup(self, run: Run) -> None:
        from repro import api
        from repro.runtime import simulator as simulator_mod
        from repro.service import CompileService, ServiceConfig

        simulator_mod.Executor = _counting_executor()
        self.service = CompileService(ServiceConfig())
        sim = simulator_mod.PerformanceSimulator(self.arch, service=self.service)
        for _, _, _, _, options, batch, _, _ in self.points:
            if batch > 1 and not options.batch:
                options = options.with_(batch=True)
            sim.program_for(options)
        self.programs = [
            api.compile(spec, arch=arch, options=options, service=self.service)
            for _, arch, spec, options, *_ in self.functional
        ]

    # -- the measured iteration ---------------------------------------------

    def iteration(self, index: int, run: Run) -> None:
        from repro import api
        from repro.runtime import simulator as simulator_mod
        from repro.runtime.simulator import PerformanceSimulator

        counter = simulator_mod.Executor
        counter.events = 0
        for label, M, N, K, options, batch, expected, useful in self.points:
            sim = PerformanceSimulator(self.arch, service=self.service)
            started = time.perf_counter()
            perf = sim.simulate(M, N, K, options, batch=batch)
            run.op(time.perf_counter() - started)
            gflops = perf.gflops
            if useful is not None:
                m, n, k = useful
                gflops = 2.0 * m * n * k * batch / perf.seconds / 1e9
            if index == 0:
                run.gflops.append(gflops)
            if expected is not None:
                run.check(gflops == expected, f"{label}: {gflops!r} != {expected!r}")
            else:
                run.check(
                    0.0 < gflops <= self.arch.peak_gflops,
                    f"{label}: {gflops!r} outside (0, peak]",
                )
        for (label, _, spec, _, a, b, c), program in zip(
            self.functional, self.programs
        ):
            started = time.perf_counter()
            result = api.run(
                program, a, b, c=c.copy(), alpha=self.alpha, beta=self.beta
            )
            run.op(time.perf_counter() - started)
            bt = b.T if spec.trans_b else b
            want = self.alpha * (a @ bt) + self.beta * c
            run.check(
                np.allclose(result.c, want, rtol=1e-10, atol=1e-10),
                f"functional {label} differs from NumPy",
            )
        run.work(counter.events)

    def finish(self, run: Run) -> None:
        from repro.runtime import simulator as simulator_mod
        from repro.runtime.executor import Executor

        simulator_mod.Executor = Executor
        run.notes["op_unit"] = UNIT
