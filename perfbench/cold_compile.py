"""``cold-compile``: cache-bypassed compiles over the configuration space.

Why: ``frontend``, ``core.passes``, ``verify``, ``schedule`` and
``codegen`` do all the work; the simulator does none.

An iteration is 100 compiles, in five blocks of 20, through a
``CompileService`` with its cache disabled, each drawn by the seed over
variant × arch × kernel backend × tile × ``SchedulePolicy`` × spec
kind.  Six compiles of every 20 enter as C source through ``parse_c``/``extract_spec``.  Every program's
MPE and CPE sources are emitted and it is re-verified with
``api.verify``.  Candidates come from the tuner's own space
(``enumerate_candidates``) and pass its stage-1 feasibility check, so
the admission verifier should accept every one; a compile that raises
instead counts as a failed operation.  The ``optimize`` cell draws no
transposed GEMM: the schedule rewrites price their candidates on
operands laid out untransposed, so some such compiles raise
``InvalidDMAError`` (first known defect in ``perfbench/README.md``,
reproduced by ``perfbench/tests``).  Transposed kinds still compile
under the recipe schedule in every other cell.

Compile times are multimodal: about 0.01–0.04 s (toy, sw26010 and
DMA-only compiles), 0.07–0.3 s (RMA compiles on the SW26010Pro family,
where the ``verify`` pass dominates; batched ones are the slowest) and
0.4–1.4 s (``optimize``: one admission replay per rewrite).  Each block
has a fixed number of draws per mode — 7 cheap, 12 RMA, 1 optimize — so
the median lies well inside the RMA mode and the p90 (rank 90 of 100)
in its upper part, never on a boundary between modes.
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, List, Tuple

from perfbench.common import Run, Workload

C_SOURCES_PER_BLOCK = 6
PRO_FAMILY = ("sw26010pro", "sw26010pro-hbm", "sw26010pro-lite")
#: Spec kinds the ``optimize`` cell leaves out (see the module docstring).
OPTIMIZE_EXCLUDED_KINDS = ("trans_a", "trans_b")
#: (cell, draws per block); see the module docstring for the modes.
CELLS: Tuple[Tuple[str, int], ...] = (
    ("optimize", 1),
    ("rma:sw26010pro", 6),
    ("rma:sw26010pro-hbm", 3),
    ("rma:sw26010pro-lite", 3),
    ("cheap:toy", 3),
    ("cheap:sw26010", 2),
    ("cheap:dma", 2),
)
#: Shape the tuner's stage-1 model predicts each compiled kernel at.
MODEL_SHAPE = (4096, 4096, 4096)

GEMM_C = """
void {fn}(int M, int N, int K, double alpha,
          double {a}[M][K], double {b}[K][N], double {c}[M][N]) {{
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        {c}[i][j] = {c}[i][j] + alpha * {a}[i][k] * {b}[k][j];
}}
"""
BATCHED_C = """
void {fn}(int BS, int M, int N, int K, double {a}[BS][M][K],
          double {b}[BS][K][N], double {c}[BS][M][N]) {{
  for (int b = 0; b < BS; b++)
    for (int i = 0; i < M; i++)
      for (int j = 0; j < N; j++)
        for (int k = 0; k < K; k++)
          {c}[b][i][j] += {a}[b][i][k] * {b}[b][k][j];
}}
"""
PROLOGUE_C = """
void {fn}(int M, int N, int K, double {a}[M][K], double {b}[K][N],
          double {c}[M][N]) {{
  for (int i = 0; i < M; i++)
    for (int k = 0; k < K; k++)
      {a}[i][k] = quant({a}[i][k]);
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        {c}[i][j] += {a}[i][k] * {b}[k][j];
}}
"""
EPILOGUE_C = """
void {fn}(int M, int N, int K, double {a}[M][K], double {b}[K][N],
          double {c}[M][N]) {{
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        {c}[i][j] += {a}[i][k] * {b}[k][j];
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      {c}[i][j] = {act}({c}[i][j]);
}}
"""


def _spec_kinds():
    """``kind -> (GemmSpec, base CompilerOptions, C template or None)``."""
    from repro import CompilerOptions, GemmSpec

    full = CompilerOptions.full()
    return {
        "plain": (GemmSpec(), full, GEMM_C),
        "trans_a": (GemmSpec(trans_a=True), full, None),
        "trans_b": (GemmSpec(trans_b=True), full, None),
        "batched": (GemmSpec(batch_param="BS"), full.with_(batch=True), BATCHED_C),
        "prologue": (
            GemmSpec(prologue_func="quant"),
            full.with_(fusion="prologue", prologue_func="quant"),
            PROLOGUE_C,
        ),
        "epilogue": (
            GemmSpec(epilogue_func="relu"),
            full.with_(fusion="epilogue", epilogue_func="relu"),
            EPILOGUE_C,
        ),
    }


def _policies():
    from repro import SchedulePolicy

    return (
        SchedulePolicy(mode="optimize"),
        SchedulePolicy(mode="optimize", allow=("reorder-issues",)),
        SchedulePolicy(mode="optimize", deny=("split-waits",)),
        SchedulePolicy(mode="optimize", allow=("split-waits", "merge-transfers")),
    )


class ColdCompile(Workload):
    #: blocks per iteration: 100 compiles, so ten samples lie beyond the
    #: p90 of every run
    blocks = 5
    tail_q = 0.90

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.kinds = _spec_kinds()
        self._feasible: Dict[Tuple[str, str, str], List] = {}
        self.service = None
        self.pools = {cell: self._pool(cell) for cell, _ in CELLS}
        self.plan = self._fixed_blocks()
        self.space_gflops = self._space_gflops()

    # -- the seeded draw ------------------------------------------------------

    def _candidates(self, arch_name: str, kind: str, variant: str) -> List:
        """``(candidate, base options, predicted Gflops)`` for every
        candidate of the tuner's space the stage-1 model finds feasible."""
        from repro import get_arch
        from repro.tune.pruner import analyze
        from repro.tune.space import enumerate_candidates

        key = (arch_name, kind, variant)
        if key not in self._feasible:
            arch = get_arch(arch_name)
            spec, base, _ = self.kinds[kind]
            if variant != "full":
                base = base.with_(
                    use_asm=variant == "asm",
                    enable_rma=False,
                    enable_latency_hiding=False,
                )
            verdicts = (
                (c, analyze(spec, arch, base, c, MODEL_SHAPE))
                for c in enumerate_candidates(arch, base)
            )
            self._feasible[key] = [
                (c, base, v.predicted_gflops) for c, v in verdicts if v.feasible
            ]
        return self._feasible[key]

    def _pool(self, cell: str) -> List[Dict]:
        """Every request a cell can draw, ordered by spec kind, latency
        hiding and predicted Gflops, so a systematic sample spreads over
        all three.  Kind and hiding set a compile's cost (batched
        compiles take about twice as long, hiding adds a fifth); the tile
        barely moves it."""
        mode, _, where = cell.partition(":")
        archs = (where,) if mode == "rma" or where in ("toy", "sw26010") else PRO_FAMILY
        variants = ("baseline", "asm") if where == "dma" else ("full",)
        pool = []
        for arch in archs:
            for kind in sorted(self.kinds):
                if mode == "optimize" and kind in OPTIMIZE_EXCLUDED_KINDS:
                    continue
                for variant in variants:
                    for candidate, base, predicted in self._candidates(
                        arch, kind, variant
                    ):
                        if (candidate.schedule == "optimize") != (mode == "optimize"):
                            continue
                        if mode != "cheap" and not candidate.enable_rma:
                            continue
                        pool.append(
                            {"cell": cell, "arch": arch, "kind": kind,
                             "base": base, "candidate": candidate,
                             "predicted": predicted}
                        )
        pool.sort(key=lambda r: (r["kind"], r["candidate"].enable_latency_hiding,
                                 r["predicted"], r["arch"], r["candidate"].name()))
        return pool

    def _request(self, entry: Dict, index: int) -> Dict:
        options = entry["candidate"].apply(entry["base"])
        if entry["cell"] == "optimize":
            policies = _policies()
            options = options.with_(schedule=policies[index % len(policies)])
        return {**entry, "options": options, "c": False}

    def _finish_block(self, requests: List[Dict], rng: random.Random) -> List[Dict]:
        with_c = [i for i, r in enumerate(requests) if self.kinds[r["kind"]][2]]
        for i in rng.sample(with_c, min(C_SOURCES_PER_BLOCK, len(with_c))):
            requests[i]["c"] = True
        rng.shuffle(requests)
        return requests

    def _fixed_blocks(self) -> List[List[Dict]]:
        """The blocks every run executes.  Each cell's draws over them are
        a systematic sample of its pool (a seeded offset, then evenly
        spaced), so every seed gets the same mix of spec kinds, latency
        hiding and predicted kernel quality, and the run's statistics do
        not hinge on a lucky draw."""
        rng = random.Random(f"{self.seed}:fixed")
        blocks: List[List[Dict]] = [[] for _ in range(self.blocks)]
        for cell, count in CELLS:
            pool = self.pools[cell]
            n = count * self.blocks
            offset = rng.random()
            picks = [pool[int((offset + j) * len(pool) / n)] for j in range(n)]
            rng.shuffle(picks)
            for index, block in enumerate(blocks):
                block.extend(
                    self._request(entry, index)
                    for entry in picks[index * count:(index + 1) * count]
                )
        return [self._finish_block(block, rng) for block in blocks]

    def _space_gflops(self) -> List[float]:
        """The stage-1 model's predicted Gflops of every configuration the
        cells draw from, each cell weighted by its draws per block.  Only
        the model runs here: the prediction of the space sampled, not of
        the few kernels one seed happens to compile."""
        values: List[float] = []
        for cell, count in CELLS:
            pool = [entry["predicted"] for entry in self.pools[cell]]
            log_mean = sum(math.log(v) for v in pool) / len(pool)
            values += [math.exp(log_mean)] * count
        return values

    def block(self, index: int) -> List[Dict]:
        """The 20 compile requests of block ``index`` (a pure function of
        the seed and the index)."""
        if index < len(self.plan):
            return self.plan[index]
        rng = random.Random(f"{self.seed}:{index}")
        requests = []
        for cell, count in CELLS:
            pool = self.pools[cell]
            requests.extend(
                self._request(pool[rng.randrange(len(pool))], index)
                for _ in range(count)
            )
        return self._finish_block(requests, rng)

    # -- the run ----------------------------------------------------------------

    def setup(self, run: Run) -> None:
        from repro.service import CompileService, ServiceConfig

        self.service = CompileService(ServiceConfig(enabled=False))

    def iteration(self, index: int, run: Run) -> None:
        # A traced run repeats each iteration, untraced then traced, so
        # the pair measures the tracing overhead on identical work.
        first = (index // 2 if run.trace else index) * self.blocks
        for number in range(first, first + self.blocks):
            self._compile_block(number, run)

    def _compile_block(self, number: int, run: Run) -> None:
        from repro import api, frontend, get_arch

        requests = self.block(number)
        for n, request in enumerate(requests):
            arch = get_arch(request["arch"])
            spec, _, template = self.kinds[request["kind"]]
            options = request["options"]
            label = f"block {number} #{n} {request['arch']} {request['kind']} " \
                f"{request['candidate'].name()}"
            if request["c"]:
                source = template.format(
                    fn=f"k{number}_{n}", a="X", b="Y", c="Z", act="relu"
                )
                frontend.parse_c(source)
                started = time.perf_counter()
                spec, inferred = frontend.extract_spec(source, return_options=True)
                run.check(
                    inferred.fusion == options.fusion
                    and inferred.batch == options.batch,
                    f"{label}: extract_spec inferred {inferred.fusion}/"
                    f"batch={inferred.batch}",
                )
            else:
                started = time.perf_counter()
            try:
                program = api.compile(
                    spec, arch=arch, options=options, service=self.service
                )
            except Exception as exc:  # a compile that raises is a failed op
                run.check(False, f"{label}: {type(exc).__name__}: {exc}")
                run.op(math.inf)
                continue
            run.op(time.perf_counter() - started)
            admitted = program.verification is not None and program.verification.ok
            program.mpe_source()
            program.cpe_source()
            report = api.verify(program)
            run.check(admitted and report.ok, f"{label}: not admitted or re-verify failed")
        run.work(len(requests))

    def finish(self, run: Run) -> None:
        run.notes["op_unit"] = (
            "op = one cache-bypassed compile (C entries: extract_spec + compile)"
        )
        run.notes["kernel_gflops"] = (
            "stage-1 model prediction at 4096^3 over the sampled space"
        )
        run.gflops.extend(self.space_gflops)
