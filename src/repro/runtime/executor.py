"""The simulated core group as a backend of the CPE interpreter.

Each CPE executes the *same* generated program (SPMD) with its own
``Rid``/``Cid`` bindings, exactly as the athread slave function would.
:class:`~repro.runtime.walker.CpeWalker` runs the 64 programs as
cooperatively scheduled coroutines: a CPE blocks (yields) when it spins
on a reply counter whose transfer has not completed or when it arrives
at the mesh barrier, so cross-CPE interactions — a receiver waiting for
a broadcast its sender has not issued yet — behave exactly like the
hardware's spin loops.  A scheduling round in which no CPE makes
progress is reported as a deadlock with each CPE's blocking reason,
which turns schedule bugs into actionable failures instead of hangs.
:class:`Executor` supplies what the statements do on the simulated
DMA/RMA engines, SPM and clocks.

Two modes share all of this logic:

* ``move_data=True`` — functional execution: every DMA/RMA actually
  copies NumPy data and the result must equal ``α·A·B + β·C``;
* ``move_data=False`` — timing-only execution used by the benchmark
  simulator: the same control flow and clock bookkeeping without the
  copies.

The virtual clocks advance through compute charges and transfer
completions, so wall time *emerges from the schedule*: if the latency-
hiding pass failed to overlap a transfer, the measured time shows it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ExecutionError, SynchronizationError
from repro.codegen.elementwise import get_elementwise
from repro.codegen.backend import resolve_kernel
from repro.poly.astnodes import ArrayRef, BinExpr, BlockOpStmt, KernelCall, NaiveComputeStmt
from repro.runtime.program import CompiledProgram
from repro.runtime.walker import CpeWalker
from repro.sunway.athread import AthreadRuntime
from repro.sunway.cpe import CPE
from repro.sunway.mesh import Cluster


@dataclass
class ExecutionReport:
    """Result of one kernel launch."""

    elapsed_seconds: float
    useful_flops: float
    padded_flops: float
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return self.useful_flops / self.elapsed_seconds / 1e9

    @property
    def padded_gflops(self) -> float:
        return self.padded_flops / self.elapsed_seconds / 1e9


class Executor(CpeWalker):
    """Interpret a compiled program on a (simulated) cluster."""

    def __init__(
        self,
        program: CompiledProgram,
        cluster: Optional[Cluster] = None,
        move_data: bool = True,
        scalar_naive: bool = False,
        guard: Optional[object] = None,
    ) -> None:
        super().__init__()
        self.program = program
        self.cluster = cluster or Cluster(
            program.arch,
            fault_policy=program.options.fault_policy,
            retry_policy=program.options.retry_policy,
        )
        #: guarded mode: a CertificateGuard cross-checking every observed
        #: DMA/RMA/SPM event against the admission certificate
        self.guard = guard
        self.cluster.dma.guard = guard
        self.cluster.rma.guard = guard
        #: reply-counter watchdog budget in virtual seconds (0 = off)
        self._watchdog_s = self.cluster.fault_policy.watchdog_timeout_s
        self.runtime = AthreadRuntime(
            self.cluster, move_data, elem_bytes=program.spec.itemsize
        )
        # Single precision doubles the SIMD lanes: half the kernel time.
        self._kernel_time_factor = program.spec.itemsize / 8.0
        self.move_data = move_data
        #: interpret NaiveComputeStmt with scalar Python loops (test oracle)
        self.scalar_naive = scalar_naive
        self.kernel = resolve_kernel(
            program.arch, program.options, program.plan.kernel_shape
        )

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    def run(
        self,
        params: Mapping[str, int],
        alpha: float = 1.0,
        beta: float = 1.0,
        reset: bool = True,
    ) -> ExecutionReport:
        program = self.program
        spec = program.spec
        M = params[spec.m_param]
        N = params[spec.n_param]
        K = params[spec.k_param]
        if program.requires_padding(M, N, K):
            raise ExecutionError(
                f"shape {M}x{N}x{K} is not a multiple of the mesh chunk "
                f"{program.plan.chunk_m}x{program.plan.chunk_n}x"
                f"{program.plan.k_step}; use run_gemm (it zero-pads, §8.1)"
            )
        batch = params.get(spec.batch_param, 1) if spec.is_batched else 1

        if reset:
            self.cluster.reset_mesh()
        self._allocate_spm()
        if self.guard is not None:
            for cpe in self.cluster.all_cpes():
                self.guard.on_spm(str(cpe), cpe.spm.used_bytes)
        self.cluster.begin_spawn()

        coroutines: List[Tuple[CPE, Generator]] = []
        for cpe in self.cluster.all_cpes():
            env: Dict[str, object] = dict(params)
            env["Rid"] = cpe.rid
            env["Cid"] = cpe.cid
            env["alpha"] = alpha
            env["beta"] = beta
            coroutines.append((cpe, self._exec_stmt(cpe, program.cpe_program.body, env)))
        self._schedule(coroutines)

        elapsed = self.cluster.elapsed()
        return ExecutionReport(
            elapsed_seconds=elapsed,
            useful_flops=spec.flops(M, N, K, batch),
            padded_flops=spec.flops(M, N, K, batch),
            stats=self.cluster.total_stats(),
        )

    def _allocate_spm(self) -> None:
        np_dtype = np.float64 if self.program.spec.dtype == "float64" else np.float32
        for cpe in self.cluster.all_cpes():
            for decl in self.program.cpe_program.buffers:
                if decl.name not in cpe.spm:
                    cpe.spm.alloc(decl.name, decl.shape, dtype=np_dtype)

    def _watchdog_error(
        self, cpe: CPE, kind: str, key: str, value: int, lost: bool
    ) -> SynchronizationError:
        """A diagnostic for a reply wait that can never complete: names the
        stalled CPE, the counter state and the poisoned buffer(s) so a
        pipeline stall reads like a bug report instead of a hang."""
        counter = cpe.reply(key)
        pending = sorted(
            f"{name}[{slot}]"
            for (name, slot), cause in cpe.spm.inflight_slots().items()
            if key in cause
        )
        if lost and cpe.lost_replies.get(key, (None, 0.0))[0] is not None:
            buffer = cpe.lost_replies[key][0]
            pending.append(f"{buffer[0]}[{buffer[1]}]")
        buffers = ", ".join(sorted(set(pending))) or "<no poisoned buffer>"
        cause = (
            "the reply was dropped in transit"
            if lost
            else f"no completion within the {self._watchdog_s}s watchdog budget"
        )
        return SynchronizationError(
            f"watchdog: {cpe!r} stalled in {kind} on reply {key!r} "
            f"(counter at {counter.value}, waiting for {value}) — {cause}; "
            f"pending transfer into {buffers}"
        )

    def _watch_wait(self, cpe: CPE, kind: str, key: str, value: int, since):
        """Watchdog: a reply that the fault plane dropped will never
        arrive — diagnose immediately.  Otherwise give the wait a bounded
        budget of *virtual* time while the rest of the mesh advances, then
        turn the stall into a diagnostic instead of spinning until the
        global deadlock detector."""
        if key in cpe.lost_replies:
            raise self._watchdog_error(cpe, kind, key, value, lost=True)
        if since is None:
            return self.cluster.elapsed()
        if self._watchdog_s > 0 and self.cluster.elapsed() - since > self._watchdog_s:
            raise self._watchdog_error(cpe, kind, key, value, lost=False)
        return since

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def _issue_dma(self, cpe: CPE, kind: str, args: Mapping[str, object], env) -> None:
        array_name = str(args["array"])
        array = self.runtime.main_array(array_name)
        ld = int(array.shape[-1])
        row = self._eval_int(args["row"], env)
        col = self._eval_int(args["col"], env)
        if args.get("batch") is not None:
            batch_idx = self._eval_int(args["batch"], env)
            offset = (batch_idx * array.shape[-2] + row) * ld + col
        else:
            offset = row * ld + col
        length = int(args["len"])
        size = int(args["size"])
        strip = ld - length
        slot = self._eval_int(args["slot"], env)
        buffer = str(args["buffer"])
        reply = self._reply_key(args, env)
        if kind == "dma_iget":
            self.runtime.dma_iget(
                cpe, (buffer, slot), array_name, offset, size, length, strip, reply
            )
        else:
            self.runtime.dma_iput(
                cpe, array_name, offset, (buffer, slot), size, length, strip, reply
            )

    def _issue_rma(self, cpe: CPE, kind: str, src, dst, replys, replyr, args) -> None:
        rt = self.runtime
        issue = rt.rma_row_ibcast if kind == "rma_row_ibcast" else rt.rma_col_ibcast
        issue(cpe, src, dst, int(args["size"]), replys, replyr)

    # ------------------------------------------------------------------
    # Compute statements
    # ------------------------------------------------------------------

    def _slot_view(self, cpe: CPE, ref: ArrayRef, env) -> Tuple[np.ndarray, int]:
        slot = self._eval_int(ref.indices[0], env)
        cpe.spm.check_readable(ref.array, slot)
        return cpe.spm.slot(ref.array, slot), slot

    def _exec_kernel(self, cpe: CPE, stmt: KernelCall, env) -> None:
        c_view, _ = self._slot_view(cpe, stmt.c_ref, env)
        a_view, _ = self._slot_view(cpe, stmt.a_ref, env)
        b_view, _ = self._slot_view(cpe, stmt.b_ref, env)
        alpha = float(self._eval_scalar(stmt.alpha, env, cpe))
        if self.move_data:
            # Transposed entry points read the SPM tiles in their storage
            # layouts (kt×mt / nt×kt); the zero-copy transpose restores
            # the kernel's canonical contract shapes.
            a_eff = a_view.T if stmt.trans_a else a_view
            b_eff = b_view.T if stmt.trans_b else b_view
            self.kernel.execute(c_view, a_eff, b_eff, alpha)
        self.runtime.charge_compute(
            cpe, self.kernel.seconds_per_call * self._kernel_time_factor
        )
        cpe.stats["kernel_calls"] += 1

    def _exec_blockop(self, cpe: CPE, stmt: BlockOpStmt, env) -> None:
        view, _ = self._slot_view(cpe, stmt.dst, env)
        elements = stmt.shape[0] * stmt.shape[1]
        if stmt.op == "scale":
            factor = float(self._eval_scalar(stmt.factor, env, cpe))
            if self.move_data:
                view *= factor
            rate = self.program.arch.cpe_elementwise_rate
        elif stmt.op == "apply":
            func = get_elementwise(stmt.func)
            if self.move_data:
                view[...] = func.numpy_fn(view)
            rate = func.cpe_rate
        else:
            raise ExecutionError(f"unknown block op {stmt.op!r}")
        self.runtime.charge_compute(cpe, elements / rate, kind="blockop")

    def _exec_naive(self, cpe: CPE, stmt: NaiveComputeStmt, env) -> None:
        seconds = self.program.arch.naive_time_s(*stmt.extents)
        seconds *= self._kernel_time_factor
        if self.move_data:
            if self.scalar_naive:
                self._exec_naive_scalar(cpe, stmt, env)
            else:
                self._exec_naive_vectorised(cpe, stmt, env)
        self.runtime.charge_compute(cpe, seconds)
        cpe.stats["kernel_calls"] += 1

    def _exec_naive_scalar(self, cpe: CPE, stmt: NaiveComputeStmt, env) -> None:
        extents = stmt.extents
        local = dict(env)
        for i0 in range(extents[0]):
            local[stmt.loop_vars[0]] = i0
            for i1 in range(extents[1]):
                local[stmt.loop_vars[1]] = i1
                for i2 in range(extents[2]):
                    local[stmt.loop_vars[2]] = i2
                    value = self._eval_scalar(stmt.value, local, cpe)
                    self._store_scalar(cpe, stmt.target, local, value, accumulate=True)

    def _exec_naive_vectorised(self, cpe: CPE, stmt: NaiveComputeStmt, env) -> None:
        """Fast path: the --no-use-asm body is always the canonical GEMM
        update, so the whole point-loop box evaluates as one matmul."""
        alpha_expr, a_ref, b_ref = _match_gemm_value(stmt.value)
        c_view, _ = self._slot_view(cpe, _slot_only(stmt.target), env)
        a_view, _ = self._slot_view(cpe, _slot_only(a_ref), env)
        b_view, _ = self._slot_view(cpe, _slot_only(b_ref), env)
        alpha = float(self._eval_scalar(alpha_expr, env, cpe))
        a_eff = a_view.T if stmt.trans_a else a_view
        b_eff = b_view.T if stmt.trans_b else b_view
        c_view += alpha * (a_eff @ b_eff)

    def _store_scalar(
        self, cpe: CPE, ref: ArrayRef, env, value: float, accumulate: bool
    ) -> None:
        view, _ = self._slot_view(cpe, _slot_only(ref), env)
        idx = tuple(self._eval_int(e, env) for e in ref.indices[1:])
        if accumulate:
            view[idx] += value
        else:
            view[idx] = value

    def _load_element(self, cpe: CPE, ref: ArrayRef, env) -> float:
        view, _ = self._slot_view(cpe, _slot_only(ref), env)
        return float(view[tuple(self._eval_int(e, env) for e in ref.indices[1:])])


def _slot_only(ref: ArrayRef) -> ArrayRef:
    """A view of the same buffer keeping only the slot index."""
    return ArrayRef(ref.array, (ref.indices[0],), ref.memory)


def _match_gemm_value(value) -> Tuple[object, ArrayRef, ArrayRef]:
    if (
        isinstance(value, BinExpr)
        and value.op == "*"
        and isinstance(value.rhs, ArrayRef)
        and isinstance(value.lhs, BinExpr)
        and value.lhs.op == "*"
        and isinstance(value.lhs.rhs, ArrayRef)
    ):
        return value.lhs.lhs, value.lhs.rhs, value.rhs
    raise ExecutionError(
        "naive compute statement does not match the canonical GEMM form"
    )


# ---------------------------------------------------------------------------
# High-level entry point with zero padding (§8.1)
# ---------------------------------------------------------------------------


def run_gemm(
    program: CompiledProgram,
    A: np.ndarray,
    B: np.ndarray,
    C: Optional[np.ndarray] = None,
    alpha: float = 1.0,
    beta: float = 1.0,
    cluster: Optional[Cluster] = None,
    move_data: bool = True,
    scalar_naive: bool = False,
    guarded: bool = False,
) -> Tuple[np.ndarray, ExecutionReport]:
    """Run a compiled program on host arrays, zero-padding to the mesh
    chunk multiples exactly as §8.1 prescribes.

    Accepts 2-D arrays (plain GEMM) or 3-D arrays (batched, leading batch
    dimension).  Returns ``(C, report)`` where ``C`` has the caller's
    shape.

    ``guarded=True`` attaches a :class:`repro.verify.CertificateGuard`
    built from the program's verification report: every observed
    DMA/RMA/SPM event is cross-checked against the static certificate,
    and any divergence raises
    :class:`~repro.errors.CertificateDivergenceError`.
    """
    spec = program.spec
    batched = spec.is_batched
    if batched:
        if A.ndim != 3 or B.ndim != 3:
            raise ExecutionError("batched program expects 3-D A and B")
        bs = A.shape[0]
        bs2 = B.shape[0]
        a_core, b_core = A.shape[1:], B.shape[1:]
    else:
        if A.ndim != 2 or B.ndim != 2:
            raise ExecutionError("non-batched program expects 2-D A and B")
        a_core, b_core = A.shape, B.shape
        bs = bs2 = 1
    # Interpret the storage shapes through the transpose flags.
    M, K = (a_core[1], a_core[0]) if spec.trans_a else a_core
    N = (b_core[0] if spec.trans_b else b_core[1])
    K2 = b_core[1] if spec.trans_b else b_core[0]
    if K != K2 or bs != bs2:
        raise ExecutionError(f"shape mismatch: A {A.shape} vs B {B.shape}")
    if C is None:
        C = np.zeros(((bs, M, N) if batched else (M, N)))
    elif C.shape != ((bs, M, N) if batched else (M, N)):
        raise ExecutionError(f"C has shape {C.shape}, expected {(M, N)}")

    Mp, Np, Kp = program.padded_shape(M, N, K)
    cluster = cluster or Cluster(
        program.arch,
        fault_policy=program.options.fault_policy,
        retry_policy=program.options.retry_policy,
    )

    np_dtype = np.float64 if spec.dtype == "float64" else np.float32

    def padded(name: str, array: np.ndarray, rows: int, cols: int) -> np.ndarray:
        shape = (bs, rows, cols) if batched else (rows, cols)
        target = cluster.memory.alloc(name, shape, dtype=np_dtype)
        target[..., : array.shape[-2], : array.shape[-1]] = array
        return target

    a_pad = (Kp, Mp) if spec.trans_a else (Mp, Kp)
    b_pad = (Np, Kp) if spec.trans_b else (Kp, Np)
    padded(spec.a_name, A, *a_pad)
    padded(spec.b_name, B, *b_pad)
    c_main = padded(spec.c_name, C, Mp, Np)

    guard = None
    if guarded:
        from repro.verify import CertificateGuard

        guard = CertificateGuard.from_program(program)
    executor = Executor(
        program, cluster, move_data=move_data, scalar_naive=scalar_naive,
        guard=guard,
    )
    params = {spec.m_param: Mp, spec.n_param: Np, spec.k_param: Kp}
    if batched:
        params[spec.batch_param] = bs
    report = executor.run(params, alpha=alpha, beta=beta)
    report.useful_flops = spec.flops(M, N, K, bs)
    report.padded_flops = spec.flops(Mp, Np, Kp, bs)
    if guard is not None:
        report.stats["guard_events"] = guard.events
        report.stats["guard_divergences"] = len(guard.divergences)

    result = c_main[..., :M, :N].copy()
    if batched:
        C[...] = result
    else:
        C[...] = result
    for name in (spec.a_name, spec.b_name, spec.c_name):
        cluster.memory.free(name)
    return C, report
