"""Shared exception hierarchy for the swgemm reproduction.

Every subsystem raises subclasses of :class:`SwGemmError` so callers can
catch reproduction-wide failures with a single ``except`` clause while still
being able to distinguish the subsystem that failed.  The hierarchy mirrors
the pipeline stages described in DESIGN.md:

* frontend errors (:class:`FrontendError` and friends) are raised while
  parsing or recognising the user's C input;
* polyhedral errors (:class:`PolyhedralError`) are raised by the mini-isl
  layer when a transformation is applied to an incompatible tree;
* hardware errors (:class:`HardwareError`) are raised by the simulated
  SW26010Pro core group — notably :class:`SPMOverflowError` and
  :class:`SynchronizationError`, which are the simulator's way of proving
  that the compiler's buffer plan and pipelining discipline are sound;
* compilation errors (:class:`CompilationError`) cover the driver itself.
"""

from __future__ import annotations


class SwGemmError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Frontend
# ---------------------------------------------------------------------------


class FrontendError(SwGemmError):
    """Base class for errors raised while processing the C input."""


class LexError(FrontendError):
    """Raised when the lexer meets a character it cannot tokenise."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(FrontendError):
    """Raised when the recursive-descent parser cannot continue."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SemanticError(FrontendError):
    """Raised when the input parses but violates the supported C subset."""


class PatternError(FrontendError):
    """Raised when no supported GEMM/batched/fusion pattern is recognised."""


# ---------------------------------------------------------------------------
# Polyhedral layer
# ---------------------------------------------------------------------------


class PolyhedralError(SwGemmError):
    """Base class for the mini-isl layer."""


class SpaceMismatchError(PolyhedralError):
    """Raised when two polyhedral objects live in incompatible spaces."""


class NonAffineError(PolyhedralError):
    """Raised when an expression leaves the supported quasi-affine subset."""


class EmptySetError(PolyhedralError):
    """Raised when an operation requires a non-empty set but got none."""


class ScheduleTreeError(PolyhedralError):
    """Raised when a schedule-tree transformation is applied incorrectly."""


class CodegenError(PolyhedralError):
    """Raised while scanning a schedule tree to an AST."""


# ---------------------------------------------------------------------------
# Simulated hardware
# ---------------------------------------------------------------------------


class HardwareError(SwGemmError):
    """Base class for simulated SW26010Pro failures."""


class SPMOverflowError(HardwareError):
    """Raised when a buffer plan exceeds a CPE's scratch-pad capacity."""


class InvalidDMAError(HardwareError):
    """Raised for malformed DMA requests (bad size/len/strip, bounds)."""


class InvalidRMAError(HardwareError):
    """Raised for malformed RMA requests (bad root, size, buffers)."""


class SynchronizationError(HardwareError):
    """Raised when data is consumed before its reply counter was waited on,
    or an RMA is issued without the mandatory ``synch()``."""


class MeshError(HardwareError):
    """Raised for invalid CPE-mesh coordinates or spawn misuse."""


class TransientFaultError(HardwareError):
    """Raised when an injected transient transfer fault survives every
    retry the :class:`repro.faults.RetryPolicy` allows."""


class DataIntegrityError(HardwareError):
    """Raised when an end-to-end tile checksum mismatch cannot be
    repaired by re-copying (see :mod:`repro.faults`)."""


class RankFailureError(SwGemmError):
    """Raised by the multi-cluster driver when rank failures cannot be
    recovered from (e.g. every rank of the grid is dead)."""


# ---------------------------------------------------------------------------
# Compiler driver / runtime
# ---------------------------------------------------------------------------


class CompilationError(SwGemmError):
    """Raised by the end-to-end :class:`repro.core.pipeline.GemmCompiler`."""


class KernelAdmissionError(CompilationError):
    """Raised when the static safety verifier refuses to admit a kernel.

    Carries the full :class:`repro.verify.VerificationReport` on
    ``report`` so callers (CLI, service, tests) can show the failing
    check and its witness instead of a bare message."""

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


class CompileTimeout(SwGemmError):
    """Raised when a compilation exceeds its wall-clock deadline."""

    def __init__(self, message: str, timeout_s: float = 0.0) -> None:
        super().__init__(message)
        self.timeout_s = timeout_s


class ExecutionError(SwGemmError):
    """Raised by the AST interpreter while running a compiled program."""


class UnknownStatementError(ExecutionError):
    """Raised when the CPE interpreter meets a statement type (or a
    ``CommStmt`` kind) it has no semantics for."""

    def __init__(self, statement: str, kind: str = "") -> None:
        if kind:
            message = f"unknown communication statement {kind!r}"
        else:
            message = f"cannot interpret statement {statement}"
        super().__init__(message)
        self.statement = statement
        self.kind = kind


class CertificateDivergenceError(HardwareError):
    """Raised in guarded execution when an observed DMA/RMA/SPM event
    diverges from the static safety certificate the verifier issued."""


class ConfigurationError(SwGemmError):
    """Raised for invalid compiler options or architecture specifications."""


# ---------------------------------------------------------------------------
# Compilation server (repro.serve)
# ---------------------------------------------------------------------------


class ServeError(SwGemmError):
    """Base class for the multi-tenant compilation daemon."""


class ProtocolError(ServeError):
    """Raised for malformed, oversized or semantically invalid frames of
    the newline-delimited-JSON serving protocol."""


class QuotaExceededError(ServeError):
    """Raised (client side) / reported (server side) when a tenant's
    token bucket cannot cover a request's cost."""


class ServerDrainingError(ServeError):
    """Raised when a request arrives while the daemon is gracefully
    draining: queued work still completes, but no new work is accepted."""


class OverloadError(ServeError):
    """Raised when a bounded :class:`repro.serve.queue.FairPriorityQueue`
    cannot admit a request: its priority class is at capacity and no
    lower-priority queued work exists to shed.  Carries the retry hint
    the admission layer computed from the observed queue-drain rate so
    clients can back off intelligently instead of hammering."""

    def __init__(
        self,
        message: str,
        retry_after_s: float = 1.0,
        priority: str = "",
        shed: bool = False,
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.priority = priority
        #: ``True`` when the request *was* queued but got evicted to make
        #: room for a higher-priority arrival (priority-aware shedding).
        self.shed = shed


class DeadlineExceededError(ServeError):
    """Raised when a request's end-to-end ``deadline_ms`` budget runs
    out while the request is still inside the daemon.  ``phase`` records
    where the budget died: ``"queue"`` (shed before dispatch — no worker
    was ever wasted on it) or ``"dispatch"`` (the rare race where the
    budget expired between dequeue and execution start)."""

    def __init__(
        self, message: str, deadline_ms: float = 0.0, phase: str = "queue"
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.phase = phase


class DegradedModeError(ServeError):
    """Raised while the daemon is in brownout: sustained queue-wait
    pressure tripped the hysteresis controller, so compile *misses* (and
    other cold, expensive ops) are fast-failed while cache hits and
    read-only ops keep being served — the content-addressed cache is the
    degraded tier.  Carries a ``retry_after_s`` drain-rate hint."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ClientTimeout(ServeError):
    """Raised client-side when the daemon accepted the connection but no
    response arrived within the socket timeout.  Distinct from a dropped
    connection on purpose: the request may still be executing server-side
    (a slow compile), so blindly resending would double the work — the
    client surfaces this instead of retrying."""

    def __init__(self, message: str, timeout_s: float = 0.0) -> None:
        super().__init__(message)
        self.timeout_s = timeout_s


class WorkerCrashError(ServeError):
    """Raised when an isolated compile worker dies (or is killed) before
    delivering a result: a hard crash (``SystemExit``/signal), a hung
    job past its wall-clock deadline, or a memory-budget overrun.  The
    worker subprocess is reaped and replaced; the offending cache key
    collects a strike toward quarantine."""

    def __init__(self, message: str, key: str = "") -> None:
        super().__init__(message)
        self.key = key


class PoisonedKernelError(ServeError):
    """Raised when a cache key has crashed its isolated worker often
    enough to trip the poison-key circuit breaker.  Callers get this
    structured refusal instead of feeding a retry storm; after the
    cooldown one half-open trial compile may clear the quarantine."""

    def __init__(self, message: str, key: str = "", strikes: int = 0) -> None:
        super().__init__(message)
        self.key = key
        self.strikes = strikes
