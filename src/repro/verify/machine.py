"""A timing-less mesh ledger for compile-time schedule verification.

The generated CPE AST is run for the *whole* mesh by the same
interpreter that executes it, :class:`~repro.runtime.walker.CpeWalker`;
:class:`ScheduleMachine` is the walker backend that tracks only what the
safety checks need: which SPM buffer slots an asynchronous DMA/RMA has
marked in flight, the reply-counter ledger, and the ``synch()`` barrier
with its RMA arming bit.  Data movement and the cost model are left
out, which makes the double-buffer hazard check (§6) and the RMA
discipline check (§5) decidable before a kernel is ever admitted.  The
per-CPE clock counts the CPE's resumes, blocked polls included, so the
walker's virtual-time scheduler interleaves the CPEs round-robin.

The machine runs one *chunk* problem with ``K = 2·k_step`` so both
double-buffer parities (even and odd slots of the peeled/pipelined
schedule) and at least one full steady-state iteration are exercised;
the schedule's control flow does not otherwise depend on the shape, so
this finite run covers the pipelining discipline for every shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import UnknownStatementError
from repro.poly.astnodes import ArrayRef, BinExpr, CpeProgram
from repro.runtime.walker import CpeWalker
from repro.sunway.cpe import is_rma_counter

#: Resume-count ceiling: far above any real schedule (a chunk run is a
#: few thousand statements per CPE) but bounds pathological input.
MAX_STEPS = 2_000_000

#: Witnesses retained per category before the machine stops recording.
MAX_WITNESSES = 10


@dataclass
class MachineResult:
    """What one machine run observed."""

    completed: bool = True
    deadlock: Optional[str] = None
    #: Buffer slots read (or freed into a new transfer) while in flight.
    hazards: List[Dict[str, object]] = field(default_factory=list)
    #: RMA discipline violations (unarmed issues, unbalanced counters,
    #: mismatched sender sets, leftover in-flight broadcast data).
    discipline: List[Dict[str, object]] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


class _Halt(Exception):
    """Stops the replay; the reason is already in the result."""


class _CpeState:
    """Per-CPE verification state: in-flight map + reply ledger."""

    __slots__ = ("rid", "cid", "clock", "inflight", "counters", "records", "waited", "armed")

    def __init__(self, rid: int, cid: int) -> None:
        self.rid = rid
        self.cid = cid
        #: resumes so far: the walker's scheduling clock.
        self.clock = 0
        #: (buffer, slot) -> cause string, exactly like ScratchPadMemory.
        self.inflight: Dict[Tuple[str, int], str] = {}
        #: reply key -> cumulative count since last reset.
        self.counters: Dict[str, int] = {}
        #: reply key -> per-message (buffer, slot) records (None for the
        #: sender-side RMA reply, which marks no local data in flight).
        self.records: Dict[str, List[Optional[Tuple[str, int]]]] = {}
        #: reply key -> highest value ever waited since last reset.
        self.waited: Dict[str, int] = {}
        self.armed = False


class ScheduleMachine(CpeWalker):
    """Run one CPE program across a mesh, recording safety violations.

    Violations are *recorded*, not raised: a broken schedule usually
    trips several related invariants and the report should show the
    first few witnesses of each kind, not die on the first.  A deadlock,
    a run past :data:`MAX_STEPS` and a statement the interpreter does not
    know stop the run and are recorded the same way.
    """

    def __init__(
        self,
        program: CpeProgram,
        mesh: int,
        params: Dict[str, int],
    ) -> None:
        super().__init__()
        self.program = program
        self.mesh = mesh
        self.params = dict(params)
        self.result = MachineResult()
        self._arrived = 0
        self._generation = 0
        self._steps = 0
        #: (generation, kind) -> list of (channel, (rid, cid)) senders.
        self._rma_log: Dict[Tuple[int, str], List[Tuple[int, Tuple[int, int]]]] = {}
        self._stats = {
            "dma_issues": 0,
            "rma_issues": 0,
            "waits": 0,
            "barriers": 0,
            "steps": 0,
        }
        self.states = [[_CpeState(rid, cid) for cid in range(mesh)] for rid in range(mesh)]

    # -- driving the shared walker -----------------------------------------

    def run(self) -> MachineResult:
        coroutines = [
            (
                state,
                self._exec_stmt(
                    state,
                    self.program.body,
                    dict(self.params, Rid=state.rid, Cid=state.cid, alpha=1.0, beta=1.0),
                ),
            )
            for row in self.states
            for state in row
        ]
        try:
            self._schedule(coroutines)
        except _Halt:
            self.result.completed = False
        self._stats["steps"] = self._steps
        self._finish()
        return self.result

    def _resume(self, state: _CpeState, gen) -> str:
        self._steps += 1
        if self._steps > MAX_STEPS:
            self.result.deadlock = f"schedule did not terminate within {MAX_STEPS} steps"
            raise _Halt
        try:
            status = next(gen) or "step"
        except StopIteration:
            self._progress += 1
            return "dead"
        except UnknownStatementError as exc:
            self._record(
                self.result.discipline if exc.kind else self.result.hazards,
                {
                    "violation": "unknown-statement",
                    "cpe": (state.rid, state.cid),
                    "statement": exc.statement,
                    "kind": exc.kind,
                    "detail": str(exc),
                },
            )
            raise _Halt from exc
        state.clock += 1
        return status

    def _deadlock(self, stuck: int) -> None:
        self.result.deadlock = "; ".join(
            sorted({f"CPE({r},{c}): {why}" for (r, c), why in self._blocked.items()})[:8]
        )
        raise _Halt

    # -- reply counters and barrier (the walker's runtime interface) -------

    def reply_reset(self, state: _CpeState, key: str) -> None:
        self._flag_unconsumed(state, key, at="reply_reset")
        state.counters[key] = 0
        state.records[key] = []
        state.waited[key] = 0

    def reply_satisfied(self, state: _CpeState, key: str, value: int) -> bool:
        return state.counters.get(key, 0) >= value

    def finish_wait(self, state: _CpeState, key: str, value: int) -> None:
        """Mirror of ``Executor.finish_wait``: consume the first
        ``value`` records, clearing their in-flight marks; a wait on an
        RMA counter disarms the CPE (a fresh synch() is required before
        the next broadcast)."""
        for record in state.records.get(key, [])[:value]:
            if record is not None:
                state.inflight.pop(record, None)
        state.waited[key] = max(state.waited.get(key, 0), value)
        if is_rma_counter(key):
            state.armed = False
        self._stats["waits"] += 1

    def barrier_arrive(self, state: _CpeState) -> int:
        token = self._generation
        self._arrived += 1
        self._stats["barriers"] += 1
        if self._arrived == self.mesh * self.mesh:
            self._arrived = 0
            self._generation += 1
            for row in self.states:
                for other in row:
                    other.armed = True
        return token

    def barrier_passed(self, token: int) -> bool:
        return self._generation > token

    # -- transfers ----------------------------------------------------------

    def _issue_dma(self, state: _CpeState, kind: str, args, env) -> None:
        slot = self._eval_int(args["slot"], env)
        buffer = str(args["buffer"])
        key = self._reply_key(args, env)
        if kind == "dma_iput":
            # A put *reads* the SPM source; mirror DMAEngine.iput's
            # check_readable-then-mark order.
            self._check_slot(state, buffer, slot, "dma_iput source")
        state.inflight[(buffer, slot)] = f"{kind}/{key}"
        state.counters[key] = state.counters.get(key, 0) + 1
        state.records.setdefault(key, []).append((buffer, slot))
        self._stats["dma_issues"] += 1

    def _issue_rma(self, state: _CpeState, kind: str, src, dst, replys, replyr, args) -> None:
        if not state.armed:
            self._record(
                self.result.discipline,
                {
                    "violation": "rma-without-synch",
                    "cpe": (state.rid, state.cid),
                    "kind": kind,
                    "src": src,
                    "detail": (
                        "RMA issued without a preceding synch(); the §5 "
                        "discipline requires re-arming before every launch"
                    ),
                },
            )
        # The broadcast reads its SPM source on the sender.
        self._check_slot(state, src[0], src[1], f"{kind} source")
        row_bcast = kind == "rma_row_ibcast"
        channel = state.rid if row_bcast else state.cid
        self._rma_log.setdefault((self._generation, kind), []).append(
            (channel, (state.rid, state.cid))
        )
        if row_bcast:
            receivers = self.states[state.rid]
        else:
            receivers = [row[state.cid] for row in self.states]
        for receiver in receivers:
            receiver.inflight[dst] = f"rma/{replyr}"
            receiver.counters[replyr] = receiver.counters.get(replyr, 0) + 1
            receiver.records.setdefault(replyr, []).append(dst)
        state.counters[replys] = state.counters.get(replys, 0) + 1
        state.records.setdefault(replys, []).append(None)
        self._stats["rma_issues"] += 1

    # -- compute statements: SPM reads ----------------------------------------

    def _exec_kernel(self, state: _CpeState, stmt, env) -> None:
        for what, ref in (
            ("kernel C operand", stmt.c_ref),
            ("kernel A operand", stmt.a_ref),
            ("kernel B operand", stmt.b_ref),
        ):
            self._check_read(state, ref, env, what)

    def _exec_blockop(self, state: _CpeState, stmt, env) -> None:
        self._check_read(state, stmt.dst, env, f"block op {stmt.op!r}")

    def _exec_naive(self, state: _CpeState, stmt, env) -> None:
        self._check_read(state, stmt.target, env, "naive compute target")
        for ref in _spm_refs(stmt.value):
            self._check_read(state, ref, env, "naive compute operand")

    # -- checks ---------------------------------------------------------------

    def _check_read(self, state: _CpeState, ref: ArrayRef, env, what: str) -> None:
        if ref.memory != "spm":
            return
        slot = self._eval_int(ref.indices[0], env) if ref.indices else 0
        self._check_slot(state, ref.array, slot, what)

    def _check_slot(self, state: _CpeState, buffer: str, slot: int, what: str) -> None:
        cause = state.inflight.get((buffer, slot))
        if cause is None:
            return
        self._record(
            self.result.hazards,
            {
                "violation": "read-while-in-flight",
                "cpe": (state.rid, state.cid),
                "buffer": buffer,
                "slot": slot,
                "in_flight_cause": cause,
                "read_by": what,
            },
        )

    def _flag_unconsumed(self, state: _CpeState, key: str, at: str) -> None:
        issued = state.counters.get(key, 0)
        waited = state.waited.get(key, 0)
        if issued <= waited:
            return
        sink = (
            self.result.discipline
            if is_rma_counter(key)
            else self.result.hazards
        )
        self._record(
            sink,
            {
                "violation": "unbalanced-reply-counter",
                "cpe": (state.rid, state.cid),
                "counter": key,
                "issued": issued,
                "waited": waited,
                "at": at,
            },
        )

    def _record(self, sink: List[Dict[str, object]], witness: Dict[str, object]) -> None:
        if len(sink) < MAX_WITNESSES:
            sink.append(witness)

    # -- end-of-run analysis ------------------------------------------------

    def _finish(self) -> None:
        result = self.result
        result.stats = dict(self._stats)
        for row in self.states:
            for state in row:
                for key in sorted(state.counters):
                    self._flag_unconsumed(state, key, at="end-of-program")
                for (buffer, slot), cause in sorted(state.inflight.items()):
                    sink = (
                        result.discipline
                        if cause.startswith("rma/")
                        else result.hazards
                    )
                    self._record(
                        sink,
                        {
                            "violation": "in-flight-at-exit",
                            "cpe": (state.rid, state.cid),
                            "buffer": buffer,
                            "slot": slot,
                            "in_flight_cause": cause,
                        },
                    )
        # Sender-set discipline: within one barrier generation each
        # row/column channel carries at most one broadcast, and either
        # every channel of the mesh participates or none does — a strict
        # subset means some CPEs wait for data that never arrives.
        for (generation, kind), entries in sorted(self._rma_log.items()):
            per_channel: Dict[int, List[Tuple[int, int]]] = {}
            for channel, sender in entries:
                per_channel.setdefault(channel, []).append(sender)
            for channel, senders in sorted(per_channel.items()):
                if len(set(senders)) > 1:
                    self._record(
                        result.discipline,
                        {
                            "violation": "duplicate-sender",
                            "kind": kind,
                            "generation": generation,
                            "channel": channel,
                            "senders": sorted(set(senders)),
                        },
                    )
            if 0 < len(per_channel) < self.mesh:
                self._record(
                    result.discipline,
                    {
                        "violation": "partial-sender-set",
                        "kind": kind,
                        "generation": generation,
                        "channels": sorted(per_channel),
                        "expected_channels": self.mesh,
                    },
                )


def _spm_refs(expr) -> List[ArrayRef]:
    """All SPM array references inside an expression tree."""
    refs: List[ArrayRef] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ArrayRef):
            if node.memory == "spm":
                refs.append(node)
            stack.extend(node.indices)
        elif isinstance(node, BinExpr):
            stack.extend((node.lhs, node.rhs))
        elif hasattr(node, "args"):
            stack.extend(getattr(node, "args"))
        elif hasattr(node, "ref"):
            stack.append(getattr(node, "ref"))
    return refs
