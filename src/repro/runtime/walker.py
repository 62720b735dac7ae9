"""The one interpreter of athread CPE programs.

Everything that needs the *dynamic* behaviour of a lowered
:class:`~repro.poly.astnodes.CpeProgram` — the executor (functional and
timing-only runs) and the verifier's schedule machine (the §5/§6
ledger) — runs it through :class:`CpeWalker`: one statement dispatch,
one expression evaluator and one cooperative scheduler.  A backend
subclasses the walker and supplies what the statements *do*:

* ``self.runtime`` — the reply-counter and barrier interface of
  :class:`~repro.sunway.athread.AthreadRuntime`: ``reply_reset``,
  ``reply_satisfied``, ``finish_wait``, ``barrier_arrive`` and
  ``barrier_passed``;
* ``_issue_dma(cpe, kind, args, env)`` and
  ``_issue_rma(cpe, kind, src, dst, replys, replyr, args)`` — the
  asynchronous transfers;
* ``_exec_kernel`` / ``_exec_blockop`` / ``_exec_naive`` — the compute
  statements, each ``(cpe, stmt, env)``;
* optionally ``_watch_wait`` (a stall watchdog), ``_load_element`` (SPM
  reads inside expressions) and ``_deadlock``.

The per-CPE objects the walker schedules need ``rid``, ``cid`` and a
``clock`` the backend advances.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Dict, Generator, List, Mapping, Tuple

import numpy as np

from repro.errors import ExecutionError, UnknownStatementError
from repro.poly.astnodes import (
    AffRef,
    ArrayRef,
    BinExpr,
    Block,
    BlockOpStmt,
    CommentStmt,
    CommStmt,
    Expr,
    ForLoop,
    IfStmt,
    IntLit,
    KernelCall,
    NaiveComputeStmt,
    Stmt,
    VarRef,
)


class CpeWalker:
    """Interpret one CPE program SPMD over a mesh of CPEs."""

    def __init__(self) -> None:
        self._blocked: Dict[Tuple[int, int], str] = {}
        self._progress = 0

    # ------------------------------------------------------------------
    # Virtual-time-ordered cooperative scheduler
    # ------------------------------------------------------------------
    #
    # Shared resources (the DMA channel, the RMA row/column channels, the
    # barrier) are modelled with availability times, so requests must be
    # presented in (approximately) virtual-time order: always resume the
    # runnable CPE whose clock is smallest — conservative discrete-event
    # simulation with the coroutine as the event source.  Generators yield
    # "step" after every clock-advancing statement and "blocked" when a
    # spin-wait cannot complete; blocked CPEs re-poll whenever anyone else
    # makes progress.
    #
    # The runnable set is a heap keyed on (clock, arrival order); ties go
    # to the CPE that became runnable first.  A runnable CPE's clock can
    # move while it waits in the heap (a barrier release advances every
    # arrived CPE), but clocks never decrease, so a stale key is a lower
    # bound: a popped entry whose clock moved is re-keyed and pushed back.

    def _schedule(self, coroutines: List[Tuple[object, Generator]]) -> None:
        arrivals = count()
        runnable = [[cpe.clock, next(arrivals), cpe, gen] for cpe, gen in coroutines]
        heapify(runnable)
        blocked: List[Tuple[object, Generator]] = []
        while runnable or blocked:
            if not runnable:
                # Everyone is blocked: one re-poll round must progress.
                before = self._progress
                still_blocked: List[Tuple[object, Generator]] = []
                for cpe, gen in blocked:
                    status = self._resume(cpe, gen)
                    if status == "dead":
                        continue
                    if status == "blocked":
                        still_blocked.append((cpe, gen))
                    else:
                        heappush(runnable, [cpe.clock, next(arrivals), cpe, gen])
                if not runnable and still_blocked and self._progress == before:
                    self._deadlock(len(still_blocked))
                blocked = still_blocked
                continue
            # Resume the runnable CPE with the smallest virtual clock.
            entry = heappop(runnable)
            cpe, gen = entry[2], entry[3]
            if cpe.clock != entry[0]:
                entry[0] = cpe.clock
                heappush(runnable, entry)
                continue
            before = self._progress
            status = self._resume(cpe, gen)
            if status == "blocked":
                blocked.append((cpe, gen))
            elif status != "dead":
                heappush(runnable, [cpe.clock, next(arrivals), cpe, gen])
            if self._progress != before and blocked:
                # Progress may have satisfied someone's wait: re-arm them.
                for cpe, gen in blocked:
                    heappush(runnable, [cpe.clock, next(arrivals), cpe, gen])
                blocked = []

    def _resume(self, cpe, gen: Generator) -> str:
        try:
            return next(gen) or "step"
        except StopIteration:
            self._progress += 1
            return "dead"

    def _deadlock(self, stuck: int) -> None:
        """A re-poll round of ``stuck`` blocked CPEs made no progress."""
        reasons = "; ".join(
            f"CPE({r},{c}): {why}" for (r, c), why in sorted(self._blocked.items())
        )
        raise ExecutionError(
            f"deadlock: {stuck} CPEs blocked with "
            f"no progress — {reasons or 'no reasons recorded'}"
        )

    def _watch_wait(self, cpe, kind: str, key: str, value: int, since):
        """Called on every failed poll of a reply wait; returns the state
        the next poll passes back in as ``since``.  No watchdog here."""
        return None

    # ------------------------------------------------------------------
    # Statement interpretation
    # ------------------------------------------------------------------

    def _exec_stmt(self, cpe, stmt: Stmt, env: Dict[str, object]):
        if isinstance(stmt, Block):
            for s in stmt.body:
                yield from self._exec_stmt(cpe, s, env)
            return
        if isinstance(stmt, ForLoop):
            lo = self._eval_int(stmt.lo, env)
            hi = self._eval_int(stmt.hi, env)
            for value in range(lo, hi, stmt.step):
                env[stmt.var] = value
                yield from self._exec_stmt(cpe, stmt.body, env)
            env.pop(stmt.var, None)
            return
        if isinstance(stmt, IfStmt):
            if self._eval_scalar(stmt.cond, env, cpe):
                yield from self._exec_stmt(cpe, stmt.then, env)
            elif stmt.els is not None:
                yield from self._exec_stmt(cpe, stmt.els, env)
            return
        if isinstance(stmt, CommStmt):
            yield from self._exec_comm(cpe, stmt, env)
            return
        if isinstance(stmt, KernelCall):
            self._exec_kernel(cpe, stmt, env)
            self._progress += 1
            yield "step"
            return
        if isinstance(stmt, BlockOpStmt):
            self._exec_blockop(cpe, stmt, env)
            self._progress += 1
            yield "step"
            return
        if isinstance(stmt, NaiveComputeStmt):
            self._exec_naive(cpe, stmt, env)
            self._progress += 1
            yield "step"
            return
        if isinstance(stmt, CommentStmt):
            return
        raise UnknownStatementError(type(stmt).__name__)

    # ------------------------------------------------------------------
    # Communication statements (the §7.1 extension node type)
    # ------------------------------------------------------------------

    def _reply_key(self, args: Mapping[str, object], env) -> str:
        slot = self._eval_int(args["reply_slot"], env)
        base = args["reply"] if "reply" in args else None
        return f"{base}#{slot}"

    def _exec_comm(self, cpe, stmt: CommStmt, env: Dict[str, object]):
        kind = stmt.kind
        args = stmt.args
        rt = self.runtime
        if kind == "reply_reset":
            rt.reply_reset(cpe, self._reply_key(args, env))
            self._progress += 1
            return
        if kind in ("dma_iget", "dma_iput"):
            self._issue_dma(cpe, kind, args, env)
            self._progress += 1
            yield "step"  # channel occupancy depends on virtual-time order
            return
        if kind in ("dma_wait_value", "rma_wait_value"):
            key = self._reply_key(args, env)
            value = int(args.get("value", 1))
            since = None
            while not rt.reply_satisfied(cpe, key, value):
                self._blocked[(cpe.rid, cpe.cid)] = f"{kind} {key} >= {value}"
                since = self._watch_wait(cpe, kind, key, value, since)
                yield "blocked"
            self._blocked.pop((cpe.rid, cpe.cid), None)
            rt.finish_wait(cpe, key, value)
            self._progress += 1
            yield "step"
            return
        if kind in ("rma_row_ibcast", "rma_col_ibcast"):
            reply_slot = self._eval_int(args["reply_slot"], env)
            self._issue_rma(
                cpe,
                kind,
                (str(args["src_buffer"]), self._eval_int(args["src_slot"], env)),
                (str(args["dst_buffer"]), self._eval_int(args["dst_slot"], env)),
                f"{args['replys']}#{reply_slot}",
                f"{args['replyr']}#{reply_slot}",
                args,
            )
            self._progress += 1
            yield "step"
            return
        if kind == "synch":
            token = rt.barrier_arrive(cpe)
            while not rt.barrier_passed(token):
                self._blocked[(cpe.rid, cpe.cid)] = "synch"
                yield "blocked"
            self._blocked.pop((cpe.rid, cpe.cid), None)
            self._progress += 1
            yield "step"
            return
        raise UnknownStatementError("CommStmt", kind)

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _eval_int(self, expr, env) -> int:
        if isinstance(expr, (VarRef, AffRef)):
            value = expr.evaluate(env)
        else:
            value = self._eval_scalar(expr, env, None)
        if type(value) is int:
            return value
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ExecutionError(f"expected integer, got {value!r}")
        return int(value)

    def _eval_scalar(self, expr, env, cpe):
        if isinstance(expr, (IntLit,)):
            return expr.value
        if isinstance(expr, VarRef):
            return expr.evaluate(env)
        if isinstance(expr, AffRef):
            return expr.evaluate(env)
        if isinstance(expr, BinExpr):
            a = self._eval_scalar(expr.lhs, env, cpe)
            b = self._eval_scalar(expr.rhs, env, cpe)
            return BinExpr(expr.op, _Const(a), _Const(b)).evaluate({})
        if isinstance(expr, ArrayRef):
            if cpe is None:
                raise ExecutionError("array reference outside CPE context")
            return self._load_element(cpe, expr, env)
        if hasattr(expr, "evaluate"):
            return expr.evaluate(env)
        if isinstance(expr, (int, float)):
            return expr
        raise ExecutionError(f"cannot evaluate expression {expr!r}")

    def _load_element(self, cpe, ref: ArrayRef, env) -> float:
        raise ExecutionError(
            f"{type(self).__name__} holds no SPM data to read {ref.array!r}"
        )


@dataclass(frozen=True)
class _Const(Expr):
    value: object

    def evaluate(self, env):
        return self.value
