"""The multi-tenant asynchronous compilation daemon.

``KernelServer`` promotes :class:`~repro.service.service.CompileService`
from an in-process object into a long-lived service: an asyncio
front-end (``asyncio.start_server`` over a unix socket or TCP) accepts
newline-delimited-JSON requests from many tenants, a per-tenant
token-bucket :class:`~repro.serve.quotas.QuotaManager` admits them, and
a bounded :class:`~repro.serve.workers.WorkerPool` executes the blocking
compiler work scheduled by the priority-class fair queue — interactive
ahead of batch ahead of warmup, round-robin across tenants within a
class.  Compilation itself stays single-flight: N tenants requesting
the same content-addressed kernel concurrently pay for exactly one
compile (the service's in-flight rendezvous), and the artifact lands in
the hash-prefix-sharded store for every later process.

Shutdown is *graceful by default*: draining stops accepting work (new
requests are answered with a structured ``ServerDrainingError``) but
every queued and in-flight job still completes and is answered before
the listener closes — no tenant ever loses an accepted request to a
restart.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import socket
import stat
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    DegradedModeError,
    OverloadError,
    ProtocolError,
    QuotaExceededError,
    ServeError,
    ServerDrainingError,
)
from repro.serve import overload as overload_mod
from repro.serve import protocol
from repro.serve.overload import BROWNOUT, OverloadConfig
from repro.serve.protocol import MAX_FRAME_BYTES, Request, Response
from repro.serve.quotas import DEFAULT_COSTS, QuotaConfig, QuotaManager
from repro.serve.queue import FairPriorityQueue
from repro.serve.workers import WorkerPool
from repro.service import CompileService, ServiceConfig

#: Address of a listening server: a unix-socket path or ``(host, port)``.
Address = Union[str, Tuple[str, int]]

#: Ops the write-ahead journal covers: the blocking kernel verbs whose
#: loss a tenant would notice.  ``ping``/``stats`` are free to re-issue,
#: ``shutdown`` must not outlive the daemon, and ``warmup`` re-derives
#: its own work list, so none of them are journaled.
JOURNALED_OPS = frozenset({"compile", "run", "tune", "verify"})


def _clear_stale_unix_socket(path: str) -> None:
    """Remove a socket file left behind by a crashed/killed daemon.

    ``asyncio.start_unix_server`` fails with ``EADDRINUSE`` when the
    path exists, even though nothing is listening — after a SIGKILL the
    file always lingers.  Probe it: a refused connection proves the old
    daemon is gone (safe to unlink); a successful one proves a live
    daemon owns the address (a real conflict, reported structurally).
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    if not stat.S_ISSOCK(mode):
        raise ConfigurationError(
            f"socket path {path!r} exists and is not a socket"
        )
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, FileNotFoundError):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    except OSError as exc:
        raise ConfigurationError(
            f"cannot probe existing socket {path!r}: {exc}"
        ) from exc
    else:
        raise ConfigurationError(
            f"socket {path!r} is in use by a live daemon"
        )
    finally:
        probe.close()


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one :class:`KernelServer`."""

    #: Unix-socket path; ``None`` selects TCP on ``host``/``port``.
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick one (reported by :meth:`start`).
    port: int = 0
    #: Blocking compiler workers (the bounded pool).
    workers: int = 4
    #: Per-tenant token-bucket parameters; ``None`` disables quotas.
    quota: Optional[QuotaConfig] = field(default_factory=QuotaConfig)
    #: Seconds a graceful drain may take before the pool is abandoned.
    drain_timeout_s: float = 60.0
    #: Stop (with drain) after this many requests; ``None`` = run until
    #: told.  Lets scripts and CI bound a daemon without signal games.
    max_requests: Optional[int] = None
    #: ``"thread"`` runs compiles on the in-process pool (PR 6
    #: behaviour); ``"process"`` moves them into recyclable worker
    #: subprocesses with deadlines, memory budgets and the poison-key
    #: circuit breaker (:mod:`repro.serve.isolation`).
    isolation: str = "thread"
    #: Directory of the write-ahead request journal; ``None`` disables
    #: journaling (an accepted request then dies with the daemon).
    journal_dir: Optional[str] = None
    #: Worker crashes/timeouts before a cache key is quarantined.
    poison_threshold: int = 3
    #: Wall-clock deadline of one isolated compile job, seconds.
    worker_deadline_s: float = 30.0
    #: Peak-RSS budget of one isolated compile job, MiB; ``None``
    #: disables the check.
    memory_budget_mb: Optional[float] = None
    #: Overload protection (bounded queues, default deadlines, brownout);
    #: ``None`` — the default — leaves every overload mechanism off and
    #: the daemon's wire behaviour byte-identical to the unprotected one.
    overload: Optional[OverloadConfig] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.drain_timeout_s < 0:
            raise ConfigurationError("drain_timeout_s must be >= 0")
        if self.max_requests is not None and self.max_requests < 1:
            raise ConfigurationError("max_requests must be >= 1 or None")
        if self.isolation not in ("thread", "process"):
            raise ConfigurationError(
                f"isolation must be 'thread' or 'process', got "
                f"{self.isolation!r}"
            )
        if self.poison_threshold < 1:
            raise ConfigurationError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )
        if self.worker_deadline_s <= 0:
            raise ConfigurationError(
                f"worker_deadline_s must be > 0, got {self.worker_deadline_s}"
            )
        if self.memory_budget_mb is not None and self.memory_budget_mb <= 0:
            raise ConfigurationError(
                f"memory_budget_mb must be > 0 or None, got "
                f"{self.memory_budget_mb}"
            )


class KernelServer:
    """Asyncio NDJSON front-end over one :class:`CompileService`."""

    def __init__(
        self,
        service: Optional[CompileService] = None,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.service = service or CompileService(
            ServiceConfig(admission_threshold=2)
        )
        overload = self.config.overload
        self.overload = (
            overload if overload is not None and overload.enabled else None
        )
        self.brownout = (
            self.overload.controller() if self.overload is not None else None
        )
        self.queue = FairPriorityQueue(
            caps=self.overload.caps() if self.overload is not None else None
        )
        if self.brownout is not None:
            # Every dequeue's queue wait feeds the hysteresis EWMA; the
            # observer runs on worker threads after the queue lock drops.
            self.queue.wait_observer = (
                lambda wait_s: self.brownout.observe(1e3 * wait_s)
            )
        self.pool = WorkerPool(self.config.workers, queue=self.queue)
        # Warmup traffic (service.warmup) schedules through the same
        # pool, so it can never starve interactive requests.
        self.service.attach_worker_pool(self.pool)
        self.quotas = QuotaManager(self.config.quota)
        self.isolation = None
        if self.config.isolation == "process":
            from repro.serve.isolation import ProcessIsolation

            cache_dir = self.service.config.cache_dir
            self.isolation = ProcessIsolation(
                workers=self.config.workers,
                deadline_s=self.config.worker_deadline_s,
                memory_budget_mb=self.config.memory_budget_mb,
                poison_threshold=self.config.poison_threshold,
                state_path=(
                    cache_dir / "poison-keys.json"
                    if cache_dir is not None
                    else None
                ),
            )
            self.service.set_compile_fn(self.isolation.compile)
        self.journal = None
        self._replay_entries: list = []
        if self.config.journal_dir is not None:
            from repro.serve.journal import RequestJournal

            self.journal = RequestJournal(self.config.journal_dir)
            self._replay_entries = self.journal.pending()
        self._replay_remaining = len(self._replay_entries)
        self._replay_task: Optional[asyncio.Task] = None
        self.started_at = time.monotonic()
        self.counters: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "responses": 0,
            "errors": 0,
            "protocol_errors": 0,
            "quota_rejected": 0,
            "drain_rejected": 0,
            "journaled": 0,
            "journal_dropped": 0,
            "replayed": 0,
            "replay_failed": 0,
            # Overload protection.  All zero (and the mechanisms inert)
            # unless ServeConfig.overload is set.
            "overload_rejected": 0,
            "overload_shed": 0,
            "deadline_expired_queue": 0,
            "deadline_expired_dispatch": 0,
            "brownout_rejected": 0,
            "brownout_warm_served": 0,
        }
        self.op_counts: Dict[str, int] = {}
        self.priority_counts: Dict[str, int] = {}
        self._draining = False
        self._stopping = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Address] = None
        self._writers: set = set()
        self._stop_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Optional[Address]:
        """Where the server listens (available after :meth:`start`)."""
        return self._address

    async def start(self) -> Address:
        if self._server is not None:
            raise ConfigurationError("server is already started")
        if self.config.socket_path is not None:
            _clear_stale_unix_socket(self.config.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.socket_path,
                limit=MAX_FRAME_BYTES + 1,
            )
            self._address = self.config.socket_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=MAX_FRAME_BYTES + 1,
            )
            sock = self._server.sockets[0].getsockname()
            self._address = (sock[0], sock[1])
        if self._replay_entries:
            # Requests journaled by a killed predecessor: re-dispatch
            # them concurrently through the normal blocking path.  The
            # content-addressed cache makes re-running already-finished
            # work a hit, so replay is exactly-once per kernel artifact.
            self._replay_task = asyncio.get_running_loop().create_task(
                self._replay_journal()
            )
        return self._address

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` request) finishes."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    async def stop(self, drain: bool = True) -> None:
        """Stop the daemon.

        ``drain=True`` (the default, and the graceful path): refuse new
        requests, answer everything queued or in flight, then close.
        ``drain=False`` abandons queued jobs (their futures cancel) —
        only for tests and emergencies."""
        if self._stopping:
            # A concurrent stop (shutdown op racing an operator signal)
            # owns the teardown; just wait for it to finish.
            await self._stopped.wait()
            return
        self._stopping = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_timeout_s
                )
            except asyncio.TimeoutError:
                pass
        # The pool drain blocks; keep the event loop responsive so the
        # in-flight handlers can still write their responses.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None,
            lambda: self.pool.shutdown(
                drain=drain, timeout=self.config.drain_timeout_s
            ),
        )
        for writer in list(self._writers):
            writer.close()
        if self._replay_task is not None and not self._replay_task.done():
            self._replay_task.cancel()
        if self.isolation is not None:
            await loop.run_in_executor(None, self.isolation.close)
        if self.journal is not None:
            self.journal.close()
        self._stopped.set()

    def _request_stop(self, drain: bool = True) -> None:
        if self._stop_task is None or self._stop_task.done():
            self._stop_task = asyncio.get_running_loop().create_task(
                self.stop(drain=drain)
            )

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.counters["connections"] += 1
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        # Truncated trailing frame (peer vanished mid-line).
                        self.counters["protocol_errors"] += 1
                    break
                except asyncio.LimitOverrunError:
                    # Oversized frame: answer structurally, then drop the
                    # connection — an NDJSON stream cannot resynchronise.
                    self.counters["protocol_errors"] += 1
                    await self._send(
                        writer,
                        Response.failure(
                            None,
                            ProtocolError(
                                f"frame exceeds the {MAX_FRAME_BYTES}-byte limit"
                            ),
                        ),
                    )
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line.strip():
                    continue
                response = await self._serve_one(line)
                try:
                    await self._send(writer, response)
                except (ConnectionResetError, BrokenPipeError):
                    break
                if self._should_stop_after():
                    self._request_stop(drain=True)
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter, response: Response) -> None:
        writer.write(response.encode())
        await writer.drain()
        self.counters["responses"] += 1

    def _should_stop_after(self) -> bool:
        limit = self.config.max_requests
        return limit is not None and self.counters["requests"] >= limit

    # -- request dispatch ----------------------------------------------------

    async def _serve_one(self, line: bytes) -> Response:
        received = time.perf_counter()
        received_mono = time.monotonic()
        try:
            request = Request.decode(line)
        except ProtocolError as exc:
            self.counters["protocol_errors"] += 1
            return Response.failure(None, exc)
        self.counters["requests"] += 1
        self.op_counts[request.op] = self.op_counts.get(request.op, 0) + 1
        self.priority_counts[request.priority] = (
            self.priority_counts.get(request.priority, 0) + 1
        )
        meta: Dict[str, Any] = {
            "op": request.op,
            "tenant": request.tenant,
            "priority": request.priority,
        }
        if self._draining and request.op not in ("ping", "stats", "health"):
            self.counters["drain_rejected"] += 1
            return Response.failure(
                request.id,
                ServerDrainingError(
                    "server is draining; queued work completes but no new "
                    "requests are accepted"
                ),
                meta,
            )
        cost = DEFAULT_COSTS.get(request.op, 1.0)
        if not self.quotas.try_acquire(request.tenant, cost):
            self.counters["quota_rejected"] += 1
            return Response.failure(
                request.id,
                QuotaExceededError(
                    f"tenant {request.tenant!r} exhausted its token bucket "
                    f"(cost {cost}); retry after refill"
                ),
                meta,
            )
        # End-to-end deadline: the request's own budget, or the daemon's
        # configured default; anchored at receipt on the monotonic clock
        # the queue sheds against.
        deadline_ms = request.deadline_ms
        if deadline_ms is None and self.overload is not None:
            deadline_ms = self.overload.deadline_default_ms
        deadline_at_s = (
            overload_mod.deadline_at(received_mono, deadline_ms)
            if deadline_ms is not None
            else None
        )
        if deadline_ms is not None:
            meta["deadline_ms"] = deadline_ms
        if self.brownout is not None:
            # An empty queue is a zero-wait observation: a flood that
            # stopped entirely still lets the EWMA decay and the daemon
            # recover even though nothing is being dequeued.
            if len(self.queue) == 0:
                self.brownout.idle()
            if (
                self.brownout.state == BROWNOUT
                and request.op in ("compile", "run", "tune", "verify", "warmup")
            ):
                if self._brownout_serves(request):
                    self.counters["brownout_warm_served"] += 1
                else:
                    self.counters["brownout_rejected"] += 1
                    return Response.failure(
                        request.id,
                        DegradedModeError(
                            "daemon is in brownout (sustained queue-wait "
                            f"EWMA {self.brownout.ewma_ms:.0f} ms >= "
                            f"{self.brownout.enter_ms:g} ms); only cached "
                            "kernels and read-only ops are served until "
                            "the backlog drains",
                            retry_after_s=self.queue.retry_after_s(),
                        ),
                        meta,
                    )
        lsn = None
        if self.journal is not None and request.op in JOURNALED_OPS:
            # Write-ahead: the request is durable *before* it runs, so a
            # daemon killed mid-job replays it on the next boot.  The
            # completion tombstone lands before the response is sent —
            # an acknowledged request is therefore never replayed as
            # pending *and* never lost.
            lsn = self.journal.record_accepted(request.to_dict())
            if lsn is None:
                self.counters["journal_dropped"] += 1
            else:
                self.counters["journaled"] += 1
        try:
            if request.op == "ping":
                result = self._op_ping()
            elif request.op == "stats":
                result = self._op_stats()
            elif request.op == "health":
                result = self._op_health()
            elif request.op == "shutdown":
                result = {"draining": bool(request.params.get("drain", True))}
                self._request_stop(drain=bool(request.params.get("drain", True)))
            else:
                result = await self._dispatch_blocking(
                    request, meta, received, deadline_at_s=deadline_at_s
                )
            if lsn is not None:
                self.journal.record_completed(lsn, ok=True)
            elapsed_ms = 1e3 * (time.perf_counter() - received)
            meta["server_ms"] = round(elapsed_ms, 3)
            return Response(id=request.id, ok=True, result=result, meta=meta)
        except BaseException as exc:  # answered, never crashes the daemon
            # A deterministic failure is as answered as a success: mark
            # it completed so restart does not replay a poison pill.
            if lsn is not None:
                self.journal.record_completed(lsn, ok=False)
            self.counters["errors"] += 1
            if isinstance(exc, OverloadError):
                self.counters[
                    "overload_shed" if exc.shed else "overload_rejected"
                ] += 1
            elif isinstance(exc, DeadlineExceededError):
                self.counters[
                    "deadline_expired_dispatch"
                    if exc.phase == "dispatch"
                    else "deadline_expired_queue"
                ] += 1
            return Response.failure(request.id, exc, meta)

    # -- journal replay ------------------------------------------------------

    async def _replay_journal(self) -> None:
        entries, self._replay_entries = self._replay_entries, []
        await asyncio.gather(
            *(self._replay_one(lsn, body) for lsn, body in entries),
            return_exceptions=True,
        )

    async def _replay_one(self, lsn: int, body: Dict[str, Any]) -> None:
        ok = False
        try:
            try:
                request = Request.from_dict(body)
            except ProtocolError:
                # Journaled by a newer/older daemon, or hand-edited:
                # tombstone it so it cannot wedge every future boot.
                self.counters["replay_failed"] += 1
                return
            meta: Dict[str, Any] = {
                "op": request.op,
                "tenant": request.tenant,
                "priority": request.priority,
                "replayed": True,
            }
            self.counters["replayed"] += 1
            try:
                await self._dispatch_blocking(
                    request, meta, time.perf_counter()
                )
                ok = True
            except BaseException:
                # Failure answers the replay too (PoisonedKernelError,
                # CompileTimeout, …) — at-least-once ends here, never in
                # a retry storm.
                self.counters["replay_failed"] += 1
        finally:
            if self.journal is not None:
                self.journal.record_completed(lsn, ok=ok)
            self._replay_remaining -= 1

    async def _dispatch_blocking(
        self,
        request: Request,
        meta: Dict[str, Any],
        received: float,
        deadline_at_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        handler = {
            "compile": self._op_compile,
            "run": self._op_run,
            "tune": self._op_tune,
            "verify": self._op_verify,
            "warmup": self._op_warmup,
        }[request.op]
        self._inflight += 1
        self._idle.clear()
        try:
            queued_at = time.perf_counter()

            def job(params=request.params):
                budget_s = None
                if deadline_at_s is not None:
                    # The queue already sheds entries that expire while
                    # waiting; this catches the narrow race where the
                    # budget runs out between that check and the worker
                    # actually starting.
                    budget_s = overload_mod.remaining_s(
                        deadline_at_s, time.monotonic()
                    )
                    if budget_s is not None and budget_s <= 0.0:
                        raise DeadlineExceededError(
                            f"deadline ({meta.get('deadline_ms', 0)} ms) "
                            "expired at dispatch; job not started",
                            deadline_ms=float(meta.get("deadline_ms") or 0.0),
                            phase="dispatch",
                        )
                started = time.perf_counter()
                result = handler(params, budget_s=budget_s)
                result["_exec_ms"] = round(1e3 * (time.perf_counter() - started), 3)
                result["_queue_ms"] = round(1e3 * (started - queued_at), 3)
                return result

            if request.op == "warmup":
                # Warmup orchestrates: service.warmup() submits one job
                # per kernel to the priority pool and waits for them all.
                # Running the orchestrator itself on that pool would
                # deadlock a one-worker daemon, so it runs on asyncio's
                # default executor; only the per-kernel compiles go
                # through the fair queue (at warmup priority).
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(None, job)
            else:
                future = self.pool.submit(
                    job,
                    priority=request.priority,
                    tenant=request.tenant,
                    deadline_at=deadline_at_s,
                )
                result = await asyncio.wrap_future(future)
            meta["queue_ms"] = result.pop("_queue_ms")
            meta["exec_ms"] = result.pop("_exec_ms")
            source = result.get("source")
            if source is not None:
                meta["source"] = source
            return result
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _brownout_serves(self, request: Request) -> bool:
        """Whether a kernel op is warm enough to serve during brownout.

        Brownout exists to stop *new compilation work* from piling onto
        an already-drowning queue; a content-addressed cache hit costs
        microseconds and is still served.  ``tune``/``warmup`` always
        generate fresh compiles, so they are always fast-failed."""
        if request.op in ("tune", "warmup"):
            return False
        try:
            spec, options, arch = protocol.spec_and_options(request.params)
        except ProtocolError:
            # Malformed params: admit it so the normal path can answer
            # with the real, more useful protocol error.
            return True
        shape_hint = protocol.shape_hint(request.params)
        if request.op == "verify":
            # Mirror _op_verify's lookup exactly (no shape hint there).
            options = options.with_(verify=False)
            shape_hint = None
        try:
            return self.service.is_cached(
                spec, arch, options, shape_hint=shape_hint
            )
        except Exception:
            return False

    # -- operations (run on worker threads) ----------------------------------

    def _op_ping(self) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "draining": self._draining,
        }

    def _op_stats(self) -> Dict[str, Any]:
        return {"server": self.stats(), "service": self.service.stats()}

    def _op_health(self) -> Dict[str, Any]:
        """Liveness/readiness surface for orchestrators and probes.

        *Alive* is implied by any answer at all.  ``ready`` means the
        daemon will accept new kernel work right now — false while
        draining or in brownout — so load balancers can stop routing to
        it before tenants see structured rejections."""
        queue_stats = self.queue.stats()
        in_brownout = (
            self.brownout is not None and self.brownout.state == BROWNOUT
        )
        if self._draining:
            state = "draining"
        elif in_brownout:
            state = "brownout"
        else:
            state = "healthy"
        health: Dict[str, Any] = {
            "state": state,
            "ready": not self._draining and not in_brownout,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "queue": queue_stats,
            "retry_after_s": queue_stats["retry_after_s"],
            "workers": {
                "configured": self.pool.workers,
                "active": self.pool.stats()["active"],
            },
            "overload": {
                name: self.counters[name]
                for name in (
                    "overload_rejected",
                    "overload_shed",
                    "deadline_expired_queue",
                    "deadline_expired_dispatch",
                    "brownout_rejected",
                    "brownout_warm_served",
                )
            },
            "brownout": (
                self.brownout.stats() if self.brownout is not None else None
            ),
            "isolation": (
                self.isolation.stats()
                if self.isolation is not None
                else {"mode": "thread"}
            ),
            "replay_pending": self._replay_remaining,
        }
        return health

    def _op_compile(
        self, params: Dict[str, Any], budget_s: Optional[float] = None
    ) -> Dict[str, Any]:
        spec, options, arch = protocol.spec_and_options(params)
        program, source = self.service.get_program_with_source(
            spec,
            arch,
            options,
            timeout_s=overload_mod.merge_timeout(params.get("timeout"), budget_s),
            shape_hint=protocol.shape_hint(params),
        )
        return {
            "key": self.service.reconciled_key(spec, arch, options),
            "variant": program.options.variant_name(),
            "source": source,
            "codegen_ms": round(1e3 * program.codegen_seconds, 3),
            "spm_plan": program.plan.describe(),
            "verified": program.verification is not None,
        }

    def _op_run(
        self, params: Dict[str, Any], budget_s: Optional[float] = None
    ) -> Dict[str, Any]:
        import numpy as np

        from repro.codegen.elementwise import get_elementwise
        from repro.runtime.executor import run_gemm

        spec, options, arch = protocol.spec_and_options(params)
        M = int(params.get("M", 64))
        N = int(params.get("N", 64))
        K = int(params.get("K", 32))
        seed = int(params.get("seed", 0))
        alpha = float(params.get("alpha", 1.0))
        program, source = self.service.get_program_with_source(
            spec,
            arch,
            options,
            timeout_s=overload_mod.merge_timeout(params.get("timeout"), budget_s),
            shape_hint=protocol.shape_hint(params),
        )
        rng = np.random.default_rng(seed)
        batch = int(params.get("batch_count", 4)) if spec.is_batched else None
        lead = (batch,) if batch else ()
        A = rng.standard_normal(lead + ((K, M) if spec.trans_a else (M, K)))
        B = rng.standard_normal(lead + ((N, K) if spec.trans_b else (K, N)))
        C = np.zeros(lead + (M, N))
        C, report = run_gemm(
            program, A, B, C, alpha=alpha, beta=0.0,
            guarded=bool(params.get("guarded", False)),
        )
        A_eff = A.swapaxes(-1, -2) if spec.trans_a else A
        B_eff = B.swapaxes(-1, -2) if spec.trans_b else B
        # Fused kernels apply their element-wise function to A (prologue)
        # or to the product (epilogue); the reference must as well.
        fused = program.spec
        if fused.prologue_func:
            A_eff = get_elementwise(fused.prologue_func).numpy_fn(A_eff)
        expected = alpha * (A_eff @ B_eff)
        if fused.epilogue_func:
            expected = get_elementwise(fused.epilogue_func).numpy_fn(expected)
        max_error = float(np.abs(C - expected).max())
        result = {
            "key": self.service.reconciled_key(spec, arch, options),
            "source": source,
            "gflops": report.gflops,
            "simulated_ms": 1e3 * report.elapsed_seconds,
            "max_error": max_error,
            "ok": max_error < 1e-8,
        }
        for stat in ("dma_retries", "rma_retries", "lost_replies"):
            if stat in report.stats:
                result[stat] = int(report.stats[stat])
        return result

    def _op_tune(
        self, params: Dict[str, Any], budget_s: Optional[float] = None
    ) -> Dict[str, Any]:
        from repro import api

        spec, options, arch = protocol.spec_and_options(params)
        shape = protocol.shape_hint(params) or (1024, 1024, 1024)
        record = api.tune(
            spec,
            shape=shape,
            arch=arch,
            seed=int(params.get("seed", 0)),
            budget=int(params.get("budget", 8)),
            options=options if params.get("tile") or params.get("fusion") else None,
            service=self.service,
        )
        row = record.describe()
        return {
            "shape_class": row["shape_class"],
            "config": row["config"],
            "best_gflops": row["best_gflops"],
            "improvement_pct": row["improvement_pct"],
            "key": row["key"],
        }

    def _op_verify(
        self, params: Dict[str, Any], budget_s: Optional[float] = None
    ) -> Dict[str, Any]:
        from repro.verify import verify_program

        spec, options, arch = protocol.spec_and_options(params)
        program, source = self.service.get_program_with_source(
            spec, arch, options.with_(verify=False),
            timeout_s=overload_mod.merge_timeout(params.get("timeout"), budget_s),
        )
        report = verify_program(program)
        described = report.describe()
        return {
            "key": self.service.reconciled_key(spec, arch, options),
            "source": source,
            "ok": report.ok,
            "checks": len(described.get("checks", [])),
        }

    def _op_warmup(
        self, params: Dict[str, Any], budget_s: Optional[float] = None
    ) -> Dict[str, Any]:
        rows = self.service.warmup()
        compiled = sum(1 for r in rows if r["source"] == "compiled")
        return {
            "kernels": len(rows),
            "compiled": compiled,
            "cached": len(rows) - compiled,
        }

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "address": (
                list(self._address)
                if isinstance(self._address, tuple)
                else self._address
            ),
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "draining": self._draining,
            "counters": dict(self.counters),
            "ops": dict(self.op_counts),
            "priorities": dict(self.priority_counts),
            "pool": self.pool.stats(),
            "quota": self.quotas.stats(),
            "isolation": (
                self.isolation.stats()
                if self.isolation is not None
                else {"mode": "thread"}
            ),
            "journal": (
                {
                    **self.journal.stats(),
                    "replay_pending": self._replay_remaining,
                }
                if self.journal is not None
                else None
            ),
            "overload": (
                {
                    "config": self.overload.describe(),
                    "brownout": (
                        self.brownout.stats()
                        if self.brownout is not None
                        else None
                    ),
                }
                if self.overload is not None
                else None
            ),
        }


# ---------------------------------------------------------------------------
# Background-thread harness (tests, load generator, embedders)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A :class:`KernelServer` running its event loop on a daemon thread.

    ``address`` is valid as soon as the constructor-issuing helper
    returns; ``stop()`` drains and joins.  Context-manager use stops
    with a graceful drain on exit.
    """

    def __init__(self, server: KernelServer) -> None:
        self.server = server
        self.address: Optional[Address] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "ServerHandle":
        ready = threading.Event()

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self.loop = loop
            try:
                self.address = loop.run_until_complete(self.server.start())
            except BaseException as exc:
                self._startup_error = exc
                ready.set()
                loop.close()
                return
            ready.set()
            try:
                loop.run_until_complete(self.server.serve_until_stopped())
                # A stop() queued by another thread may still be pending
                # (it just awaits the already-set stopped event) — let it
                # finish so no task is destroyed with work outstanding.
                pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
                if pending:
                    loop.run_until_complete(
                        asyncio.wait(pending, timeout=5.0)
                    )
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="swgemm-serve", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout=timeout):
            raise ServeError("server failed to start within the timeout")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self.loop is None or self._thread is None:
            return
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain), self.loop
            )
            try:
                future.result(timeout=timeout)
            except (
                asyncio.TimeoutError,
                # Distinct from builtin TimeoutError before Python 3.11.
                concurrent.futures.TimeoutError,
                RuntimeError,
                TimeoutError,
            ):
                pass
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    service: Optional[CompileService] = None,
    config: Optional[ServeConfig] = None,
    timeout: float = 10.0,
) -> ServerHandle:
    """Boot a daemon on a background thread; returns its handle."""
    return ServerHandle(KernelServer(service, config)).start(timeout=timeout)
