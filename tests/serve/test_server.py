"""End-to-end daemon tests over real sockets.

The deterministic dedup test injects a *gated* compile function into
the service, so concurrent same-key requests provably collide on the
single-flight path regardless of machine speed.  Drain semantics,
quota rejection over the wire, oversized/malformed frames against a
live listener, and the ``max_requests`` self-stop are covered with the
in-thread server harness.
"""

import socket
import threading
import time

import pytest

from repro.errors import (
    ProtocolError,
    QuotaExceededError,
    ServeError,
    ServerDrainingError,
)
from repro.serve import (
    Client,
    MAX_FRAME_BYTES,
    QuotaConfig,
    ServeConfig,
    start_in_thread,
)
from repro.serve.client import RemoteError
from repro.service import CompileService, ServiceConfig


@pytest.fixture()
def daemon():
    """A quota-free daemon on an ephemeral TCP port, drained at exit."""
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(workers=2, quota=None),
    )
    yield handle
    handle.stop()


def test_ping_and_stats(daemon):
    with Client(daemon.address, tenant="t") as client:
        pong = client.ping()
        assert pong["pong"] and not pong["draining"]
        stats = client.stats()
        assert stats["server"]["counters"]["connections"] >= 1
        assert "service" in stats


def test_compile_run_verify_round_trip(daemon):
    with Client(daemon.address, tenant="t") as client:
        compiled = client.compile({"arch": "toy"})
        assert len(compiled["key"]) == 64
        assert compiled["source"] == "compiled"
        again = client.compile({"arch": "toy"})
        assert again["key"] == compiled["key"]
        assert again["source"] in ("memory", "disk")
        ran = client.run({"arch": "toy", "M": 32, "N": 32, "K": 16, "seed": 3})
        assert ran["ok"] and ran["max_error"] < 1e-8
        verified = client.verify({"arch": "toy"})
        assert verified["ok"]


@pytest.mark.parametrize(
    "fusion", [{"fusion": "epilogue", "epilogue_func": "relu"},
               {"fusion": "prologue", "prologue_func": "quant"}],
    ids=["epilogue", "prologue"],
)
def test_run_checks_fused_kernels_against_the_fused_reference(daemon, fusion):
    with Client(daemon.address, tenant="t") as client:
        ran = client.run(
            dict(fusion, arch="toy", M=32, N=32, K=16, seed=5, alpha=0.5)
        )
        assert ran["ok"] and ran["max_error"] < 1e-8


def test_error_types_map_to_exceptions(daemon):
    with Client(daemon.address, tenant="t") as client:
        # Known remote error types come back as the matching local class.
        with pytest.raises(ProtocolError, match="tile"):
            client.compile({"arch": "toy", "tile": {"mt": -1}})
        # Unknown remote types degrade to RemoteError, never a silent pass.
        with pytest.raises((RemoteError, ServeError)):
            client.compile({"arch": "toy", "tile": {"mt": 0, "nt": 0, "kt": 0}})


def test_concurrent_tenants_single_flight_dedup():
    """N tenants requesting the same cold key concurrently: exactly one
    compile executes; everyone gets an answer.  The compile function is
    gated so the collision is deterministic, not a timing accident."""
    calls = []
    started = threading.Event()
    gate = threading.Event()

    def slow_compile(spec, arch, options):
        from repro.core.pipeline import GemmCompiler

        calls.append(1)
        started.set()
        assert gate.wait(timeout=30.0)
        return GemmCompiler(arch, options).compile(spec)

    service = CompileService(ServiceConfig(), compile_fn=slow_compile)
    handle = start_in_thread(service, ServeConfig(workers=4, quota=None))
    results = []
    errors = []

    def tenant_request(name):
        try:
            with Client(handle.address, tenant=name, timeout=60.0) as client:
                results.append(client.compile({"arch": "toy"}))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    try:
        threads = [
            threading.Thread(target=tenant_request, args=(f"tenant-{n}",))
            for n in range(4)
        ]
        threads[0].start()
        assert started.wait(timeout=30.0)  # owner is inside the compile
        for thread in threads[1:]:
            thread.start()
        # Wait until the stragglers have parked on the in-flight entry.
        deadline = time.monotonic() + 30.0
        while service.deduped < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(results) == 4
        assert len(calls) == 1  # the whole point
        assert len({r["key"] for r in results}) == 1
        sources = sorted(r["source"] for r in results)
        assert sources.count("compiled") == 1
        assert sources.count("deduped") == 3
        assert service.deduped >= 3
    finally:
        gate.set()
        handle.stop()


def test_quota_exhaustion_over_the_wire():
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(
            workers=2,
            quota=QuotaConfig(capacity=3.0, refill_per_s=0.0),
        ),
    )
    try:
        with Client(handle.address, tenant="greedy") as client:
            for _ in range(3):
                client.compile({"arch": "toy"})
            with pytest.raises(QuotaExceededError):
                client.compile({"arch": "toy"})
            # Zero-cost ops still answered for an exhausted tenant.
            assert client.ping()["pong"]
        # Another tenant's bucket is untouched.
        with Client(handle.address, tenant="frugal") as client:
            client.compile({"arch": "toy"})
    finally:
        handle.stop()


def test_oversized_frame_answered_then_disconnected(daemon):
    host, port = daemon.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b'{"op": "ping", "params": {"x": "'
                     + b"y" * MAX_FRAME_BYTES + b'"}}\n')
        reader = sock.makefile("rb")
        line = reader.readline(MAX_FRAME_BYTES + 1)
        assert b"ProtocolError" in line
        # The daemon then drops the unsyncable connection.
        assert reader.readline() == b""


def test_malformed_frame_gets_structured_error(daemon):
    host, port = daemon.address
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"this is not json\n")
        line = sock.makefile("rb").readline()
        assert b'"ok":false' in line.replace(b" ", b"")
        assert b"ProtocolError" in line


def test_graceful_drain_finishes_queued_work():
    """Work accepted before the drain must be answered after it."""
    gate = threading.Event()

    def gated_compile(spec, arch, options):
        from repro.core.pipeline import GemmCompiler

        assert gate.wait(timeout=30.0)
        return GemmCompiler(arch, options).compile(spec)

    service = CompileService(ServiceConfig(), compile_fn=gated_compile)
    handle = start_in_thread(service, ServeConfig(workers=1, quota=None))
    results = []

    def slow_request():
        with Client(handle.address, tenant="t", timeout=60.0) as client:
            results.append(client.compile({"arch": "toy"}))

    worker = threading.Thread(target=slow_request)
    worker.start()
    # Wait until the request is in flight, then start draining.
    deadline = time.monotonic() + 30.0
    while not handle.server.counters["requests"] and time.monotonic() < deadline:
        time.sleep(0.01)
    stopper = threading.Thread(target=lambda: handle.stop(drain=True))
    stopper.start()
    time.sleep(0.1)
    gate.set()
    worker.join(timeout=30.0)
    stopper.join(timeout=30.0)
    assert results and results[0]["source"] == "compiled"


def test_draining_server_rejects_new_requests():
    gate = threading.Event()

    def gated_compile(spec, arch, options):
        from repro.core.pipeline import GemmCompiler

        assert gate.wait(timeout=30.0)
        return GemmCompiler(arch, options).compile(spec)

    service = CompileService(ServiceConfig(), compile_fn=gated_compile)
    handle = start_in_thread(service, ServeConfig(workers=1, quota=None))
    try:
        blocker = Client(handle.address, tenant="a", timeout=60.0)
        late = Client(handle.address, tenant="b", timeout=60.0)
        hold = threading.Thread(
            target=lambda: blocker.request_response("compile", {"arch": "toy"})
        )
        hold.start()
        deadline = time.monotonic() + 30.0
        while not handle.server.counters["requests"] and time.monotonic() < deadline:
            time.sleep(0.01)
        # Drain starts; the in-flight compile is still gated.
        stopper = threading.Thread(target=lambda: handle.stop(drain=True))
        stopper.start()
        deadline = time.monotonic() + 30.0
        while not handle.server._draining and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ServerDrainingError):
            late.compile({"arch": "toy"})
        gate.set()
        hold.join(timeout=30.0)
        stopper.join(timeout=30.0)
        blocker.close()
        late.close()
    finally:
        gate.set()
        handle.stop()


def test_max_requests_self_stop():
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(workers=1, quota=None, max_requests=2),
    )
    with Client(handle.address, tenant="t") as client:
        client.ping()
        client.ping()
    deadline = time.monotonic() + 30.0
    while not handle.server._stopped.is_set() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert handle.server._stopped.is_set()
    handle.stop()


def test_unix_socket_transport(tmp_path):
    path = str(tmp_path / "swgemm.sock")
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(socket_path=path, workers=1, quota=None),
    )
    try:
        assert handle.address == path
        with Client(path, tenant="t") as client:
            assert client.ping()["pong"]
            assert client.compile({"arch": "toy"})["source"] == "compiled"
    finally:
        handle.stop()


def test_connect_refused_raises_serve_error():
    with pytest.raises(ServeError, match="cannot connect"):
        Client(("127.0.0.1", 1))  # port 1: nothing listens there


def test_warmup_op_reports_kernel_set(daemon):
    with Client(daemon.address, tenant="t") as client:
        result = client.warmup()
        assert result["kernels"] == 7
        assert result["compiled"] + result["cached"] == 7


def test_stale_unix_socket_is_cleared(tmp_path):
    """A socket file left by a SIGKILLed daemon must not block restart."""
    path = str(tmp_path / "swgemm.sock")
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(path)  # bound but never listening — exactly what a crash leaves
    stale.close()
    assert (tmp_path / "swgemm.sock").exists()
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(socket_path=path, workers=1, quota=None),
    )
    try:
        with Client(path, tenant="t") as client:
            assert client.ping()["pong"]
    finally:
        handle.stop()


def test_live_unix_socket_is_a_conflict(tmp_path):
    """A second daemon on a socket owned by a live one fails cleanly."""
    from repro.errors import ConfigurationError

    path = str(tmp_path / "swgemm.sock")
    handle = start_in_thread(
        CompileService(ServiceConfig()),
        ServeConfig(socket_path=path, workers=1, quota=None),
    )
    try:
        with pytest.raises(ConfigurationError, match="live daemon"):
            start_in_thread(
                CompileService(ServiceConfig()),
                ServeConfig(socket_path=path, workers=1, quota=None),
            )
    finally:
        handle.stop()


def test_socket_path_occupied_by_regular_file(tmp_path):
    from repro.errors import ConfigurationError

    path = tmp_path / "swgemm.sock"
    path.write_text("occupied")
    with pytest.raises(ConfigurationError, match="not a socket"):
        start_in_thread(
            CompileService(ServiceConfig()),
            ServeConfig(socket_path=str(path), workers=1, quota=None),
        )
    assert path.read_text() == "occupied"  # never clobbered


def test_read_timeout_raises_client_timeout_not_deadlock():
    """A server that accepts but never answers must produce a
    ClientTimeout — *not* a connection-loss retry (the request may still
    be executing server-side; a blind resend would double the work) and
    not a deadlock (the error path runs under the client lock, and
    closing there used to re-take the non-reentrant lock and hang)."""
    from repro.errors import ClientTimeout

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    accepted = []

    def accept_and_hold():
        conn, _ = listener.accept()
        accepted.append(conn)  # keep it open; never write a byte

    acceptor = threading.Thread(target=accept_and_hold, daemon=True)
    acceptor.start()
    outcome = {}

    def do_request():
        client = Client(listener.getsockname(), tenant="t", timeout=0.5)
        try:
            client.ping()
        except ServeError as exc:
            outcome["error"] = exc
        finally:
            client.close()  # idempotent even after the error-path close
            outcome["retries"] = client.retries

    worker = threading.Thread(target=do_request, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    try:
        assert not worker.is_alive(), "client deadlocked on timeout"
        assert isinstance(outcome["error"], ClientTimeout)
        assert outcome["error"].timeout_s == 0.5
        assert "not retried" in str(outcome["error"])
        # The request was never resent — even though ping is idempotent.
        assert outcome["retries"] == 0
    finally:
        for conn in accepted:
            conn.close()
        listener.close()
