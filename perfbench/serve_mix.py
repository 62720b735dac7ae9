"""``serve-mix``: a closed loop against a ``swgemm serve`` subprocess.

Why: it is the only workload that exercises ``serve`` (protocol, queue,
workers), and it reads the ``service`` cache tiers that ``cold-compile``
bypasses.

Two tenants on two connections each send their next request only after
the previous reply arrives, as a build tool does.  They replay
``repro.bench.loadgen.generate_trace`` (toy arch) against a daemon
started through the CLI with ``--workers 2 --no-quotas --cache-dir <tmp>
--memory-capacity 6``.  The trace demands 10 distinct kernels, more than
the hot tier holds, so memory hits, disk hits and cold compiles all
occur.  An iteration is a 2-second window; every response must be
``ok`` and every ``run`` op must match NumPy (the daemon checks it and
reports ``ok``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    ROOT, WORK, Run, Workload, child_env, mean, percentile,
)

TENANTS = ("alpha", "beta")
#: Below the trace's 10 distinct kernels, so disk hits and cold compiles
#: occur, yet above its 6 hot ones: memory hits stay the common case and
#: the median round trip lies inside their mode.  (With 4, memory and
#: disk hits split about evenly and the median sat between the modes.)
MEMORY_CAPACITY = 6
OPS = ("compile", "run", "verify", "stats", "ping")
ERROR_TYPES = ("OverloadError", "QuotaExceededError", "CompileTimeout")


class Daemon:
    """One ``swgemm serve`` subprocess with a private cache directory."""

    def __init__(self, index: int) -> None:
        self.dir = WORK / f"serve-{index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        ready = self.dir / "ready.json"
        self.log = open(self.dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--workers", "2",
                "--no-quotas",
                "--cache-dir", str(self.dir / "cache"),
                "--memory-capacity", str(MEMORY_CAPACITY),
                "--ready-file", str(ready),
            ],
            env=child_env(),
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while True:
            try:
                info = json.loads(ready.read_text())
                break
            except (OSError, ValueError):  # not written yet, or half written
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"swgemm serve did not start; see {self.dir / 'daemon.log'}"
                )
            time.sleep(0.01)
        self.address = (info["host"], int(info["port"]))

    def peak_rss_mb(self) -> Optional[float]:
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            return None
        return None

    def stop(self) -> None:
        if self.proc.poll() is None:
            from repro.serve.client import Client

            try:
                with Client(self.address, tenant="perfbench", timeout=30) as c:
                    c.shutdown()
            except Exception:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class SpeedProbe:
    """A subprocess timing ``calibration_loop`` every 50 ms while the
    windows run, so each window is calibrated by the host speed *during*
    it: the work runs in the daemon on both cores, and samples taken by
    this process between windows tracked it poorly."""

    CODE = (
        "import sys, time\n"
        "from perfbench.common import calibration_loop\n"
        "while True:\n"
        "    started = time.perf_counter()\n"
        "    calibration_loop()\n"
        "    print(started, time.perf_counter() - started, flush=True)\n"
        "    time.sleep(0.05)\n"
    )

    def __init__(self) -> None:
        env = child_env()
        env["PYTHONPATH"] += os.pathsep + str(ROOT)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", self.CODE],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples: List[Tuple[float, float]] = []
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            started, seconds = line.split()
            self.samples.append((float(started), float(seconds)))

    def between(self, start: float, end: float) -> List[float]:
        return [s for t, s in list(self.samples) if start <= t <= end]

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        self.reader.join(timeout=5)
        self.proc.stdout.close()


class ServeMix(Workload):
    window_s = 2.0
    min_iterations = 4
    #: At least 1000 round trips, 50 of them beyond the p95.  The p99
    #: (the 15th-slowest, a ``run`` op of the trace's heaviest kernels)
    #: spread 9–30% over ten seeds, because it hinges on how many of
    #: those a seed's first ~1500 requests hold; the p95 spread 6–14%.
    #: The p99 is reported per layer as ``serve.rtt_ms_p99``.
    tail_q = 0.95
    tail_beyond = 50

    def __init__(self, seed: int) -> None:
        from repro.bench.loadgen import TraceConfig, generate_trace

        trace = generate_trace(
            TraceConfig(seed=seed, requests=20000, tenants=TENANTS, arch="toy")
        )
        self.entries: Dict[str, List[Dict]] = defaultdict(list)
        for entry in trace:
            self.entries[entry["tenant"]].append(entry)
        self.cursor = {tenant: 0 for tenant in TENANTS}
        self.daemon: Optional[Daemon] = None
        self.clients: Dict[str, Any] = {}
        self.outcomes: List[Dict[str, Any]] = []
        self.setups = 0
        self.probe: Optional[SpeedProbe] = None

    def setup(self, run: Run) -> None:
        from repro.bench.loadgen import HOT_KERNELS
        from repro.serve.client import Client

        self.daemon = Daemon(self.setups)
        self.setups += 1
        with Client(self.daemon.address, tenant="perfbench", timeout=120) as c:
            for kernel in HOT_KERNELS:
                c.compile({"arch": "toy", **kernel})

    def discard_setup(self) -> None:
        self.daemon.stop()
        self.daemon = None

    def _tenant(self, tenant: str, deadline: float, run: Run, traced: bool,
                index: int, sink: List[Dict]) -> None:
        from repro.serve.client import ServeError
        from repro.serve.protocol import Response

        client = self.clients[tenant]
        entries = self.entries[tenant]
        while time.perf_counter() < deadline and self.cursor[tenant] < len(entries):
            position = self.cursor[tenant]
            entry = entries[position]
            self.cursor[tenant] += 1
            with run.tracer.span("serve.request") as record:
                started = time.perf_counter()
                try:
                    response = client.request_response(
                        entry["op"], entry["params"], priority=entry["priority"]
                    )
                except ServeError as exc:  # connection lost or timed out
                    response = Response(
                        id=None,
                        ok=False,
                        error={"type": type(exc).__name__, "message": str(exc)},
                    )
                rtt_ms = 1e3 * (time.perf_counter() - started)
                record["attrs"]["op"] = entry["op"]
            result = response.result or {}
            # The daemon checks a run against the *unfused* product, so its
            # ``ok`` is meaningful only for unfused kernels (see README).
            fused = entry["params"].get("fusion", "none") != "none"
            sink.append(
                {
                    "op": entry["op"],
                    "tenant": tenant,
                    "position": position,
                    "iteration": index,
                    "traced": traced,
                    "rtt_ms": rtt_ms,
                    "ok": response.ok
                    and (fused or result.get("ok", True) is not False),
                    "fused_flagged": fused and result.get("ok") is False,
                    "meta": response.meta or {},
                    "gflops": result.get("gflops"),
                    "error": (response.error or {}).get("type"),
                    "message": (response.error or {}).get("message"),
                }
            )

    def iteration(self, index: int, run: Run) -> float:
        from repro.serve.client import Client

        if not self.clients:
            self.clients = {
                t: Client(self.daemon.address, tenant=t, timeout=120)
                for t in TENANTS
            }
            self.probe = SpeedProbe()
            while not self.probe.samples and self.probe.proc.poll() is None:
                time.sleep(0.01)
        traced = run.tracer.enabled
        sinks: Dict[str, List[Dict]] = {t: [] for t in TENANTS}
        began = time.perf_counter()
        deadline = began + self.window_s
        threads = [
            threading.Thread(
                target=self._tenant,
                args=(t, deadline, run, traced, index, sinks[t]),
            )
            for t in TENANTS
        ]
        # No collection of this process's heap (the 20000-entry trace)
        # may pause both clients inside a measured round trip.
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
        elapsed = time.perf_counter() - began
        run.add_calibration(self.probe.between(began, began + elapsed))
        done = [o for t in TENANTS for o in sinks[t]]
        self.outcomes.extend(done)
        for outcome in done:
            run.check(
                outcome["ok"],
                f"{outcome['op']} #{outcome['position']} ({outcome['tenant']}): "
                f"{outcome['error']}: {outcome['message']}",
            )
            latency = outcome["rtt_ms"] / 1e3 if outcome["ok"] else math.inf
            run.op(latency, calibrate=False)
        run.work(len(done))
        # wall_s: host seconds per 100 completed requests
        return 100.0 * elapsed / max(len(done), 1)

    def _probe_gflops(self, run: Run) -> None:
        """One ``run`` of every hot kernel at every trace shape, after the
        measured windows: the simulated Gflops of what the daemon serves,
        the same for every seed."""
        from repro.bench.loadgen import HOT_KERNELS, RUN_SHAPES
        from repro.serve.client import Client

        with Client(self.daemon.address, tenant="perfbench", timeout=120) as c:
            for kernel in HOT_KERNELS:
                for M, N, K in RUN_SHAPES:
                    params = {"arch": "toy", **kernel, "M": M, "N": N, "K": K}
                    response = c.request_response("run", params)
                    if run.check(response.ok, f"probe run {params}: {response.error}"):
                        run.gflops.append(response.result["gflops"])

    def finish(self, run: Run) -> None:
        if self.probe is not None:
            self.probe.stop()
        for client in self.clients.values():
            client.close()
        if self.daemon is not None:
            if self.outcomes:
                self._probe_gflops(run)
            run.worker_rss_mb = self.daemon.peak_rss_mb()
            self.daemon.stop()

        run.notes["op_unit"] = "op = one request round trip"
        run.notes["wall_s"] = "host seconds per 100 completed requests"
        run.notes["requests"] = len(self.outcomes)
        run.notes["fused_runs_flagged_by_daemon"] = sum(
            1 for o in self.outcomes if o["fused_flagged"]
        )

    def layer_metrics(self, run: Run) -> Dict[str, float]:
        traced = [o for o in self.outcomes if o["traced"]]
        values: Dict[str, float] = {}
        for op in OPS:
            rows = [o for o in traced if o["op"] == op]
            for field in ("queue_ms", "exec_ms", "server_ms"):
                samples = [o["meta"][field] for o in rows if field in o["meta"]]
                values[f"serve.{op}.{field}"] = (
                    statistics.median(samples) if samples else 0.0
                )
            wire = [
                o["rtt_ms"] - o["meta"]["server_ms"]
                for o in rows
                if "server_ms" in o["meta"]
            ]
            values[f"serve.{op}.wire_ms"] = statistics.median(wire) if wire else 0.0
        errors = [o["error"] for o in traced if o["error"]]
        for kind in ERROR_TYPES:
            values[f"serve.errors.{kind}"] = errors.count(kind)
        values["serve.errors.other"] = sum(
            1 for e in errors if e not in ERROR_TYPES
        )
        kernel_ops = [
            o for o in traced if o["op"] in ("compile", "run", "verify")
            and o["meta"].get("source")
        ]
        for source in ("memory", "disk", "compiled", "deduped"):
            rows = [o for o in kernel_ops if o["meta"]["source"] == source]
            values[f"service.source.{source}"] = (
                len(rows) / len(kernel_ops) if kernel_ops else 0.0
            )
            compiles = [
                o["meta"]["exec_ms"] / 1e3
                for o in rows
                if o["op"] == "compile" and "exec_ms" in o["meta"]
            ]
            values[f"service.get_program_s.{source}"] = mean(compiles)
        runs = [
            o["meta"]["exec_ms"] / 1e3
            for o in traced
            if o["op"] == "run" and "exec_ms" in o["meta"]
        ]
        values["executor.run_s"] = statistics.median(runs) if runs else 0.0
        untraced = [
            o["rtt_ms"] if o["ok"] else math.inf
            for o in self.outcomes
            if not o["traced"]
        ]
        values["serve.rtt_ms_p99"] = percentile(untraced, 0.99) if untraced else 0.0
        return values
