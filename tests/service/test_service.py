"""CompileService behavior: tiers, single-flight, bypass, warmup."""

import threading
import time

import pytest

from repro.core import CompilerOptions, GemmSpec
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH


def counting_compiler(counter, result=None, before=None, gate=None):
    """A fake compile_fn that counts invocations.  ``before`` is set when
    a compile starts; ``gate`` (if given) blocks the compile until set."""

    def compile_fn(spec, arch, options):
        counter.append((spec, arch, options))
        if before is not None:
            before.set()
        if gate is not None:
            assert gate.wait(timeout=10.0)
        return result if result is not None else object()

    return compile_fn


def test_memory_tier_serves_repeats():
    calls = []
    service = CompileService(ServiceConfig(), counting_compiler(calls))
    first = service.get_program(GemmSpec(), TOY_ARCH)
    second = service.get_program(GemmSpec(), TOY_ARCH)
    assert first is second
    assert len(calls) == 1
    stats = service.stats()
    assert stats["memory"]["hits"] == 1
    assert stats["compiles"]["count"] == 1


def test_distinct_keys_compile_separately():
    calls = []
    service = CompileService(ServiceConfig(), counting_compiler(calls))
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.baseline())
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    assert len(calls) == 2


def test_single_flight_dedups_concurrent_requests():
    """Two threads asking for the same key while the compile is in flight
    must produce exactly one compile; the waiter gets the owner's result."""
    calls = []
    started = threading.Event()
    gate = threading.Event()
    sentinel = object()
    service = CompileService(
        ServiceConfig(),
        counting_compiler(calls, result=sentinel, before=started, gate=gate),
    )
    results = []

    def request():
        results.append(service.get_program(GemmSpec(), TOY_ARCH))

    owner = threading.Thread(target=request)
    owner.start()
    assert started.wait(timeout=10.0)  # the owner is inside compile_fn
    waiter = threading.Thread(target=request)
    waiter.start()
    deadline = time.monotonic() + 10.0
    while service.deduped < 1:  # the waiter has parked on the flight
        assert time.monotonic() < deadline
        time.sleep(0.001)
    gate.set()
    owner.join(timeout=10.0)
    waiter.join(timeout=10.0)
    assert len(calls) == 1
    assert results == [sentinel, sentinel]
    assert service.stats()["single_flight_deduped"] == 1


def test_single_flight_propagates_errors_to_waiters():
    started = threading.Event()
    gate = threading.Event()
    boom = RuntimeError("compile exploded")

    def failing_compile(spec, arch, options):
        started.set()
        assert gate.wait(timeout=10.0)
        raise boom

    service = CompileService(ServiceConfig(), failing_compile)
    errors = []

    def request():
        try:
            service.get_program(GemmSpec(), TOY_ARCH)
        except RuntimeError as exc:
            errors.append(exc)

    owner = threading.Thread(target=request)
    owner.start()
    assert started.wait(timeout=10.0)
    waiter = threading.Thread(target=request)
    waiter.start()
    deadline = time.monotonic() + 10.0
    while service.deduped < 1:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    gate.set()
    owner.join(timeout=10.0)
    waiter.join(timeout=10.0)
    assert errors == [boom, boom]
    # The failed flight must not poison the key: a retry compiles again.
    ok = CompileService(ServiceConfig(), counting_compiler([]))
    assert ok.get_program(GemmSpec(), TOY_ARCH) is not None


def test_disabled_service_always_compiles():
    """--no-cache semantics: every request compiles, nothing is cached."""
    calls = []
    service = CompileService(
        ServiceConfig(enabled=False), counting_compiler(calls)
    )
    a = service.get_program(GemmSpec(), TOY_ARCH)
    b = service.get_program(GemmSpec(), TOY_ARCH)
    assert a is not b
    assert len(calls) == 2
    stats = service.stats()
    assert stats["enabled"] is False
    assert stats["bypassed"] == 2
    assert stats["memory"]["size"] == 0


def test_disk_tier_survives_service_restart(tmp_path):
    """A second service instance (a fresh process, morally) finds the
    artifact on disk and never invokes the compiler."""
    config = ServiceConfig(cache_dir=tmp_path / "cache")
    first = CompileService(config)
    program = first.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    assert first.stats()["compiles"]["count"] == 1

    calls = []
    second = CompileService(config, counting_compiler(calls))
    reloaded = second.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    assert calls == []  # served from disk, zero recompilation
    assert second.stats()["disk"]["hits"] == 1
    assert reloaded.tree_dump() == program.tree_dump()
    assert reloaded.cpe_source() == program.cpe_source()


def test_str_cache_dir_is_a_path(tmp_path):
    """``cache_dir`` given as a string works like a Path: stats() and the
    tuning store both build paths under it."""
    config = ServiceConfig(cache_dir=str(tmp_path / "cache"))
    assert config.cache_dir == tmp_path / "cache"
    service = CompileService(config)
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    stats = service.stats()
    assert stats["compiles"]["count"] == 1
    assert stats["tuning"]["records"] == 0
    assert service.tuning_store is not None


def test_lru_eviction_falls_back_to_disk(tmp_path):
    """Evicted from memory but still on disk: the next request reloads
    the artifact instead of recompiling."""
    config = ServiceConfig(memory_capacity=1, cache_dir=tmp_path / "cache")
    service = CompileService(config)
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.baseline())
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    assert service.stats()["memory"]["evictions"] == 1
    # baseline was evicted; this must be a disk hit, not a third compile.
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.baseline())
    stats = service.stats()
    assert stats["compiles"]["count"] == 2
    assert stats["disk"]["hits"] == 1


def test_warmup_reports_sources(tmp_path):
    requests = [
        (GemmSpec(), TOY_ARCH, CompilerOptions.baseline()),
        (GemmSpec(), TOY_ARCH, CompilerOptions.full()),
    ]
    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    rows = service.warmup(requests, workers=2)
    assert sorted(r["source"] for r in rows) in (
        ["compiled", "compiled"],
        ["compiled", "deduped"],  # not possible here (distinct keys)...
    )
    assert all(len(r["key"]) == 64 for r in rows)
    # A second warmup is served entirely from memory.
    again = service.warmup(requests, workers=1)
    assert [r["source"] for r in again] == ["memory", "memory"]
    assert service.stats()["compiles"]["count"] == 2


def test_clear_drops_both_tiers(tmp_path):
    service = CompileService(ServiceConfig(cache_dir=tmp_path / "cache"))
    service.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    removed = service.clear()
    assert removed == {"memory": 1, "disk": 1}
    assert service.store.keys() == []


def test_corrupt_artifact_recompiles(tmp_path):
    config = ServiceConfig(cache_dir=tmp_path / "cache")
    first = CompileService(config)
    key = first.key_for(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    first.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    first.store.path_for(key).write_text("{ not json")

    second = CompileService(config)
    second.get_program(GemmSpec(), TOY_ARCH, CompilerOptions.full())
    assert second.stats()["compiles"]["count"] == 1  # recompiled
    assert not first.store.path_for(key).read_text().startswith("{ not")


def test_stats_report_shape():
    service = CompileService(ServiceConfig())
    service.get_program(GemmSpec(), TOY_ARCH)
    stats = service.stats()
    assert set(stats) >= {
        "enabled", "requests", "bypassed", "single_flight_deduped",
        "memory", "compiles",
    }
    assert stats["requests"] == 1
    assert stats["compiles"]["count"] == 1
    assert stats["compiles"]["total_seconds"] > 0
    assert stats["compiles"]["mean_ms"] > 0
    assert stats["compiles"]["max_ms"] >= stats["compiles"]["mean_ms"]


def test_persistent_stats_accumulate_across_instances(tmp_path):
    """The acceptance flow: a warm `perf` run leaves hits that a later
    `cache stats` process can still see."""
    config = ServiceConfig(cache_dir=tmp_path / "cache")
    first = CompileService(config)
    first.get_program(GemmSpec(), TOY_ARCH)
    first.get_program(GemmSpec(), TOY_ARCH)  # memory hit

    second = CompileService(config)
    persistent = second.store.load_persistent_stats()
    assert persistent["requests"] == 2
    assert persistent["compiles"] == 1
    assert persistent["memory_hits"] == 1


def test_cache_hits_are_stamped_with_reconciled_options():
    """Regression: a memory hit must carry the options the compile would
    have reconciled to, not the caller's raw (inert-flagged) set."""
    service = CompileService(ServiceConfig())
    spec = GemmSpec()  # unbatched: the batch flag is inert
    first = service.get_program(spec, TOY_ARCH, CompilerOptions.full())
    hit = service.get_program(
        spec, TOY_ARCH, CompilerOptions.full().with_(batch=True)
    )
    assert hit.options == first.options
    assert hit.options.batch is False
    # Both requests address the same artifact.
    assert service.compile_count == 1


def test_reconciliation_preserves_runtime_policies_on_hits():
    from repro.faults import FaultPolicy

    service = CompileService(ServiceConfig())
    spec = GemmSpec()
    service.get_program(spec, TOY_ARCH, CompilerOptions.full())
    policy = FaultPolicy(enabled=True, seed=11)
    hit = service.get_program(
        spec, TOY_ARCH, CompilerOptions.full().with_(fault_policy=policy)
    )
    assert service.compile_count == 1
    assert hit.options.fault_policy == policy
