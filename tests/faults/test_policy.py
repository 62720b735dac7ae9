"""Fault policy / injector plumbing: validation, determinism, streams."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPolicy, RetryPolicy, tile_checksum


def test_default_policy_is_inert():
    policy = FaultPolicy()
    assert not policy.enabled
    assert policy.dma_fault_rate == 0.0


def test_chaos_preset():
    policy = FaultPolicy.chaos(seed=7, rate=0.1)
    assert policy.enabled
    assert policy.seed == 7
    assert policy.dma_fault_rate == 0.1
    assert policy.rma_fault_rate == 0.1
    assert policy.checksums  # corruption is only survivable with checksums


@pytest.mark.parametrize("field,value", [
    ("dma_fault_rate", -0.1),
    ("rma_fault_rate", 1.5),
    ("corruption_rate", 2.0),
    ("latency_spike_factor", 0.5),
])
def test_policy_validation(field, value):
    with pytest.raises(ConfigurationError):
        FaultPolicy(**{field: value})


def test_with_helper_keeps_frozen_semantics():
    a = FaultPolicy.chaos(seed=1)
    b = a.with_(dma_fault_rate=0.5)
    assert a.dma_fault_rate != 0.5
    assert b.dma_fault_rate == 0.5
    assert b.seed == a.seed


def test_same_seed_same_fault_sequence():
    policy = FaultPolicy.chaos(seed=42, rate=0.3)
    one = FaultInjector(policy)
    two = FaultInjector(policy)
    seq_one = [one.transfer_fault("dma") for _ in range(200)]
    seq_two = [two.transfer_fault("dma") for _ in range(200)]
    assert seq_one == seq_two
    assert any(seq_one) and not all(seq_one)


def test_different_seeds_differ():
    a = FaultInjector(FaultPolicy.chaos(seed=1, rate=0.3))
    b = FaultInjector(FaultPolicy.chaos(seed=2, rate=0.3))
    assert [a.transfer_fault("dma") for _ in range(200)] != \
        [b.transfer_fault("dma") for _ in range(200)]


def test_forked_streams_are_independent():
    """Draws on one subsystem's stream must not perturb another's."""
    policy = FaultPolicy.chaos(seed=9, rate=0.3)
    root_a = FaultInjector(policy)
    dma_a = root_a.fork("dma")
    rma_a = root_a.fork("rma")
    # interleave heavily
    inter = [(dma_a.transfer_fault("dma"), rma_a.transfer_fault("rma"))
             for _ in range(100)]

    root_b = FaultInjector(policy)
    dma_b = root_b.fork("dma")
    dma_only = [dma_b.transfer_fault("dma") for _ in range(100)]
    assert [d for d, _ in inter] == dma_only


def test_injector_counts_sites():
    injector = FaultInjector(
        FaultPolicy(enabled=True, seed=0, dma_fault_rate=1.0)
    )
    injector.transfer_fault("dma")
    injector.transfer_fault("dma")
    assert injector.counts["dma_fault"] == 2


def test_retry_backoff_is_exponential_and_capped():
    retry = RetryPolicy(max_retries=5, backoff_base_s=1e-6,
                        backoff_factor=2.0, backoff_max_s=3e-6)
    assert retry.backoff(0) == 1e-6
    assert retry.backoff(1) == 2e-6
    assert retry.backoff(2) == 3e-6  # capped
    assert retry.backoff(10) == 3e-6


def test_corrupt_tile_changes_and_checksum_detects():
    injector = FaultInjector(FaultPolicy.chaos(seed=0, rate=0.5))
    tile = np.arange(16.0)
    before = tile_checksum(tile)
    injector.corrupt_tile(tile)
    assert tile_checksum(tile) != before


def test_tile_checksum_views_and_copies_agree():
    matrix = np.arange(64.0).reshape(8, 8)
    view = matrix[2:6, 1:5]
    assert tile_checksum(view) == tile_checksum(view.copy())


def test_corrupt_artifact_truncates(tmp_path):
    injector = FaultInjector(
        FaultPolicy(enabled=True, seed=0, artifact_corruption_rate=1.0)
    )
    path = tmp_path / "artifact.json"
    path.write_text("x" * 100)
    assert injector.corrupt_artifact(path)
    assert len(path.read_text()) < 100
