"""The athread calls of the generated code, on the executor and engines.

``dma_iget``/``dma_iput`` and ``rma_*_ibcast`` go straight to the
cluster's engines; the reply-counter waits, the ``synch()`` barrier and
compute charging are methods of :class:`~repro.runtime.executor.Executor`
itself, the walker backend that runs the generated programs.
"""

import numpy as np
import pytest

from repro.runtime.executor import Executor
from repro.sunway.arch import TOY_ARCH
from repro.sunway.mesh import Cluster


@pytest.fixture()
def executor(toy_full_program):
    cluster = Cluster(TOY_ARCH)
    cluster.memory.alloc("A", (16, 16))
    for cpe in cluster.all_cpes():
        cpe.spm.alloc("tile", (2, 4, 4))
    return Executor(toy_full_program, cluster)


def iget(cluster, cpe, slot, reply, elem_bytes=8, size=16, length=4, strip=12):
    A = cluster.memory["A"]
    return cluster.dma.iget(
        cpe, cpe.spm.slot("tile", slot), ("tile", slot), A, A.size, 0,
        size, length, strip, reply, elem_bytes=elem_bytes,
    )


def test_dma_roundtrip(executor):
    cluster = executor.cluster
    cpe = cluster.cpe(0, 0)
    A = cluster.memory["A"]
    A[...] = np.arange(256.0).reshape(16, 16)
    iget(cluster, cpe, 0, "r")
    assert executor.reply_satisfied(cpe, "r", 1)
    executor.finish_wait(cpe, "r", 1)
    tile = cpe.spm.slot("tile", 0)
    assert (tile == A[:4, :4]).all()
    tile += 1
    cluster.dma.iput(
        cpe, A, A.size, 0, tile, ("tile", 0), 16, 4, 12, "w", elem_bytes=8
    )
    executor.finish_wait(cpe, "w", 1)
    assert (A[:4, :4] == tile).all()


def test_finish_wait_advances_clock_and_unpoisons(executor):
    cpe = executor.cluster.cpe(0, 0)
    iget(executor.cluster, cpe, 0, "r")
    before = cpe.clock
    executor.finish_wait(cpe, "r", 1)
    assert cpe.clock > before
    cpe.spm.check_readable("tile", 0)  # no raise


def test_rma_row_broadcast_and_wait_disarms(executor):
    cluster = executor.cluster
    for cpe in cluster.all_cpes():
        cpe.rma_armed = True
    sender = cluster.cpe(0, 1)
    sender.spm.slot("tile", 0)[...] = 5.0
    cluster.rma.row_ibcast(
        sender, ("tile", 0), ("tile", 1), 16, "rbcast_replys",
        "rbcast_replyr", elem_bytes=8,
    )
    receiver = cluster.cpe(0, 0)
    assert executor.reply_satisfied(receiver, "rbcast_replyr", 1)
    executor.finish_wait(receiver, "rbcast_replyr", 1)
    assert (receiver.spm.slot("tile", 1) == 5.0).all()
    # An RMA wait disarms the launch window (§5).
    assert not receiver.rma_armed


def test_reply_reset(executor):
    cpe = executor.cluster.cpe(1, 1)
    iget(executor.cluster, cpe, 0, "r")
    executor.reply_reset(cpe, "r")
    assert not executor.reply_satisfied(cpe, "r", 1)


def test_barrier_passes_once_every_cpe_arrived(executor):
    cpes = executor.cluster.all_cpes()
    tokens = [executor.barrier_arrive(cpe) for cpe in cpes[:-1]]
    assert not any(executor.barrier_passed(t) for t in tokens)
    tokens.append(executor.barrier_arrive(cpes[-1]))
    assert all(executor.barrier_passed(t) for t in tokens)


def test_charge_compute_accumulates(executor):
    cpe = executor.cluster.cpe(0, 0)
    executor.charge_compute(cpe, 1e-6)
    executor.charge_compute(cpe, 2e-6)
    assert cpe.stats["compute_seconds"] == pytest.approx(3e-6)
    assert cpe.clock == pytest.approx(3e-6)


def test_elem_bytes_scales_timing():
    """Half-width elements halve the channel occupancy (for runs longer
    than the DDR burst, where no stride penalty interferes)."""
    cluster = Cluster(TOY_ARCH)
    cluster.memory.alloc("A", (16, 16))
    for cpe in cluster.all_cpes():
        cpe.spm.alloc("tile", (2, 8, 8))
    t8 = iget(cluster, cluster.cpe(0, 0), 0, "a", elem_bytes=8,
              size=64, length=32, strip=0)
    t4_start = cluster.dma.channel_free
    t4 = iget(cluster, cluster.cpe(0, 1), 0, "b", elem_bytes=4,
              size=64, length=32, strip=0)
    assert (t4 - t4_start) < t8
