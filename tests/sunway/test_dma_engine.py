"""DMA engine: size/len/strip semantics of §4 (Fig. 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidDMAError, SynchronizationError
from repro.sunway.arch import TOY_ARCH
from repro.sunway.cpe import CPE
from repro.sunway.dma_engine import DMAEngine


def make_cpe(spm_bytes=64 * 1024):
    cpe = CPE(0, 0, spm_bytes)
    cpe.spm.alloc("tile", (4, 8))
    return cpe


def make_engine():
    return DMAEngine(TOY_ARCH)


def test_iget_strided_tile():
    """Fetch a 4x8 tile out of a 16x32 matrix: len=8, strip=32-8."""
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.arange(16 * 32, dtype=float).reshape(16, 32)
    dst = cpe.spm.slot("tile", 0)
    offset = 2 * 32 + 4  # start at row 2, column 4
    engine.iget(
        cpe, dst, ("tile", 0), matrix, matrix.size, offset,
        size=32, length=8, strip=24, reply_name="r", elem_bytes=8,
    )
    expected = matrix[2:6, 4:12]
    assert (dst == expected).all()


def test_iput_roundtrip():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    tile = cpe.spm.slot("tile", 0)
    tile[...] = np.arange(32.0).reshape(4, 8)
    cpe.spm.clear_inflight("tile", 0)
    engine.iput(
        cpe, matrix, matrix.size, 5 * 32 + 8, tile, ("tile", 0),
        size=32, length=8, strip=24, reply_name="w", elem_bytes=8,
    )
    assert (matrix[5:9, 8:16] == tile).all()
    assert matrix.sum() == tile.sum()


def test_reply_counter_increments():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    dst = cpe.spm.slot("tile", 0)
    for expected in (1, 2):
        engine.iget(cpe, dst, ("tile", 0), matrix, matrix.size, 0,
                    32, 8, 24, "r", elem_bytes=8)
        assert cpe.reply("r").value == expected


def test_inflight_until_wait():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    dst = cpe.spm.slot("tile", 0)
    engine.iget(cpe, dst, ("tile", 0), matrix, matrix.size, 0, 32, 8, 24, "r",
                elem_bytes=8)
    with pytest.raises(SynchronizationError):
        cpe.spm.check_readable("tile", 0)


def test_iput_requires_ready_source():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    tile = cpe.spm.slot("tile", 0)
    cpe.spm.mark_inflight("tile", 0, "pending get")
    with pytest.raises(SynchronizationError):
        engine.iput(cpe, matrix, matrix.size, 0, tile, ("tile", 0),
                    32, 8, 24, "w", elem_bytes=8)


@pytest.mark.parametrize(
    "size,length,strip",
    [
        (0, 8, 24),      # empty transfer
        (32, 0, 24),     # zero run
        (33, 8, 24),     # size not a multiple of len
        (32, 8, -1),     # negative strip
        (4096, 8, 24),   # larger than the SPM tile
    ],
)
def test_argument_validation(size, length, strip):
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((16, 32))
    dst = cpe.spm.slot("tile", 0)
    with pytest.raises(InvalidDMAError):
        engine.iget(cpe, dst, ("tile", 0), matrix, matrix.size, 0,
                    size, length, strip, "r", elem_bytes=8)


def test_out_of_bounds_rejected():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.zeros((4, 8))
    dst = cpe.spm.slot("tile", 0)
    with pytest.raises(InvalidDMAError):
        engine.iget(cpe, dst, ("tile", 0), matrix, matrix.size,
                    offset=8, size=32, length=8, strip=24, reply_name="r", elem_bytes=8)


def test_channel_serialises_messages():
    """Two messages issued at the same instant occupy the channel back to
    back: the second completes strictly later."""
    engine = make_engine()
    cpe_a, cpe_b = make_cpe(), CPE(0, 1, 64 * 1024)
    cpe_b.spm.alloc("tile", (4, 8))
    matrix = np.zeros((16, 32))
    t1 = engine.iget(cpe_a, cpe_a.spm.slot("tile", 0), ("tile", 0),
                     matrix, matrix.size, 0, 32, 8, 24, "r", elem_bytes=8)
    t2 = engine.iget(cpe_b, cpe_b.spm.slot("tile", 0), ("tile", 0),
                     matrix, matrix.size, 0, 32, 8, 24, "r", elem_bytes=8)
    assert t2 > t1
    # len = 8 doubles = 64 B: shorter than the DDR burst, so the message
    # pays the stride penalty.
    assert t2 - t1 == pytest.approx(TOY_ARCH.dma_time_s(32 * 8, run_bytes=8 * 8))
    assert TOY_ARCH.dma_time_s(32 * 8, run_bytes=64) > TOY_ARCH.dma_time_s(32 * 8, run_bytes=256)


def test_timing_only_mode_skips_data():
    engine = make_engine()
    cpe = make_cpe()
    matrix = np.arange(16.0 * 32).reshape(16, 32)
    dst = cpe.spm.slot("tile", 0)
    engine.iget(cpe, None, ("tile", 0), None, matrix.size, 0, 32, 8, 24,
                "r", move_data=False, elem_bytes=8)
    assert (dst == 0).all()
    assert cpe.reply("r").value == 1


@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 8),
    row0=st.integers(0, 6),
    col0=st.integers(0, 8),
)
@settings(max_examples=80, deadline=None)
def test_prop_strided_gather_matches_slicing(rows, cols, row0, col0):
    """The size/len/strip encoding reproduces arbitrary subtile fetches."""
    engine = make_engine()
    cpe = CPE(0, 0, 64 * 1024)
    cpe.spm.alloc("t", (rows, cols))
    matrix = np.arange(12.0 * 16).reshape(12, 16)
    if row0 + rows > 12 or col0 + cols > 16:
        return
    dst = cpe.spm.slot("t", 0)
    engine.iget(
        cpe, dst, ("t", 0), matrix, matrix.size,
        offset=row0 * 16 + col0,
        size=rows * cols, length=cols, strip=16 - cols, reply_name="r", elem_bytes=8,
    )
    assert (dst == matrix[row0 : row0 + rows, col0 : col0 + cols]).all()
