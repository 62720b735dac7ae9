"""Property-based tests for ``DMAEngine._validate`` (§4 argument rules).

Hypothesis sweeps the size/len/strip/offset lattice: every accepted
combination must describe an in-bounds strided footprint, every rejected
one must raise :class:`InvalidDMAError` with a message carrying the
actionable coordinates (the offending values and the array extent), and
acceptance must agree with a brute-force footprint check.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidDMAError
from repro.sunway.arch import TOY_ARCH
from repro.sunway.cpe import CPE
from repro.sunway.dma_engine import DMAEngine


ENGINE = DMAEngine(TOY_ARCH)

SRC_ELEMS = 256
SPM_ELEMS = 64


def brute_force_ok(src_elems, offset, size, length, strip, spm_elems):
    """Reference semantics: enumerate the strided footprint."""
    if size <= 0 or length <= 0 or strip < 0:
        return False
    if size % length != 0 or size > spm_elems or offset < 0:
        return False
    rows = size // length
    last = offset + (rows - 1) * (length + strip) + length
    return last <= src_elems


@given(
    offset=st.integers(min_value=-8, max_value=SRC_ELEMS + 8),
    size=st.integers(min_value=-4, max_value=SPM_ELEMS + 16),
    length=st.integers(min_value=-4, max_value=SPM_ELEMS + 16),
    strip=st.integers(min_value=-4, max_value=64),
)
@settings(max_examples=300, deadline=None)
def test_validate_agrees_with_brute_force(offset, size, length, strip):
    expected_ok = brute_force_ok(
        SRC_ELEMS, offset, size, length, strip, SPM_ELEMS
    )
    if expected_ok:
        rows = ENGINE._validate(
            SRC_ELEMS, offset, size, length, strip, SPM_ELEMS
        )
        assert rows == size // length
    else:
        with pytest.raises(InvalidDMAError):
            ENGINE._validate(SRC_ELEMS, offset, size, length, strip, SPM_ELEMS)


@given(
    size=st.integers(min_value=1, max_value=SPM_ELEMS),
    length=st.integers(min_value=1, max_value=SPM_ELEMS),
)
@settings(max_examples=200, deadline=None)
def test_nonmultiple_size_message_names_both_values(size, length):
    if size % length == 0:
        return
    with pytest.raises(InvalidDMAError) as exc_info:
        ENGINE._validate(SRC_ELEMS, 0, size, length, 0, SPM_ELEMS)
    message = str(exc_info.value)
    assert str(size) in message
    assert str(length) in message


@given(
    offset=st.integers(min_value=0, max_value=SRC_ELEMS),
    strip=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_out_of_bounds_message_carries_coordinates(offset, strip):
    """Force an overflow with a fixed 32-element transfer; the error must
    name the offset, the run geometry and the array extent so the CPE
    codegen bug it exposes is locatable without a debugger."""
    size, length = 32, 8
    rows = size // length
    if offset + (rows - 1) * (length + strip) + length <= SRC_ELEMS:
        return  # in bounds: nothing to assert
    with pytest.raises(InvalidDMAError) as exc_info:
        ENGINE._validate(SRC_ELEMS, offset, size, length, strip, SPM_ELEMS)
    message = str(exc_info.value)
    assert str(offset) in message
    assert str(length) in message
    assert str(strip) in message
    assert str(SRC_ELEMS) in message


@given(size=st.integers(min_value=SPM_ELEMS + 1, max_value=4 * SPM_ELEMS))
@settings(max_examples=100, deadline=None)
def test_spm_overflow_message_names_tile_size(size):
    with pytest.raises(InvalidDMAError) as exc_info:
        ENGINE._validate(4 * SPM_ELEMS + size, 0, size, size, 0, SPM_ELEMS)
    message = str(exc_info.value)
    assert str(size) in message
    assert str(SPM_ELEMS) in message


@given(
    offset=st.integers(min_value=0, max_value=64),
    rows=st.integers(min_value=1, max_value=8),
    length=st.integers(min_value=1, max_value=8),
    strip=st.integers(min_value=0, max_value=16),
)
@settings(max_examples=200, deadline=None)
def test_accepted_transfers_move_exactly_the_footprint(
    offset, rows, length, strip
):
    """End-to-end: anything _validate accepts must copy precisely the
    strided footprint — no element more, no element fewer."""
    size = rows * length
    if size > SPM_ELEMS:
        return
    last = offset + (rows - 1) * (length + strip) + length
    if last > SRC_ELEMS:
        return
    engine = DMAEngine(TOY_ARCH)
    cpe = CPE(0, 0, 64 * 1024)
    cpe.spm.alloc("tile", (8, SPM_ELEMS // 8))  # 2-D: one 64-element slot
    dst = cpe.spm.slot("tile", 0)
    src = np.arange(float(SRC_ELEMS))
    engine.iget(
        cpe, dst, ("tile", 0), src, src.size, offset,
        size=size, length=length, strip=strip, reply_name="r", elem_bytes=8,
    )
    starts = offset + np.arange(rows) * (length + strip)
    expected = (starts[:, None] + np.arange(length)[None, :]).ravel()
    assert (dst.reshape(-1)[:size] == src[expected]).all()
