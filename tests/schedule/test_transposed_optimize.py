"""Transposed GEMMs compile and run under ``--schedule=optimize``.

Rewrite admission prices nothing: a candidate is admitted on its ledger
replay and SPM re-check alone, so a transposed layout goes through the
same admission as the plain one and its kernel must still match NumPy.
"""

import numpy as np
import pytest

from repro import GemmSpec, TileConfig, api


@pytest.mark.parametrize(
    "spec", [GemmSpec(trans_a=True), GemmSpec(trans_b=True)], ids=["trans_a", "trans_b"]
)
def test_transposed_gemm_admitted_and_correct_under_optimize(spec):
    program = api.compile(
        spec,
        schedule="optimize",
        tile_config=TileConfig(64, 64, 8, buffer_depth=2, k_strip=8),
    )
    assert program.verification is not None and program.verification.ok
    assert any(s.name.startswith("schedule:") for s in program.pass_stats)

    M, N, K = 512, 512, 256
    rng = np.random.default_rng(7)
    a = rng.standard_normal((K, M) if spec.trans_a else (M, K))
    b = rng.standard_normal((N, K) if spec.trans_b else (K, N))
    result = api.run(program, a, b)
    expected = (a.T if spec.trans_a else a) @ (b.T if spec.trans_b else b)
    assert np.allclose(result.c, expected)
