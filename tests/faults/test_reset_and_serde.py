"""Engine reset hygiene and policy serialization.

``DMAEngine.reset()`` / ``RMAEngine.reset()`` must clear an attached
trace recorder so back-to-back runs on one cluster never interleave
spans, and the fault/retry policies must survive the artifact-store
JSON round trip (they ride on ``CompilerOptions``).
"""

import numpy as np

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.faults import FaultPolicy, RetryPolicy
from repro.runtime import serde
from repro.runtime.executor import run_gemm
from repro.runtime.program import CompiledProgram
from repro.sunway.arch import TOY_ARCH
from repro.sunway.mesh import Cluster


def test_engine_reset_clears_attached_trace():
    cluster = Cluster(TOY_ARCH)
    trace = cluster.enable_tracing()
    trace.record("dma", 0.0, 1.0, "channel")
    trace.record("rma", 0.0, 1.0, "row0")
    assert trace.events
    cluster.dma.reset()
    assert not trace.events
    trace.record("rma", 0.0, 1.0, "row0")
    cluster.rma.reset()
    assert not trace.events


def test_back_to_back_runs_do_not_interleave_traces(toy_full_program, rng):
    """Two runs on one cluster: the second trace must only contain the
    second run's spans (previously they accumulated)."""
    cluster = Cluster(TOY_ARCH)
    trace = cluster.enable_tracing()
    A = rng.standard_normal((16, 8))
    B = rng.standard_normal((8, 16))
    run_gemm(toy_full_program, A, B, np.zeros((16, 16)), beta=0.0,
             cluster=cluster)
    first_count = len(trace.events)
    run_gemm(toy_full_program, A, B, np.zeros((16, 16)), beta=0.0,
             cluster=cluster)
    assert len(trace.events) <= first_count + 8  # not ~2x the first run


def test_cluster_reset_clears_lost_replies():
    cluster = Cluster(TOY_ARCH)
    cpe = cluster.cpe(0, 0)
    cpe.lost_replies["r"] = (("tile", 0), 1.0)
    cluster.reset_mesh()
    assert not cpe.lost_replies


def test_policies_round_trip_through_serde():
    policy = FaultPolicy.chaos(seed=17, rate=0.25).with_(
        reply_drop_rate=0.1, compile_hang_s=2.0
    )
    retry = RetryPolicy(max_retries=5, backoff_base_s=2e-6)
    encoded = serde.encode(policy)
    assert serde.decode(encoded) == policy
    assert serde.decode(serde.encode(retry)) == retry


def test_program_with_policies_round_trips():
    options = CompilerOptions.full().with_(
        fault_policy=FaultPolicy.chaos(seed=5),
        retry_policy=RetryPolicy(max_retries=2),
    )
    program = GemmCompiler(TOY_ARCH, options).compile(GemmSpec())
    restored = CompiledProgram.from_dict(program.to_dict())
    assert restored.options.fault_policy == options.fault_policy
    assert restored.options.retry_policy == options.retry_policy
