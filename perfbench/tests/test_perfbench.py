"""The benchmark's own tests: every workload at minimal size.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Each workload runs twice in-process, shrunk (one set-up, few
iterations), with tracing on.  The tests check that every metric named
in ``BENCHMARK.json`` is reported with its unit, that both runs pass
every output check, and that the simulated metrics — ``kernel_gflops``,
``sunway.*`` and the ``codegen.*`` counts — are identical across the two
runs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common  # noqa: E402
from perfbench.common import Run, drive, result_line  # noqa: E402
from repro.errors import InvalidDMAError  # noqa: E402

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
DETERMINISTIC = (
    "sunway.dma_bytes",
    "sunway.rma_bytes",
    "sunway.kernel_calls",
    "sunway.bubble_fraction",
    "codegen.cpe_source_bytes",
    "codegen.ast_statements",
)


def _shrunk(name: str, seed: int):
    if name == "sim-sweep":
        from perfbench.sim_sweep import SimSweep

        workload = SimSweep(seed)
        keep = ("+hiding K=512", "ragged-576x1024x512 recipe", "baseline 576x1024x512")
        workload.points = [p for p in workload.points if p[0] in keep]
    elif name == "cold-compile":
        from perfbench.cold_compile import ColdCompile

        workload = ColdCompile(seed)
        workload.blocks = 1
    elif name == "tune-search":
        from perfbench.tune_search import TuneSearch

        workload = TuneSearch(seed)
        workload.shapes = [s for s in workload.shapes if s[3] > 1]
        workload.budget = 2
    else:
        from perfbench.serve_mix import ServeMix

        workload = ServeMix(seed)
        workload.window_s = 0.5
    workload.min_iterations = 1
    workload.tail_q = 0.0
    return workload


#: Per-layer metrics each workload must report as non-zero.
EXERCISED = {
    "sim-sweep": (
        "simulator.chunk_s", "simulator.chunks", "executor.run_s",
        "sunway.dma_bytes", "sunway.kernel_calls", "sunway.bubble_fraction",
        "service.source.memory",
    ),
    "cold-compile": (
        "frontend.parse_s", "frontend.extract_s", "passes.verify.s",
        "passes.count", "codegen.emit_s", "codegen.cpe_source_bytes",
        "codegen.ast_statements", "verify.verify_program_s",
        "service.get_program_s.compiled", "service.source.compiled",
    ),
    "tune-search": (
        "tune.prune_s", "tune.measure_s", "tune.candidates", "tune.measured",
        "passes.verify.s", "service.source.compiled", "simulator.chunks",
    ),
    "serve-mix": (
        "serve.compile.exec_ms", "serve.run.exec_ms", "serve.ping.wire_ms",
        "service.source.memory", "executor.run_s", "serve.rtt_ms_p99",
    ),
}


@pytest.fixture(scope="module")
def twice():
    """Each workload's two shrunk, traced runs (computed on first use)."""
    cache = {}

    def get(name: str):
        if name not in cache:
            outputs = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(common, "SETUP_REPEATS", 1)
                patch.setattr(common, "SETUP_BUDGET_S", 0.0)
                for _ in range(2):
                    workload = _shrunk(name, seed=7)
                    run = Run(seed=7, seconds=0.0, trace=True)
                    drive(workload, run)
                    traced = json.loads(result_line(workload, run, CATALOGUE))
                    run.trace = False
                    untraced = json.loads(result_line(workload, run, CATALOGUE))
                    outputs.append((run, traced, untraced))
            cache[name] = outputs
        return cache[name]

    return get


def test_catalogue_is_well_formed():
    assert set(CATALOGUE) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(CATALOGUE["workloads"]) <= 8
    assert 1 <= CATALOGUE["run_seconds"] <= 60
    names = [w["name"] for w in CATALOGUE["workloads"]]
    for metric in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in CATALOGUE["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CATALOGUE["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for workload in CATALOGUE["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in CATALOGUE["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CATALOGUE["end_to_end"])


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_every_metric_is_reported_with_its_unit(name, twice):
    for run, traced, untraced in twice(name):
        assert run.failed == 0, run.failures
        for line, wanted in (
            (traced, CATALOGUE["per_layer"]),
            (untraced, CATALOGUE["end_to_end"]),
        ):
            assert line["correct"] and line["failed"] == 0
            assert line["attempted"] >= 1
            assert set(line["metrics"]) == {m["name"] for m in wanted}
            for metric in wanted:
                reported = line["metrics"][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert isinstance(reported["value"], float)
        for metric, value in untraced["metrics"].items():
            assert value["value"] > 0, metric
        for metric in EXERCISED[name] + ("trace.spans",):
            assert traced["metrics"][metric]["value"] > 0, metric


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_simulated_metrics_repeat_exactly(name, twice):
    (_, t1, u1), (_, t2, u2) = twice(name)
    assert u1["metrics"]["kernel_gflops"] == u2["metrics"]["kernel_gflops"]
    for metric in DETERMINISTIC:
        assert t1["metrics"][metric] == t2["metrics"][metric], metric


def test_cold_compile_never_simulates(twice):
    (_, traced, _), _ = twice("cold-compile")
    assert traced["metrics"]["simulator.chunks"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails fast and prints
    no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.xfail(
    strict=True,
    raises=InvalidDMAError,
    reason="known defect: schedule rewrites price transposed operands "
    "untransposed (perfbench/README.md); when this passes, let "
    "cold-compile's optimize cell draw transposed kinds again",
)
def test_transposed_gemm_compiles_under_optimize_schedule():
    from repro import GemmSpec, TileConfig, api

    api.compile(
        GemmSpec(trans_b=True),
        schedule="optimize",
        tile_config=TileConfig(64, 64, 8, buffer_depth=2, k_strip=8),
    )
