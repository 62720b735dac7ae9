"""The pass-pipeline introspection surface of the swgemm CLI —
``swgemm passes list``, ``--print-after``, ``--dump-ir`` — and the
option flags every subcommand translates through the facade's
coercion."""

import pytest

from repro import CompileService, ServiceConfig, api, cache_key
from repro.cli import main
from repro.core import CompilerOptions, GemmSpec
from repro.core.pipeline import GemmCompiler
from repro.frontend import extract_spec
from repro.sunway.arch import SW26010PRO

BATCHED_GEMM_C = """\
void bgemm(int BS, int M, int N, int K, double A[BS][M][K],
           double B[BS][K][N], double C[BS][M][N]) {
  for (int b = 0; b < BS; b++)
    for (int i = 0; i < M; i++)
      for (int j = 0; j < N; j++)
        for (int k = 0; k < K; k++)
          C[b][i][j] += A[b][i][k] * B[b][k][j];
}
"""

EPILOGUE_GEMM_C = """\
void gemm(int M, int N, int K, double alpha,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      C[i][j] = sigmoid(C[i][j]);
}
"""

TRANSPOSED_A_GEMM_C = """\
void gemm(int M, int N, int K, double A[K][M], double B[K][N], double C[M][N]) {
  for (int i = 0; i < M; i++)
    for (int j = 0; j < N; j++)
      for (int k = 0; k < K; k++)
        C[i][j] += A[k][i] * B[k][j];
}
"""

DEFAULT_PIPELINE = [
    "dependence-analysis",
    "tile-selection",
    "compute-decomposition",
    "dma-derivation",
    "rma-derivation",
    "micro-kernel-mark",
    "latency-hiding",
    "ast-generation",
    "verify",
]


def read_tree(directory):
    return {p.name: p.read_text() for p in directory.iterdir() if p.is_file()}


def test_passes_list_default(capsys):
    assert main(["passes", "list"]) == 0
    out = capsys.readouterr().out
    assert "pass pipeline for variant '+hiding'" in out
    assert f"({len(DEFAULT_PIPELINE)} passes" in out
    for name in DEFAULT_PIPELINE:
        assert name in out
    assert "§6" in out  # paper sections are shown


def test_passes_list_variants(tmp_path, capsys):
    src = tmp_path / "bgemm.c"
    src.write_text(BATCHED_GEMM_C)
    assert main(["passes", "list", str(src)]) == 0
    out = capsys.readouterr().out
    assert "batch-isolation" in out
    assert "+batch" in out or "batch" in out
    assert main(["passes", "list", "--no-rma"]) == 0
    assert "rma-derivation" not in capsys.readouterr().out
    # Flags edit the options the source implies; they never drop them.
    assert main(["passes", "list", str(src), "--no-rma"]) == 0
    out = capsys.readouterr().out
    assert "batch-isolation" in out and "rma-derivation" not in out
    assert main(["passes", "list", "--schedule=off"]) == 0
    out = capsys.readouterr().out
    assert "latency-hiding" not in out
    assert "communication-schedule" in out


def test_print_after_all_emits_one_snapshot_per_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compile", "-o", str(out), "--print-after", "all"]) == 0
    text = capsys.readouterr().out
    for index, name in enumerate(DEFAULT_PIPELINE, start=1):
        marker = f";; ---- IR after {index}/{len(DEFAULT_PIPELINE)}: {name}"
        assert text.count(marker) == 1, marker
    assert text.count(";; ---- IR after") == len(DEFAULT_PIPELINE)
    # Introspection still produces the normal outputs.
    assert (out / "gemm_cpe.c").exists()
    assert "code generation took" in text
    # Per-pass timing table accompanies the total.
    for name in DEFAULT_PIPELINE:
        assert f"  {name}" in text


def test_print_after_single_pass(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["compile", "-o", str(out), "--print-after", "tile-selection"]
    ) == 0
    text = capsys.readouterr().out
    assert text.count(";; ---- IR after") == 1
    assert "tile-selection" in text
    assert "--- schedule tree ---" in text


def test_print_after_unknown_pass_fails(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(
        ["compile", "-o", str(out), "--print-after", "no-such-pass"]
    ) != 0


def test_dump_ir_writes_one_file_per_pass(tmp_path):
    out = tmp_path / "out"
    ir = tmp_path / "ir"
    assert main(["compile", "-o", str(out), "--dump-ir", str(ir)]) == 0
    files = sorted(p.name for p in ir.iterdir())
    # One snapshot per pass, plus the final communication timeline of
    # the double-buffered plan.
    expected = [
        f"{i:02d}-{name}.txt"
        for i, name in enumerate(DEFAULT_PIPELINE, start=1)
    ]
    expected.append(f"{len(DEFAULT_PIPELINE) + 1:02d}-schedule-timeline.txt")
    assert files == expected
    for path in ir.iterdir():
        if path.name.endswith("schedule-timeline.txt"):
            assert path.read_text().startswith("timeline:")
        else:
            assert "--- schedule tree ---" in path.read_text()


def test_schedule_off_matches_ablation_byte_exactly(tmp_path):
    """``--schedule=off`` writes exactly the §8.1 no-hiding ablation
    (:meth:`CompilerOptions.with_rma`), byte for byte."""
    out = tmp_path / "off"
    assert main(["compile", "-o", str(out), "--schedule=off"]) == 0
    ablation = GemmCompiler(SW26010PRO, CompilerOptions.with_rma()).compile(
        GemmSpec()
    )
    assert read_tree(out) == {
        "gemm_cpe.c": ablation.cpe_source(),
        "gemm_mpe.c": ablation.mpe_source(),
    }


@pytest.mark.parametrize(
    "source", [BATCHED_GEMM_C, EPILOGUE_GEMM_C], ids=["batched", "epilogue"]
)
@pytest.mark.parametrize(
    "flag, override",
    [("--no-rma", {"enable_rma": False}), ("--no-use-asm", {"use_asm": False})],
    ids=["no-rma", "no-use-asm"],
)
def test_option_flags_match_the_facade_cache_key(tmp_path, source, flag, override):
    """A CLI flag on a batched or fused source compiles, under the key
    the facade gives the same source and override: both translate
    through one coercion on top of the options the source implies."""
    src = tmp_path / "gemm.c"
    src.write_text(source)
    cache = tmp_path / "cache"
    assert main([
        "--cache-dir", str(cache), "compile", str(src), flag,
        "-o", str(tmp_path / "out"),
    ]) == 0
    cli_keys = {
        path.stem for path in cache.rglob("*.json") if len(path.stem) == 64
    }
    spec, inferred = extract_spec(source, return_options=True)
    program = api.compile(
        spec, options=inferred,
        service=CompileService(ServiceConfig(enabled=False)), **override,
    )
    assert cli_keys == {cache_key(spec, SW26010PRO, program.options)}


@pytest.mark.parametrize(
    "source",
    [EPILOGUE_GEMM_C, BATCHED_GEMM_C, TRANSPOSED_A_GEMM_C],
    ids=["sigmoid-epilogue", "batched", "transposed-a"],
)
def test_run_checks_the_kernel_the_source_describes(tmp_path, capsys, source):
    """``run`` draws operands in the source's layout (batched, transposed)
    and checks against its fused reference, like the daemon's run op."""
    src = tmp_path / "gemm.c"
    src.write_text(source)
    assert main([
        "--cache-dir", str(tmp_path / "cache"), "run", str(src),
        "--arch", "toy", "-M", "64", "-N", "64", "-K", "32",
    ]) == 0
    out = capsys.readouterr().out
    error = float(out.split("max |C - reference| = ")[1].split()[0])
    assert error < 1e-8


def test_tree_supports_print_after(capsys):
    assert main(["tree", "--print-after", "dma-derivation"]) == 0
    out = capsys.readouterr().out
    assert ";; ---- IR after" in out
    assert "dma-derivation" in out
