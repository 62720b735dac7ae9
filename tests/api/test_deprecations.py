"""No deprecated surface: the pre-facade shims are gone, and the real
homes of the compiler, the executor and the service never warn."""

import importlib
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.service import CompileService, ServiceConfig
from repro.sunway.arch import TOY_ARCH

SRC = Path(repro.__file__).resolve().parent


def test_internal_spellings_do_not_warn():
    from repro.codegen.backend import resolve_kernel
    from repro.core.pipeline import GemmCompiler
    from repro.runtime.executor import run_gemm

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        program = GemmCompiler(TOY_ARCH).compile(repro.GemmSpec())
        c, report = run_gemm(
            program, np.ones((32, 16)), np.ones((16, 32)), beta=0.0
        )
        CompileService(ServiceConfig(enabled=False))
        resolve_kernel(TOY_ARCH, repro.CompilerOptions())
    assert np.allclose(c, np.ones((32, 16)) @ np.ones((16, 32)))


def test_deprecated_entry_points_are_gone():
    import repro.service

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.compat")
    for name in ("GemmCompiler", "run_gemm"):
        assert not hasattr(repro, name)
    assert not hasattr(repro.service, "KernelService")
    assert not hasattr(CompileService, "compile")


def test_no_deprecation_warnings_in_the_package():
    offenders = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "DeprecationWarning" in path.read_text()
    ]
    assert offenders == []
