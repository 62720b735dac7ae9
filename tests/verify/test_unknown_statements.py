"""Statements the CPE interpreter has no semantics for are refused.

The verifier's ledger and the executor run the same walker, so a
statement type or ``CommStmt`` kind the walker does not know must fail
verification with a witness naming it, exactly as execution fails on it.
"""

from dataclasses import dataclass

import pytest

from repro.core import CompilerOptions, GemmCompiler, GemmSpec
from repro.errors import KernelAdmissionError, UnknownStatementError
from repro.poly.astnodes import CommStmt, Stmt
from repro.runtime.executor import Executor
from repro.sunway.arch import TOY_ARCH
from repro.verify import FAILED, PASSED, admit, verify_program


@dataclass
class MysteryStmt(Stmt):
    """A statement type no backend knows."""


def tampered(stmt):
    program = GemmCompiler(TOY_ARCH, CompilerOptions.full()).compile(GemmSpec())
    program.cpe_program.body.body.insert(0, stmt)
    return program


def test_unknown_comm_kind_fails_rma_discipline():
    report = verify_program(tampered(CommStmt("dma_teleport", {})))
    assert not report.ok
    check = report.check("rma-discipline")
    assert check.status == FAILED
    assert check.witness["violation"] == "unknown-statement"
    assert check.witness["kind"] == "dma_teleport"
    assert "dma_teleport" in check.witness["detail"]
    with pytest.raises(KernelAdmissionError, match="rma-discipline"):
        admit(report)


def test_unknown_statement_type_fails_hazard_check():
    report = verify_program(tampered(MysteryStmt()))
    check = report.check("double-buffer-hazards")
    assert check.status == FAILED
    assert check.witness["violation"] == "unknown-statement"
    assert check.witness["statement"] == "MysteryStmt"
    assert report.check("rma-discipline").status == PASSED


def test_executor_rejects_the_same_statements():
    for stmt in (CommStmt("dma_teleport", {}), MysteryStmt()):
        program = tampered(stmt)
        with pytest.raises(UnknownStatementError):
            Executor(program, move_data=False).run({"M": 16, "N": 16, "K": 8})
