"""Guarded execution: replaying the static certificate at runtime.

A :class:`CertificateGuard` observes the executor: every event it
reports — a ``dma_iget``/``dma_iput`` footprint, an RMA broadcast, the
per-CPE buffer allocation — is checked against the certificate the
verifier issued at admission time.  Any divergence means the static analysis and the executed
program disagree about the kernel's data movement, which is exactly the
class of bug admission control exists to exclude; the guard fails
loudly with :class:`CertificateDivergenceError` instead of letting the
run continue on unproven behaviour.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CertificateDivergenceError, KernelAdmissionError


class CertificateGuard:
    """Cross-checks observed DMA/RMA/SPM events against a certificate."""

    def __init__(self, certificate: Dict[str, object], strict: bool = True) -> None:
        self.certificate = certificate
        self.strict = strict
        self.events = 0
        self.divergences: List[str] = []
        self._dma: Dict[str, Dict[str, int]] = dict(certificate.get("dma", {}))
        self._rma: Dict[str, Dict[str, int]] = dict(certificate.get("rma", {}))
        self._spm_bytes: Optional[int] = certificate.get("spm_bytes")

    @classmethod
    def from_program(cls, program, strict: bool = True) -> "CertificateGuard":
        """Build a guard from a program's attached verification report.

        Guarded execution refuses programs without a passing report —
        running unverified code in guarded mode would be contradictory."""
        report = getattr(program, "verification", None)
        if report is None:
            raise KernelAdmissionError(
                "guarded execution requires a verified program; this one "
                "carries no VerificationReport (compiled with --no-verify?)"
            )
        if not report.ok or report.certificate is None:
            raise KernelAdmissionError(
                "guarded execution requires a passing VerificationReport",
                report=report,
            )
        return cls(report.certificate, strict=strict)

    # -- event hooks (called by the executor) -------------------------------

    def on_dma(self, direction: str, buffer: str, size: int, length: int) -> None:
        self.events += 1
        key = f"{direction}:{buffer}"
        entry = self._dma.get(key)
        if entry is None:
            self._diverge(
                f"DMA {direction} on buffer {buffer!r} has no admitted "
                f"transfer in the certificate (admitted: {sorted(self._dma)})"
            )
        elif int(entry["size"]) != int(size) or int(entry["len"]) != int(length):
            self._diverge(
                f"DMA {direction} on {buffer!r}: observed size={size} "
                f"len={length}, certificate admitted size={entry['size']} "
                f"len={entry['len']}"
            )

    def on_rma(self, kind: str, src: str, dst: str, size: int) -> None:
        self.events += 1
        key = f"{kind}:{src}->{dst}"
        entry = self._rma.get(key)
        if entry is None:
            self._diverge(
                f"RMA {kind} broadcast {src!r} -> {dst!r} has no admitted "
                f"transfer in the certificate (admitted: {sorted(self._rma)})"
            )
        elif int(entry["size"]) != int(size):
            self._diverge(
                f"RMA {kind} broadcast {src!r} -> {dst!r}: observed "
                f"size={size}, certificate admitted size={entry['size']}"
            )

    def on_spm(self, owner: str, used_bytes: int) -> None:
        self.events += 1
        if self._spm_bytes is not None and used_bytes != self._spm_bytes:
            self._diverge(
                f"SPM allocation on {owner}: {used_bytes} B used, "
                f"certificate admitted {self._spm_bytes} B"
            )

    # -- internals ----------------------------------------------------------

    def _diverge(self, message: str) -> None:
        self.divergences.append(message)
        if self.strict:
            raise CertificateDivergenceError(
                f"certificate divergence: {message}"
            )
