"""Deterministic fault-injection plane and recovery policies.

The simulator of §§4-6 assumes a perfect machine: every ``dma_iget`` /
``dma_iput`` reply lands, every ``rma_row_ibcast`` / ``rma_col_ibcast``
delivers bit-exact payloads, every compile finishes.  Real Sunway-scale
runs treat transfer faults, lost replies and corrupted artifacts as
routine, so this module adds the missing half of the robustness story:

* :class:`FaultPolicy` — *what* to inject and at which rates: transient
  DMA/RMA failures, payload corruption, dropped reply counters,
  latency spikes, artifact corruption, worker crashes and hangs.  The
  policy is a frozen dataclass so it can ride on
  :class:`~repro.core.options.CompilerOptions` (and therefore on every
  entry point — executor, simulator, compile service, CLI) without
  breaking hashing or caching.
* :class:`RetryPolicy` — *how* the stack recovers: bounded retries with
  exponential backoff, charged in simulated time so degraded runs show
  up in the measured schedule.
* :class:`FaultInjector` — the seed-driven random source.  Every
  subsystem draws from its own named stream (``fork``), so two runs with
  the same seed inject the identical fault sequence regardless of how
  other subsystems consumed randomness — the chaos suite relies on this
  to assert bit-exact, reproducible results under ≥5 % fault rates.
* :func:`tile_checksum` — the end-to-end integrity check.  DMA records a
  checksum when a tile lands in SPM; the RMA engine re-verifies it
  before broadcasting and after every receiver copy, turning silent
  corruption into either a transparent retry or a diagnostic
  :class:`~repro.errors.DataIntegrityError`.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "FaultPolicy",
    "RetryPolicy",
    "FaultInjector",
    "tile_checksum",
]


def tile_checksum(view: np.ndarray) -> int:
    """CRC32 over the raw bytes of a tile (or tile prefix)."""
    return zlib.crc32(np.ascontiguousarray(view).tobytes())


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultPolicy:
    """What the injection plane does to one run.

    All rates are per-message probabilities.  ``enabled=False`` (the
    default) turns every injection site off — the watchdog and checksum
    *recovery* machinery stays available regardless, because a policy
    only decides what to break, never what to detect.
    """

    #: Master switch for every probabilistic injection site.
    enabled: bool = False
    #: Seed of the deterministic fault streams.
    seed: int = 0
    #: Transient failure of one DMA message (retried by the engine).
    dma_fault_rate: float = 0.0
    #: Transient failure of one RMA broadcast (retried by the engine).
    rma_fault_rate: float = 0.0
    #: Payload corruption of a delivered tile.  With ``checksums`` on the
    #: engines detect and repair it; without, it silently lands — exactly
    #: the failure mode the reproduction must *demonstrate* detecting.
    corruption_rate: float = 0.0
    #: A transfer completes but its reply counter never increments; the
    #: executor watchdog turns the resulting stall into a diagnostic
    #: :class:`~repro.errors.SynchronizationError`.
    reply_drop_rate: float = 0.0
    #: Probability that one transfer takes ``latency_spike_factor``× its
    #: modelled time (congestion / ECC-retry spikes).
    latency_spike_rate: float = 0.0
    latency_spike_factor: float = 8.0
    #: Probability that an artifact-store write lands truncated on disk.
    artifact_corruption_rate: float = 0.0
    #: Probability that one isolated compile hard-crashes its worker
    #: subprocess (``SystemExit`` mid-codegen — the segfault-equivalent
    #: the serving daemon's process isolation must contain).
    compile_crash_rate: float = 0.0
    #: Probability that one isolated compile hangs for
    #: ``compile_hang_s`` wall-clock seconds before doing any work, so
    #: the daemon's per-job deadline must hard-kill the worker.
    compile_hang_rate: float = 0.0
    compile_hang_s: float = 30.0
    #: End-to-end tile checksums across DMA→RMA hops.
    checksums: bool = False
    #: Virtual seconds a reply wait may stall while the rest of the mesh
    #: advances before the executor watchdog raises (0 disables the
    #: timeout path; the lost-reply detector still fires).
    watchdog_timeout_s: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "dma_fault_rate",
            "rma_fault_rate",
            "corruption_rate",
            "reply_drop_rate",
            "latency_spike_rate",
            "artifact_corruption_rate",
            "compile_crash_rate",
            "compile_hang_rate",
        ):
            _check_rate(name, getattr(self, name))
        if self.compile_hang_s < 0:
            raise ConfigurationError(
                f"compile_hang_s must be >= 0, got {self.compile_hang_s}"
            )
        if self.latency_spike_factor < 1.0:
            raise ConfigurationError(
                f"latency_spike_factor must be >= 1, got {self.latency_spike_factor}"
            )
        if self.watchdog_timeout_s < 0:
            raise ConfigurationError(
                f"watchdog_timeout_s must be >= 0, got {self.watchdog_timeout_s}"
            )

    @staticmethod
    def chaos(seed: int = 0, rate: float = 0.05) -> "FaultPolicy":
        """The documented chaos profile: ``rate`` transient faults on every
        transfer plane, the same rate of latency spikes, half of it as
        payload corruption — with checksums on so every corruption is
        repaired.  Bit-exact results under this policy are the chaos
        suite's acceptance bar."""
        return FaultPolicy(
            enabled=True,
            seed=seed,
            dma_fault_rate=rate,
            rma_fault_rate=rate,
            corruption_rate=rate / 2,
            latency_spike_rate=rate,
            checksums=True,
        )

    def with_(self, **overrides) -> "FaultPolicy":
        from dataclasses import replace

        return replace(self, **overrides)

    # -- wire format (the serving protocol ships policies per request) ------

    def to_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "FaultPolicy":
        return FaultPolicy(**data)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff, in simulated seconds."""

    #: Retries *after* the first attempt; the attempt budget is
    #: ``max_retries + 1``.
    max_retries: int = 3
    #: Backoff before the first retry.
    backoff_base_s: float = 1e-6
    #: Multiplier applied per further retry.
    backoff_factor: float = 2.0
    #: Cap on any single backoff interval.
    backoff_max_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff intervals must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based), capped."""
        return min(
            self.backoff_base_s * self.backoff_factor ** max(0, attempt),
            self.backoff_max_s,
        )

    def with_(self, **overrides) -> "RetryPolicy":
        from dataclasses import replace

        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, object]:
        from dataclasses import asdict

        return asdict(self)

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "RetryPolicy":
        return RetryPolicy(**data)


class FaultInjector:
    """Seed-driven deterministic randomness for one injection stream.

    Streams are derived from ``(policy.seed, stream name)`` through
    :class:`random.Random`'s string seeding (SHA-512 based — stable
    across processes and ``PYTHONHASHSEED``), so the DMA engine, the RMA
    engine and the artifact store each replay their own identical fault
    sequence for a given seed no matter how many draws the others make.
    """

    def __init__(self, policy: FaultPolicy, stream: str = "root") -> None:
        self.policy = policy
        self.stream = stream
        self._rng = random.Random(f"swgemm-faults/{policy.seed}/{stream}")
        #: injected events per site, for reports and tests
        self.counts: Dict[str, int] = {}

    def fork(self, stream: str) -> "FaultInjector":
        """A child injector with an independent deterministic stream."""
        return FaultInjector(self.policy, f"{self.stream}/{stream}")

    # -- draws ---------------------------------------------------------------

    def _hit(self, rate: float, site: str) -> bool:
        if not self.policy.enabled or rate <= 0.0:
            return False
        hit = self._rng.random() < rate
        if hit:
            self.counts[site] = self.counts.get(site, 0) + 1
        return hit

    def transfer_fault(self, site: str) -> bool:
        """Transient failure of one message on ``site`` ("dma"/"rma")."""
        rate = {
            "dma": self.policy.dma_fault_rate,
            "rma": self.policy.rma_fault_rate,
        }.get(site, 0.0)
        return self._hit(rate, f"{site}_fault")

    def corrupts(self, site: str) -> bool:
        return self._hit(self.policy.corruption_rate, f"{site}_corruption")

    def drops_reply(self, site: str) -> bool:
        return self._hit(self.policy.reply_drop_rate, f"{site}_reply_drop")

    def compile_crash(self) -> bool:
        """One isolated compile hard-crashes its worker subprocess."""
        return self._hit(self.policy.compile_crash_rate, "compile_crash")

    def compile_hang(self) -> bool:
        """One isolated compile stalls past its wall-clock deadline."""
        return self._hit(self.policy.compile_hang_rate, "compile_hang")

    def latency_factor(self, site: str) -> float:
        if self._hit(self.policy.latency_spike_rate, f"{site}_latency_spike"):
            return self.policy.latency_spike_factor
        return 1.0

    # -- payload mutation ----------------------------------------------------

    def corrupt_tile(
        self, flat: np.ndarray, positions: Optional[Sequence[int]] = None
    ) -> int:
        """Flip one element of ``flat`` (restricted to ``positions`` when
        given, e.g. the strided footprint of a ``dma_iput``).  Returns the
        corrupted index; the perturbation always changes the value."""
        if positions is not None:
            index = int(positions[self._rng.randrange(len(positions))])
        else:
            index = self._rng.randrange(flat.size)
        flat[index] += 1.0 + abs(flat[index])
        return index

    def corrupt_artifact(self, path) -> bool:
        """Truncate an on-disk artifact at ``artifact_corruption_rate``."""
        if not self._hit(self.policy.artifact_corruption_rate, "artifact_corruption"):
            return False
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
        return True
