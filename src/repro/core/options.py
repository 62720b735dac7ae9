"""Compiler options.

Mirrors the command-line surface described in §8: the compiler generates
athread code for one SW26010Pro cluster by default, ``--batch`` enables the
batched-GEMM path (Fig. 3), ``--no-use-asm`` bypasses the inline assembly
kernel and emits plain loop code.  The additional switches
(``enable_rma`` / ``enable_latency_hiding``) expose the intermediate code
variants of the performance breakdown (§8.1) — the paper's orange and
green bars — and the fusion modes of §7.3.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults import FaultPolicy, RetryPolicy
from repro.sunway.arch import ArchSpec, MicroKernelShape

FUSION_MODES = ("none", "prologue", "epilogue")

#: SIMD alignment every tile dimension must respect: the vector kernel
#: processes 8-double rows in 4-wide register groups, so tiles that are
#: not multiples of 4 cannot be register-blocked.
TILE_ALIGN = 4


@dataclass(frozen=True)
class TileConfig:
    """First-class tunable tile/pipeline configuration.

    The paper fixes the micro-kernel shape analytically at the arch's
    contract (§3.1 — 64×64×32 on SW26010Pro); the autotuner
    (:mod:`repro.tune`) instead searches this
    space.  A ``TileConfig`` carries the (X̂, Ŷ, Ẑ) tile sizes plus the
    two pipeline knobs that interact with them:

    * ``buffer_depth`` — SPM slots per input buffer.  ``None`` derives
      the depth from ``enable_latency_hiding`` (2 when hiding, else 1);
      an explicit 1 forces single buffering (and disables hiding during
      option reconciliation), an explicit 2 forces double buffering.
    * ``k_strip`` — the k-strip-mine factor.  ``None`` derives it from
      the RMA mode (mesh size with RMA, 1 without, §5.2); an explicit
      value must match that derivation or the plan is rejected — the
      field exists so search-space points are self-describing.
    """

    mt: int
    nt: int
    kt: int
    buffer_depth: Optional[int] = None
    k_strip: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in (("mt", self.mt), ("nt", self.nt), ("kt", self.kt)):
            if value <= 0 or value % TILE_ALIGN != 0:
                raise ConfigurationError(
                    f"tile {name}={value} must be a positive multiple of "
                    f"{TILE_ALIGN} (SIMD register blocking)"
                )
        if self.buffer_depth not in (None, 1, 2):
            raise ConfigurationError(
                f"buffer_depth={self.buffer_depth!r} must be None, 1 or 2"
            )
        if self.k_strip is not None and self.k_strip <= 0:
            raise ConfigurationError(
                f"k_strip={self.k_strip!r} must be None or positive"
            )

    def shape(self) -> MicroKernelShape:
        return MicroKernelShape(self.mt, self.nt, self.kt)

    def name(self) -> str:
        parts = [f"{self.mt}x{self.nt}x{self.kt}"]
        if self.buffer_depth is not None:
            parts.append(f"d{self.buffer_depth}")
        if self.k_strip is not None:
            parts.append(f"s{self.k_strip}")
        return "-".join(parts)

    def is_default_for(self, arch: "ArchSpec") -> bool:
        """True when this config pins exactly the arch's analytical
        default with derived pipeline knobs — such configs normalise to
        ``tile_config=None`` in cache keys."""
        mk = arch.micro_kernel
        return (
            (self.mt, self.nt, self.kt) == (mk.mt, mk.nt, mk.kt)
            and self.buffer_depth is None
            and self.k_strip is None
        )

    @staticmethod
    def default_for(arch: "ArchSpec") -> "TileConfig":
        mk = arch.micro_kernel
        return TileConfig(mt=mk.mt, nt=mk.nt, kt=mk.kt)

#: Element-wise functions available for fusion patterns.  ``quant`` is the
#: quantisation prologue over A and ``relu`` the activation epilogue over C
#: used in §8.4; the rest widen test coverage.
ELEMENTWISE_FUNCS = ("quant", "relu", "sigmoid", "tanh", "identity")

#: Schedule policy modes: "recipe" pins the fixed §6 pipeline, "optimize"
#: runs the schedule rewrite stack over it, "off" disables latency hiding
#: entirely (the §8.1 no-hiding ablation).
SCHEDULE_MODES = ("recipe", "optimize", "off")

#: The schedule rewrites, in canonical application order.  Defined here —
#: not in :mod:`repro.schedule` — so option validation needs nothing above
#: this module in the import graph; the rewrite registry in
#: ``repro.schedule.passes`` asserts it stays in sync.
SCHEDULE_PASS_NAMES = (
    "split-waits",
    "reorder-issues",
    "merge-transfers",
    "retire-waits",
)


@dataclass(frozen=True)
class SchedulePolicy:
    """Structured replacement for the boolean ``hiding`` knob sprawl.

    ``mode`` selects between the fixed recipe, the rewrite stack and no
    pipelining at all; ``allow``/``deny`` filter (and, for ``allow``,
    order) the rewrites that run in ``optimize`` mode.  Reconciliation
    (:func:`repro.core.passes.reconcile_options`) canonicalises policies
    so equivalent requests share cache keys: ``recipe`` and ``off``
    collapse into the legacy ``enable_latency_hiding`` bit and
    ``schedule=None``; a surviving ``optimize`` pins its resolved pass
    tuple explicitly.
    """

    mode: str = "recipe"
    #: Ordered allow-list of rewrites; empty means "all, canonical order".
    allow: Tuple[str, ...] = ()
    #: Rewrites removed from the allow set.
    deny: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in SCHEDULE_MODES:
            raise ConfigurationError(
                f"unknown schedule mode {self.mode!r}; expected one of "
                f"{SCHEDULE_MODES}"
            )
        # Serde round-trips hand back lists; coerce so policies stay
        # hashable (the simulator's chunk cache keys on options).
        for attr in ("allow", "deny"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
            for name in getattr(self, attr):
                if name not in SCHEDULE_PASS_NAMES:
                    raise ConfigurationError(
                        f"unknown schedule pass {name!r} in {attr}; "
                        f"known: {', '.join(SCHEDULE_PASS_NAMES)}"
                    )

    def pass_names(self) -> Tuple[str, ...]:
        """The rewrites that actually run, in order."""
        base = self.allow if self.allow else SCHEDULE_PASS_NAMES
        return tuple(name for name in base if name not in self.deny)

    @staticmethod
    def parse(value) -> Optional["SchedulePolicy"]:
        """Coerce a wire/CLI value into a policy.

        Accepts ``None`` (keep the default), a mode string, a mapping
        with ``mode``/``allow``/``deny`` keys, or a ready policy.
        """
        if value is None or isinstance(value, SchedulePolicy):
            return value
        if isinstance(value, str):
            return SchedulePolicy(mode=value)
        if isinstance(value, dict):
            unknown = set(value) - {"mode", "allow", "deny"}
            if unknown:
                raise ConfigurationError(
                    f"unknown schedule policy keys {sorted(unknown)}; "
                    "expected mode/allow/deny"
                )
            return SchedulePolicy(
                mode=value.get("mode", "recipe"),
                allow=tuple(value.get("allow", ()) or ()),
                deny=tuple(value.get("deny", ()) or ()),
            )
        raise ConfigurationError(
            f"cannot interpret {value!r} as a schedule policy; expected a "
            f"mode string {SCHEDULE_MODES}, a mode/allow/deny mapping, or a "
            "SchedulePolicy"
        )


@dataclass(frozen=True)
class CompilerOptions:
    """Immutable option set for one compilation."""

    #: Treat the input as batched GEMM (``--batch``).
    batch: bool = False
    #: Use the vendor inline assembly micro kernel (§7.2); ``False``
    #: corresponds to ``--no-use-asm``.
    use_asm: bool = True
    #: Share input tiles across the mesh with RMA broadcasts (§5).
    enable_rma: bool = True
    #: Two-level software pipelining + double buffering (§6).
    enable_latency_hiding: bool = True
    #: Fusion pattern: "none", "prologue" (quantisation of A) or
    #: "epilogue" (activation of C) — §7.3.
    fusion: str = "none"
    #: Element-wise function used by the fused prologue.
    prologue_func: str = "quant"
    #: Element-wise function used by the fused epilogue.
    epilogue_func: str = "relu"
    #: Tunable tile/pipeline configuration (``None`` = the arch's
    #: analytical default shape with derived pipeline knobs).  Set by the
    #: autotuner (:mod:`repro.tune`) or ``--tile MTxNTxKT`` explicitly.
    tile_config: Optional[TileConfig] = None
    #: Micro-kernel backend generating the compute kernel (``None`` =
    #: the vendor §7.2 contract; ``"parametric"`` = the register-tiled
    #: generator).  Resolved through
    #: :func:`repro.codegen.backend.get_backend`.
    kernel_backend: Optional[str] = None
    #: Fault-injection plane threaded through every entry point that
    #: consumes this option set (``--inject-faults`` / ``--fault-seed``).
    #: Runtime-only: excluded from cache keys, see
    #: :func:`repro.service.keys.cache_key`.
    fault_policy: Optional[FaultPolicy] = None
    #: Recovery behaviour for transient faults (``--max-retries``).
    retry_policy: Optional[RetryPolicy] = None
    #: Run the static safety verifier as the pipeline's terminal pass
    #: (``--no-verify`` disables it — the §8.1 ablation escape hatch).
    #: Normalised away in cache keys: verified and unverified compiles
    #: of the same request produce the same code.
    verify: bool = True
    #: Structured schedule policy (``--schedule``).  ``None`` means the
    #: legacy ``enable_latency_hiding`` bit decides between recipe and
    #: off; reconciliation collapses redundant policies back to ``None``
    #: so old and new spellings share cache keys.  Validation against
    #: ``enable_latency_hiding`` happens in reconciliation, not here —
    #: intermediate ``with_()`` states may be inconsistent.
    schedule: Optional[SchedulePolicy] = None

    def __post_init__(self) -> None:
        if self.fusion not in FUSION_MODES:
            raise ConfigurationError(
                f"unknown fusion mode {self.fusion!r}; expected one of {FUSION_MODES}"
            )
        if self.prologue_func not in ELEMENTWISE_FUNCS:
            raise ConfigurationError(f"unknown prologue func {self.prologue_func!r}")
        if self.epilogue_func not in ELEMENTWISE_FUNCS:
            raise ConfigurationError(f"unknown epilogue func {self.epilogue_func!r}")
        if self.enable_latency_hiding and not self.use_asm:
            # The paper's baseline (red bars) is DMA-only naive code; its
            # pipeline is only meaningful around the fast kernel.  Allowing
            # the combination would be harmless but would not correspond to
            # any measured variant, so reject it loudly.
            raise ConfigurationError(
                "enable_latency_hiding requires use_asm (the breakdown's "
                "baseline variant disables both)"
            )
        if self.kernel_backend is not None:
            # Lazy import: the backend registry lives above this module
            # in the import graph (codegen.backend → tile_model → here).
            from repro.codegen.backend import backend_names

            if self.kernel_backend not in backend_names():
                raise ConfigurationError(
                    f"unknown kernel backend {self.kernel_backend!r}; "
                    f"registered: {', '.join(backend_names())}"
                )

    # -- named variants of the §8.1 breakdown -------------------------------

    @staticmethod
    def baseline() -> "CompilerOptions":
        """Red bars: automatic DMA only, naive CPE loops."""
        return CompilerOptions(
            use_asm=False, enable_rma=False, enable_latency_hiding=False
        )

    @staticmethod
    def with_asm() -> "CompilerOptions":
        """Orange bars: + inline assembly micro kernel."""
        return CompilerOptions(
            use_asm=True, enable_rma=False, enable_latency_hiding=False
        )

    @staticmethod
    def with_rma() -> "CompilerOptions":
        """Green bars: + RMA broadcasts, latency hiding still off."""
        return CompilerOptions(
            use_asm=True, enable_rma=True, enable_latency_hiding=False
        )

    @staticmethod
    def full() -> "CompilerOptions":
        """Cyan bars: every optimisation on."""
        return CompilerOptions()

    def variant_name(self) -> str:
        if not self.use_asm:
            base = "dma-only"
        elif not self.enable_rma:
            base = "+asm"
        elif not self.enable_latency_hiding:
            base = "+rma"
        else:
            base = "+hiding"
        if self.schedule is not None and self.schedule.mode == "optimize":
            passes = self.schedule.pass_names()
            if passes == SCHEDULE_PASS_NAMES:
                base = f"{base}+sched"
            else:
                base = f"{base}+sched[{','.join(passes)}]"
        if self.tile_config is not None:
            base = f"{base}@{self.tile_config.name()}"
        if self.kernel_backend is not None:
            base = f"{base}#{self.kernel_backend}"
        return base

    def with_(self, **overrides) -> "CompilerOptions":
        return replace(self, **overrides)


_OPTION_FIELDS = frozenset(f.name for f in fields(CompilerOptions))


def coerce_options(
    options: Optional[CompilerOptions], overrides: Mapping[str, Any]
) -> CompilerOptions:
    """``options`` (default: :class:`CompilerOptions`) with user overrides.

    The one translation from user input to an option set: the facade's
    keyword overrides, the daemon's wire params and the CLI's flags all
    come through here.  Unknown names are rejected; ``schedule`` accepts
    anything :meth:`SchedulePolicy.parse` does.  Turning off the asm
    kernel or asking for ``schedule="off"`` derives latency hiding off
    (the pipeline only exists around the fast kernel) unless the caller
    set ``enable_latency_hiding`` explicitly.
    """
    unknown = set(overrides) - _OPTION_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown compiler option(s) {sorted(unknown)}; valid options "
            f"are {sorted(_OPTION_FIELDS)}"
        )
    overrides = dict(overrides)
    if "schedule" in overrides:
        overrides["schedule"] = SchedulePolicy.parse(overrides["schedule"])
    policy = overrides.get("schedule")
    if "enable_latency_hiding" not in overrides and (
        overrides.get("use_asm") is False
        or (policy is not None and policy.mode == "off")
    ):
        overrides["enable_latency_hiding"] = False
    base = options or CompilerOptions()
    return base.with_(**overrides) if overrides else base
