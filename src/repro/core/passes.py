"""The instrumented pass-manager pipeline (§2.3 and §§3-7).

The paper's compiler is explicitly staged — dependence analysis, tile
selection, compute decomposition (§3), DMA derivation (§4), RMA
insertion (§5), latency hiding (§6), code generation (§7) — and this
module makes that staging a first-class, inspectable object instead of
one opaque ``compile`` function:

* a :class:`Pass` has a ``name``, the paper ``section`` it reproduces,
  and a ``run(ctx)`` over a shared mutable :class:`CompileContext`;
* :func:`build_pipeline` assembles the *variant-aware* pass list — the
  batched, fused, no-RMA and no-latency-hiding variants are pipeline
  edits (extra or swapped passes), not branches buried inside passes;
* :class:`PassManager` executes the list with per-pass wall time, a
  schedule-tree/IR snapshot after every pass (the print-after-all
  introspection production polyhedral compilers like PPCG expose), and
  structured :class:`~repro.core.diagnostics.PassDiagnostic` records;
* :func:`pipeline_identity` hashes the pass list so the compilation
  service's cache keys change whenever the pipeline changes.

Disabling a pass is an *options rewrite* followed by a pipeline rebuild:
``--disable-pass latency-hiding`` yields exactly the compiler the §8.1
no-hiding ablation uses, bit for bit, because both construct the same
effective option set and therefore the same pipeline.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CompilationError, CompileTimeout, ConfigurationError
from repro.core.decomposition import (
    Decomposition,
    _check_parallelism,
    decompose,
)
from repro.core.diagnostics import PassDiagnostic, PassStat
from repro.core.dma import DmaSpec, derive_dma_specs
from repro.core.latency_hiding import insert_communication
from repro.core.lowering import MICRO_KERNEL_MARK, GemmLowering
from repro.core.options import (
    ELEMENTWISE_FUNCS,
    SCHEDULE_PASS_NAMES,
    CompilerOptions,
    SchedulePolicy,
)
from repro.core.rma import RmaSpec, derive_rma_specs
from repro.core.spec import GemmSpec
from repro.core.tile_model import TilePlan, plan_for_kernel
from repro.codegen.backend import resolve_kernel
from repro.poly.affine import aff_const, aff_var
from repro.poly.astgen import AstGenerator
from repro.poly.astnodes import BufferDecl, CpeProgram, ReplyDecl, walk_stmts
from repro.poly.dependences import DependenceSummary, analyze_statement
from repro.poly.schedule_tree import parent_map
from repro.poly.transforms import insert_mark
from repro.sunway.arch import ArchSpec

#: Bump to invalidate every pipeline identity (and with it every service
#: cache key) when the pass contract itself changes shape.
PIPELINE_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Option reconciliation (spec-driven variant selection)
# ---------------------------------------------------------------------------


def reconcile_options(
    spec: GemmSpec,
    options: CompilerOptions,
    arch: Optional["ArchSpec"] = None,
) -> CompilerOptions:
    """The canonical option set for ``(spec, options)``.

    The spec is authoritative for everything it states: a batched spec
    requires the ``--batch`` flag, fusion follows the spec's
    prologue/epilogue functions, and knobs that cannot affect the
    generated code (an unused fusion function, a batch flag without a
    batch dimension) are normalised away.  The result is what the
    pipeline compiles with, what lands on the compiled program, **and**
    what the service hashes into its cache key — so two requests that
    can only ever produce the same kernel share one artifact, and
    requests that differ (fused vs unfused specs) never collide.

    With ``arch`` supplied, the tile configuration is normalised too: a
    config pinning exactly the arch's analytical default collapses to
    ``tile_config=None``, and redundant pipeline knobs (a
    ``buffer_depth``/``k_strip`` equal to what the options/arch already
    derive) are cleared — so an autotuned point that happens to restate
    the defaults addresses the same artifact as a plain request.  An
    arch without an RMA fabric also clears ``enable_rma`` (on SW26010
    the flag cannot select any code path), so default requests compile
    on every registered arch.
    """
    if spec.is_batched and not options.batch:
        raise CompilationError(
            "batched input requires the --batch compiler option"
        )
    if not spec.is_batched and options.batch:
        # The batch flag is inert without a batch dimension.
        options = options.with_(batch=False)

    if spec.prologue_func:
        if (
            options.fusion != "prologue"
            or options.prologue_func != spec.prologue_func
        ):
            options = options.with_(
                fusion="prologue", prologue_func=spec.prologue_func
            )
    elif options.fusion == "prologue":
        raise CompilationError("prologue fusion requested but spec has none")

    if spec.epilogue_func:
        if (
            options.fusion != "epilogue"
            or options.epilogue_func != spec.epilogue_func
        ):
            options = options.with_(
                fusion="epilogue", epilogue_func=spec.epilogue_func
            )
    elif options.fusion == "epilogue":
        raise CompilationError("epilogue fusion requested but spec has none")

    # Normalise the unused fusion function slots to their defaults: the
    # lowering reads the *spec's* functions, so these cannot change the
    # generated code and must not fragment the cache.
    defaults = CompilerOptions()
    if options.fusion != "prologue" and options.prologue_func != defaults.prologue_func:
        options = options.with_(prologue_func=defaults.prologue_func)
    if options.fusion != "epilogue" and options.epilogue_func != defaults.epilogue_func:
        options = options.with_(epilogue_func=defaults.epilogue_func)

    # The kernel backend only matters on the assembly path (the scalar
    # variant models swgcc's naive loop nest — no generator involved),
    # and "vendor" restates the default — both collapse to None so
    # kernel-identical requests share one artifact.
    if options.kernel_backend is not None and (
        not options.use_asm or options.kernel_backend == "vendor"
    ):
        options = options.with_(kernel_backend=None)

    if arch is not None and options.enable_rma and not arch.rma_supported:
        options = options.with_(enable_rma=False)

    cfg = options.tile_config
    if cfg is not None:
        # An explicit single-buffer depth overrides latency hiding (it is
        # the more specific tuner knob); an explicit depth of 2 without
        # hiding has no pipeline to feed, so it is derived away.
        if cfg.buffer_depth == 1 and options.enable_latency_hiding:
            options = options.with_(enable_latency_hiding=False)
        if cfg.buffer_depth is not None:
            # Once hiding is resolved the depth is fully derived (2 with
            # hiding, else 1), so the explicit field is always redundant.
            cfg = replace(cfg, buffer_depth=None)
        if arch is not None:
            derived_strip = (
                arch.mesh_rows
                if options.enable_rma and arch.rma_supported
                else 1
            )
            if cfg.k_strip == derived_strip:
                cfg = replace(cfg, k_strip=None)
            if cfg.is_default_for(arch):
                cfg = None
        if cfg is not options.tile_config:
            options = options.with_(tile_config=cfg)

    # The structured schedule policy is canonicalised last, once the
    # legacy hiding bit has settled: "off" folds into that bit, "recipe"
    # restates the default, and an "optimize" that cannot run (no
    # pipeline to rewrite, or an empty pass set) collapses too — so
    # every spelling of the same pipeline shares one cache key, and a
    # surviving policy pins its resolved pass tuple explicitly.
    policy = options.schedule
    if policy is not None:
        if policy.mode == "off":
            options = options.with_(enable_latency_hiding=False, schedule=None)
        elif policy.mode == "recipe":
            options = options.with_(schedule=None)
        elif not options.enable_latency_hiding or not policy.pass_names():
            options = options.with_(schedule=None)
        else:
            canonical = SchedulePolicy(
                mode="optimize", allow=policy.pass_names()
            )
            if canonical != policy:
                options = options.with_(schedule=canonical)
    return options


# ---------------------------------------------------------------------------
# The shared compilation state
# ---------------------------------------------------------------------------


@dataclass
class CompileContext:
    """Mutable state threaded through the pass pipeline.

    Passes read what earlier passes produced and publish their own
    results here; the manager records a snapshot of this context after
    every pass.
    """

    spec: GemmSpec
    arch: ArchSpec
    options: CompilerOptions

    summary: Optional[DependenceSummary] = None
    plan: Optional[TilePlan] = None
    decomposition: Optional[Decomposition] = None
    dma_specs: Optional[Dict[str, DmaSpec]] = None
    rma_specs: Optional[Dict[str, RmaSpec]] = None
    cpe_program: Optional[CpeProgram] = None
    #: the admission verifier's report (repro.verify.VerificationReport)
    verification: Optional[object] = None
    #: deterministic dump of the post-rewrite timeline (set by the
    #: schedule rewrite passes; None on recipe pipelines keeps their
    #: snapshots byte-identical to before the schedule IR existed)
    schedule_timeline: Optional[str] = None

    diagnostics: List[PassDiagnostic] = field(default_factory=list)
    stats: List[PassStat] = field(default_factory=list)
    #: pass name -> IR snapshot taken right after the pass ran
    snapshots: Dict[str, str] = field(default_factory=dict)
    current_pass: str = "<pipeline>"

    # -- diagnostics -------------------------------------------------------

    def diag(self, category: str, message: str) -> None:
        self.diagnostics.append(
            PassDiagnostic(self.current_pass, category, message)
        )

    def info(self, message: str) -> None:
        self.diag("info", message)

    def decide(self, message: str) -> None:
        self.diag("decision", message)

    def warn(self, message: str) -> None:
        self.diag("warning", message)

    def require(self, value, what: str):
        """Fetch a prerequisite produced by an earlier pass, loudly."""
        if value is None:
            raise CompilationError(
                f"pass {self.current_pass!r} requires {what}, which no "
                "earlier pass produced — the pipeline is mis-ordered"
            )
        return value

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> str:
        """Deterministic text rendering of the context state.

        The header lists every intermediate artifact present so far; the
        body is the schedule tree (the same printer the golden
        ``schedule_tree_full.txt`` locks down) once it exists.
        """
        spec = self.spec
        options = self.options
        lines = [
            f"spec: {spec.stmt_name} "
            f"{'batched ' if spec.is_batched else ''}{spec.dtype} "
            f"C={spec.c_name} A={spec.a_name}{'^T' if spec.trans_a else ''} "
            f"B={spec.b_name}{'^T' if spec.trans_b else ''}"
            + (f" prologue={spec.prologue_func}" if spec.prologue_func else "")
            + (f" epilogue={spec.epilogue_func}" if spec.epilogue_func else ""),
            f"options: variant={options.variant_name()} fusion={options.fusion} "
            f"batch={options.batch} use_asm={options.use_asm} "
            f"rma={options.enable_rma} hiding={options.enable_latency_hiding}",
            f"arch: {self.arch.name}",
        ]
        if self.summary is not None:
            parallel = [
                d for d, c in zip(self.summary.loop_dims, self.summary.coincident)
                if c
            ]
            lines.append(
                "dependences: parallel=[" + ",".join(parallel) + "] "
                f"permutable={self.summary.permutable} "
                "reductions=[" + ",".join(self.summary.reduction_dims) + "]"
            )
        if self.plan is not None:
            plan = self.plan
            lines.append(
                f"plan: tile={plan.mt}x{plan.nt}x{plan.kt} "
                f"chunk={plan.chunk_m}x{plan.chunk_n}x{plan.k_step} "
                f"rma={plan.use_rma} double_buffered={plan.double_buffered} "
                f"buffers=[{','.join(b.name for b in plan.buffers)}] "
                f"spm_bytes={plan.spm_bytes()}"
            )
        if self.dma_specs is not None:
            lines.append(
                "dma: "
                + " ".join(
                    f"{name}({spec.rows}x{spec.cols} {spec.direction} "
                    f"{spec.array}->{spec.buffer})"
                    if spec.direction == "get"
                    else f"{name}({spec.rows}x{spec.cols} {spec.direction} "
                    f"{spec.buffer}->{spec.array})"
                    for name, spec in self.dma_specs.items()
                )
            )
        if self.rma_specs is not None:
            lines.append(
                "rma: "
                + " ".join(
                    f"{name}({spec.kind}-bcast {spec.matrix} "
                    f"size={spec.size} owner={spec.owner_var})"
                    for name, spec in self.rma_specs.items()
                )
            )
        if self.cpe_program is not None:
            program = self.cpe_program
            lines.append(
                f"ast: kernel={program.kernel_name} "
                f"buffers={len(program.buffers)} replies={len(program.replies)} "
                f"statements={sum(1 for _ in walk_stmts(program.body))}"
            )
        if self.verification is not None:
            lines.append(f"verification: {self.verification.summary()}")
        tree = (
            self.decomposition.root.dump()
            if self.decomposition is not None
            else "<no schedule tree yet>"
        )
        timeline = (
            "\n--- schedule timeline ---\n" + self.schedule_timeline.rstrip("\n")
            if self.schedule_timeline
            else ""
        )
        return (
            "\n".join(lines)
            + timeline
            + "\n--- schedule tree ---\n"
            + tree
            + "\n"
        )


# ---------------------------------------------------------------------------
# The Pass protocol and the concrete passes
# ---------------------------------------------------------------------------


class Pass:
    """One stage of the compiler, mapped to the paper section it
    reproduces."""

    #: Stable identifier, used by ``--disable-pass`` / ``--print-after``.
    name: str = "<unnamed>"
    #: Paper section ("§3", "§4", ...).
    section: str = "§?"
    #: One-line description shown by ``swgemm passes list``.
    summary: str = ""

    def run(self, ctx: CompileContext) -> None:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Identity of the implementation, hashed into the pipeline id.

        Replacing a pass with a subclass (or a differently-parameterised
        instance) must change the id, so the default covers the concrete
        class; parameterised passes extend it.
        """
        cls = type(self)
        return f"{cls.__module__}.{cls.__qualname__}"


class DependenceAnalysisPass(Pass):
    name = "dependence-analysis"
    section = "§2.2"
    summary = "prove the outer loops parallel and the band permutable"

    def run(self, ctx: CompileContext) -> None:
        spec = ctx.spec
        summary = analyze_statement(
            spec.domain(), spec.accesses(), spec.loop_dims()
        )
        _check_parallelism(spec, summary)
        ctx.summary = summary
        parallel = [
            d for d, c in zip(summary.loop_dims, summary.coincident) if c
        ]
        ctx.decide(
            f"loops {','.join(parallel)} proven parallel; "
            f"reduction over {','.join(summary.reduction_dims) or 'none'}; "
            f"band permutable={summary.permutable}"
        )


class TileSelectionPass(Pass):
    name = "tile-selection"
    section = "§3.1"
    summary = "analytical tile sizes and the SPM buffer plan"

    def run(self, ctx: CompileContext) -> None:
        spec, options = ctx.spec, ctx.options
        plan = plan_for_kernel(
            ctx.arch,
            options,
            trans_a=spec.trans_a,
            trans_b=spec.trans_b,
            itemsize=spec.itemsize,
        )
        ctx.plan = plan
        ctx.decide(
            f"micro-kernel tile {plan.mt}x{plan.nt}x{plan.kt}, "
            f"mesh chunk {plan.chunk_m}x{plan.chunk_n}x{plan.k_step}, "
            f"{len(plan.buffers)} SPM buffers ({plan.spm_bytes()} B)"
        )
        if plan.use_rma:
            ctx.decide(
                f"RMA broadcasts enabled: each DMA'd tile is reused "
                f"{plan.mesh}x across its mesh row/column"
            )
        else:
            ctx.decide(
                "RMA disabled: every CPE fetches its own tiles from main "
                "memory (options.enable_rma="
                f"{options.enable_rma}, arch rma={ctx.arch.rma_supported})"
            )
        ctx.decide(
            "double buffering "
            + ("enabled (two slots per input buffer)" if plan.double_buffered
               else "disabled (single slot per buffer)")
        )


class ComputeDecompositionPass(Pass):
    name = "compute-decomposition"
    section = "§3"
    summary = "tile, bind the CPE mesh and strip-mine the reduction"

    def run(self, ctx: CompileContext) -> None:
        plan = ctx.require(ctx.plan, "a tile plan")
        summary = ctx.require(ctx.summary, "a dependence summary")
        dec = decompose(ctx.spec, plan, ctx.options, arch=ctx.arch,
                        summary=summary)
        ctx.decomposition = dec
        ctx.decide("bands: " + ", ".join(dec.bands))
        ctx.info(
            "reconstruction map covers "
            + ",".join(sorted(dec.reconstruction))
        )


class BatchIsolationPass(Pass):
    name = "batch-isolation"
    section = "§3/Fig. 3"
    summary = "verify the isolated, never-decomposed batch band"

    def run(self, ctx: CompileContext) -> None:
        dec = ctx.require(ctx.decomposition, "a decomposition")
        band = dec.bands.get("batch")
        if band is None:
            raise CompilationError(
                "batched spec but the decomposition has no batch band"
            )
        if band.permutable:
            raise CompilationError(
                "the batch band must not be permutable (it is never tiled)"
            )
        if dec.root.children[0] is not band:
            raise CompilationError(
                "the batch band must be outermost so the mesh is spawned "
                "only once (§8.3)"
            )
        ctx.decide(
            f"batch dimension {ctx.spec.batch_param!r} isolated outermost: "
            "each CPE iterates the batch sequentially, one mesh spawn total"
        )


class DmaDerivationPass(Pass):
    name = "dma-derivation"
    section = "§4"
    summary = "derive dma_iget/dma_iput argument lists from footprints"

    def run(self, ctx: CompileContext) -> None:
        dec = ctx.require(ctx.decomposition, "a decomposition")
        specs = derive_dma_specs(dec)
        ctx.dma_specs = specs
        for name, spec in specs.items():
            ctx.info(
                f"{name}: {spec.direction} {spec.array} "
                f"{spec.rows}x{spec.cols} via {spec.buffer} "
                f"(reply {spec.reply})"
            )


class RmaDerivationPass(Pass):
    name = "rma-derivation"
    section = "§5"
    summary = "row/column broadcast specs for SPM-to-SPM sharing"

    def run(self, ctx: CompileContext) -> None:
        dec = ctx.require(ctx.decomposition, "a decomposition")
        specs = derive_rma_specs(dec)
        ctx.rma_specs = specs
        for name, spec in specs.items():
            ctx.info(
                f"{name}: {spec.kind} broadcast of {spec.matrix} "
                f"({spec.size} elements, owner {spec.owner_var})"
            )


class _FusionPass(Pass):
    """Shared validation for the §7.3 post-tiling fusion patterns."""

    kind = "<fusion>"

    def _func(self, ctx: CompileContext) -> str:
        raise NotImplementedError

    def run(self, ctx: CompileContext) -> None:
        func = self._func(ctx)
        if func not in ELEMENTWISE_FUNCS:
            raise CompilationError(
                f"unknown {self.kind} function {func!r}; expected one of "
                f"{ELEMENTWISE_FUNCS}"
            )
        if ctx.options.fusion != self.kind:
            raise CompilationError(
                f"spec requests {self.kind} fusion but the reconciled "
                f"options say {ctx.options.fusion!r}"
            )


class PrologueFusionPass(_FusionPass):
    name = "prologue-fusion"
    section = "§7.3"
    summary = "fuse an element-wise prologue over freshly DMA'd A tiles"
    kind = "prologue"

    def _func(self, ctx: CompileContext) -> str:
        return ctx.spec.prologue_func or ""

    def run(self, ctx: CompileContext) -> None:
        super().run(ctx)
        ctx.decide(
            f"prologue {ctx.spec.prologue_func!r} will run on each A tile "
            "after its DMA wait (recomputed per fetch, Fig. 12a)"
        )


class EpilogueFusionPass(_FusionPass):
    name = "epilogue-fusion"
    section = "§7.3"
    summary = "fuse an element-wise epilogue over finished C tiles"
    kind = "epilogue"

    def _func(self, ctx: CompileContext) -> str:
        return ctx.spec.epilogue_func or ""

    def run(self, ctx: CompileContext) -> None:
        super().run(ctx)
        ctx.decide(
            f"epilogue {ctx.spec.epilogue_func!r} will run on each C tile "
            "before its put-back (Fig. 12b)"
        )


class MicroKernelMarkPass(Pass):
    name = "micro-kernel-mark"
    section = "§7.2"
    summary = "wrap the point band in the micro-kernel mark node"

    def run(self, ctx: CompileContext) -> None:
        dec = ctx.require(ctx.decomposition, "a decomposition")
        plan = dec.plan
        point = dec.bands["point"]
        parents = parent_map(dec.root)
        parent = parents.get(id(point))
        if parent is None:
            raise CompilationError("point band has no parent")
        if plan.use_rma:
            a_buffer, b_buffer = "local_A_bc", "local_B_bc"
            slot = aff_var("km").mod(2) if plan.double_buffered else aff_const(0)
        else:
            a_buffer, b_buffer = "local_A_dma", "local_B_dma"
            slot = aff_var("ktile").mod(2) if plan.double_buffered else aff_const(0)
        insert_mark(
            parent,
            point,
            MICRO_KERNEL_MARK,
            payload={
                "a_buffer": a_buffer,
                "a_slot": slot,
                "b_buffer": b_buffer,
                "b_slot": slot,
            },
        )
        kernel = resolve_kernel(ctx.arch, ctx.options, plan.kernel_shape)
        ctx.decide(
            f"point band marked for kernel {kernel.name} "
            f"(inputs {a_buffer}/{b_buffer})"
        )


class _CommunicationPass(Pass):
    """Base for the two communication-scheduling variants (§§4-6)."""

    def run(self, ctx: CompileContext) -> None:
        dec = ctx.require(ctx.decomposition, "a decomposition")
        dma_specs = ctx.require(ctx.dma_specs, "DMA specs")
        if dec.plan.use_rma:
            ctx.require(ctx.rma_specs, "RMA specs")
        insert_communication(dec, dma_specs, ctx.rma_specs)


class LatencyHidingPass(_CommunicationPass):
    name = "latency-hiding"
    section = "§6"
    summary = "two-level software pipeline: peel loops, double buffer"

    def run(self, ctx: CompileContext) -> None:
        plan = ctx.require(ctx.plan, "a tile plan")
        if not plan.double_buffered:
            raise CompilationError(
                "latency-hiding pass scheduled for a single-buffered plan; "
                "the pipeline builder should have used communication-schedule"
            )
        super().run(ctx)
        levels = "DMA prefetch behind the inner pipeline" + (
            "; RMA broadcast behind the micro kernel" if plan.use_rma else ""
        )
        ctx.decide(f"issue-ahead pipelining inserted ({levels})")


class CommunicationSchedulePass(_CommunicationPass):
    name = "communication-schedule"
    section = "§6/Fig. 9"
    summary = "schedule each transfer with its wait (no hiding)"

    def run(self, ctx: CompileContext) -> None:
        plan = ctx.require(ctx.plan, "a tile plan")
        if plan.double_buffered:
            raise CompilationError(
                "communication-schedule pass scheduled for a double-buffered "
                "plan; the pipeline builder should have used latency-hiding"
            )
        super().run(ctx)
        ctx.decide(
            "no latency hiding: every issue is scheduled together with its "
            "wait (the Fig. 9 grouping)"
        )


class ScheduleRewritePass(Pass):
    """One schedule rewrite from :mod:`repro.schedule`, run as a
    first-class pipeline pass (``--schedule=optimize`` schedules one of
    these per allowed rewrite, in policy order).

    The rewrite mutates a clone of the schedule tree, which is lowered,
    replayed on the verifier's ``ScheduleMachine`` and re-checked
    against the SPM budget before it replaces ``dec.root`` — an
    unproven candidate is dropped and the pass records why.  The
    rewrite name is part of the pass name (``schedule:<rewrite>``) and
    fingerprint, so pass sets and their order flow into the pipeline
    identity and hence the service cache keys.
    """

    section = "§6+"

    def __init__(self, rewrite: str) -> None:
        # Imported lazily to keep this module importable while
        # repro.schedule is mid-import (it lazily imports our helpers).
        from repro.schedule import REWRITES

        if rewrite not in REWRITES:
            raise ConfigurationError(
                f"unknown schedule rewrite {rewrite!r}; known: "
                f"{', '.join(REWRITES)}"
            )
        self.rewrite = rewrite
        self.name = f"schedule:{rewrite}"
        self.summary = REWRITES[rewrite].summary

    def run(self, ctx: CompileContext) -> None:
        from repro.schedule import apply_rewrite, extract_timeline

        dec = ctx.require(ctx.decomposition, "a decomposition")
        dma_specs = ctx.require(ctx.dma_specs, "DMA specs")
        outcome = apply_rewrite(
            dec, self.rewrite, dma_specs, ctx.rma_specs, ctx.arch
        )
        if outcome.applied:
            ctx.decide(
                f"{self.rewrite}: applied — candidate replayed on the "
                "schedule machine and SPM slack re-checked"
            )
        else:
            ctx.info(f"{self.rewrite}: not applied — {outcome.reason}")
        ctx.schedule_timeline = extract_timeline(dec.root).dump()

    def fingerprint(self) -> str:
        return f"{super().fingerprint()}[{self.rewrite}]"


class AstGenerationPass(Pass):
    name = "ast-generation"
    section = "§7"
    summary = "scan the schedule tree into the CPE athread AST"

    def run(self, ctx: CompileContext) -> None:
        dec = ctx.require(ctx.decomposition, "a decomposition")
        dma_specs = ctx.require(ctx.dma_specs, "DMA specs")
        lowering = GemmLowering(dec)
        generator = AstGenerator(lowering)
        body = generator.generate(dec.root, ctx.spec.param_names())
        ctx.cpe_program = CpeProgram(
            buffers=_buffer_decls(dec),
            replies=_reply_decls(dec, dma_specs, ctx.rma_specs),
            body=body,
            kernel_name=resolve_kernel(
                ctx.arch, ctx.options, dec.plan.kernel_shape
            ).name,
        )
        ctx.info(
            f"{sum(1 for _ in walk_stmts(body))} AST statements, "
            f"{len(ctx.cpe_program.buffers)} buffer and "
            f"{len(ctx.cpe_program.replies)} reply declarations"
        )


class VerificationPass(Pass):
    """Terminal admission gate: the static kernel-safety verifier.

    Runs the four checks of :mod:`repro.verify` over the lowered program
    and attaches the resulting report to the context; a failing report
    aborts compilation with a structured :class:`KernelAdmissionError`
    naming the witness, so no unproven kernel ever leaves the pipeline.
    """

    name = "verify"
    section = "§4-§6"
    summary = "prove SPM budget, DMA bounds, hazard and RMA safety"

    def run(self, ctx: CompileContext) -> None:
        # Imported lazily: repro.verify sits above the core layer.
        from repro.verify import admit, run_checks

        report = run_checks(
            spec=ctx.spec,
            arch=ctx.arch,
            options=ctx.options,
            plan=ctx.require(ctx.plan, "a tile plan"),
            dma_specs=ctx.require(ctx.dma_specs, "DMA specs"),
            rma_specs=ctx.rma_specs,
            cpe_program=ctx.require(ctx.cpe_program, "the CPE AST"),
        )
        ctx.verification = report
        for check in report.checks:
            ctx.diag(
                "verify",
                f"{check.name}: {check.status}"
                + (f" — {check.detail}" if check.detail else ""),
            )
        admit(report)


def _buffer_decls(dec: Decomposition) -> List[BufferDecl]:
    ctype = "double" if dec.spec.dtype == "float64" else "float"
    return [BufferDecl(b.name, b.shape, ctype) for b in dec.plan.buffers]


def _reply_decls(dec, dma_specs, rma_specs) -> List[ReplyDecl]:
    slots = 2 if dec.plan.double_buffered else 1
    decls: Dict[str, ReplyDecl] = {}
    for spec in dma_specs.values():
        count = slots if spec.reply not in ("get_replyC", "put_replyC") else 1
        decls[spec.reply] = ReplyDecl(spec.reply, count)
    if rma_specs:
        for spec in rma_specs.values():
            decls[spec.replys] = ReplyDecl(spec.replys, slots)
            decls[spec.replyr] = ReplyDecl(spec.replyr, slots)
    return list(decls.values())


# ---------------------------------------------------------------------------
# Pipeline construction
# ---------------------------------------------------------------------------

#: ``--disable-pass`` is an options rewrite + rebuild, which is what makes
#: the disabled pipeline *identical* to the corresponding §8.1 ablation.
DISABLE_REWRITES: Dict[str, Dict[str, object]] = {
    LatencyHidingPass.name: {"enable_latency_hiding": False},
    RmaDerivationPass.name: {"enable_rma": False},
    VerificationPass.name: {"verify": False},
}


def apply_disabled_passes(
    options: CompilerOptions, disabled: Sequence[str]
) -> CompilerOptions:
    """Rewrite ``options`` so the default pipeline omits each pass."""
    for name in disabled:
        if name.startswith("schedule:"):
            rewrite_name = name.split(":", 1)[1]
            if rewrite_name not in SCHEDULE_PASS_NAMES:
                raise ConfigurationError(
                    f"unknown schedule rewrite {rewrite_name!r}; known: "
                    f"{', '.join(SCHEDULE_PASS_NAMES)}"
                )
            policy = options.schedule
            if policy is not None and policy.mode == "optimize":
                deny = tuple(dict.fromkeys(policy.deny + (rewrite_name,)))
                options = options.with_(
                    schedule=SchedulePolicy(
                        mode="optimize", allow=policy.allow, deny=deny
                    )
                )
            # Without an optimize policy the pass is not scheduled at
            # all — disabling it is already satisfied.
            continue
        rewrite = DISABLE_REWRITES.get(name)
        if rewrite is None:
            raise ConfigurationError(
                f"pass {name!r} cannot be disabled; disableable passes: "
                f"{sorted(DISABLE_REWRITES)} and schedule:<rewrite>"
            )
        options = options.with_(**rewrite)
    return options


def build_pipeline(
    spec: GemmSpec,
    arch: ArchSpec,
    options: CompilerOptions,
    replacements: Optional[Mapping[str, Pass]] = None,
) -> List[Pass]:
    """The variant-aware default pipeline for one reconciled request.

    ``replacements`` substitutes a custom :class:`Pass` instance for the
    named default (the replacement's fingerprint enters the pipeline
    identity, and hence the service cache key).
    """
    passes: List[Pass] = [
        DependenceAnalysisPass(),
        TileSelectionPass(),
        ComputeDecompositionPass(),
    ]
    if spec.is_batched:
        passes.append(BatchIsolationPass())
    passes.append(DmaDerivationPass())
    if options.enable_rma and arch.rma_supported:
        passes.append(RmaDerivationPass())
    if spec.prologue_func:
        passes.append(PrologueFusionPass())
    if spec.epilogue_func:
        passes.append(EpilogueFusionPass())
    passes.append(MicroKernelMarkPass())
    if options.enable_latency_hiding:
        passes.append(LatencyHidingPass())
        if options.schedule is not None and options.schedule.mode == "optimize":
            for rewrite in options.schedule.pass_names():
                passes.append(ScheduleRewritePass(rewrite))
    else:
        passes.append(CommunicationSchedulePass())
    passes.append(AstGenerationPass())
    if options.verify:
        passes.append(VerificationPass())

    if replacements:
        by_name = {p.name: i for i, p in enumerate(passes)}
        for name, replacement in replacements.items():
            if name not in by_name:
                raise ConfigurationError(
                    f"cannot replace unknown pass {name!r}; pipeline has "
                    f"{[p.name for p in passes]}"
                )
            passes[by_name[name]] = replacement
    return passes


def pipeline_identity(passes: Sequence[Pass]) -> str:
    """Stable short hash of a pass list (names, sections, implementations).

    Editing the pipeline — disabling, replacing, reordering or adding a
    pass — changes this identity, which the service folds into its cache
    keys so stale artifacts can never be served for a different pipeline.
    """
    payload = {
        "schema": PIPELINE_SCHEMA_VERSION,
        "passes": [
            [p.name, p.section, p.fingerprint()] for p in passes
        ],
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------

#: Sink for --print-after style introspection: (pass, header, snapshot).
SnapshotSink = Callable[[Pass, str, str], None]


class PassManager:
    """Executes a pipeline over a context with timing, snapshots and
    print-after hooks."""

    def __init__(
        self,
        passes: Sequence[Pass],
        print_after: Optional[Sequence[str]] = None,
        sink: Optional[SnapshotSink] = None,
        capture_snapshots: bool = True,
    ) -> None:
        self.passes = list(passes)
        self.capture_snapshots = capture_snapshots
        self.sink = sink
        names = [p.name for p in self.passes]
        if print_after is None:
            self.print_after: Tuple[str, ...] = ()
        elif "all" in print_after:
            self.print_after = tuple(names)
        else:
            unknown = [n for n in print_after if n not in names]
            if unknown:
                raise ConfigurationError(
                    f"--print-after: unknown pass(es) {unknown}; "
                    f"this pipeline has {names}"
                )
            self.print_after = tuple(print_after)

    def identity(self) -> str:
        return pipeline_identity(self.passes)

    def run(
        self, ctx: CompileContext, deadline: Optional[float] = None
    ) -> CompileContext:
        """Run the pipeline; ``deadline`` is an absolute
        ``time.monotonic()`` instant past which compilation aborts with
        a structured :class:`CompileTimeout` (checked between passes —
        individual passes are short, so the wall-time overshoot is
        bounded by one pass)."""
        total = len(self.passes)
        for index, pass_ in enumerate(self.passes, start=1):
            if deadline is not None and time.monotonic() >= deadline:
                raise CompileTimeout(
                    f"compile deadline exceeded before pass {index}/{total} "
                    f"({pass_.name!r})"
                )
            ctx.current_pass = pass_.name
            before = len(ctx.diagnostics)
            started = time.perf_counter()
            pass_.run(ctx)
            elapsed = time.perf_counter() - started
            ctx.stats.append(
                PassStat(
                    name=pass_.name,
                    section=pass_.section,
                    seconds=elapsed,
                    diagnostics=tuple(ctx.diagnostics[before:]),
                )
            )
            if self.capture_snapshots or pass_.name in self.print_after:
                snapshot = ctx.snapshot()
                if self.capture_snapshots:
                    ctx.snapshots[pass_.name] = snapshot
                if pass_.name in self.print_after and self.sink is not None:
                    header = (
                        f";; ---- IR after {index}/{total}: {pass_.name} "
                        f"({pass_.section}) ----"
                    )
                    self.sink(pass_, header, snapshot)
        ctx.current_pass = "<pipeline>"
        return ctx
