"""The schedule rewrites and their verified admission protocol.

Four composable rewrites over :class:`~repro.schedule.ir.Timeline`
(modelled on zero-bubble pipeline schedulers, where the per-stage
timeline is a node list rewritten by small passes such as
``merge_consecutive_bw``):

``split-waits``
    Break a multi-statement wait group so work scheduled between the
    fragments (the fused prologue, the prefetch issue) overlaps the
    transfer still in flight.
``reorder-issues``
    Move independent issue groups ahead of the waits in each loop body
    (back-to-back RMA launches, prefetch before the current wait) and
    hoist the inner pipeline's buffer-swap prefix (reset + synch) out
    of the broadcast peel, decollectivizing the barrier away from the
    DMA drain.
``merge-transfers``
    Merge the outer peel's unguarded DMA issues into the chunk's first
    transfer group, so the C/A/B gets share one issue burst.
``retire-waits``
    Drop wait statements that re-wait a counter no intervening issue
    could have re-armed.

Every rewrite mutates the timeline only; admission is the job of
:func:`apply_rewrite`, which rewrites a *clone* of the schedule tree,
lowers it, replays it on the verifier's
:func:`~repro.verify.replay_schedule` machine and re-checks the SPM
budget — the original tree is swapped out only when the candidate is
proven legal.  An illegal or no-op candidate leaves the decomposition
untouched and reports why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.options import SCHEDULE_PASS_NAMES
from repro.errors import CompilationError
from repro.poly.schedule_tree import clone_tree
from repro.schedule.extract import extract_timeline, materialize
from repro.schedule.ir import ScheduleStep, Segment, Timeline


def _is_wait(step: ScheduleStep) -> bool:
    return step.kind in ("dma_wait", "rma_wait")


def _is_compute(step: ScheduleStep) -> bool:
    return step.kind == "compute"


def _issue_only(seg: Segment) -> bool:
    """True when nothing in the segment waits or computes — it can move
    ahead of waits without reordering any dependence."""
    return bool(seg.steps) and not any(
        _is_wait(s) or _is_compute(s) for s in seg.steps
    )


# ---------------------------------------------------------------------------
# The rewrites (Timeline -> changed?)
# ---------------------------------------------------------------------------


def split_waits(tl: Timeline) -> bool:
    """Split the first multi-wait group of each loop body.

    The popped wait lands at the end of the body, directly in front of
    the compute subtree: everything originally scheduled after the
    group (prologue, prefetch issue) now overlaps the second transfer
    while it is still in flight."""
    changed = False
    for name in ("kouter", "kmid"):
        lvl = tl.level(name)
        if lvl is None:
            continue
        for seg in lvl.body:
            if (
                len(seg.steps) >= 2
                and not seg.constraints
                and all(_is_wait(s) for s in seg.steps)
            ):
                last = seg.steps.pop()
                lvl.body.append(Segment([last]))
                changed = True
                break
    return changed


def reorder_issues(tl: Timeline) -> bool:
    """Issue-ahead reordering.

    1. Hoist the inner (RMA) peel's leading buffer-swap prefix — the
       reply-counter reset and the ``synch`` — to the front of the outer
       loop body.  The reset-before-synch-before-issue invariant the
       recipe documents is preserved (the pair moves as a unit and every
       broadcast issue still follows the barrier in program order), but
       the barrier no longer sits *behind* the outer DMA wait: a CPE
       whose transfer drains late no longer holds the whole mesh out of
       its broadcast phase.
    2. In each loop body, stably move every pure-issue segment ahead of
       the waits, so the next transfers are in flight (back to back, on
       the RMA level) before the current ones are waited on.  Parity
       selectors keep the moved issues targeting the other buffer slot,
       which the replay machine re-proves on every candidate.
    """
    changed = False
    kmid = tl.level("kmid")
    kouter = tl.level("kouter")
    if kmid is not None and kouter is not None and kmid.peel:
        seg = kmid.peel[0]
        prefix = 0
        while (
            prefix < len(seg.steps)
            and seg.steps[prefix].kind == "buffer_swap"
        ):
            prefix += 1
        if 0 < prefix < len(seg.steps) and not seg.constraints:
            moved = seg.steps[:prefix]
            del seg.steps[:prefix]
            kouter.body.insert(0, Segment(moved))
            changed = True
    for name in ("kouter", "kmid"):
        lvl = tl.level(name)
        if lvl is None:
            continue
        ahead = [s for s in lvl.body if _issue_only(s)]
        ahead_ids = {id(s) for s in ahead}
        rest = [s for s in lvl.body if id(s) not in ahead_ids]
        new = ahead + rest
        if [id(s) for s in new] != [id(s) for s in lvl.body]:
            lvl.body = new
            changed = True
    return changed


def merge_transfers(tl: Timeline) -> bool:
    """Merge the outer peel's unguarded DMA issues into the chunk's
    first transfer group (after its last issue, before its wait).

    Only the *outer* (DMA) peel is eligible: the inner peel's broadcasts
    source freshly DMA'd tiles and must stay behind their wait.  When
    the whole peel moves, the now-empty top extension dissolves at
    materialization."""
    kouter = tl.level("kouter")
    chunk = tl.level("chunk")
    if kouter is None or chunk is None or not kouter.peel or not chunk.body:
        return False
    movable = [
        seg
        for seg in kouter.peel
        if seg.steps
        and not seg.constraints
        and all(s.kind == "dma_issue" for s in seg.steps)
    ]
    if not movable:
        return False
    target = chunk.body[0]
    issue_positions = [
        i for i, s in enumerate(target.steps) if s.kind == "dma_issue"
    ]
    if not issue_positions:
        return False
    insert_at = issue_positions[-1] + 1
    moved = [s for seg in movable for s in seg.steps]
    target.steps[insert_at:insert_at] = moved
    movable_ids = {id(s) for s in movable}
    kouter.peel = [s for s in kouter.peel if id(s) not in movable_ids]
    return True


def _wait_key(step: ScheduleStep):
    payload = step.stmt.payload
    if step.kind == "dma_wait":
        return ("dma", payload.get("reply"), str(payload.get("reply_slot_expr")))
    spec = payload.get("spec")
    return (
        "rma",
        getattr(spec, "replys", None),
        getattr(spec, "replyr", None),
        str(payload.get("target_expr")),
    )


def _rearms(step: ScheduleStep, key) -> bool:
    """Does this non-wait step re-arm the counter behind ``key``?"""
    if step.kind == "buffer_swap":
        # Resets rewrite counters wholesale; be conservative.
        return key[0] == "rma"
    payload = step.stmt.payload
    if step.kind == "dma_issue":
        spec = payload.get("spec")
        return key[:2] == ("dma", getattr(spec, "reply", None))
    if step.kind == "rma_put":
        spec = payload.get("spec")
        return key[0] == "rma" and key[1] == getattr(spec, "replys", None)
    return False


def retire_waits(tl: Timeline) -> bool:
    """Drop waits that re-wait an already-settled counter.

    Within one stream (peel / body / post of a level), a wait whose
    (counter, slot) key was already waited — with no intervening issue
    or reset that could re-arm it — is a no-op and retires.  The §6
    recipe never emits such waits, so on the pristine timeline this is
    the identity (a property test pins that); it exists to clean up
    after compositions of the other rewrites."""
    changed = False
    for lvl in tl.levels.values():
        for stream in (lvl.peel, lvl.body, lvl.post):
            settled = set()
            for seg in stream:
                kept: List[ScheduleStep] = []
                for step in seg.steps:
                    if _is_wait(step):
                        key = _wait_key(step)
                        if key in settled:
                            changed = True
                            continue
                        settled.add(key)
                    else:
                        settled = {k for k in settled if not _rearms(step, k)}
                    kept.append(step)
                if len(kept) != len(seg.steps):
                    seg.steps = kept
            emptied = [s for s in stream if s.steps]
            if len(emptied) != len(stream):
                stream[:] = emptied
    return changed


@dataclass(frozen=True)
class Rewrite:
    name: str
    summary: str
    fn: Callable[[Timeline], bool]


REWRITES: Dict[str, Rewrite] = {
    r.name: r
    for r in (
        Rewrite(
            "split-waits",
            "split multi-wait groups so later work overlaps the "
            "transfer still in flight",
            split_waits,
        ),
        Rewrite(
            "reorder-issues",
            "move independent issue groups ahead of waits; hoist the "
            "inner buffer swap out of the broadcast peel",
            reorder_issues,
        ),
        Rewrite(
            "merge-transfers",
            "merge the outer peel's DMA issues into the chunk's first "
            "transfer burst",
            merge_transfers,
        ),
        Rewrite(
            "retire-waits",
            "drop waits on counters no intervening issue re-armed",
            retire_waits,
        ),
    )
}

if tuple(REWRITES) != SCHEDULE_PASS_NAMES:  # pragma: no cover - import guard
    raise AssertionError(
        "schedule rewrite registry out of sync with "
        "repro.core.options.SCHEDULE_PASS_NAMES"
    )


# ---------------------------------------------------------------------------
# Verified admission
# ---------------------------------------------------------------------------


@dataclass
class RewriteOutcome:
    """What happened to one rewrite attempt."""

    name: str
    applied: bool
    reason: str = ""
    #: replayed machine legality of the admitted candidate (True only
    #: when ``applied``).
    proven: bool = False


def lower_root(dec, root, dma_specs, rma_specs, arch):
    """Lower an arbitrary schedule-tree root for this decomposition.

    The lowering delegate reads only the decomposition's spec, plan,
    options and arch — never ``dec.root`` — so candidate clones lower
    exactly like the installed tree."""
    # Lazy: core.passes imports this package at module level.
    from repro.codegen.backend import resolve_kernel
    from repro.core.lowering import GemmLowering
    from repro.core.passes import _buffer_decls, _reply_decls
    from repro.poly.astgen import AstGenerator
    from repro.poly.astnodes import CpeProgram

    body = AstGenerator(GemmLowering(dec)).generate(
        root, dec.spec.param_names()
    )
    return CpeProgram(
        buffers=_buffer_decls(dec),
        replies=_reply_decls(dec, dma_specs, rma_specs),
        body=body,
        kernel_name=resolve_kernel(arch, dec.options, dec.plan.kernel_shape).name,
    )


def check_legal(dec, cpe_program, arch) -> Optional[str]:
    """Replay + SPM re-check; ``None`` when legal, else the refusal."""
    from repro.verify import replay_schedule
    from repro.verify.report import PASSED
    from repro.verify.static_checks import check_spm_budget

    result = replay_schedule(cpe_program, dec.plan, dec.spec)
    if result.hazards:
        return f"replay found {len(result.hazards)} hazard(s)"
    if result.discipline:
        return f"replay found {len(result.discipline)} discipline violation(s)"
    if result.deadlock:
        return f"replay deadlocked ({result.deadlock})"
    if not result.completed:
        return "replay did not complete"
    spm = check_spm_budget(arch, dec.plan, cpe_program)
    if spm.status != PASSED:
        return f"SPM slack check failed: {spm.detail}"
    return None


def apply_rewrite(dec, name, dma_specs, rma_specs, arch) -> RewriteOutcome:
    """Apply one rewrite to ``dec`` if and only if it is proven legal.

    Clones the tree, rewrites the clone's timeline, lowers and replays
    it; on success installs the clone as ``dec.root`` (re-pointing the
    named band handles through a pre-rewrite node correspondence, so
    later passes and serde keep working on live nodes)."""
    rewrite = REWRITES.get(name)
    if rewrite is None:
        raise CompilationError(
            f"unknown schedule rewrite {name!r}; known: "
            f"{', '.join(REWRITES)}"
        )
    clone = clone_tree(dec.root)
    # clone_tree preserves child order and walk() is pre-order, so the
    # zipped traversals are aligned node-for-node.
    correspondence = {
        id(orig): copy for orig, copy in zip(dec.root.walk(), clone.walk())
    }
    timeline = extract_timeline(clone)
    if not rewrite.fn(timeline):
        return RewriteOutcome(name, applied=False, reason="no opportunity")
    materialize(timeline)
    candidate = lower_root(dec, clone, dma_specs, rma_specs, arch)
    refusal = check_legal(dec, candidate, arch)
    if refusal is not None:
        return RewriteOutcome(name, applied=False, reason=refusal)
    dec.root = clone
    dec.bands = {
        key: correspondence[id(band)] for key, band in dec.bands.items()
    }
    return RewriteOutcome(name, applied=True, proven=True)
