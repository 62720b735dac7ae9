"""Greedy seeded pass-ordering search.

``optimize`` mode runs the rewrite stack in its canonical order, but the
best *order* (and subset) is shape-dependent: on DMA-bound ragged shapes
``merge-transfers`` earns its keep, on RMA-startup-bound ones
``reorder-issues`` does.  :func:`greedy_pass_order` searches orderings
the way the autotuner searches tiles — greedy forward selection under a
simulated-Gflops objective, with a seeded tie-break so results are
reproducible — and returns a :class:`SchedulePolicy` pinning the winning
order (or ``None`` when no ordering beats the recipe).

The evaluator is injectable so unit tests can drive the search with a
synthetic objective; :func:`simulated_evaluator` builds the real one on
top of :class:`~repro.runtime.simulator.PerformanceSimulator`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.core.options import SCHEDULE_PASS_NAMES, CompilerOptions, SchedulePolicy

#: evaluate(policy_or_None) -> simulated Gflops (higher is better).
Evaluator = Callable[[Optional[SchedulePolicy]], float]


def greedy_pass_order(
    evaluate: Evaluator,
    passes: Sequence[str] = SCHEDULE_PASS_NAMES,
    seed: int = 0,
    min_gain: float = 1e-9,
) -> Optional[SchedulePolicy]:
    """Greedy forward selection of a rewrite ordering.

    Starting from the bare recipe, repeatedly append whichever remaining
    rewrite improves the objective most (seeded tie-break between equal
    gains), stopping when nothing improves.  Returns the winning policy,
    or ``None`` when the recipe itself is best.
    """
    # Lazy: the tuner sits above this package in the import graph.
    from repro.tune.space import SplitMix64

    rng = SplitMix64(seed)
    best_score = evaluate(None)
    chosen: Tuple[str, ...] = ()
    remaining = list(passes)
    while remaining:
        scored = []
        for name in remaining:
            salt = rng.next_u64()
            policy = SchedulePolicy(mode="optimize", allow=chosen + (name,))
            scored.append((evaluate(policy), salt, name))
        score, _, winner = max(scored)
        if score <= best_score + min_gain:
            break
        best_score = score
        chosen = chosen + (winner,)
        remaining.remove(winner)
    if not chosen:
        return None
    return SchedulePolicy(mode="optimize", allow=chosen)


def simulated_evaluator(
    shape: Tuple[int, int, int],
    options: CompilerOptions,
    arch=None,
    batch: int = 1,
    spec=None,
    service=None,
) -> Evaluator:
    """An evaluator scoring policies by simulated Gflops on one shape."""
    # Lazy: the simulator sits above this package in the import graph.
    from repro.runtime.simulator import PerformanceSimulator
    from repro.sunway.arch import SW26010PRO

    sim = PerformanceSimulator(arch or SW26010PRO, service=service)
    M, N, K = shape

    def evaluate(policy: Optional[SchedulePolicy]) -> float:
        candidate = options.with_(schedule=policy)
        return sim.simulate(
            M, N, K, options=candidate, batch=batch, spec=spec
        ).gflops

    return evaluate
