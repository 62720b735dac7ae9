"""In-memory spans around calls into each layer's public functions.

Nothing under ``src/`` is instrumented.  While tracing is on, the
:class:`Tracer` replaces a fixed set of public entry points (module
functions and class methods, see :data:`ENTRY_POINTS`) with wrappers
that record a span per call: name, start, end, parent span and thread.
Internal callers pick the wrappers up too, because every patched name
is looked up at call time — e.g. ``Tuner.tune`` calling
``self.measure`` or ``PerformanceSimulator.simulate`` calling
``self.chunk_stats``.  :meth:`Tracer.uninstall` restores the originals,
so one process can alternate traced and untraced iterations and measure
the tracing overhead directly.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.record: Dict[str, Any] = {"name": name, "attrs": {}}

    def __enter__(self) -> Dict[str, Any]:
        tracer = self.tracer
        stack = tracer._stack()
        record = self.record
        record["id"] = next(tracer._ids)
        record["parent"] = stack[-1]["id"] if stack else None
        record["iteration"] = tracer.iteration
        record["thread"] = threading.get_ident()
        stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def __exit__(self, *exc_info) -> None:
        record = self.record
        record["end"] = time.perf_counter()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append(record)


class _NullSpan:
    def __enter__(self) -> Dict[str, Any]:
        return {"attrs": {}}

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _after_service(record, args, kwargs, result) -> None:
    program, source = result
    record["attrs"]["source"] = source
    if source == "compiled":
        record["attrs"]["program"] = program


def _after_executor(record, args, kwargs, result) -> None:
    executor = args[0]
    record["attrs"]["move_data"] = executor.move_data
    record["attrs"]["stats"] = dict(result.stats)


def _after_chunk(record, args, kwargs, result) -> None:
    record["attrs"]["bubble_fraction"] = result[1]


def _after_cpe_source(record, args, kwargs, result) -> None:
    from repro.poly.astnodes import walk_stmts

    program = args[0]
    record["attrs"]["bytes"] = len(result.encode("utf-8"))
    record["attrs"]["statements"] = sum(
        1 for _ in walk_stmts(program.cpe_program.body)
    )


#: ``(module, attribute path, span name, after-hook)``.  A dotted
#: attribute path names a method on a class of that module.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api", "compile", "api.compile", None),
    ("repro.api", "run", "api.run", None),
    ("repro.api", "tune", "api.tune", None),
    ("repro.api", "verify", "verify.verify_program", None),
    ("repro.frontend", "parse_c", "frontend.parse", None),
    ("repro.frontend", "extract_spec", "frontend.extract", None),
    ("repro.verify", "replay_schedule", "verify.replay", None),
    (
        "repro.service.service",
        "CompileService.get_program_with_source",
        "service.get_program",
        _after_service,
    ),
    (
        "repro.runtime.program",
        "CompiledProgram.cpe_source",
        "codegen.cpe_source",
        _after_cpe_source,
    ),
    (
        "repro.runtime.program",
        "CompiledProgram.mpe_source",
        "codegen.mpe_source",
        None,
    ),
    (
        "repro.runtime.simulator",
        "PerformanceSimulator.simulate",
        "simulator.simulate",
        None,
    ),
    (
        "repro.runtime.simulator",
        "PerformanceSimulator.chunk_stats",
        "simulator.chunk",
        _after_chunk,
    ),
    ("repro.runtime.executor", "Executor.run", "executor.run", _after_executor),
    ("repro.tune.driver", "prune", "tune.prune", None),
    ("repro.tune.driver", "Tuner.measure", "tune.measure", None),
)


class Tracer:
    """Spans kept in memory; written out once, at the end of a run."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.iteration: Optional[int] = None
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """A context manager recording one span (a no-op when off)."""
        return _Span(self, name) if self.enabled else _NULL_SPAN

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self.enabled:
            return
        for module_name, path, name, after in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, after))
            self._patches.append((owner, attr, original))
        self.enabled = True

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.enabled = False

    def _wrap(self, original, name: str, after: Optional[Callable]):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with _Span(tracer, name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, args, kwargs, result)
                return result

        return traced

    # -- analysis -----------------------------------------------------------

    def named(
        self, name: str, iterations: Optional[set] = None
    ) -> List[Dict[str, Any]]:
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (iterations is None or s["iteration"] in iterations)
        ]

    def children(self) -> Dict[int, List[Dict[str, Any]]]:
        kids: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for span in self.spans:
            if span["parent"] is not None:
                kids[span["parent"]].append(span)
        return kids

    def self_seconds(self) -> Dict[str, float]:
        """Per span name, the total time not covered by child spans."""
        kids = self.children()
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = sum(k["end"] - k["start"] for k in kids.get(span["id"], ()))
            totals[span["name"]] += (span["end"] - span["start"]) - covered
        return dict(totals)

    def write_chrome_trace(self, path: Path) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        if not self.spans:
            return
        origin = min(s["start"] for s in self.spans)
        events = []
        for span in sorted(self.spans, key=lambda s: s["start"]):
            args = {
                k: v
                for k, v in span["attrs"].items()
                if isinstance(v, (int, float, str, bool))
            }
            args.update(id=span["id"], parent=span["parent"])
            events.append(
                {
                    "name": span["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": span["thread"],
                    "ts": 1e6 * (span["start"] - origin),
                    "dur": 1e6 * (span["end"] - span["start"]),
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
