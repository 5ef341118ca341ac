"""In-memory span recorder for the benchmark's traced runs.

A :class:`Tracer` wraps the names that callers look up -- module
bindings such as ``repro.core.compiler.assemble`` or class attributes
such as ``FramedChannel.send_message`` -- with a timing shim, and puts
the originals back when the traced region ends.  Each call becomes one
span ``{id, name, phase, start, end, parent, request}``; spans nest
through a stack (the traced code is single-threaded), so a span's
*self time* is its duration minus the time its children cover.

Spans stay in memory while the workload runs and are written as JSONL
once it ends; :func:`summary_table` turns such a file back into the
per-layer self-time table (``python3 haacbench/run.py summarize``).
The layer of a span is its name up to the first dot.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

_MISSING = object()


class Tracer:
    """Records spans around wrapped callables while ``enabled``."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.phase = "setup"
        self.request: Optional[str] = None
        self.counters: Dict[str, int] = defaultdict(int)
        #: Shims call straight through while this is off.
        self.enabled = False
        self._stack: List[dict] = []
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "phase": self.phase,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "request": self.request,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        if not self.enabled:
            yield None
            return
        previous = self.request
        if request is not None:
            self.request = request
        record = self.open(name)
        try:
            yield record
        finally:
            self.close(record)
            self.request = previous

    @contextmanager
    def paused(self):
        """Record nothing inside (correctness checks in a traced loop)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    # -- wrapping -------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        classify: Optional[Callable] = None,
        count: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording shim.

        ``classify(args, before)`` may rename the span after the call
        (``before`` is whatever ``classify(args, None)`` returned before
        it); ``count(args)`` adds to the counter named after the span.
        ``after()`` runs after every call, with spans on or off.
        Class attributes are read from ``__dict__`` so classmethods and
        inherited methods are restored exactly.
        """
        if isinstance(owner, type):
            # _MISSING marks an inherited method: restore deletes the shim.
            raw = owner.__dict__.get(attr, _MISSING)
        else:
            raw = getattr(owner, attr)
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        target = raw.__func__ if descriptor else getattr(owner, attr)
        tracer = self

        def shim(*args, **kwargs):
            if not tracer.enabled:
                try:
                    return target(*args, **kwargs)
                finally:
                    if after is not None:
                        after()
            before = classify(args, None) if classify is not None else None
            record = tracer.open(name)
            try:
                return target(*args, **kwargs)
            finally:
                tracer.close(record)
                if classify is not None:
                    record["name"] = classify(args, before)
                if count is not None:
                    tracer.counters[record["name"]] += count(args)
                if after is not None:
                    after()

        shim.__wrapped__ = target
        replacement = descriptor(shim) if descriptor else shim
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_jsonl(path) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one parent never overlap (the stack nests them), so the
    covered time is the plain sum of their durations.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {
        span["id"]: (span["end"] - span["start"]) - child_time[span["id"]]
        for span in spans
    }


def covered_time(spans: Iterable[dict]) -> float:
    """Wall time covered by top-level spans (those without a parent)."""
    return sum(
        span["end"] - span["start"] for span in spans if span["parent"] is None
    )


def self_time_by_name(spans: List[dict], phase: Optional[str] = None) -> Dict[str, float]:
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        if phase is None or span["phase"] == phase:
            totals[span["name"]] += selfs[span["id"]]
    return dict(totals)


def summary_table(spans: List[dict]) -> str:
    """Per-layer and per-span self-time table, one block per phase."""
    selfs = self_times(spans)
    lines: List[str] = []
    for phase in sorted({span["phase"] for span in spans}):
        chosen = [span for span in spans if span["phase"] == phase]
        by_name: Dict[str, List[float]] = defaultdict(list)
        for span in chosen:
            by_name[span["name"]].append(selfs[span["id"]])
        total = sum(sum(values) for values in by_name.values()) or 1.0
        lines.append(f"phase {phase}: {len(chosen)} spans")
        lines.append(f"  {'span':<28} {'calls':>8} {'self s':>10} {'share':>7}")
        by_layer: Dict[str, float] = defaultdict(float)
        for name in sorted(by_name, key=lambda n: -sum(by_name[n])):
            values = by_name[name]
            by_layer[layer_of(name)] += sum(values)
            lines.append(
                f"  {name:<28} {len(values):>8} {sum(values):>10.4f} "
                f"{sum(values) / total:>6.1%}"
            )
        lines.append(f"  {'layer':<28} {'':>8} {'self s':>10} {'share':>7}")
        for layer in sorted(by_layer, key=lambda n: -by_layer[n]):
            lines.append(
                f"  {layer:<28} {'':>8} {by_layer[layer]:>10.4f} "
                f"{by_layer[layer] / total:>6.1%}"
            )
    return "\n".join(lines)
