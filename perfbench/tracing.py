"""Span recording around harmflow's public entry points, from outside.

The recorder replaces each traced function with a wrapper in every
``harmflow.*`` module namespace that holds it (so ``cli.run``,
``cli.spectrum`` and the package-level re-exports are wrapped along with
the defining module), records one span per call and restores the originals
on exit.  Nothing under ``src/`` changes.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute) of every traced entry point.  The layer name is the
# module name; ``WaveformSet.to_csv`` is the waveform CSV writer.
TRACED = (
    ("scenario_io", "load_scenario"),
    ("scenario_io", "scenario_from_dict"),
    ("design", "design_bank"),
    ("design", "bank_from_dict"),
    ("network", "scan"),
    ("network", "find_resonances"),
    ("simulator", "run"),
    ("simulator", "energy_audit"),
    ("simulator", "WaveformSet.to_csv"),
    ("analyzer", "spectrum"),
    ("analyzer", "power_report"),
    ("analyzer", "ieee519_check"),
    ("svg", "spectrum_bar_svg"),
    ("svg", "spectrum_overlay_svg"),
    ("cli", "main"),
    ("cli", "cmd_design"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_scan"),
    ("cli", "cmd_report"),
)


def _run_counts(args, kwargs, result) -> dict:
    return {"steps": result.n_samples - 1, "flagged_steps": len(result.flagged_steps)}


def _csv_counts(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _scan_counts(args, kwargs, result) -> dict:
    return {"points": len(result.frequencies_hz)}


# Work counts read off a traced call's arguments and result.
COUNTERS = {
    "simulator.run": _run_counts,
    "simulator.WaveformSet.to_csv": _csv_counts,
    "network.scan": _scan_counts,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span list with a stack of open spans (single thread).

    Wrapped calls made while ``recording`` is false (the benchmark's own
    output checks) pass through unrecorded.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = True
        self._open: list[int] = []

    def begin(self, name: str, start: float | None = None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, parent, time.perf_counter() if start is None else start)
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span, end: float | None = None) -> None:
        span.end = time.perf_counter() if end is None else end
        popped = self._open.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def attach(self, name: str, intervals) -> None:
        """Add a span for each (start, end) interval that falls inside a
        recorded span, as a child of the innermost one.  Used for work that
        interrupted traced code, such as a signal handler."""
        for start, end in intervals:
            inside = [s for s in self.spans if s.start <= start and end <= s.end]
            if inside:
                parent = max(inside, key=lambda s: s.start)
                self.spans.append(Span(len(self.spans), name, parent.id, start, end))

    def dump(self, path) -> None:
        doc = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


class Patches:
    """Replace module attributes and restore them on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace_everywhere(self, original, replacement) -> None:
        """Point every ``harmflow.*`` module attribute bound to ``original``
        at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "harmflow" or mod_name.startswith("harmflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def install_tracing(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap every entry point in ``TRACED``; harmflow must be imported."""
    import importlib

    # Import every module first: one imported after patching would bind a
    # wrapper by name, and restoring would not reach it.
    modules = {m: importlib.import_module(f"harmflow.{m}") for m, _ in TRACED}
    for module, attr in TRACED:
        mod = modules[module]
        name = f"{module}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            patches.set(cls, meth, recorder.wrap(name, getattr(cls, meth)))
        else:
            original = getattr(mod, attr)
            patches.replace_everywhere(original, recorder.wrap(name, original))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children[s.id], s.start, s.end) for s in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += own[s.id]
    return dict(out)


def totals(
    spans: list[Span], exclude: str = "pace"
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Inclusive time, call count and summed counters per span name.  Spans
    of the ``exclude`` layer are left out, and so is their time from every
    span that encloses them."""
    by_id = {s.id: s for s in spans}
    hidden: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.layer == exclude:
            parent = s.parent
            while parent is not None:
                hidden[parent] += s.duration
                parent = by_id[parent].parent
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.layer == exclude:
            continue
        seconds[s.name] += s.duration - hidden[s.id]
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
    return dict(seconds), dict(calls), dict(counts)
