"""Outside-in span tracer for the facedct layers.

The tracer wraps public functions of the ``facedct`` modules from the
benchmark's side; the program itself carries no tracing code.  Each wrapped
call records one span (name, start, end, parent).  Because ``cli``,
``pipeline`` and ``fusion`` bind names with ``from .x import y``, a function
is replaced at every module attribute that holds it, not only where it is
defined, and every binding is restored when tracing ends.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


def _file_size(path) -> int:
    return os.stat(path).st_size


def _dir_size(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


@dataclass(frozen=True)
class Layer:
    """One traced function: where it lives, its span name, its counters and
    the end-to-end metric (and workload) its time should move."""

    module: str
    function: str
    span: str
    moves: str
    counters: Callable[[tuple, object], dict[str, float]] | None = None  # (args, result) -> increments


LAYERS: tuple[Layer, ...] = (
    Layer("facedct.imageio", "read_pnm_file", "imageio.read",
          "enroll_s/evaluate_s on feret, fuse_eval_s on orl-rgb",
          lambda a, r: {"imageio.images": 1, "imageio.bytes_read": _file_size(a[0])}),
    Layer("facedct.imageio", "prepare_plane", "imageio.prepare",
          "enroll_s/evaluate_s on feret (resize), fuse_eval_s on orl-rgb"),
    Layer("facedct.features", "extract_features", "features.extract",
          "enroll_s/evaluate_s on feret, fuse_eval_s on orl-rgb",
          lambda a, r: {"features.vectors": 1}),
    Layer("facedct.pipeline", "extract_subject_features", "pipeline.featurize",
          "enroll_s/evaluate_s on feret, fuse_eval_s on orl-rgb"),
    Layer("facedct.gallery", "save_gallery", "gallery.save",
          "enroll_s on feret",
          lambda a, r: {"gallery.save_bytes": _dir_size(a[1])}),
    Layer("facedct.gallery", "load_gallery", "gallery.load",
          "identify_p50_ms/identify_p90_ms on feret",
          lambda a, r: {"gallery.load_calls": 1, "gallery.templates_loaded": r[0].n_templates}),
    Layer("facedct.matching", "build_score_tensor", "matching.tensor",
          "evaluate_s on feret",
          lambda a, r: {"matching.cells": r.scores.size}),
    Layer("facedct.matching", "person_score", "matching.person_score",
          "identify_p50_ms/identify_p90_ms on feret and orl-rgb",
          lambda a, r: {"matching.person_score_calls": 1}),
    Layer("facedct.matching", "identification_rate", "matching.rank1", "evaluate_s"),
    Layer("facedct.matching", "save_scores_csv", "matching.scores_write",
          "evaluate_s and peak_rss_mb on feret",
          lambda a, r: {"matching.scores_bytes": _file_size(a[1])}),
    Layer("facedct.matching", "load_scores_csv", "matching.scores_read", "det_export_s on feret"),
    Layer("facedct.verification", "split_intra_inter", "verification.split",
          "evaluate_s on feret",
          lambda a, r: {"verification.split_calls": 1}),
    Layer("facedct.verification", "det_curve", "verification.det_curve",
          "evaluate_s and det_export_s on feret",
          lambda a, r: {"verification.det_points": len(r), "verification.staircase_builds": 1}),
    Layer("facedct.verification", "eer", "verification.eer", "evaluate_s on feret",
          lambda a, r: {"verification.staircase_builds": 1}),
    Layer("facedct.verification", "min_dcf", "verification.min_dcf", "evaluate_s on feret",
          lambda a, r: {"verification.staircase_builds": 1}),
    Layer("facedct.verification", "save_det_csv", "verification.det_write",
          "evaluate_s and det_export_s on feret",
          lambda a, r: {"verification.det_bytes": _file_size(a[1])}),
    Layer("facedct.verification", "render_det_svg", "verification.svg", "evaluate_s on feret"),
    Layer("facedct.pipeline", "summarize_tensor", "pipeline.summarize",
          "evaluate_s on feret, fuse_eval_s on orl-rgb"),
    Layer("facedct.fusion", "run_channel_pipeline", "fusion.channel_run", "fuse_eval_s on orl-rgb"),
    Layer("facedct.fusion", "apply_fusion", "fusion.fuse", "fuse_eval_s on orl-rgb"),
)

#: CLI commands whose span self time is reported as ``cli.<command>.self_s``.
COMMANDS = ("enroll", "evaluate", "det-export", "fuse-eval", "identify")

#: Counters the layers' ``counters`` functions add to, with their units.
COUNTER_UNITS = {
    "imageio.images": "count",
    "imageio.bytes_read": "bytes",
    "features.vectors": "count",
    "gallery.save_bytes": "bytes",
    "gallery.load_calls": "count",
    "gallery.templates_loaded": "count",
    "matching.cells": "count",
    "matching.person_score_calls": "count",
    "matching.scores_bytes": "bytes",
    "verification.split_calls": "count",
    "verification.det_points": "count",
    "verification.staircase_builds": "count",
    "verification.det_bytes": "bytes",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


@dataclass
class Tracer:
    """Records spans in memory; use as a context manager to patch the layers."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, e.g. a CLI call."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: Layer, original):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(layer.span):
                result = original(*args, **kwargs)
            if layer.counters is not None:
                for key, value in layer.counters(args, result).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", layer.function)
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "facedct" or name.startswith("facedct."))]
        try:
            for layer in LAYERS:
                original = getattr(sys.modules[layer.module], layer.function)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every patched binding back; safe to call more than once."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, float]:
        """Summed inclusive duration per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name (see :func:`self_time`)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + self_time(s, children.get(i, []))
        return out


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover.

    Children are clipped to the parent and overlapping children are counted
    once, so the result never goes below zero.
    """
    covered = 0.0
    cursor = span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass: ``name -> (value, unit)``."""
    totals = tracer.totals()
    selfs = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer.span}_s"] = (totals.get(layer.span, 0.0), "s")
    for key in COUNTER_UNITS:
        out[key] = (tracer.counts.get(key, 0), COUNTER_UNITS[key])
    for cmd in COMMANDS:
        out[f"cli.{cmd}.self_s"] = (selfs.get(f"cli.{cmd}", 0.0), "s")
    return out

