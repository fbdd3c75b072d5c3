"""Spans around calls into physedit's layers, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers for the
duration of a traced repetition and restores them afterwards; nothing in
``src/`` is edited.  A span records its name, start, end and the index of
its parent span; spans stay in memory and are written when the run ends.
A span's self time is its duration minus the durations of its children
(calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

from physedit import (cli, engine, fieldio, fill, losses, raster, scenes,
                      schedule, trajectory)


class Span:
    __slots__ = ("name", "start", "end", "parent", "size", "dt")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, None, parent
        self.size = 0    # work done in the call: particles, points, edits...
        self.dt = None   # substep size, on engine.step spans

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "size": self.size, "dt": self.dt}


def _step_note(span, args, result):
    span.size, span.dt = args[0].n_particles, float(args[1])


def _len_arg_note(span, args, result):
    span.size = len(args[0])


def _edits_note(span, args, result):
    span.size = len(result)


def _fill_note(span, args, result):
    span.size = result.n_points


def _export_note(span, args, result):
    """Bytes the export wrote, computed from the frame layout and texts."""
    traj = args[0]
    span.size = (traj.n_frames * (20 + 12 * traj.n_particles)
                 + len(trajectory.canonical_json(result))
                 + len(trajectory.canonical_json(traj.edit_log)))


# (owner, attribute, span name, note function).  One function bound in
# several modules (``cli`` imports most of what it calls) is wrapped in each.
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "build_state", "engine.build_state", None),
    (engine, "validate_field", "materials.validate_field", None),
    (cli, "compile_schedule", "schedule.compile", None),
    (cli, "simulate", "engine.simulate", None),
    (engine, "stable_dt", "engine.stable_dt", None),
    (engine, "wave_speeds", "materials.wave_speeds", None),
    (schedule.ScheduleRuntime, "apply", "schedule.apply", _edits_note),
    (engine, "object_events", "engine.object_events", None),
    (engine, "step", "engine.step", _step_note),
    (engine, "batch_constitutive", "constitutive.batch_constitutive",
     _len_arg_note),
    (cli, "export_trajectory", "trajectory.export", _export_note),
    (trajectory, "export_trajectory", "trajectory.export", _export_note),
    (cli, "verify_trajectory", "trajectory.verify", None),
    (trajectory, "verify_trajectory", "trajectory.verify", None),
    (trajectory, "read_trajectory", "trajectory.read", None),
    (cli, "rasterize_frame", "raster.rasterize_frame", _len_arg_note),
    (raster, "rasterize_frame", "raster.rasterize_frame", _len_arg_note),
    (cli, "write_pgm", "raster.write_pgm", None),
    (raster, "write_pgm", "raster.write_pgm", None),
    (fill, "fill_field", "fill.fill_field", _fill_note),
    (scenes, "fill_field", "fill.fill_field", _fill_note),
    (fill, "fill_interior", "fill.fill_interior", None),
    (fill, "inherit_properties", "fill.inherit_properties", None),
    (fieldio, "write_field", "fieldio.write_field", None),
    (scenes, "write_field", "fieldio.write_field", None),
    (fieldio, "read_field", "fieldio.read_field", None),
    (scenes, "read_field", "fieldio.read_field", None),
    (cli, "read_field", "fieldio.read_field", None),
    (cli, "total_loss", "losses.total_loss", None),
    (cli, "finite_diff_check", "losses.gradcheck", None),
    (losses, "smoothness_loss", "losses.smoothness_loss", None),
    (cli, "soft_assign", "conditioning.soft_assign", None),
]


class Tracer:
    """Collects spans while installed; a context manager per repetition."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, note_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            label = name
            if name == "losses.gradcheck":
                label = f"losses.gradcheck_{args[0]}"
            span = Span(label, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note_fn is not None:
                note_fn(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (setup, unit, check)."""
        span = Span(name, time.perf_counter(),
                    self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def __enter__(self):
        for owner, attr, name, note_fn in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, note_fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def self_times(spans, offset=0):
    """Per-span self time: duration minus the children's durations.

    ``spans`` may be a slice of the tracer's list starting at ``offset``;
    parent indices refer to the full list.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= offset:
            child[s.parent - offset] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


class _Totals:
    """Per-name total, self time, calls and size over a slice of spans."""

    def __init__(self, spans, offset=0):
        self.total, self.self_, self.calls, self.size = {}, {}, {}, {}
        for s, own in zip(spans, self_times(spans, offset)):
            d = s.end - s.start
            self.total[s.name] = self.total.get(s.name, 0.0) + d
            self.self_[s.name] = self.self_.get(s.name, 0.0) + own
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.size[s.name] = self.size.get(s.name, 0) + s.size

    def t(self, name):
        return self.total.get(name, 0.0)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def rep_metrics(spans, offset):
    """Per-layer metrics of one traced timed operation."""
    t = _Totals(spans, offset)
    step_s = t.t("engine.step")
    substeps = t.calls.get("engine.step", 0)
    particle_substeps = t.size.get("engine.step", 0)
    cons_s = t.t("constitutive.batch_constitutive")
    raster_s = t.t("raster.rasterize_frame")
    return {
        "constitutive.batch_constitutive_s": cons_s,
        "constitutive.us_per_particle": _ratio(
            cons_s, t.size.get("constitutive.batch_constitutive", 0), 1e6),
        "constitutive.share_of_step": _ratio(cons_s, step_s, 100.0),
        "engine.step_self_s": t.self_.get("engine.step", 0.0),
        "engine.ms_per_substep": _ratio(step_s, substeps, 1e3),
        "engine.us_per_particle_substep": _ratio(step_s, particle_substeps,
                                                 1e6),
        "engine.substeps": substeps,
        "engine.simulate_self_s": t.self_.get("engine.simulate", 0.0),
        "engine.stable_dt_s": t.t("engine.stable_dt"),
        "engine.stable_dt_calls": t.calls.get("engine.stable_dt", 0),
        "engine.object_events_s": t.t("engine.object_events"),
        "engine.object_events_calls": t.calls.get("engine.object_events", 0),
        "engine.build_state_s": t.t("engine.build_state"),
        "schedule.apply_s": t.t("schedule.apply"),
        "schedule.apply_calls": t.calls.get("schedule.apply", 0),
        "schedule.edits": t.size.get("schedule.apply", 0),
        "schedule.compile_s": t.t("schedule.compile"),
        "materials.validate_field_s": t.t("materials.validate_field"),
        "materials.wave_speeds_s": t.t("materials.wave_speeds"),
        "cli.self_s": t.self_.get("cli.main", 0.0),
        "raster.rasterize_frame_s": raster_s,
        "raster.write_pgm_s": t.t("raster.write_pgm"),
        "raster.points_per_s": _ratio(t.size.get("raster.rasterize_frame", 0),
                                      raster_s),
        "trajectory.export_s": t.t("trajectory.export"),
        "trajectory.verify_s": t.t("trajectory.verify"),
        "trajectory.read_s": t.t("trajectory.read"),
        "trajectory.bytes_written": t.size.get("trajectory.export", 0),
        "fieldio.read_field_s": t.t("fieldio.read_field"),
        "losses.total_loss_s": t.t("losses.total_loss"),
        "losses.gradcheck_task_s": t.t("losses.gradcheck_task"),
        "losses.gradcheck_smoothness_s": t.t("losses.gradcheck_smoothness"),
        "losses.gradcheck_contrastive_s": t.t("losses.gradcheck_contrastive"),
        "losses.gradcheck_assignment_s": t.t("losses.gradcheck_assignment"),
        "losses.smoothness_loss_calls": t.calls.get("losses.smoothness_loss",
                                                    0),
        "conditioning.soft_assign_s": t.t("conditioning.soft_assign"),
    }


def setup_metrics(spans, offset):
    """Per-layer metrics of one traced set-up."""
    t = _Totals(spans, offset)
    return {
        "fill.fill_field_s": t.t("fill.fill_field"),
        "fill.fill_interior_s": t.t("fill.fill_interior"),
        "fill.inherit_properties_s": t.t("fill.inherit_properties"),
        "fill.points_out": t.size.get("fill.fill_field", 0),
        "fieldio.write_field_s": t.t("fieldio.write_field"),
    }


def step_dts(spans):
    return [s.dt for s in spans if s.name == "engine.step"]


def frame_ms(spans):
    return [1e3 * (s.end - s.start) for s in spans
            if s.name == "raster.rasterize_frame"]


def median_of(dicts):
    """Key-wise median over a list of metric dicts."""
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0
