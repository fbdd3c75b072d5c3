"""Temporal intervention schedules: parsing (``compile_schedule``), ramps
(``ramp_value``) and live application (``ScheduleRuntime``).

docs/schedule_grammar.md specifies the line grammar and its semantics:
triggers, targets, ramps, the per-substep rate cap and the clamps.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constitutive import _selection
from .errors import (ClampViolation, DomainError, ParseError, UnknownTarget)
from .materials import (E_MAX, E_MIN, MaterialClass, NU_MAX, NU_MIN,
                        RHO_MAX, RHO_MIN)

# property -> (value kind, ramp scale or None if instantaneous, scene-wide)
_PROPS = {
    "young_modulus": ("scalar", "log", False),
    "density": ("scalar", "log", False),
    "poisson_ratio": ("scalar", "linear", False),
    "gravity_scale": ("scalar", "linear", False),
    "wind_scale": ("scalar", "linear", False),
    "gravity": ("vector", "linear", True),
    "wind": ("vector", "linear", True),
    "velocity_impulse": ("vector", None, False),
    "material_model": ("class", None, False),
}

DEFAULT_CLAMPS = {
    "young_modulus": (E_MIN, E_MAX),
    "poisson_ratio": (NU_MIN, NU_MAX),
    "density": (RHO_MIN, RHO_MAX),
    "gravity_scale": (-100.0, 100.0),
    "wind_scale": (-100.0, 100.0),
}
DEFAULT_MAX_LOG_RATE = 2.0  # decades per second

# event -> (aggregate of engine.object_events that it tests, comparison of
# that aggregate with the threshold; None: the event takes no threshold)
_EVENTS = {
    "ground_contact": ("ground_contact", None),
    "height_below": ("min_height", operator.lt),
    "speed_above": ("max_speed", operator.gt),
}


@dataclass(frozen=True)
class Selector:
    """Which particles an intervention touches; object None means scene-wide."""

    object_id: Optional[int] = None
    part: Optional[int] = None
    interior_only: bool = False

    def describe(self):
        if self.object_id is None:
            return "scene"
        s = f"object {self.object_id}"
        if self.part is not None:
            s += f" part {self.part}"
        if self.interior_only:
            s += " interior"
        return s


@dataclass(frozen=True)
class Trigger:
    kind: str  # at_time | on_ground_contact | on_height_below | on_speed_above
    value: Optional[float] = None
    probe_object: Optional[int] = None  # set for every event trigger


@dataclass(frozen=True)
class Intervention:
    target: Selector
    property: str
    value: object  # float, 3-tuple, or MaterialClass
    trigger: Trigger
    ramp_duration: float = 0.0
    source_line: int = 0


@dataclass(frozen=True)
class InstructionSchedule:
    interventions: tuple = ()
    max_log_rate: float = DEFAULT_MAX_LOG_RATE


def ramp_value(v_from, v_to, t_since_trigger, ramp_duration, scale="linear"):
    """Interpolated value on a ramp; duration 0 returns the target.

    linear: v_from + a (v_to - v_from); log: exp((1-a) ln v_from + a ln v_to)
    with a = clamp(t / duration, 0, 1).  Log scale rejects non-positive
    endpoints.
    """
    if ramp_duration < 0:
        raise DomainError("ramp_duration must be >= 0")
    if scale not in ("linear", "log"):
        raise DomainError(f"unknown ramp scale {scale!r}")
    v_from = np.asarray(v_from, dtype=np.float64)
    v_to = np.asarray(v_to, dtype=np.float64)
    if scale == "log" and (np.any(v_from <= 0) or np.any(v_to <= 0)):
        raise DomainError("log ramps need positive endpoints")
    out = np.broadcast_to(
        _ramp_at(_ramp_ends(v_from, v_to, scale), v_to, t_since_trigger,
                 ramp_duration, scale),
        np.broadcast_shapes(v_from.shape, v_to.shape))
    return float(out) if out.ndim == 0 else out.copy()


def _ramp_ends(v_from, v_to, scale):
    """Copies of a ramp's endpoints in the space it interpolates in: their
    logs on a log scale."""
    ends = (np.array(v_from, dtype=np.float64), np.array(v_to, dtype=np.float64))
    return (np.log(ends[0]), np.log(ends[1])) if scale == "log" else ends


def _ramp_at(ends, v_to, t_since_trigger, ramp_duration, scale):
    """``ramp_value`` without its checks, from the ``_ramp_ends`` ends."""
    if ramp_duration == 0:
        return v_to
    alpha = min(max(t_since_trigger / ramp_duration, 0.0), 1.0)
    lo, hi = ends
    if scale == "linear":
        return lo + alpha * (hi - lo)
    return np.exp((1.0 - alpha) * lo + alpha * hi)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\([^()]*\)|\S+")


def _tokenize(line: str):
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


class _LineParser:
    def __init__(self, tokens, line_no, line_len):
        self.tokens = tokens
        self.line_no = line_no
        self.line_len = line_len
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self, what="token"):
        if self.pos >= len(self.tokens):
            raise ParseError(f"expected {what}, found end of line",
                             line=self.line_no, column=self.line_len + 1)
        tok, col = self.tokens[self.pos]
        self.pos += 1
        return tok, col

    def number(self, text, col, what):
        """The finite float that text spells; ParseError otherwise."""
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"expected {what} (a number), got {text!r}",
                             line=self.line_no, column=col) from None
        if not math.isfinite(value):
            raise ParseError(f"{what} must be finite, got {text!r}",
                             line=self.line_no, column=col)
        return value

    def expect_float(self, what):
        tok, col = self.next(what)
        return self.number(tok, col, what)

    def expect_int(self, what):
        tok, col = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected {what} (an integer), got {tok!r}",
                             line=self.line_no, column=col) from None

    def expect_vector(self, what):
        tok, col = self.next(what)
        if not (tok.startswith("(") and tok.endswith(")")):
            raise ParseError(f"expected {what} as (x,y,z), got {tok!r}",
                             line=self.line_no, column=col)
        parts = tok[1:-1].split(",")
        if len(parts) != 3:
            raise ParseError(f"{what} needs exactly 3 components",
                             line=self.line_no, column=col)
        return tuple(self.number(part, col, f"{what} component")
                     for part in parts)

    def done(self):
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"unexpected trailing token {tok!r}",
                             line=self.line_no, column=col)


def _parse_trigger(p: _LineParser):
    tok, col = p.next("trigger")
    if tok == "at":
        t_tok, t_col = p.next("time")
        if t_tok.startswith("t="):
            t_tok = t_tok[2:]
        t = p.number(t_tok, t_col, "trigger time")
        if t < 0:
            raise ParseError("trigger time must be >= 0",
                             line=p.line_no, column=t_col)
        return Trigger(kind="at_time", value=t)
    if tok == "on":
        ev, ev_col = p.next("event name")
        if ev not in _EVENTS:
            raise ParseError(f"unknown event {ev!r}; expected one of "
                             f"{tuple(_EVENTS)}", line=p.line_no, column=ev_col)
        value = None
        if _EVENTS[ev][1] is not None:
            value = p.expect_float(f"{ev} threshold")
        probe = None
        if p.peek() == "object":
            p.next()
            probe = p.expect_int("probe object id")
        return Trigger(kind=f"on_{ev}", value=value, probe_object=probe)
    raise ParseError(f"expected 'at' or 'on', got {tok!r}",
                     line=p.line_no, column=col)


def _parse_target(p: _LineParser):
    """The target selector and the column of its first token."""
    tok, col = p.next("target")
    if tok == "scene":
        return Selector(), col
    if tok != "object":
        raise ParseError(f"expected 'scene' or 'object', got {tok!r}",
                         line=p.line_no, column=col)
    oid = p.expect_int("object id")
    part = None
    interior = False
    while p.peek() in ("part", "interior"):
        tok, _ = p.next()
        if tok == "part":
            part = p.expect_int("part label")
        else:
            interior = True
    return Selector(object_id=oid, part=part, interior_only=interior), col


def _parse_material_class(p: _LineParser):
    tok, col = p.next("material class")
    name = tok.upper()
    try:
        return (MaterialClass(int(name)) if name.isdecimal()
                else MaterialClass[name])
    except (KeyError, ValueError):
        raise ParseError(
            f"unknown material class {tok!r}; expected one of "
            f"{[m.name.lower() for m in MaterialClass]}",
            line=p.line_no, column=col) from None


def _parse_entry(p: _LineParser, line_no: int):
    trigger = _parse_trigger(p)
    verb, verb_col = p.next("'set' or 'impulse'")
    if verb not in ("set", "impulse"):
        raise ParseError(f"expected 'set' or 'impulse', got {verb!r}",
                         line=line_no, column=verb_col)
    target, target_col = _parse_target(p)
    if verb == "impulse":  # sugar for: set <target> velocity_impulse <vector>
        prop, prop_col = "velocity_impulse", verb_col
    else:
        prop, prop_col = p.next("property name")
    if prop not in _PROPS:
        raise ParseError(f"unknown property {prop!r}; expected one of "
                         f"{tuple(_PROPS)}", line=line_no, column=prop_col)
    kind, scale, scene_wide = _PROPS[prop]
    if kind == "vector":
        value = p.expect_vector(prop)
    elif kind == "class":
        value = _parse_material_class(p)
    else:
        value = p.expect_float(prop)
    ramp = 0.0
    while p.peek() in ("ramp", "once"):  # once: every trigger latches anyway
        tok, col = p.next()
        if tok == "ramp":
            ramp = p.expect_float("ramp duration")
            if ramp < 0:
                raise ParseError("ramp duration must be >= 0",
                                 line=line_no, column=col)
            if scale is None and ramp != 0:
                raise ParseError(f"{prop} cannot ramp; it is instantaneous",
                                 line=line_no, column=col)
    if scene_wide and target.object_id is not None:
        raise ParseError(f"{prop} is scene-wide; use gravity_scale/wind_scale "
                         "for per-object control", line=line_no, column=prop_col)
    if not scene_wide and target.object_id is None:
        raise ParseError(f"{prop} needs an object target",
                         line=line_no, column=prop_col)
    if trigger.kind != "at_time" and trigger.probe_object is None:
        if target.object_id is None:
            raise ParseError("an event trigger on a scene target needs an "
                             "explicit 'object N' probe after the event",
                             line=line_no, column=target_col)
        trigger = replace(trigger, probe_object=target.object_id)
    p.done()
    return Intervention(target=target, property=prop, value=value,
                        trigger=trigger, ramp_duration=ramp,
                        source_line=line_no)


def compile_schedule(raw: str, state) -> InstructionSchedule:
    """Parse and validate a schedule written in docs/schedule_grammar.md.

    Every object and part the schedule names must be in ``state`` (a
    SimulationState, or anything with its object_id and part columns).
    """
    clamps = dict(DEFAULT_CLAMPS)
    max_log_rate = DEFAULT_MAX_LOG_RATE
    entries = []
    for line_no, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0]
        tokens = _tokenize(body)
        if not tokens:
            continue
        p = _LineParser(tokens, line_no, len(line))
        head = p.peek()
        if head == "clamp":
            p.next()
            prop, col = p.next("property name")
            if prop not in DEFAULT_CLAMPS:
                raise ParseError(f"no clamp table for property {prop!r}",
                                 line=line_no, column=col)
            lo = p.expect_float("clamp minimum")
            hi = p.expect_float("clamp maximum")
            p.done()
            d_lo, d_hi = DEFAULT_CLAMPS[prop]
            if not (lo < hi):
                raise ParseError("clamp minimum must be below maximum",
                                 line=line_no, column=col)
            if lo < d_lo or hi > d_hi:
                raise ClampViolation(
                    f"line {line_no}: clamp for {prop} must stay inside the "
                    f"validity range [{d_lo:g}, {d_hi:g}]")
            clamps[prop] = (lo, hi)
        elif head == "max_log_rate":
            p.next()
            max_log_rate = p.expect_float("max_log_rate")
            if max_log_rate <= 0:
                raise ParseError("max_log_rate must be positive",
                                 line=line_no, column=p.tokens[p.pos - 1][1])
            p.done()
        else:
            entries.append(_parse_entry(p, line_no))

    scene_parts = {  # object id -> its part labels
        int(oid): set(np.unique(state.part[state.object_id == oid]).tolist())
        for oid in np.unique(state.object_id)}
    for pos, iv in enumerate(entries):
        for oid in (iv.target.object_id, iv.trigger.probe_object):
            if oid is not None and oid not in scene_parts:
                raise UnknownTarget(
                    f"line {iv.source_line}: object {oid} not in scene "
                    f"(have {sorted(scene_parts)})")
        if iv.target.part is not None and \
                iv.target.part not in scene_parts[iv.target.object_id]:
            raise UnknownTarget(
                f"line {iv.source_line}: object {iv.target.object_id} has "
                f"no part {iv.target.part}")
        if iv.property in clamps:
            lo, hi = clamps[iv.property]
            if iv.property == "density" and iv.target.interior_only \
                    and float(iv.value) < lo:
                # density elimination: floor at the clamp minimum, never zero
                entries[pos] = replace(iv, value=lo)
            elif not (lo <= float(iv.value) <= hi):
                raise ClampViolation(
                    f"line {iv.source_line}: {iv.property} value "
                    f"{float(iv.value):g} outside clamp [{lo:g}, {hi:g}]")

    timed = sorted((iv for iv in entries if iv.trigger.kind == "at_time"),
                   key=lambda iv: (iv.trigger.value, iv.source_line))
    events = [iv for iv in entries if iv.trigger.kind != "at_time"]
    return InstructionSchedule(interventions=tuple(timed) + tuple(events),
                               max_log_rate=max_log_rate)


# ---------------------------------------------------------------------------
# runtime application

class ScheduleRuntime:
    """Mutable bookkeeping around an immutable schedule.

    Per line it keeps when the line fired, whether it is done, and its
    ramp's ends (``_ramp_ends``), fixed when it first applies.  ``t`` is
    the substep start time that ``apply`` last applied; each time is
    applied once, so a second call at that time changes nothing and
    records nothing.

    No edit changes object ids, parts or interior flags, so the particles
    each line selects and those of each object an event probes are found
    once per state, at its first ``apply`` (``_bind``).
    """

    def __init__(self, schedule: InstructionSchedule):
        self.schedule = schedule
        n = len(schedule.interventions)
        self.fire_time = [None] * n
        self.done = [False] * n
        self.baseline = [None] * n
        self.t = None
        self._state = None  # the state _bind found the rows of

    def _bind(self, state):
        """Each line's target rows, and each probed object's rows."""
        self._state = state
        self._rows = []
        for iv in self.schedule.interventions:
            sel = iv.target
            if _PROPS[iv.property][2]:  # scene-wide
                self._rows.append(slice(None))
                continue
            mask = state.object_id == sel.object_id
            if sel.part is not None:
                mask &= state.part == sel.part
            if sel.interior_only:
                mask &= state.interior
            # an index array, so that arr[rows] reads a copy
            self._rows.append(np.nonzero(mask)[0])
        self._objects = {
            oid: _selection(np.flatnonzero(state.object_id == oid))
            for oid in sorted({iv.trigger.probe_object
                               for iv in self.schedule.interventions
                               if iv.trigger.kind != "at_time"})}

    def _check_fire(self, i, iv: Intervention, t, events):
        if self.fire_time[i] is None:
            trig = iv.trigger
            if trig.kind == "at_time":
                if t >= trig.value - 1e-12:
                    self.fire_time[i] = trig.value
            else:
                key, compare = _EVENTS[trig.kind.removeprefix("on_")]
                value = events[trig.probe_object][key]
                if value if compare is None else compare(value, trig.value):
                    self.fire_time[i] = t
        return self.fire_time[i] is not None

    def apply(self, state, t, dt):
        """Apply all active interventions at substep start time t.

        Returns a list of JSON-serializable edit records; empty when
        nothing changed or t was already applied.
        """
        from .engine import object_events  # deferred to avoid an import cycle

        if t == self.t:
            return []
        self.t = t
        if state is not self._state:
            self._bind(state)
        lines = self.schedule.interventions
        # only the objects that lines still waiting for an event probe
        probed = {iv.trigger.probe_object for iv, ft in zip(lines, self.fire_time)
                  if iv.trigger.kind != "at_time" and ft is None}
        events = object_events(state, {oid: self._objects[oid]
                                       for oid in sorted(probed)}) if probed else {}
        records = []
        for i, iv in enumerate(lines):
            if self._check_fire(i, iv, t, events) and not self.done[i]:
                rec = self._apply_one(state, i, iv, t, dt)
                if rec is not None:
                    records.append(rec)
        return records

    def _record(self, iv, t, dt, **extra):
        return {"t": t, "dt": dt, "property": iv.property,
                "target": iv.target.describe(), "line": iv.source_line, **extra}

    def _apply_one(self, state, i, iv: Intervention, t, dt):
        prop = iv.property
        kind, scale, _ = _PROPS[prop]
        idx = self._rows[i]

        if prop == "velocity_impulse":
            state.v[idx] += np.asarray(iv.value, dtype=np.float64)
            self.done[i] = True
            return self._record(iv, t, dt, value=list(iv.value), one_shot=True)

        if prop == "material_model":
            state.class_id[idx] = int(iv.value)
            if int(iv.value) == MaterialClass.RIGID:
                state.f[idx] = np.eye(3)  # rigid from the shape it has now
            self.done[i] = True
            return self._record(iv, t, dt, value=MaterialClass(int(iv.value)).name)

        arr = getattr(state, prop)
        old = arr[idx]  # a copy, except the view of a scene-wide vector
        if old.size == 0:
            self.done[i] = True
            return None
        if self.baseline[i] is None:
            self.baseline[i] = _ramp_ends(old, iv.value, scale)
        t0 = self.fire_time[i]
        new = _ramp_at(self.baseline[i], iv.value, t - t0, iv.ramp_duration,
                       scale)
        new = np.broadcast_to(np.asarray(new, dtype=np.float64), old.shape)
        capped = False
        if scale == "log":
            # per-substep rate cap, measured from the values before this
            # application (log properties are per particle, so old is a copy)
            rate = self.schedule.max_log_rate * dt
            desired = new
            # past about 308 decades a rate cannot bind: its bounds are 0, inf
            with np.errstate(over="ignore"):
                lo, hi = np.float64(10.0) ** -rate, np.float64(10.0) ** rate
            new = np.clip(desired, old * lo, old * hi)
            capped = bool(np.any(new != desired))
        if np.array_equal(new, old):
            if t - t0 >= iv.ramp_duration and not capped:
                self.done[i] = True
            return None
        arr[idx] = new
        if prop == "density":
            state.mass[idx] = state.density[idx] * state.vol0[idx]
        if kind == "vector":
            return self._record(iv, t, dt, value=new.tolist())
        rec = self._record(iv, t, dt, value=float(iv.value),
                           applied_min=float(new.min()),
                           applied_max=float(new.max()))
        if scale == "log":
            rec.update(max_dlog10=float(np.max(np.abs(np.log10(new / old)))),
                       capped=capped)
        return rec
