"""Resilience quantities over simulation outputs.

Turns frequency traces and restoration timelines into service-level
trajectories, integrates degradation area, annotates the four inner-loop
phases (Defend, Detect, Remediate, Recover) and projects runs into the
state-vs-service plane.

The frequency-to-service mapping is a toolkit convention (linear ramp
from the band edge down to a configurable floor deviation), not a
physical law; callers can substitute their own.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .fields import number, require
from .frequency import FrequencyTrace, SystemParameters

DEFAULT_FLOOR_DEVIATION_HZ = 2.5

_FINITE, _FRACTION = number(), number(ge=0, le=1)


@dataclass(frozen=True, eq=False)
class ServiceTrajectory:
    """Time-indexed service level with operational-state labels.

    Three equal-length, non-empty columns: t (s, finite and strictly
    increasing), level (fraction of required service in [0, 1]) and code
    (int8), the index of each sample's operational-state label in labels.
    """

    t: np.ndarray
    level: np.ndarray
    code: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        t, level, code = self.t, self.level, self.code
        if not len(t) == len(level) == len(code):
            raise InvalidInputError("t, level, code: must have equal lengths")
        if len(t) == 0:
            raise InvalidInputError("trajectory: must be non-empty")
        if not (np.isfinite(t).all() and (np.diff(t) > 0).all()):
            raise InvalidInputError("t: must be finite and strictly increasing")
        if not ((level >= 0.0) & (level <= 1.0)).all():
            raise InvalidInputError("level: must be in [0, 1]")
        if not ((code >= 0) & (code < len(self.labels))).all():
            raise InvalidInputError("code: must index labels")

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class PhaseInterval:
    phase: str            # Defend | Detect | Remediate | Recover
    t_start: float
    t_end: float


@dataclass(frozen=True)
class PhaseAnnotation:
    """Ordered, non-overlapping inner-loop phase intervals plus durations."""

    intervals: tuple[PhaseInterval, ...]
    detection_latency_s: float
    activation_time_s: float
    remediation_time_s: float
    recovery_time_s: float


@dataclass(frozen=True)
class StatePoint:
    degradation: float    # fraction of system state lost, in [0, 1]
    level: float          # service level in [0, 1]


@dataclass(frozen=True)
class StateTransition:
    kind: str             # challenge | remediation | recovery
    start: StatePoint
    end: StatePoint


@dataclass(frozen=True)
class StateSpacePath:
    points: tuple[StatePoint, ...]
    transitions: tuple[StateTransition, ...]


def degradation_area(trajectory: ServiceTrajectory, baseline: float = 1.0,
                     clip: bool = False) -> float:
    """Trapezoidal area between the baseline and the service level.

    The deficit max(baseline - level, 0) is evaluated at the trajectory
    samples and integrated over the span. Lower area means a more
    resilient response to the same challenge. Unless clip is set, the
    baseline must dominate every sample.
    """
    require(("baseline", _FINITE, baseline))
    level = trajectory.level
    if not clip and float(level.max()) > baseline + 1e-12:
        raise InvalidInputError(
            "baseline: below the trajectory maximum; pass clip=True to clamp")
    if len(trajectory) == 1:
        return 0.0
    deficit = np.maximum(baseline - level, 0.0)
    with np.errstate(over="ignore"):   # an area beyond the float range is inf
        return float(np.trapezoid(deficit, trajectory.t))


def service_from_frequency(trace: FrequencyTrace, params: SystemParameters,
                           floor_deviation_hz: float = DEFAULT_FLOOR_DEVIATION_HZ,
                           ) -> ServiceTrajectory:
    """Map a frequency trace to service level.

    Full service inside the allowed band, linear decline from the band
    edge to zero at the floor deviation, zero beyond.
    """
    band = params.band_half_width_hz
    require(("floor_deviation_hz", number(gt=band), floor_deviation_hz))
    dev = np.abs(trace.f - params.f_n)
    inside, beyond = dev <= band, dev >= floor_deviation_hz
    level = np.where(inside, 1.0, np.where(
        beyond, 0.0, 1.0 - (dev - band) / (floor_deviation_hz - band)))
    code = np.where(inside, 0, np.where(beyond, 2, 1)).astype(np.int8)
    return ServiceTrajectory(t=trace.t, level=level, code=code,
                             labels=("in_band", "outside_band", "floor"))


def service_from_restoration(events, total_load_mw: float) -> ServiceTrajectory:
    """Served-load fraction over timeline events, labeled by stage."""
    require(("total_load_mw", number(gt=0), total_load_mw))
    times, levels, codes = [], [], []
    index: dict[str, int] = {}    # stage -> code, in order of first use
    last_t = -math.inf
    for ev in events:
        t = ev.t_s
        if t <= last_t:  # events may share a timestamp; nudge for strictness
            t = math.nextafter(last_t, math.inf)
        last_t = t
        times.append(t)
        levels.append(min(ev.served_total_mw / total_load_mw, 1.0))
        codes.append(index.setdefault(ev.stage, len(index)))
    if len(index) > 128:   # codes are int8
        raise InvalidInputError("timeline: at most 128 distinct stages")
    return ServiceTrajectory(t=np.array(times, dtype=float),
                             level=np.array(levels, dtype=float),
                             code=np.array(codes, dtype=np.int8), labels=tuple(index))


def annotate_phases(trajectory: ServiceTrajectory, challenge_t: float,
                    detection_t: float, remediation_start_t: float,
                    recovery_complete_t: float) -> PhaseAnnotation:
    """Partition the trajectory span into the four inner-loop phases.

    Defend runs until the challenge, Detect until detection, Remediate
    until recovery completes, Recover to the end of the span. Also
    reports the four durations (detection latency, activation time,
    remediation time, recovery time).
    """
    events = (challenge_t, detection_t, remediation_start_t, recovery_complete_t)
    require(*(("events", _FINITE, t) for t in events))
    t0 = float(trajectory.t[0])
    t_end = float(trajectory.t[-1])
    marks = [t0, *events, t_end]
    if any(b < a for a, b in zip(marks, marks[1:])):
        raise InvalidInputError(
            "events: must be ordered challenge <= detection <= remediation "
            "start <= recovery complete within the trajectory span")
    intervals = (
        PhaseInterval("Defend", t0, challenge_t),
        PhaseInterval("Detect", challenge_t, detection_t),
        PhaseInterval("Remediate", detection_t, recovery_complete_t),
        PhaseInterval("Recover", recovery_complete_t, t_end),
    )
    return PhaseAnnotation(
        intervals=intervals,
        detection_latency_s=detection_t - challenge_t,
        activation_time_s=remediation_start_t - detection_t,
        remediation_time_s=recovery_complete_t - remediation_start_t,
        recovery_time_s=t_end - recovery_complete_t,
    )


def phase_index(annotation: PhaseAnnotation, t):
    """Index in annotation.intervals of the phase covering t (a time or an
    array): the number of later phase starts at or before t, so a time
    before the span is in Defend and one past its end in Recover."""
    return np.searchsorted([iv.t_start for iv in annotation.intervals[1:]], t,
                           side="right")


def phase_at(annotation: PhaseAnnotation, t: float) -> str:
    """Phase name covering time t (phase_index)."""
    return annotation.intervals[phase_index(annotation, t)].phase


def state_space_path(trajectory: ServiceTrajectory,
                     state_metric: dict[str, float]) -> StateSpacePath:
    """Project a labeled trajectory into the (degradation, service) plane.

    Emits one point per sample where either coordinate changes, with
    transitions labeled challenge (worse state or lower service),
    recovery (state improves) or remediation (service improves at equal
    state).
    """
    used = [trajectory.labels[k] for k in np.unique(trajectory.code).tolist()]
    missing = sorted(set(used) - set(state_metric))
    if missing:
        raise InvalidInputError(f"state_metric: unmapped labels: {', '.join(missing)}")
    require(*((f"state_metric[{label}]", _FRACTION, value)
              for label, value in state_metric.items()))

    degradation = np.array([float(state_metric.get(label, 0.0))  # unused if unmapped
                            for label in trajectory.labels])[trajectory.code]
    plane = np.stack([degradation, trajectory.level])
    keep = np.concatenate(([True], np.diff(plane, axis=1).any(axis=0)))
    deg, lvl = plane[:, keep]
    d_deg, d_lvl = np.diff(deg), np.diff(lvl)
    kinds = np.where((d_deg > 0) | (d_lvl < 0), "challenge",
                     np.where(d_deg < 0, "recovery", "remediation"))
    points = tuple(map(StatePoint, deg.tolist(), lvl.tolist()))
    return StateSpacePath(points=points, transitions=tuple(map(
        StateTransition, kinds.tolist(), points[:-1], points[1:])))
