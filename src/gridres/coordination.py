"""Two-phase operator exchanges for inertia and droop reserve provision.

Phase 1 estimates the maximum contribution an aggregated distribution
grid can offer (maximum inertia constant, droop feasibility envelope).
Phase 2 selects a target and distributes it to the individual units.
Distribution uses proportional rules (headroom for inertia, rating for
droop). Regulatory reserve checks and the fleet document (FleetCase),
which holds both exchanges and the reserve, live here as well.
"""

import math
from dataclasses import dataclass

from .errors import GridResError, InvalidInputError
from .fields import duplicates, flag, num, obj, require, row, seq, table, text
from .frequency import DroopCurve, _droop, _droop_anchors

FCR_SINGLE_UNIT_CAP = 0.05  # max share of total containment reserve per unit
MAX_GRID_ROWS = 10**5       # most rows of a frequency grid


class InfeasibleHeadroomError(GridResError):
    """Offered maximum power is below the steady-state exchange."""


class InfeasibleAssignmentError(GridResError):
    """Aggregate target exceeds what the unit fleet can absorb."""


class DistributionError(GridResError):
    """A per-unit split violates a unit rating at some frequency."""


class FeasibilityViolationError(GridResError):
    """A candidate droop curve leaves the feasible envelope."""

    def __init__(self, offending_frequencies: list[float]):
        self.offending_frequencies = list(offending_frequencies)
        freqs = ", ".join(f"{f:g}" for f in self.offending_frequencies)
        super().__init__(f"droop curve infeasible at frequencies: {freqs}")


@table
class DerUnit:
    """A distributed resource with its operating point and headroom."""

    id: str = text()
    p_rating: float = num(ge=0)        # pu
    p_available: float = num(ge=0)     # pu, current operating point
    bus: str = text("")
    in_reference_incident: bool = flag(False)

    def invariants(self):
        if self.p_available > self.p_rating:
            return ["p_available: must be <= p_rating"]
        return []

    @property
    def headroom(self) -> float:
        return self.p_rating - self.p_available


@table
class FleetUnit(DerUnit):
    """A fleet document's unit: a DerUnit with its containment-reserve share."""

    fcr_share: float = num(0.0, ge=0)


def headroom_violations(p0_irmax_pu: float, p0_ss_pu: float) -> list[str]:
    """The headroom rule of the inertia exchange: P0_irmax >= P0_ss."""
    return [] if p0_irmax_pu >= p0_ss_pu else ["p0_irmax_pu: must be >= p0_ss_pu"]


def selection_violations(h_ag_tso_s: float, h_ag_max_s: float) -> list[str]:
    """The selection rule of the inertia exchange: H_tso < H_max."""
    if h_ag_tso_s < h_ag_max_s:
        return []
    return [f"h_ag_tso_s: must be below the offered maximum h_ag_max_s = {h_ag_max_s:g}"]


@table
class InertiaPhase1:
    """First exchange: expected worst ROCOF out, offered maximum back."""

    rocof_max_hz_per_s: float = num(gt=0)
    h_ag_max_s: float = num(ge=0)
    p0_ss_pu: float = num()
    p0_irmax_pu: float = num()

    def invariants(self):
        return headroom_violations(self.p0_irmax_pu, self.p0_ss_pu)


@dataclass(frozen=True)
class InertiaAssignment:
    """Selected aggregate inertia constant and its per-unit split."""

    h_ag_tso_s: float
    per_unit_h_s: dict[str, float]


@table
class FrequencyGrid:
    """Frequency sampling grid for envelope construction and checks."""

    f_min: float = num()
    f_max: float = num()
    f_step: float = num(gt=0)
    f_n: float = num(50.0, gt=0)

    def invariants(self):
        if not self.f_min < self.f_max:
            return ["f_min: must be < f_max"]
        if not (self.f_max - self.f_min) / self.f_step < MAX_GRID_ROWS:
            return [f"f_step: the grid must have at most {MAX_GRID_ROWS} rows"]
        return []

    def frequencies(self) -> list[float]:
        """Rows from f_min in steps of f_step until f_max is reached or passed."""
        rows = [self.f_min]
        k = 0
        while rows[-1] < self.f_max - 1e-12:
            k += 1
            rows.append(self.f_min + k * self.f_step)
        return rows


@table
class FleetCase:
    """A fleet document: units plus the two phase-2 selections."""

    rocof_max_hz_per_s: float = num(gt=0, key="inertia.rocof_max_hz_per_s")
    p0_ss_pu: float = num(key="inertia.p0_ss_pu")
    p0_irmax_pu: float = num(key="inertia.p0_irmax_pu")
    h_ag_tso_s: float = num(ge=0, key="inertia.h_ag_tso_s")
    grid: FrequencyGrid = obj(FrequencyGrid, key="droop.grid")
    candidate: DroopCurve = obj(DroopCurve, key="droop.candidate")
    f_n: float = num(50.0, gt=0)
    units: tuple[FleetUnit, ...] = seq(FleetUnit, ())
    total_fcr_pu: float = num(1.0, gt=0)

    def invariants(self):
        out = duplicates("units", [u.id for u in self.units])
        if not math.isfinite(sum(u.p_rating for u in self.units)):
            out.append("units: total p_rating must be finite")
        if headroom := headroom_violations(self.p0_irmax_pu, self.p0_ss_pu):
            return out + [f"inertia.{v}" for v in headroom]
        h_max = compute_h_ag_max(self.p0_irmax_pu, self.p0_ss_pu, self.f_n,
                                 self.rocof_max_hz_per_s)
        if problem := row(InertiaPhase1, "h_ag_max_s").check(h_max):
            return out + [f"inertia.p0_irmax_pu: the offered h_ag_max_s {problem}"]
        return out + [f"inertia.{v}" for v in selection_violations(self.h_ag_tso_s, h_max)]


@dataclass(frozen=True)
class DroopEnvelope:
    """Aggregated feasible area for droop curves over a frequency grid.

    corners holds the named points A..F as (frequency, power) pairs:
    A/B are the min/max power at f_max, C/D at f_n, E/F at f_min.
    """

    grid: FrequencyGrid
    frequencies: tuple[float, ...]
    p_agg_min: tuple[float, ...]
    p_agg_max: tuple[float, ...]
    corners: dict[str, tuple[float, float]]

    def __post_init__(self):
        if not (len(self.frequencies) == len(self.p_agg_min) == len(self.p_agg_max)):
            raise InvalidInputError("envelope: row lengths must match")
        if not self.frequencies:
            raise InvalidInputError("envelope: frequency grid is empty")
        if any(lo > hi for lo, hi in zip(self.p_agg_min, self.p_agg_max)):
            raise InvalidInputError(
                "envelope: p_agg_min must not exceed p_agg_max at any frequency")


@dataclass(frozen=True)
class RuleViolation:
    unit_id: str
    rule: str            # "CapExceeded" or "IncidentUnitIncluded"
    detail: str


@dataclass(frozen=True)
class ReserveRuleReport:
    """Outcome of the regulatory checks; empty iff compliant."""

    violations: tuple[RuleViolation, ...]

    @property
    def compliant(self) -> bool:
        return not self.violations


def _check_exchange(**inputs: float) -> None:
    """The inputs of the inertia formulas, checked with the rows that hold
    them: f_n with FrequencyGrid's, h_ag_tso_s with h_ag_max_s's and the
    others with the InertiaPhase1 row of their own name."""
    rows = {"f_n": row(FrequencyGrid, "f_n"), "h_ag_tso_s": row(InertiaPhase1, "h_ag_max_s")}
    require(*((name, rows.get(name) or row(InertiaPhase1, name), value)
              for name, value in inputs.items()))


def compute_h_ag_max(p0_irmax_pu: float, p0_ss_pu: float, f_n: float,
                     rocof_max_hz_per_s: float) -> float:
    """Maximum inertia constant an aggregated grid can offer.

    H = (f_n / 2) * (P0_irmax - P0_ss) / ROCOF_max
    """
    _check_exchange(rocof_max_hz_per_s=rocof_max_hz_per_s, f_n=f_n,
                    p0_irmax_pu=p0_irmax_pu, p0_ss_pu=p0_ss_pu)
    if problems := headroom_violations(p0_irmax_pu, p0_ss_pu):
        raise InfeasibleHeadroomError("; ".join(problems))
    return (f_n / 2.0) * (p0_irmax_pu - p0_ss_pu) / rocof_max_hz_per_s


def compute_p0_ir(h_ag_tso_s: float, rocof_max_hz_per_s: float, f_n: float,
                  p0_ss_pu: float) -> float:
    """Total interchange power when delivering the selected inertia.

    P0_ir = 2 * H * ROCOF_max / f_n + P0_ss; the algebraic inverse of
    compute_h_ag_max.
    """
    _check_exchange(rocof_max_hz_per_s=rocof_max_hz_per_s, f_n=f_n,
                    h_ag_tso_s=h_ag_tso_s, p0_ss_pu=p0_ss_pu)
    return 2.0 * h_ag_tso_s * rocof_max_hz_per_s / f_n + p0_ss_pu


def make_inertia_assignment(phase1: InertiaPhase1, h_ag_tso_s: float,
                            units: list[DerUnit], f_n: float) -> InertiaAssignment:
    """Validate the operator's selection against phase 1 and split it.

    The selected constant must be strictly below the offered maximum.
    """
    if problems := selection_violations(h_ag_tso_s, phase1.h_ag_max_s):
        raise InvalidInputError("; ".join(problems))
    per_unit = distribute_inertia(h_ag_tso_s, units, phase1.rocof_max_hz_per_s, f_n)
    return InertiaAssignment(h_ag_tso_s=h_ag_tso_s, per_unit_h_s=per_unit)


def distribute_inertia(h_ag_tso_s: float, units: list[DerUnit],
                       rocof_max_hz_per_s: float, f_n: float) -> dict[str, float]:
    """Split an aggregate inertia target into per-unit constants.

    The aggregate inertial power 2*H_ag*(S_ag/f_n)*ROCOF is allocated
    proportionally to unit headroom, then converted back to a per-unit
    inertia constant against each unit's rating. Units with no headroom
    receive zero.
    """
    _check_exchange(rocof_max_hz_per_s=rocof_max_hz_per_s, f_n=f_n, h_ag_tso_s=h_ag_tso_s)
    s_ag = sum(u.p_rating for u in units)
    required_power = 2.0 * h_ag_tso_s * (s_ag / f_n) * rocof_max_hz_per_s
    total_headroom = sum(u.headroom for u in units)
    if required_power > total_headroom + 1e-12:
        raise InfeasibleAssignmentError(
            f"aggregate inertial power {required_power:g} pu exceeds total "
            f"headroom {total_headroom:g} pu")
    per_unit: dict[str, float] = {}
    for u in units:
        if total_headroom <= 0 or u.headroom <= 0 or u.p_rating <= 0:
            per_unit[u.id] = 0.0
            continue
        power_i = required_power * (u.headroom / total_headroom)
        per_unit[u.id] = power_i * f_n / (2.0 * u.p_rating * rocof_max_hz_per_s)
    return per_unit


def compute_droop_envelope(units: list[DerUnit], grid: FrequencyGrid) -> DroopEnvelope:
    """Aggregate feasible power band per grid frequency.

    Capability sums: the minimum is zero output from every unit, the
    maximum is every unit at full rating, at each frequency row.
    """
    freqs = grid.frequencies()
    p_max_total = sum(u.p_rating for u in units)
    p_min = tuple(0.0 for _ in freqs)
    p_max = tuple(p_max_total for _ in freqs)

    def nearest(target):
        return min(range(len(freqs)), key=lambda i: (abs(freqs[i] - target), i))

    i_fmax, i_fn, i_fmin = nearest(grid.f_max), nearest(grid.f_n), nearest(grid.f_min)
    corners = {
        "A": (freqs[i_fmax], p_min[i_fmax]), "B": (freqs[i_fmax], p_max[i_fmax]),
        "C": (freqs[i_fn], p_min[i_fn]), "D": (freqs[i_fn], p_max[i_fn]),
        "E": (freqs[i_fmin], p_min[i_fmin]), "F": (freqs[i_fmin], p_max[i_fmin]),
    }
    return DroopEnvelope(grid=grid, frequencies=tuple(freqs), p_agg_min=p_min,
                         p_agg_max=p_max, corners=corners)


def select_droop(envelope: DroopEnvelope, candidate: DroopCurve) -> DroopCurve:
    """Accept a candidate curve iff it stays inside the envelope everywhere.

    Returns the curve on acceptance; raises with the offending grid
    frequencies otherwise.
    """
    tol, anchors = 1e-12, _droop_anchors(candidate)   # evaluate_droop on finite rows
    offending = [f for f, lo, hi in zip(envelope.frequencies, envelope.p_agg_min,
                                        envelope.p_agg_max)
                 if not lo - tol <= _droop(f, anchors) <= hi + tol]
    if offending:
        raise FeasibilityViolationError(offending)
    return candidate


def distribute_droop(selected: DroopCurve, units: list[DerUnit],
                     grid: FrequencyGrid) -> dict[str, DroopCurve]:
    """Split an accepted aggregate curve into per-unit curves by rating.

    Each unit receives the selected curve with all powers scaled by its
    rating share, so the per-unit outputs re-aggregate to the selected
    curve at every frequency.
    """
    total_rating = sum(u.p_rating for u in units)
    if total_rating <= 0:
        peak = max(abs(selected.p_max), abs(selected.p_min), abs(selected.p_nominal))
        if peak > 0:
            raise DistributionError("no rated capacity to carry the selected curve")
        return {}
    per_unit: dict[str, DroopCurve] = {}
    for u in units:
        w = u.p_rating / total_rating
        unit_curve = DroopCurve(
            f_n=selected.f_n,
            dead_band_half_width=selected.dead_band_half_width,
            p_nominal=selected.p_nominal * w,
            p_max=selected.p_max * w,
            f_min=selected.f_min,
            p_min=selected.p_min * w,
            f_max=selected.f_max,
        )
        if unit_curve.p_max > u.p_rating + 1e-12:
            raise DistributionError(
                f"unit {u.id}: split peak {unit_curve.p_max:g} exceeds rating "
                f"{u.p_rating:g}")
        per_unit[u.id] = unit_curve
    return per_unit


def check_reserve_rules(fcr_shares_pu: dict[str, float], total_fcr_pu: float,
                        incident_unit_ids=()) -> ReserveRuleReport:
    """Regulatory diversity checks on a containment-reserve portfolio.

    Flags any unit contributing more than 5% of the total, and any
    contributing unit that was part of the reference incident. The total
    obeys the FleetCase.total_fcr_pu row (finite and > 0), every share
    the FleetUnit.fcr_share row (finite and >= 0).
    """
    share_row = row(FleetUnit, "fcr_share")
    require(("total_fcr_pu", row(FleetCase, "total_fcr_pu"), total_fcr_pu),
            *((f"fcr_shares_pu[{unit_id}]", share_row, share)
              for unit_id, share in fcr_shares_pu.items()))
    incident = set(incident_unit_ids)
    violations = []
    for unit_id in sorted(fcr_shares_pu):
        share = fcr_shares_pu[unit_id]
        frac = share / total_fcr_pu
        if frac > FCR_SINGLE_UNIT_CAP:
            violations.append(RuleViolation(
                unit_id=unit_id, rule="CapExceeded",
                detail=f"contributes {frac:.2%} of total reserve, cap is "
                       f"{FCR_SINGLE_UNIT_CAP:.0%}"))
        if share > 0 and unit_id in incident:
            violations.append(RuleViolation(
                unit_id=unit_id, rule="IncidentUnitIncluded",
                detail="unit is part of the reference incident and must be "
                       "excluded from the reserve"))
    return ReserveRuleReport(violations=tuple(violations))
