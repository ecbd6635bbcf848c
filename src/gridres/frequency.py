"""Aggregate grid frequency dynamics after power imbalances.

Models the system as a single aggregate machine:

- inertia opposes the imbalance and bounds the rate of change of frequency,
- a droop fleet responds proportionally to the deviation,
- a fast containment reserve ramps in under a 30 s activation envelope,
- a slower restoration reserve takes over and returns frequency to nominal.

All dynamics are deterministic; a run is a pure function of its inputs.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, SimulationError
from .fields import num, number, obj, require, row, table

# Containment-reserve activation envelope: half output after 15 s, full
# output after 30 s, which is a constant ramp rate of capacity/30 per second.
FCR_T_FULL_S = 30.0

# Dead band applied when the simulation has no droop fleet to take one from.
DEFAULT_DEAD_BAND_HZ = 0.02

# Most samples in one simulated run. The largest use is the fine-step
# nadir oracle's 75,001 samples.
MAX_SAMPLES = 10**6

_FINITE, _POSITIVE = number(), number(gt=0)


class ZeroInertiaError(SimulationError):
    """A power step on a zero-inertia system implies infinite ROCOF."""


@table
class SystemParameters:
    """Aggregate grid model: nominal frequency, size, inertia and damping."""

    f_n: float = num(50.0, gt=0)                # nominal frequency, Hz
    s_base_mva: float = num(100.0, gt=0)        # system base power, MVA
    h_sys_s: float = num(5.0, ge=0)             # aggregate inertia constant, s
    damping_pu_per_hz: float = num(0.0, ge=0)   # load self-regulation, pu power per Hz
    band_half_width_hz: float = num(0.5, gt=0)  # allowed deviation around f_n, Hz


@table
class DroopCurve:
    """Piecewise-linear P(f) control law with a dead band around nominal.

    Powers are per unit of the providing unit's rating. Below f_min the
    output clamps to p_max, above f_max it clamps to p_min.
    """

    f_n: float = num(gt=0)                      # Hz
    dead_band_half_width: float = num(ge=0)     # Hz
    p_nominal: float = num()                    # pu output inside the dead band
    p_max: float = num()                        # pu output at and below f_min
    f_min: float = num()                        # Hz, under-frequency anchor
    p_min: float = num()                        # pu output at and above f_max
    f_max: float = num()                        # Hz, over-frequency anchor

    def invariants(self):
        out = []
        if self.f_min >= self.f_n - self.dead_band_half_width:
            out.append("f_min: must be < f_n - dead_band_half_width")
        if self.f_max <= self.f_n + self.dead_band_half_width:
            out.append("f_max: must be > f_n + dead_band_half_width")
        if not (self.p_min <= self.p_nominal <= self.p_max):
            out.append("p_nominal: must satisfy p_min <= p_nominal <= p_max")
        return out


@table
class RatedDroopCurve:
    """A droop curve scaled by the MW rating of the providing fleet share."""

    curve: DroopCurve = obj(DroopCurve)
    rating_mw: float = num(ge=0)


@table
class FcrProduct:
    """Frequency containment reserve with the fixed 15 s / 30 s ramp."""

    capacity_mw: float = num(ge=0)


@table
class SecondaryReserve:
    """Slow restoration reserve: long activation, sustained delivery.

    sustain_duration_s states how long full delivery must be held; the
    simulation keeps the reserve deployed for the whole horizon since
    the replacing tertiary process is out of scope.
    """

    capacity_mw: float = num(ge=0)
    full_activation_time_s: float = num(300.0, gt=FCR_T_FULL_S)
    sustain_duration_s: float = num(900.0, ge=0)


@table
class DisturbanceEvent:
    """Step power imbalance; negative delta_p_pu means lost generation.

    A step is at most the whole system base: a larger one is not physical.
    """

    t_event_s: float = num(ge=0)
    delta_p_pu: float = num(ge=-1.0, le=1.0)


def run_violations(t_event_s, horizon_s, dt_s) -> list[str]:
    """Violations of a run's horizon and step; a run holds 2 to MAX_SAMPLES."""
    if _POSITIVE.check(dt_s):
        return ["dt_s: must be finite and > 0"]
    if _FINITE.check(horizon_s) or not horizon_s > t_event_s:
        return ["horizon_s: must be finite and exceed event.t_event_s"]
    if not 1 <= round(min(horizon_s / dt_s, MAX_SAMPLES)) < MAX_SAMPLES:
        return [f"horizon_s / dt_s: a run must have 2 to {MAX_SAMPLES} samples"]
    return []


@dataclass
class FrequencyTrace:
    """Fixed-step frequency time series with forward-difference ROCOF."""

    t: np.ndarray        # s
    f: np.ndarray        # Hz
    rocof: np.ndarray    # Hz/s, rocof[i] = (f[i+1] - f[i]) / dt
    dt: float

    def __len__(self):
        return len(self.t)

    @classmethod
    def from_frequencies(cls, t: np.ndarray, f: np.ndarray, dt: float) -> "FrequencyTrace":
        if len(t) < 2:
            raise InvalidInputError("trace: needs at least two samples")
        rocof = np.empty_like(f)
        rocof[:-1] = np.diff(f) / dt
        rocof[-1] = rocof[-2]
        return cls(t=t, f=f, rocof=rocof, dt=dt)


@dataclass(frozen=True)
class TraceMetrics:
    """Stability summary extracted from one simulated trace."""

    nadir_hz: float
    max_abs_rocof_hz_per_s: float
    time_outside_band_s: float
    settled: bool


def evaluate_droop(curve: DroopCurve, f: float) -> float:
    """Power output (pu) of a droop curve at frequency f.

    Nominal power inside the dead band, linear toward each anchor outside
    it, clamped beyond the anchors.
    """
    require(("f", _FINITE, f))
    return _droop(f, _droop_anchors(curve))


def _droop_anchors(curve: DroopCurve) -> tuple:
    """The droop law's constants: dead-band edges, anchors and slope terms."""
    lo = curve.f_n - curve.dead_band_half_width
    hi = curve.f_n + curve.dead_band_half_width
    return (lo, hi, curve.p_nominal,
            curve.f_min, curve.p_max, curve.p_nominal - curve.p_max, lo - curve.f_min,
            curve.f_max, curve.p_min, curve.p_min - curve.p_nominal, curve.f_max - hi)


def _droop(f: float, anchors: tuple) -> float:
    """evaluate_droop on _droop_anchors(curve), with no input check. _integrate
    inlines it for a run's first fleet curve and calls it for each further
    curve; TestKernelMatchesReplacedLoop checks both paths."""
    lo, hi, p_nominal, f_min, p_max, rise, run_under, f_max, p_min, fall, run_over = anchors
    if lo <= f <= hi:
        return p_nominal
    if f < lo:      # linear between (f_min, p_max) and (lo, p_nominal)
        return p_max if f <= f_min else p_max + (f - f_min) * rise / run_under
    return p_min if f >= f_max else p_nominal + (f - hi) * fall / run_over


def fcr_ramp_output(t_since_activation_s: float, product: FcrProduct) -> float:
    """Containment-reserve output (MW) t seconds after the activation trigger."""
    require(("t_since_activation_s", number(ge=0), t_since_activation_s))
    return product.capacity_mw * min(t_since_activation_s / FCR_T_FULL_S, 1.0)


def inertial_power(h_s: float, rocof_hz_per_s: float, f_n: float,
                   s_base_mva: float) -> float:
    """Inertial power exchange (MW) for a given ROCOF.

    P = 2 * H * (S / f_n) * ROCOF; sign follows the ROCOF sign. H, S and
    f_n obey the SystemParameters rows that hold them.
    """
    require(("h_s", row(SystemParameters, "h_sys_s"), h_s),
            ("f_n", row(SystemParameters, "f_n"), f_n),
            ("s_base_mva", row(SystemParameters, "s_base_mva"), s_base_mva),
            ("rocof_hz_per_s", _FINITE, rocof_hz_per_s))
    return 2.0 * h_s * (s_base_mva / f_n) * rocof_hz_per_s


# Tracking bandwidth of the restoration reserve, 1/s. Fast enough to lock
# onto its demand, slow enough to keep the dynamics smooth.
SEC_K_TRACK = 1.0


def simulate_disturbance(params: SystemParameters, event: DisturbanceEvent,
                         fcr: FcrProduct, secondary: SecondaryReserve,
                         droop_fleet: list[RatedDroopCurve] | None = None,
                         horizon_s: float = 60.0, dt_s: float = 0.01) -> FrequencyTrace:
    """Simulate frequency after a step imbalance and return the trace.

    Integrates the aggregate swing equation

        df/dt = f_n * P_net / (2 * h_sys * s_base)

    with explicit RK4 at a fixed step. P_net collects the disturbance,
    droop-fleet response, containment and restoration reserves, and load
    damping. Frequency is flat at f_n before the event. The containment
    reserve activates the first time |f - f_n| leaves the droop dead band;
    the activation instant is located by interpolation inside the step so
    the trace converges cleanly as dt shrinks. A run whose frequency
    leaves the open range (0, 2*f_n), or is not finite, is not physical
    and raises SimulationError.

    Steps that cannot change the trace are not taken: once a full-length
    step returns its own state and the same step taken at the last step
    time of its stretch (before activation, the containment ramp, after
    the restoration start) has the same slopes, the state holds to the
    stretch's end. The trace is bit-identical to stepping every sample.
    """
    droop_fleet = droop_fleet or []
    violations = run_violations(event.t_event_s, horizon_s, dt_s)
    if violations:
        raise InvalidInputError("; ".join(violations))
    n = int(round(horizon_s / dt_s)) + 1
    t = np.arange(n) * dt_s
    f = np.full(n, params.f_n, dtype=float)

    if event.delta_p_pu == 0.0:
        return FrequencyTrace.from_frequencies(t, f, dt_s)
    if 2.0 * params.h_sys_s * params.s_base_mva == 0.0:
        raise ZeroInertiaError(
            "zero system inertia with a nonzero power step implies infinite ROCOF")

    _integrate(f, t.tolist(), dt_s, params, event, fcr, secondary, droop_fleet)
    if not (np.abs(f - params.f_n) < params.f_n).all():
        raise SimulationError("frequency integration diverged")
    return FrequencyTrace.from_frequencies(t, f, dt_s)


def _integrate(f: np.ndarray, t: list[float], dt_s: float, params: SystemParameters,
               event: DisturbanceEvent, fcr: FcrProduct, secondary: SecondaryReserve,
               droop_fleet: list[RatedDroopCurve]) -> None:
    """RK4 kernel: writes the post-event samples of f in place.

    Runs on Python floats with every constant taken out of the loop; each
    expression keeps one fixed operation order, so a trace is a bit-exact
    function of the inputs. The stage function evaluates the first fleet
    curve's droop law inline, keeping _droop's branch order and expressions,
    then adds each further curve through _droop in list order;
    TestKernelMatchesReplacedLoop checks fleets of none, one and several
    curves against the replaced loop.

    The containment reserve deploys proportionally to the frequency
    deviation (full deployment at the band edge) but never faster than
    the fixed activation envelope. FCR_T_FULL_S after its activation, the
    restoration reserve starts to pursue a demand that covers the
    disturbance plus a frequency-bias term, rate limited by its own
    activation time, which returns frequency to nominal and releases the
    spent containment reserve as it does so.

    One loop steps f alone until the restoration start and both states
    from there on. When a full-length step returns its own state, the same
    step is taken from that state at the last step time of its segment;
    if the slopes are equal, every sample up to the segment's end takes
    the state at once.
    """
    f_n, s_base = params.f_n, params.s_base_mva
    denom = 2.0 * params.h_sys_s * s_base
    damping = params.damping_pu_per_hz
    p_event = event.delta_p_pu * s_base      # every stage lies at or after the event
    dead_band = min((r.curve.dead_band_half_width for r in droop_fleet),
                    default=DEFAULT_DEAD_BAND_HZ)
    span = max(params.band_half_width_hz - dead_band, 1e-9)
    fcr_cap, fcr_rate = fcr.capacity_mw, fcr.capacity_mw / FCR_T_FULL_S
    sec_cap = secondary.capacity_mw
    sec_rate = sec_cap / secondary.full_activation_time_s
    sec_bias = sec_cap / params.band_half_width_hz        # MW per Hz
    cover = -event.delta_p_pu * s_base
    # (rating, droop anchors, baseline output): only the change relative to
    # the baseline injects power.
    fleet = [(r.rating_mw, _droop_anchors(r.curve), r.rating_mw * evaluate_droop(r.curve, f_n))
             for r in droop_fleet]
    # The first curve's constants, bound once per run. A fleet of none takes a
    # zero-rated curve whose dead band holds every frequency, so its term is
    # 0.0; a NaN frequency falls through to a slope over a run of 1.0, which
    # gives NaN as the damping term does, not a ZeroDivisionError.
    (rating, (lo, hi, p_nom, f_min, p_max, rise, run_under, f_max, p_min, fall, run_over),
     base), *extra = fleet or [
        (0.0, (-math.inf, math.inf, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0), 0.0)]
    # Containment activation instant and restoration start, inf until the
    # deviation first leaves the dead band.
    t_act = sec_start = math.inf

    # Each clamp is max(-c, min(c, x)) written as two conditional expressions.
    def dfdt(tt, ff, ps):
        if lo <= ff <= hi:
            out = p_nom
        elif ff < lo:
            out = p_max if ff <= f_min else p_max + (ff - f_min) * rise / run_under
        else:
            out = p_min if ff >= f_max else p_nom + (ff - hi) * fall / run_over
        # A sum started from 0.0, as the replaced loop's was, differs only in
        # the sign of a zero p_fleet; adding ps, never -0.0, erases that sign.
        p_fleet = rating * out - base
        if extra:
            for r, anchors, b in extra:
                p_fleet += r * _droop(ff, anchors) - b
        p_fcr = 0.0
        if tt >= t_act:
            envelope = fcr_rate * (tt - t_act)
            dev = f_n - ff
            demand = 0.0
            if dev > dead_band:
                frac = (dev - dead_band) / span
                demand = fcr_cap * (1.0 if frac > 1.0 else frac)
            elif -dev > dead_band:
                frac = (-dev - dead_band) / span
                demand = -(fcr_cap * (1.0 if frac > 1.0 else frac))
            p_fcr = demand if demand < envelope else envelope
            p_fcr = p_fcr if p_fcr > -envelope else -envelope
        p = p_event + p_fleet + p_fcr + ps - damping * (ff - f_n) * s_base
        return f_n * p / denom

    def rhs(tt, ff, ps):
        if tt < sec_start:
            return dfdt(tt, ff, ps), 0.0
        demand = cover + sec_bias * (f_n - ff)
        demand = demand if demand < sec_cap else sec_cap
        demand = demand if demand > -sec_cap else -sec_cap
        rate = SEC_K_TRACK * (demand - ps)
        rate = rate if rate < sec_rate else sec_rate
        return dfdt(tt, ff, ps), (rate if rate > -sec_rate else -sec_rate)

    def step(tt, hh, ff, ps):
        """One RK4 step: the next f and ps, and the slopes that gave them,
        f's four while the step ends before the restoration start (ps stays
        0.0 there), and from there on f's four followed by ps's four."""
        t_mid, t_end = tt + hh / 2, tt + hh
        if t_end < sec_start:
            k1 = dfdt(tt, ff, 0.0)
            k2 = dfdt(t_mid, ff + k1 * hh / 2, 0.0)
            k3 = dfdt(t_mid, ff + k2 * hh / 2, 0.0)
            k4 = dfdt(t_end, ff + k3 * hh, 0.0)
            return ff + hh * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0, ps, (k1, k2, k3, k4)
        k1f, k1p = rhs(tt, ff, ps)
        k2f, k2p = rhs(t_mid, ff + k1f * hh / 2, ps + k1p * hh / 2)
        k3f, k3p = rhs(t_mid, ff + k2f * hh / 2, ps + k2p * hh / 2)
        k4f, k4p = rhs(t_end, ff + k3f * hh, ps + k3p * hh)
        return (ff + hh * (k1f + 2 * k2f + 2 * k3f + k4f) / 6.0,
                ps + hh * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0,
                (k1f, k2f, k3f, k4f, k1p, k2p, k3p, k4p))

    # The pre-event system sits exactly at equilibrium; integration starts
    # at the event instant so the sample there is still f_n and the step
    # change acts only forward in time. An event between two samples takes
    # a short first step up to the next sample.
    n = len(t)
    first = bisect.bisect_left(t, event.t_event_s)
    if first == n:
        return
    t0, h = t[first], dt_s
    if t0 > event.t_event_s + 1e-15:
        t0, h = event.t_event_s, t0 - event.t_event_s
    else:
        first += 1
    fi, ps, dev_after, active = f_n, 0.0, 0.0, False
    # A segment ends at last, the last f-only sample, while f steps alone
    # after activation, and at n - 1 before activation and from the
    # restoration start on. k_end holds the slopes of the held state's step
    # at the last step time of its segment.
    j, last, held, k_end = first, n - 1, None, None
    while j < n:
        f_next, p_next, k = step(t0, h, fi, ps)
        # fi and ps are never -0.0 and NaN != NaN, so == is bitwise.
        if f_next == fi and p_next == ps and h == dt_s:
            # A full-length step returned its own state: compare its slopes
            # with those of the same step at the last step time of its
            # segment. Inside a stage, time enters only through the
            # containment envelope fcr_rate * (tt - t_act), which never
            # decreases as tt grows (before t_act p_fcr is 0.0, its clamp at
            # a zero envelope), and through the restoration start, before
            # which ps's slope is 0.0. At a fixed stage input each slope is
            # monotone in both, so if the slopes are equal at the first and
            # the last step time, every step between has the same stage
            # inputs and slopes, and returns the state too. The end slopes
            # cost one step per held state and segment; under an envelope
            # that still clamps, the first step whose slopes match them fills.
            # The short first step of an event between samples has its own h.
            end = last if j <= last else n - 1
            if (fi, ps, end) != held:
                held, k_end = (fi, ps, end), step(t[end - 1], h, fi, ps)[2]
            if k == k_end:
                f[j:end + 1] = fi
                j, t0 = end + 1, t[end]
                continue
        fi, ps = f_next, p_next
        if not active:
            # Every earlier sample stayed in the band and the first step compares
            # with 0.0, so dev_before <= dead_band < dev_after: the crossing lies
            # in the step.
            dev_before, dev_after = dev_after, abs(fi - f_n)
            if dev_after > dead_band:
                active = True
                t_act = t0 + (dead_band - dev_before) / (dev_after - dev_before) * h
                sec_start = t_act + FCR_T_FULL_S
                # step's own test: sample m is f-only while t[m-1] + dt_s < sec_start.
                last = min(bisect.bisect_left(t, sec_start, j, key=lambda x: x + dt_s), n - 1)
        f[j] = fi
        t0, h = t[j], dt_s
        j += 1


def trace_metrics(trace: FrequencyTrace, params: SystemParameters) -> TraceMetrics:
    """Nadir, worst ROCOF, time spent outside the band, and settling flag."""
    if len(trace) == 0:
        raise InvalidInputError("trace: must be non-empty")
    dev = np.abs(trace.f - params.f_n)
    outside = dev > params.band_half_width_hz
    tail = max(1, int(math.ceil(len(trace) * 0.1)))
    return TraceMetrics(
        nadir_hz=float(np.min(trace.f)),
        max_abs_rocof_hz_per_s=float(np.max(np.abs(trace.rocof))),
        time_outside_band_s=float(np.count_nonzero(outside) * trace.dt),
        settled=bool(not outside[-tail:].any()),
    )


# Forecast inertia levels by country, mapped to representative aggregate
# inertia constants: midpoint of two-sided ranges, the finite bound for
# one-sided ones.
INERTIA_PRESETS_2030 = {
    "belgium": 2.0, "croatia": 2.0, "germany": 2.0, "greece": 2.0,
    "ireland": 2.0, "italy": 2.0, "luxembourg": 2.0, "portugal": 2.0,
    "spain": 2.0, "united_kingdom": 2.0,
    "austria": 2.5, "albania": 2.5, "bulgaria": 2.5, "denmark": 2.5,
    "netherlands": 2.5, "switzerland": 2.5,
    "bosnia_and_herzegovina": 3.5, "finland": 3.5, "france": 3.5,
    "latvia": 3.5, "norway": 3.5, "romania": 3.5, "sweden": 3.5,
    "estonia": 4.0, "hungary": 4.0, "montenegro": 4.0, "poland": 4.0,
    "slovakia": 4.0, "serbia": 4.0,
}


def inertia_preset_2030(country: str, s_base_mva: float = 100.0) -> SystemParameters:
    """System parameters using the 2030 inertia outlook for a country."""
    key = country.strip().lower().replace(" ", "_")
    if key not in INERTIA_PRESETS_2030:
        raise InvalidInputError(f"unknown country preset: {country!r}")
    return SystemParameters(f_n=50.0, s_base_mva=s_base_mva,
                            h_sys_s=INERTIA_PRESETS_2030[key])
