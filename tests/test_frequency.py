"""Frequency engine tests: droop law, reserve ramps, swing dynamics."""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres import schemas
from gridres.errors import InvalidInputError, SimulationError
from gridres.frequency import (DEFAULT_DEAD_BAND_HZ, FCR_T_FULL_S,
                               DisturbanceEvent, DroopCurve, FcrProduct,
                               FrequencyTrace, RatedDroopCurve,
                               SecondaryReserve, SystemParameters,
                               ZeroInertiaError, evaluate_droop, fcr_ramp_output,
                               inertia_preset_2030, inertial_power,
                               simulate_disturbance, trace_metrics)


def reference_curve():
    return DroopCurve(f_n=50.0, dead_band_half_width=0.02, p_nominal=0.8,
                      p_max=1.0, f_min=49.8, p_min=0.0, f_max=50.2)


class TestEvaluateDroop:
    def test_inside_dead_band(self):
        assert evaluate_droop(reference_curve(), 50.00) == 0.8

    def test_under_anchor_endpoint(self):
        assert evaluate_droop(reference_curve(), 49.8) == 1.0

    def test_linear_interpolation_under(self):
        # Straight line through (49.98, 0.8) and (49.8, 1.0), evaluated
        # independently of the implementation.
        f = 49.89
        expected = 0.8 + (f - 49.98) * (1.0 - 0.8) / (49.8 - 49.98)
        assert expected == pytest.approx(0.9, abs=1e-12)
        assert evaluate_droop(reference_curve(), f) == pytest.approx(expected, abs=1e-12)

    def test_clamps_beyond_anchors(self):
        assert evaluate_droop(reference_curve(), 49.0) == 1.0
        assert evaluate_droop(reference_curve(), 51.0) == 0.0

    def test_non_finite_frequency_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate_droop(reference_curve(), math.nan)
        with pytest.raises(InvalidInputError):
            evaluate_droop(reference_curve(), math.inf)

    @given(st.floats(min_value=49.8, max_value=50.2),
           st.floats(min_value=49.8, max_value=50.2))
    @settings(max_examples=200, deadline=None)
    def test_monotone_non_increasing(self, f1, f2):
        lo, hi = min(f1, f2), max(f1, f2)
        curve = reference_curve()
        assert evaluate_droop(curve, lo) >= evaluate_droop(curve, hi) - 1e-12

    def test_invariant_violations_rejected(self):
        with pytest.raises(InvalidInputError):
            DroopCurve(f_n=50.0, dead_band_half_width=0.5, p_nominal=0.8,
                       p_max=1.0, f_min=49.8, p_min=0.0, f_max=50.2)
        with pytest.raises(InvalidInputError):
            DroopCurve(f_n=50.0, dead_band_half_width=0.02, p_nominal=1.5,
                       p_max=1.0, f_min=49.8, p_min=0.0, f_max=50.2)


class TestFcrRamp:
    def test_half_output_at_15s(self):
        assert fcr_ramp_output(15.0, FcrProduct(10.0)) == 5.0

    def test_full_output_at_30s(self):
        assert fcr_ramp_output(30.0, FcrProduct(10.0)) == 10.0

    def test_origin(self):
        assert fcr_ramp_output(0.0, FcrProduct(10.0)) == 0.0

    def test_holds_after_full_activation(self):
        assert fcr_ramp_output(300.0, FcrProduct(10.0)) == 10.0

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            fcr_ramp_output(-1.0, FcrProduct(10.0))

    @given(st.floats(min_value=0.0, max_value=60.0),
           st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_continuous_and_non_decreasing(self, t1, t2):
        product = FcrProduct(7.5)
        lo, hi = min(t1, t2), max(t1, t2)
        assert fcr_ramp_output(lo, product) <= fcr_ramp_output(hi, product) + 1e-12
        # Lipschitz bound with the ramp slope implies continuity.
        assert abs(fcr_ramp_output(hi, product) - fcr_ramp_output(lo, product)) \
            <= (hi - lo) * product.capacity_mw / 30.0 + 1e-12


class TestInertialPower:
    def test_reference_value(self):
        assert inertial_power(5.0, 1.0, 50.0, 100.0) == pytest.approx(20.0)

    def test_zero_rocof(self):
        assert inertial_power(5.0, 0.0, 50.0, 100.0) == 0.0

    def test_second_value(self):
        assert inertial_power(2.5, 0.5, 50.0, 100.0) == pytest.approx(5.0)

    def test_sign_follows_rocof(self):
        assert inertial_power(5.0, -0.3, 50.0, 100.0) < 0

    def test_rejects_bad_nominal_frequency(self):
        with pytest.raises(InvalidInputError):
            inertial_power(5.0, 1.0, 0.0, 100.0)
        with pytest.raises(InvalidInputError):
            inertial_power(-1.0, 1.0, 50.0, 100.0)

    @pytest.mark.parametrize("s_base", [-100.0, 0.0, math.nan])
    def test_rejects_bad_system_base(self, s_base):
        # Finite bases that only the s_base_mva row rejects.
        with pytest.raises(InvalidInputError, match="s_base_mva"):
            inertial_power(5.0, -0.5, 50.0, s_base)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 50.0, 100.0),
                                      (5.0, math.inf, 50.0, 100.0),
                                      (5.0, 1.0, math.inf, 100.0)])
    def test_rejects_non_finite_arguments(self, args):
        with pytest.raises(InvalidInputError):
            inertial_power(*args)

    def test_exact_linearity_in_h_for_binary_scalings(self):
        # Power-of-two scalings are exact in binary floating point.
        base = inertial_power(1.3, 0.7, 50.0, 150.0)
        for a in (0.5, 2.0, 4.0, 8.0):
            assert inertial_power(a * 1.3, 0.7, 50.0, 150.0) == a * base


def _benchmark_run(h_sys=5.0, fcr_mw=10.0, fleet=None, horizon=120.0, dt=0.01,
                   damping=0.01):
    params = SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=h_sys,
                              damping_pu_per_hz=damping)
    event = DisturbanceEvent(t_event_s=1.0, delta_p_pu=-0.1)
    fleet = bm.benchmark_droop_fleet() if fleet is None else fleet
    trace = simulate_disturbance(params, event, FcrProduct(fcr_mw),
                                 bm.benchmark_secondary(), fleet,
                                 horizon_s=horizon, dt_s=dt)
    return params, trace


class TestSimulateDisturbance:
    def test_balanced_system_stays_flat(self):
        params = bm.benchmark_system()
        event = DisturbanceEvent(t_event_s=1.0, delta_p_pu=0.0)
        trace = simulate_disturbance(params, event, bm.benchmark_fcr(),
                                     bm.benchmark_secondary(), [],
                                     horizon_s=10.0, dt_s=0.01)
        assert np.all(trace.f == params.f_n)
        assert np.all(trace.rocof == 0.0)

    def test_event_after_the_last_sample_leaves_the_trace_flat(self):
        # 1.004 / 0.01 rounds to 100 steps: the last sample is at 1.0 s.
        params = bm.benchmark_system()
        trace = simulate_disturbance(params, DisturbanceEvent(1.003, -0.1),
                                     bm.benchmark_fcr(), bm.benchmark_secondary(),
                                     bm.benchmark_droop_fleet(), horizon_s=1.004, dt_s=0.01)
        assert len(trace) == 101
        assert np.all(trace.f == params.f_n)

    def test_initial_rocof_matches_swing_equation(self):
        # No damping, no reserves: the first post-event step is exactly
        # linear, so the forward difference equals the analytic slope.
        params = SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=5.0,
                                  damping_pu_per_hz=0.0)
        event = DisturbanceEvent(t_event_s=1.0, delta_p_pu=-0.1)
        trace = simulate_disturbance(params, event, FcrProduct(0.0),
                                     bm.benchmark_secondary(), [],
                                     horizon_s=5.0, dt_s=0.01)
        i_event = int(round(event.t_event_s / trace.dt))
        expected = params.f_n * (-0.1 * 100.0) / (2 * 5.0 * 100.0)
        finite_difference = (trace.f[i_event + 1] - trace.f[i_event]) / trace.dt
        assert finite_difference == pytest.approx(expected, abs=1e-9)
        assert trace.rocof[i_event] == pytest.approx(expected, abs=1e-9)
        assert np.all(trace.f[:i_event + 1] == params.f_n)

    def test_trace_rocof_consistent_with_forward_difference(self):
        _params, trace = _benchmark_run(horizon=20.0)
        diffs = np.diff(trace.f) / trace.dt
        assert np.max(np.abs(trace.rocof[:-1] - diffs)) < 1e-9

    def test_trace_covers_horizon(self):
        _params, trace = _benchmark_run(horizon=20.0)
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(20.0, abs=1e-9)

    def test_fcr_improves_nadir_and_secondary_recovers(self):
        params, with_fcr = _benchmark_run(fcr_mw=10.0, fleet=[], horizon=400.0)
        _params, without = _benchmark_run(fcr_mw=0.0, fleet=[], horizon=400.0)
        nadir_with = trace_metrics(with_fcr, params).nadir_hz
        nadir_without = trace_metrics(without, params).nadir_hz
        assert nadir_with > nadir_without
        assert abs(with_fcr.f[-1] - params.f_n) < params.band_half_width_hz

    def test_zero_inertia_with_step_raises(self):
        params = SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=0.0)
        with pytest.raises(ZeroInertiaError):
            simulate_disturbance(params, DisturbanceEvent(1.0, -0.1),
                                 FcrProduct(0.0), bm.benchmark_secondary(), [],
                                 horizon_s=5.0, dt_s=0.01)

    def test_zero_inertia_balanced_is_flat(self):
        params = SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=0.0)
        trace = simulate_disturbance(params, DisturbanceEvent(1.0, 0.0),
                                     FcrProduct(0.0), bm.benchmark_secondary(),
                                     [], horizon_s=5.0, dt_s=0.01)
        assert np.all(trace.f == 50.0)

    def test_higher_inertia_weakly_improves_transients(self):
        params5, t5 = _benchmark_run(h_sys=5.0)
        params2, t2 = _benchmark_run(h_sys=2.0)
        m5, m2 = trace_metrics(t5, params5), trace_metrics(t2, params2)
        assert m2.nadir_hz < m5.nadir_hz
        assert m2.max_abs_rocof_hz_per_s > m5.max_abs_rocof_hz_per_s

    def test_nadir_converges_with_dt(self):
        nadirs = {}
        for dt in (0.01, 0.005):
            params, trace = _benchmark_run(dt=dt, horizon=60.0)
            nadirs[dt] = trace_metrics(trace, params).nadir_hz
        assert abs(nadirs[0.01] - nadirs[0.005]) < 1e-4

    def test_nadir_matches_fine_step_oracle(self):
        # Same ODE integrated at dt/100 serves as the reference.
        params, coarse = _benchmark_run(dt=0.02, horizon=15.0)
        _params, fine = _benchmark_run(dt=0.0002, horizon=15.0)
        nadir_coarse = trace_metrics(coarse, params).nadir_hz
        nadir_fine = trace_metrics(fine, params).nadir_hz
        assert abs(nadir_coarse - nadir_fine) < 1e-4

    def test_invalid_run_controls_rejected(self):
        params = bm.benchmark_system()
        with pytest.raises(InvalidInputError):
            simulate_disturbance(params, DisturbanceEvent(1.0, -0.1),
                                 bm.benchmark_fcr(), bm.benchmark_secondary(),
                                 [], horizon_s=0.5, dt_s=0.01)
        with pytest.raises(InvalidInputError):
            simulate_disturbance(params, DisturbanceEvent(1.0, -0.1),
                                 bm.benchmark_fcr(), bm.benchmark_secondary(),
                                 [], horizon_s=5.0, dt_s=-0.01)

    # Without damping and droop the near-zero inertia trace stays finite
    # but runs off to about +-3.75e301 Hz.
    @pytest.mark.parametrize("damping,delta_p,fleet", [
        (0.01, -0.1, []), (0.01, -0.1, bm.benchmark_droop_fleet()),
        (0.0, -0.1, []), (0.0, 0.1, [])],
        ids=["no_fleet", "fleet", "undamped_drop", "undamped_rise"])
    def test_divergence_raises(self, damping, delta_p, fleet):
        params = SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=1e-300,
                                  damping_pu_per_hz=damping,
                                  band_half_width_hz=0.5)
        event = DisturbanceEvent(t_event_s=1.0, delta_p_pu=delta_p)
        with pytest.raises(SimulationError, match="diverged"):
            simulate_disturbance(params, event, bm.benchmark_fcr(),
                                 bm.benchmark_secondary(), fleet,
                                 horizon_s=5.0, dt_s=0.01)

    def test_underflowing_inertia_is_zero_inertia(self):
        # 2 * h_sys * s_base rounds to 0: the swing equation cannot be divided.
        params = SystemParameters(h_sys_s=1e-200, s_base_mva=1e-200)
        with pytest.raises(ZeroInertiaError):
            simulate_disturbance(params, bm.benchmark_event(), bm.benchmark_fcr(),
                                 bm.benchmark_secondary(), [],
                                 horizon_s=5.0, dt_s=0.01)


class _ReserveController:
    """Reference oracle: the reserve controller the RK4 kernel replaced.

    Kept as it was, except that the fleet power adds its terms left to
    right in a loop. sum() did exactly that on Python 3.10 and 3.11; newer
    versions compensate float sums.
    """

    K_TRACK = 1.0

    def __init__(self, params, event, fcr, secondary, droop_fleet):
        self.params = params
        self.event = event
        self.fcr = fcr
        self.secondary = secondary
        self.fleet = list(droop_fleet)
        self.dead_band = min((r.curve.dead_band_half_width for r in self.fleet),
                             default=DEFAULT_DEAD_BAND_HZ)
        self.fcr_rate = fcr.capacity_mw / FCR_T_FULL_S
        self.sec_rate = secondary.capacity_mw / secondary.full_activation_time_s
        self.sec_bias_mw_per_hz = secondary.capacity_mw / params.band_half_width_hz
        self.cover_mw = -event.delta_p_pu * params.s_base_mva
        self.fleet_base = [r.rating_mw * evaluate_droop(r.curve, params.f_n)
                           for r in self.fleet]
        self.t_activation = None

    def fleet_power_mw(self, f):
        total = 0
        for r, base in zip(self.fleet, self.fleet_base):
            total = total + (r.rating_mw * evaluate_droop(r.curve, f) - base)
        return total

    def fcr_demand_mw(self, f):
        dev = self.params.f_n - f
        if abs(dev) <= self.dead_band:
            return 0.0
        span = max(self.params.band_half_width_hz - self.dead_band, 1e-9)
        frac = (abs(dev) - self.dead_band) / span
        return math.copysign(self.fcr.capacity_mw * min(frac, 1.0), dev)

    def fcr_power_mw(self, t, f):
        if self.t_activation is None or t < self.t_activation:
            return 0.0
        envelope = self.fcr_rate * (t - self.t_activation)
        demand = self.fcr_demand_mw(f)
        return max(-envelope, min(envelope, demand))

    def sec_rate_mw_per_s(self, t, f, p_sec):
        if self.t_activation is None or t < self.t_activation + FCR_T_FULL_S:
            return 0.0
        demand = self.cover_mw + self.sec_bias_mw_per_hz * (self.params.f_n - f)
        cap = self.secondary.capacity_mw
        wanted = self.K_TRACK * (max(-cap, min(cap, demand)) - p_sec)
        return max(-self.sec_rate, min(self.sec_rate, wanted))

    def net_power_mw(self, t, f, p_sec):
        p = 0.0
        if t >= self.event.t_event_s:
            p += self.event.delta_p_pu * self.params.s_base_mva
        p += self.fleet_power_mw(f)
        p += self.fcr_power_mw(t, f)
        p += p_sec
        p -= self.params.damping_pu_per_hz * (f - self.params.f_n) * self.params.s_base_mva
        return p


def _oracle_frequencies(params, event, fcr, secondary, droop_fleet, horizon_s, dt_s):
    """The frequency samples of the replaced integration loop."""
    n = int(round(horizon_s / dt_s)) + 1
    t = np.arange(n) * dt_s
    f = np.full(n, params.f_n, dtype=float)
    ctrl = _ReserveController(params, event, fcr, secondary, droop_fleet)
    denom = 2.0 * params.h_sys_s * params.s_base_mva
    f_n = params.f_n

    def rhs(tt, ff, p_sec):
        return (f_n * ctrl.net_power_mw(tt, ff, p_sec) / denom,
                ctrl.sec_rate_mw_per_s(tt, ff, p_sec))

    def rk4_step(t0, h, ff, p_sec):
        k1f, k1p = rhs(t0, ff, p_sec)
        k2f, k2p = rhs(t0 + h / 2, ff + k1f * h / 2, p_sec + k1p * h / 2)
        k3f, k3p = rhs(t0 + h / 2, ff + k2f * h / 2, p_sec + k2p * h / 2)
        k4f, k4p = rhs(t0 + h, ff + k3f * h, p_sec + k3p * h)
        return (ff + h * (k1f + 2 * k2f + 2 * k3f + k4f) / 6.0,
                p_sec + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0)

    def note_dead_band_crossing(t0, h, dev_before, dev_after):
        if ctrl.t_activation is not None or dev_after <= ctrl.dead_band:
            return
        if dev_after > dev_before:
            frac = (ctrl.dead_band - dev_before) / (dev_after - dev_before)
            frac = min(max(frac, 0.0), 1.0)
        else:
            frac = 0.0
        ctrl.t_activation = t0 + frac * h

    i_event = int(np.searchsorted(t, event.t_event_s, side="left"))
    fi = params.f_n
    p_sec = 0.0
    if i_event < n and t[i_event] > event.t_event_s + 1e-15:
        h = t[i_event] - event.t_event_s
        dev0 = abs(fi - f_n)
        fi, p_sec = rk4_step(event.t_event_s, h, fi, p_sec)
        f[i_event] = fi
        note_dead_band_crossing(event.t_event_s, h, dev0, abs(fi - f_n))
    for i in range(i_event, n - 1):
        dev0 = abs(fi - f_n)
        fi, p_sec = rk4_step(t[i], dt_s, fi, p_sec)
        f[i + 1] = fi
        note_dead_band_crossing(t[i], dt_s, dev0, abs(fi - f_n))
    return f


@st.composite
def droop_curves(draw):
    f_n = 50.0
    dead_band = draw(st.floats(0.0, 0.1))
    p_min = draw(st.floats(-1.0, 0.5))
    p_nominal = p_min + draw(st.floats(0.0, 1.0))
    curve = DroopCurve(f_n=f_n, dead_band_half_width=dead_band, p_nominal=p_nominal,
                       p_max=p_nominal + draw(st.floats(0.0, 1.0)),
                       f_min=f_n - dead_band - draw(st.floats(0.05, 1.0)),
                       p_min=p_min,
                       f_max=f_n + dead_band + draw(st.floats(0.05, 1.0)))
    return RatedDroopCurve(curve=curve, rating_mw=draw(st.floats(0.0, 100.0)))


@st.composite
def disturbance_runs(draw):
    dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
    t_event = draw(st.integers(0, 100)) * dt
    if draw(st.booleans()):     # between two samples
        t_event += draw(st.floats(0.05, 0.95)) * dt
    return dict(
        params=SystemParameters(f_n=50.0, s_base_mva=100.0,
                                h_sys_s=draw(st.floats(0.5, 8.0)),
                                damping_pu_per_hz=draw(st.floats(0.0, 0.05)),
                                band_half_width_hz=draw(st.floats(0.2, 1.0))),
        event=DisturbanceEvent(t_event_s=t_event,
                               delta_p_pu=draw(st.floats(-0.3, 0.3).filter(bool))),
        fcr=FcrProduct(draw(st.floats(0.0, 30.0))),
        secondary=SecondaryReserve(capacity_mw=draw(st.floats(0.0, 40.0)),
                                   full_activation_time_s=draw(st.floats(31.0, 600.0))),
        droop_fleet=draw(st.lists(droop_curves(), max_size=3)),
        # Long enough, mostly, for the restoration reserve to start.
        horizon_s=t_event + draw(st.floats(1.0, 40.0)),
        dt_s=dt)


class TestKernelMatchesReplacedLoop:
    @given(run=disturbance_runs())
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_oracle(self, run):
        expected = _oracle_frequencies(**run)
        f_n = run["params"].f_n
        if not (np.abs(expected - f_n) < f_n).all():
            # Undamped runs with little reserve can ramp past 0 or 2*f_n.
            with pytest.raises(SimulationError, match="diverged"):
                simulate_disturbance(**run)
            return
        assert np.array_equal(simulate_disturbance(**run).f, expected)

    @pytest.mark.parametrize("delta_p_pu", [-0.04, -0.16])
    @pytest.mark.parametrize("h_sys_s", [2.0, 2.5, 3.5, 4.0, 5.0])
    def test_sweep_shapes_match_oracle(self, h_sys_s, delta_p_pu):
        # The benchmark sweep's runs: the restoration reserve starts about
        # 31 s after the event, so each run integrates both kernel phases.
        run = dict(params=bm.benchmark_system(h_sys_s),
                   event=DisturbanceEvent(t_event_s=1.0, delta_p_pu=delta_p_pu),
                   fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
                   droop_fleet=bm.benchmark_droop_fleet(), horizon_s=36.0, dt_s=0.01)
        assert np.array_equal(simulate_disturbance(**run).f, _oracle_frequencies(**run))

    def test_settled_runs_match_oracle(self):
        # A fast restoration reserve brings f to a fixed point well inside
        # the horizon, where the kernel fills the rest of the trace at once.
        settled = []

        @given(h_sys_s=st.floats(1.0, 6.0), delta_p_pu=st.floats(-0.18, -0.02),
               full_activation_time_s=st.floats(31.0, 60.0),
               horizon_s=st.floats(150.0, 300.0), dt_s=st.sampled_from([0.02, 0.05]))
        @settings(max_examples=4, deadline=None)
        def check(h_sys_s, delta_p_pu, full_activation_time_s, horizon_s, dt_s):
            run = dict(params=bm.benchmark_system(h_sys_s),
                       event=DisturbanceEvent(t_event_s=1.0, delta_p_pu=delta_p_pu),
                       fcr=bm.benchmark_fcr(),
                       secondary=SecondaryReserve(
                           capacity_mw=20.0, full_activation_time_s=full_activation_time_s),
                       droop_fleet=bm.benchmark_droop_fleet(), horizon_s=horizon_s, dt_s=dt_s)
            expected = _oracle_frequencies(**run)
            assert simulate_disturbance(**run).f.tobytes() == expected.tobytes()
            # Settled: the last 10 s of the trace hold one value.
            settled.append(bool((expected[-round(10.0 / dt_s):] == expected[-1]).all()))

        check()
        assert any(settled)

    # sha256 of the frequency samples and of the written trace CSV, as the
    # replaced controller loop produced them.
    PINNED = {
        60.0: ("080acc04db170856df39ce70cb1cfd79099a3ff6c225a04fa0849e676d156a81",
               "6e4bb37c69b2180fea49f924319ab2e543e5b7a5d1f1b2ae489dd6e8afa75c18"),
        600.0: ("d070ea4466c5b11b96d97476ac2e414cf49ce24e854fbff79a1a8d002e65ef04",
                "aef82abf19829ebb461d7d7aae91c8e1a1746c78dac7f3c320d6b6a9053c1f06"),
    }

    @pytest.mark.parametrize("horizon_s", sorted(PINNED))
    def test_bundled_scenario_trace_bytes_are_pinned(self, horizon_s):
        # 60 s is the bundled scenario's default horizon.
        scenario = schemas.FrequencyScenario(
            system=bm.benchmark_system(), event=bm.benchmark_event(),
            fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
            droop_fleet=bm.benchmark_droop_fleet(), horizon_s=horizon_s)
        trace = scenario.simulate()
        buf = io.StringIO()
        schemas.write_trace_csv(buf, trace)
        assert (hashlib.sha256(trace.f.tobytes()).hexdigest(),
                hashlib.sha256(buf.getvalue().encode()).hexdigest()) == self.PINNED[horizon_s]

    def test_over_frequency_trace_bytes_are_pinned(self):
        # The bundled scenario with a 0.2 pu load loss and two more curves.
        # f peaks at 50.23 Hz, past every curve's f_max, so each droop
        # branch, the over-frequency containment demand and both kernel
        # phases run. Digests as the replaced controller loop produced them.
        fleet = bm.benchmark_droop_fleet() + [
            RatedDroopCurve(curve=DroopCurve(f_n=50.0, dead_band_half_width=dead_band,
                                             p_nominal=0.5, p_max=1.0, f_min=f_min,
                                             p_min=0.0, f_max=f_max), rating_mw=rating)
            for rating, dead_band, f_min, f_max in ((10.0, 0.01, 49.7, 50.2),
                                                    (2.0, 0.0, 49.9, 50.03))]
        run = dict(params=bm.benchmark_system(),
                   event=DisturbanceEvent(t_event_s=1.0, delta_p_pu=0.2),
                   fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
                   droop_fleet=fleet, horizon_s=60.0, dt_s=0.01)
        trace = simulate_disturbance(**run)
        assert trace.f.max() > 50.23
        assert np.array_equal(trace.f, _oracle_frequencies(**run))
        buf = io.StringIO()
        schemas.write_trace_csv(buf, trace)
        assert (hashlib.sha256(trace.f.tobytes()).hexdigest(),
                hashlib.sha256(buf.getvalue().encode()).hexdigest()) == (
            "b792ed1800c8b6992efa55c88fdc9ea07695f7589a0109c3879d10b6aa783b78",
            "ebc0c97bccdc1e9c22b19697556f29cea5f9c12f3fea006889c0bf3e257226a3")


class TestTraceMetrics:
    def _trace(self, f_values, dt=1.0):
        f = np.array(f_values, dtype=float)
        t = np.arange(len(f)) * dt
        return FrequencyTrace.from_frequencies(t, f, dt)

    def test_nadir_is_minimum(self):
        trace = self._trace([50.0, 49.8, 49.6, 49.9, 50.0])
        m = trace_metrics(trace, bm.benchmark_system())
        assert m.nadir_hz == 49.6

    def test_zero_time_outside_band(self):
        trace = self._trace([50.0, 49.6, 50.4, 50.0])
        m = trace_metrics(trace, bm.benchmark_system())
        assert m.time_outside_band_s == 0.0

    def test_time_outside_band_counts_samples(self):
        # 2 s at 49.4 Hz sampled at 0.5 s: four samples below the band.
        dt = 0.5
        f = [50.0] * 4 + [49.4] * 4 + [50.0] * 4
        trace = self._trace(f, dt=dt)
        m = trace_metrics(trace, bm.benchmark_system())
        assert abs(m.time_outside_band_s - 2.0) <= dt

    def test_settled_flag(self):
        recovered = self._trace([49.0] * 50 + [50.0] * 50)
        stuck = self._trace([50.0] * 50 + [49.0] * 50)
        params = bm.benchmark_system()
        assert trace_metrics(recovered, params).settled
        assert not trace_metrics(stuck, params).settled

    def test_empty_trace_rejected(self):
        empty = FrequencyTrace(t=np.array([]), f=np.array([]),
                               rocof=np.array([]), dt=1.0)
        with pytest.raises(InvalidInputError):
            trace_metrics(empty, bm.benchmark_system())

    def test_one_sample_trace_rejected(self):
        with pytest.raises(InvalidInputError, match="at least two samples"):
            FrequencyTrace.from_frequencies(np.zeros(1), np.full(1, 50.0), 0.01)


class TestInertiaPresets:
    @pytest.mark.parametrize("country,h", [
        ("germany", 2.0), ("Italy", 2.0), ("austria", 2.5),
        ("france", 3.5), ("poland", 4.0), ("United Kingdom", 2.0),
    ])
    def test_country_mapping(self, country, h):
        params = inertia_preset_2030(country)
        assert params.h_sys_s == h
        assert params.f_n == 50.0
        assert params.band_half_width_hz == 0.5

    def test_unknown_country_rejected(self):
        with pytest.raises(InvalidInputError):
            inertia_preset_2030("atlantis")


class TestSystemParameterValidation:
    def test_rejects_nonpositive_base(self):
        with pytest.raises(InvalidInputError):
            SystemParameters(f_n=50.0, s_base_mva=0.0)

    def test_rejects_negative_damping(self):
        with pytest.raises(InvalidInputError):
            SystemParameters(damping_pu_per_hz=-0.1)
