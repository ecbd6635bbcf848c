"""Resilience metrics tests: areas, service mappings, phases, state space."""

import numpy as np
import pytest

from gridres import benchmarks as bm
from gridres.blackstart import (RestorationTimeline, ServiceClass,
                                TimelineEvent, classify_service,
                                run_restoration)
from gridres.errors import InvalidInputError
from gridres.frequency import FrequencyTrace, SystemParameters
from gridres.metrics import (ServicePoint, ServiceTrajectory,
                             annotate_phases, degradation_area, phase_at,
                             service_from_frequency, service_from_restoration,
                             state_space_path)


def trajectory(points):
    return ServiceTrajectory(tuple(ServicePoint(t, lvl, lab)
                                   for t, lvl, lab in points))


def constant_fixture():
    return trajectory([(0, 1.0, "ok"), (5, 1.0, "ok"), (10, 1.0, "ok")])


def rectangle_fixture():
    # 0.5 for 10 s, then full service; the step is a 1 ns ramp.
    return trajectory([(0, 0.5, "low"), (10, 0.5, "low"),
                       (10 + 1e-9, 1.0, "ok"), (20, 1.0, "ok")])


def triangle_fixture():
    return trajectory([(0, 0.0, "out"), (10, 1.0, "ok")])


class TestDegradationArea:
    def test_constant_full_service_has_zero_area(self):
        assert degradation_area(constant_fixture(), 1.0) == 0.0

    def test_rectangle_area(self):
        assert degradation_area(rectangle_fixture(), 1.0) == pytest.approx(5.0, abs=1e-6)

    def test_triangle_area(self):
        assert degradation_area(triangle_fixture(), 1.0) == pytest.approx(5.0)

    def test_baseline_below_levels_rejected_unless_clipped(self):
        with pytest.raises(InvalidInputError):
            degradation_area(constant_fixture(), 0.5)
        assert degradation_area(constant_fixture(), 0.5, clip=True) == 0.0

    def test_empty_trajectory_rejected(self):
        with pytest.raises(InvalidInputError):
            degradation_area(ServiceTrajectory(()), 1.0)

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("baseline", [np.nan, np.inf, -np.inf])
    def test_non_finite_baseline_rejected(self, baseline, clip):
        with pytest.raises(InvalidInputError, match="baseline: must be finite"):
            degradation_area(constant_fixture(), baseline, clip=clip)

    def test_additive_over_time_partition(self):
        whole = trajectory([(0, 0.2, "x"), (4, 0.6, "x"), (10, 1.0, "x")])
        left = trajectory([(0, 0.2, "x"), (4, 0.6, "x")])
        right = trajectory([(4, 0.6, "x"), (10, 1.0, "x")])
        assert degradation_area(whole, 1.0) == pytest.approx(
            degradation_area(left, 1.0) + degradation_area(right, 1.0))

    def test_deficit_scales_linearly(self):
        base = trajectory([(0, 0.6, "x"), (10, 0.8, "x")])
        halved = trajectory([(0, 0.8, "x"), (10, 0.9, "x")])
        assert degradation_area(base, 1.0) == pytest.approx(
            2.0 * degradation_area(halved, 1.0))

    def test_pointwise_dominance_orders_areas(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = rng.integers(2, 12)
            t = np.sort(rng.uniform(0, 100, size=n))
            t += np.arange(n) * 1e-6  # enforce strict increase
            low = rng.uniform(0, 1, size=n)
            high = low + rng.uniform(0, 1, size=n) * (1 - low)
            traj_low = trajectory([(float(ti), float(l), "x")
                                   for ti, l in zip(t, low)])
            traj_high = trajectory([(float(ti), float(l), "x")
                                    for ti, l in zip(t, high)])
            assert degradation_area(traj_high, 1.0) <= \
                degradation_area(traj_low, 1.0) + 1e-12


class TestServiceFromFrequency:
    def params(self):
        return SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=5.0,
                                band_half_width_hz=0.5)

    def trace(self, freqs, dt=1.0):
        f = np.array(freqs, dtype=float)
        t = np.arange(len(f)) * dt
        return FrequencyTrace.from_frequencies(t, f, dt)

    def test_nominal_frequency_full_service(self):
        traj = service_from_frequency(self.trace([50.0, 50.0]), self.params())
        assert traj.points[0].level == 1.0
        assert traj.points[0].label == "in_band"

    def test_floor_deviation_zero_service(self):
        traj = service_from_frequency(self.trace([47.5, 50.0]), self.params())
        assert traj.points[0].level == 0.0
        assert traj.points[0].label == "floor"

    def test_linear_between_band_and_floor(self):
        # deviation 1.5 Hz with band 0.5 and floor 2.5: level 0.5.
        traj = service_from_frequency(self.trace([48.5, 50.0]), self.params())
        assert traj.points[0].level == pytest.approx(0.5)
        assert traj.points[0].label == "outside_band"

    def test_floor_must_exceed_band(self):
        with pytest.raises(InvalidInputError):
            service_from_frequency(self.trace([50.0, 50.0]), self.params(),
                                   floor_deviation_hz=0.4)


class TestServiceFromRestoration:
    def timeline(self, served_rows, total=100.0):
        events = tuple(
            TimelineEvent(t_s=float(i * 10), stage=stage,
                          served_total_mw=served, served_critical_mw=0.0,
                          service_class=ServiceClass.UNACCEPTABLE)
            for i, (stage, served) in enumerate(served_rows))
        return RestorationTimeline(events=events, merge_attempts=(),
                                   total_load_mw=total, total_critical_mw=0.0)

    def test_blackout_event_level_zero(self):
        traj = service_from_restoration(self.timeline([("S2", 0.0)]), 100.0)
        assert traj.points[0].level == 0.0
        assert traj.points[0].label == "S2"

    def test_ratio(self):
        traj = service_from_restoration(
            self.timeline([("S2", 0.0), ("S3", 60.0)]), 100.0)
        assert traj.points[1].level == pytest.approx(0.6)

    def test_full_restoration_level_one(self):
        traj = service_from_restoration(
            self.timeline([("S2", 0.0), ("S5'", 100.0)]), 100.0)
        assert traj.points[-1].level == 1.0

    def test_zero_total_load_rejected(self):
        with pytest.raises(InvalidInputError):
            service_from_restoration(self.timeline([("S2", 0.0)]), 0.0)

    def test_consistency_with_classify_service(self):
        # level 1.0 exactly when the event classifies as acceptable.
        timeline = run_restoration(bm.benchmark_restoration_scenario(), seed=4)
        traj = service_from_restoration(timeline, timeline.total_load_mw)
        for point, event in zip(traj.points, timeline.events):
            is_acceptable = classify_service(
                event.served_critical_mw, timeline.total_critical_mw,
                event.served_total_mw, timeline.total_load_mw) \
                is ServiceClass.ACCEPTABLE
            assert (point.level == pytest.approx(1.0)) == is_acceptable


class TestAnnotatePhases:
    def span(self):
        return trajectory([(t, 0.5, "s") for t in range(0, 61, 10)])

    def test_partition_of_reference_events(self):
        ann = annotate_phases(self.span(), 10, 12, 15, 40)
        bounds = [(iv.phase, iv.t_start, iv.t_end) for iv in ann.intervals]
        assert bounds == [("Defend", 0, 10), ("Detect", 10, 12),
                          ("Remediate", 12, 40), ("Recover", 40, 60)]
        assert ann.detection_latency_s == 2
        assert ann.activation_time_s == 3
        assert ann.remediation_time_s == 25
        assert ann.recovery_time_s == 20

    def test_partition_is_exact(self):
        ann = annotate_phases(self.span(), 10, 12, 15, 40)
        for left, right in zip(ann.intervals, ann.intervals[1:]):
            assert left.t_end == right.t_start
        assert ann.intervals[0].t_start == 0
        assert ann.intervals[-1].t_end == 60

    def test_challenge_at_start_gives_empty_defend(self):
        ann = annotate_phases(self.span(), 0, 5, 6, 30)
        assert ann.intervals[0].t_start == ann.intervals[0].t_end == 0

    def test_instant_detection(self):
        ann = annotate_phases(self.span(), 10, 10, 15, 40)
        assert ann.detection_latency_s == 0

    def test_unordered_events_rejected(self):
        with pytest.raises(InvalidInputError):
            annotate_phases(self.span(), 12, 10, 15, 40)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("position", range(4))
    def test_non_finite_event_rejected(self, position, value):
        events = [10, 12, 15, 40]
        events[position] = value
        with pytest.raises(InvalidInputError, match="events: must be finite"):
            annotate_phases(self.span(), *events)

    def test_phase_lookup(self):
        ann = annotate_phases(self.span(), 10, 12, 15, 40)
        assert phase_at(ann, 5) == "Defend"
        assert phase_at(ann, 11) == "Detect"
        assert phase_at(ann, 30) == "Remediate"
        assert phase_at(ann, 60) == "Recover"


class TestStateSpacePath:
    def test_constant_trajectory_single_point(self):
        traj = trajectory([(0, 0.5, "s"), (1, 0.5, "s"), (2, 0.5, "s")])
        path = state_space_path(traj, {"s": 0.3})
        assert len(path.points) == 1
        assert path.transitions == ()

    def test_restoration_arrows(self):
        traj = trajectory([(0, 1.0, "S1"), (1, 0.0, "S2"), (2, 0.4, "S3")])
        path = state_space_path(traj, {"S1": 0.0, "S2": 1.0, "S3": 0.6})
        kinds = [tr.kind for tr in path.transitions]
        assert kinds == ["challenge", "recovery"]

    def test_remediation_raises_service_at_equal_state(self):
        traj = trajectory([(0, 0.2, "deg"), (1, 0.6, "deg")])
        path = state_space_path(traj, {"deg": 0.7})
        assert [tr.kind for tr in path.transitions] == ["remediation"]

    def test_improved_remediation_ends_higher(self):
        state_map = {"S2": 1.0, "S3": 0.6}
        base = trajectory([(0, 0.0, "S2"), (1, 0.3, "S3")])
        improved = trajectory([(0, 0.0, "S2"), (1, 0.5, "S3")])
        p_base = state_space_path(base, state_map)
        p_improved = state_space_path(improved, state_map)
        assert p_improved.transitions[-1].end.degradation == \
            p_base.transitions[-1].end.degradation
        assert p_improved.transitions[-1].end.level > \
            p_base.transitions[-1].end.level

    def test_unmapped_label_rejected(self):
        traj = trajectory([(0, 0.5, "mystery")])
        with pytest.raises(InvalidInputError, match="mystery"):
            state_space_path(traj, {"known": 0.1})

    def test_coordinates_bounded(self):
        with pytest.raises(InvalidInputError):
            state_space_path(trajectory([(0, 0.5, "s")]), {"s": 1.5})


class TestServiceTrajectoryInvariants:
    def test_levels_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidInputError):
            trajectory([(0, 1.2, "s")])

    def test_non_increasing_time_rejected(self):
        with pytest.raises(InvalidInputError):
            trajectory([(0, 0.5, "s"), (0, 0.6, "s")])
