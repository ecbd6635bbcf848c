"""Resilience metrics tests: areas, service mappings, phases, state space."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres.blackstart import (ServiceClass, TimelineEvent, classify_service,
                                run_restoration)
from gridres.cli import EXIT_OK, main
from gridres.errors import InvalidInputError
from gridres.frequency import FrequencyTrace, SystemParameters
from gridres.metrics import (ServiceTrajectory, StatePoint, StateTransition,
                             annotate_phases, degradation_area, phase_at,
                             service_from_frequency, service_from_restoration,
                             state_space_path)


def trajectory(points):
    """A trajectory from (t, level, label) rows."""
    t, level, names = zip(*points) if points else ((), (), ())
    labels = tuple(dict.fromkeys(names))
    return ServiceTrajectory(
        t=np.array(t, dtype=float), level=np.array(level, dtype=float),
        code=np.array([labels.index(n) for n in names], dtype=np.int8),
        labels=labels)


def label_at(traj, i):
    return traj.labels[traj.code[i]]


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
            degradation_area(trajectory([]), 1.0)

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
        assert traj.level[0] == 1.0
        assert label_at(traj, 0) == "in_band"

    def test_floor_deviation_zero_service(self):
        traj = service_from_frequency(self.trace([47.5, 50.0]), self.params())
        assert traj.level[0] == 0.0
        assert label_at(traj, 0) == "floor"

    def test_linear_between_band_and_floor(self):
        # deviation 1.5 Hz with band 0.5 and floor 2.5: level 0.5.
        traj = service_from_frequency(self.trace([48.5, 50.0]), self.params())
        assert traj.level[0] == pytest.approx(0.5)
        assert label_at(traj, 0) == "outside_band"

    def test_floor_must_exceed_band(self):
        with pytest.raises(InvalidInputError):
            service_from_frequency(self.trace([50.0, 50.0]), self.params(),
                                   floor_deviation_hz=0.4)


class TestServiceFromRestoration:
    def events(self, served_rows):
        return tuple(
            TimelineEvent(t_s=float(i * 10), stage=stage,
                          served_total_mw=served, served_critical_mw=0.0,
                          service_class=ServiceClass.UNACCEPTABLE)
            for i, (stage, served) in enumerate(served_rows))

    def test_blackout_event_level_zero(self):
        traj = service_from_restoration(self.events([("S2", 0.0)]), 100.0)
        assert traj.level[0] == 0.0
        assert label_at(traj, 0) == "S2"

    def test_ratio(self):
        traj = service_from_restoration(
            self.events([("S2", 0.0), ("S3", 60.0)]), 100.0)
        assert traj.level[1] == pytest.approx(0.6)

    def test_full_restoration_level_one(self):
        traj = service_from_restoration(
            self.events([("S2", 0.0), ("S5'", 100.0)]), 100.0)
        assert traj.level[-1] == 1.0

    def test_zero_total_load_rejected(self):
        with pytest.raises(InvalidInputError):
            service_from_restoration(self.events([("S2", 0.0)]), 0.0)

    def test_stage_codes_fit_int8(self):
        stages = [(f"s{k}", 0.0) for k in range(129)]
        traj = service_from_restoration(self.events(stages[:128]), 100.0)
        assert traj.labels[traj.code[-1]] == "s127"
        with pytest.raises(InvalidInputError, match="at most 128 distinct"):
            service_from_restoration(self.events(stages), 100.0)

    def test_shared_timestamps_are_nudged_and_labels_kept(self):
        events = self.events([("S2", 0.0), ("S3", 40.0), ("S2", 60.0)])
        events = tuple(ev._replace(t_s=10.0) for ev in events)
        traj = service_from_restoration(events, 100.0)
        assert traj.t.tolist() == [10.0, math.nextafter(10.0, 11.0),
                                   math.nextafter(math.nextafter(10.0, 11.0), 11.0)]
        assert traj.labels == ("S2", "S3")
        assert traj.code.tolist() == [0, 1, 0]

    def test_consistency_with_classify_service(self):
        # level 1.0 exactly when the event classifies as acceptable.
        timeline = run_restoration(bm.benchmark_restoration_scenario(), seed=4)
        traj = service_from_restoration(timeline.events, timeline.total_load_mw)
        for level, event in zip(traj.level.tolist(), timeline.events):
            is_acceptable = classify_service(
                event.served_critical_mw, timeline.total_critical_mw,
                event.served_total_mw, timeline.total_load_mw) \
                is ServiceClass.ACCEPTABLE
            assert (level == pytest.approx(1.0)) == is_acceptable


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

    def test_time_before_the_span_is_in_defend(self):
        ann = annotate_phases(self.span(), 10, 12, 15, 40)
        assert phase_at(ann, ann.intervals[0].t_start - 1.0) == "Defend"


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

    def test_nan_time_rejected(self):
        with pytest.raises(InvalidInputError, match="t: must be finite"):
            trajectory([(0, 0.5, "s"), (math.nan, 0.6, "s")])

    def test_nan_level_rejected(self):
        with pytest.raises(InvalidInputError, match="level: must be in"):
            trajectory([(0, 0.5, "s"), (1, math.nan, "s")])

    def test_empty_columns_rejected(self):
        with pytest.raises(InvalidInputError, match="non-empty"):
            ServiceTrajectory(t=np.array([]), level=np.array([]),
                              code=np.array([], dtype=np.int8), labels=())

    def test_unequal_lengths_rejected(self):
        with pytest.raises(InvalidInputError, match="equal lengths"):
            ServiceTrajectory(t=np.array([0.0, 1.0]), level=np.array([0.5]),
                              code=np.zeros(2, dtype=np.int8), labels=("s",))

    @pytest.mark.parametrize("code", [-1, 2])
    def test_code_outside_labels_rejected(self, code):
        with pytest.raises(InvalidInputError, match="code: must index labels"):
            ServiceTrajectory(t=np.array([0.0, 1.0]), level=np.array([0.5, 0.5]),
                              code=np.array([0, code], dtype=np.int8),
                              labels=("a", "b"))


# ---------------------------------------------------------------------------
# The per-sample loops the columnar code replaced, kept as oracles
# ---------------------------------------------------------------------------

def _oracle_service_from_frequency(trace, params, floor_deviation_hz):
    """(t, level, label) per sample, one Python step at a time."""
    band = params.band_half_width_hz
    span = floor_deviation_hz - band
    rows = []
    for t, f in zip(trace.t.tolist(), trace.f.tolist()):
        dev = abs(f - params.f_n)
        if dev <= band:
            level, label = 1.0, "in_band"
        elif dev >= floor_deviation_hz:
            level, label = 0.0, "floor"
        else:
            level, label = 1.0 - (dev - band) / span, "outside_band"
        rows.append((t, level, label))
    return rows


def _oracle_phase(intervals, x):
    """The phase holding time x, by walking the intervals: the non-empty
    one whose [t_start, t_end) contains x; Defend before the span and
    Recover at or past the last start."""
    if x < intervals[0].t_start:
        return "Defend"
    if x >= intervals[-1].t_start:
        return "Recover"
    (phase,) = [iv.phase for iv in intervals if iv.t_start <= x < iv.t_end]
    return phase


def _oracle_state_space_path(rows, state_metric):
    """Points and transitions over (t, level, label) rows, one at a time."""
    points, transitions = [], []
    for _t, level, label in rows:
        nxt = StatePoint(degradation=state_metric[label], level=level)
        if points and nxt == points[-1]:
            continue
        if points:
            prev = points[-1]
            d_deg = nxt.degradation - prev.degradation
            d_lvl = nxt.level - prev.level
            if d_deg > 0 or d_lvl < 0:
                kind = "challenge"
            elif d_deg < 0:
                kind = "recovery"
            else:
                kind = "remediation"
            transitions.append(StateTransition(kind=kind, start=prev, end=nxt))
        points.append(nxt)
    return tuple(points), tuple(transitions)


@st.composite
def frequency_cases(draw):
    """A trace, its system and a floor, with samples exactly at the band
    and floor deviations (dyadic widths keep f_n + width - f_n exact)."""
    f_n = draw(st.sampled_from([50.0, 60.0]))
    band = draw(st.integers(1, 64)) / 64
    floor = band + draw(st.integers(1, 192)) / 64
    edges = [band, floor, math.nextafter(band, 0.0), math.nextafter(floor, 9.0)]
    deviations = draw(st.lists(
        st.sampled_from(edges + [-x for x in edges]) | st.floats(-5.0, 5.0),
        min_size=2, max_size=40))
    f = f_n + np.array(deviations)
    dt = draw(st.sampled_from([0.01, 0.5, 1 / 3]))
    trace = FrequencyTrace.from_frequencies(np.arange(len(f)) * dt, f, dt)
    params = SystemParameters(f_n=f_n, s_base_mva=100.0, h_sys_s=5.0,
                              band_half_width_hz=band)
    state_metric = {"in_band": 0.0,
                    "outside_band": draw(st.sampled_from([0.0, 0.4, 1.0])),
                    "floor": draw(st.sampled_from([0.4, 1.0]))}
    return trace, params, floor, state_metric


class TestColumnarMatchesReplacedLoop:
    @given(case=frequency_cases())
    @settings(max_examples=200, deadline=None)
    def test_service_and_path_match_the_oracle(self, case):
        trace, params, floor, state_metric = case
        traj = service_from_frequency(trace, params, floor_deviation_hz=floor)
        rows = _oracle_service_from_frequency(trace, params, floor)
        t, level, labels = (np.array(col) for col in zip(*rows))

        assert np.array_equal(traj.level, level)
        assert traj.level.tobytes() == level.tobytes()   # bit for bit
        assert traj.t.tobytes() == t.tobytes()
        assert [traj.labels[k] for k in traj.code.tolist()] == labels.tolist()
        deficit = np.maximum(1.0 - level, 0.0)
        assert degradation_area(traj) == float(np.trapezoid(deficit, t))

        points, transitions = _oracle_state_space_path(rows, state_metric)
        path = state_space_path(traj, state_metric)
        assert path.points == points
        assert path.transitions == transitions

    @given(rows=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.0]),
                                   st.sampled_from("abc")), min_size=1, max_size=30),
           state_metric=st.fixed_dictionaries(
               {k: st.sampled_from([0.0, 0.5, 1.0]) for k in "abc"}))
    @settings(max_examples=200, deadline=None)
    def test_path_matches_the_oracle_when_labels_change_at_equal_level(
            self, rows, state_metric):
        rows = [(float(k), level, label) for k, (level, label) in enumerate(rows)]
        points, transitions = _oracle_state_space_path(rows, state_metric)
        path = state_space_path(trajectory(rows), state_metric)
        assert path.points == points
        assert path.transitions == transitions

    @pytest.mark.parametrize("marks", [
        (2.0, 2.0, 3.0, 7.0),      # challenge = detection: Detect is empty
        (0.0, 0.0, 0.0, 10.0),     # Defend and Detect empty at the start
        (0.5, 1.0, 10.0, 10.0),    # Recover empty at the end
        (3.0, 3.0, 3.0, 3.0),      # three empty phases in the middle
        (0.25, 4.75, 5.0, 9.75),   # marks between samples
    ])
    def test_phase_column_matches_phase_at(self, tmp_path, marks):
        t = np.arange(21) * 0.5
        f = 50.0 - 2.0 * np.sin(t / 3.0)
        csv = tmp_path / "trace.csv"
        csv.write_text("t,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), f.tolist())))
        flags = ("--challenge-t", "--detection-t", "--remediation-t",
                 "--recovery-t")
        argv = ["metrics", "--trace", csv, "--out", tmp_path / "o"]
        for flag, mark in zip(flags, marks):
            argv += [flag, repr(mark)]
        assert main([str(a) for a in argv]) == EXIT_OK

        trace = FrequencyTrace.from_frequencies(t, f, 0.5)
        service = service_from_frequency(trace, SystemParameters(band_half_width_hz=0.5))
        ann = annotate_phases(service, *marks)
        rows = (tmp_path / "o" / "service.csv").read_text().splitlines()[1:]
        assert len(rows) == len(service)
        walked = [_oracle_phase(ann.intervals, x) for x in t.tolist()]
        assert [row.split(",")[2] for row in rows] == walked
        times = [-1.0, *t.tolist(), 11.0]
        assert [phase_at(ann, x) for x in times] == \
            [_oracle_phase(ann.intervals, x) for x in times]
