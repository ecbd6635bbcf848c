"""Operator coordination tests: inertia formulas, envelope, distribution."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres.coordination import (DerUnit, DistributionError, DroopEnvelope,
                                  FeasibilityViolationError, FrequencyGrid,
                                  InertiaPhase1, InfeasibleAssignmentError,
                                  InfeasibleHeadroomError, check_reserve_rules,
                                  compute_droop_envelope, compute_h_ag_max,
                                  compute_p0_ir, distribute_droop,
                                  distribute_inertia, make_inertia_assignment,
                                  select_droop, selection_violations)
from gridres.errors import InvalidInputError
from gridres.frequency import DroopCurve, evaluate_droop

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
                     allow_infinity=False)


class TestInertiaFormulas:
    def test_h_ag_max_reference_value(self):
        assert compute_h_ag_max(0.2, 0.0, 50.0, 1.0) == 5.0

    def test_h_ag_max_second_value(self):
        # 25 * 0.12 / 1.5
        assert compute_h_ag_max(0.12, 0.0, 50.0, 1.5) == pytest.approx(2.0, abs=1e-15)

    def test_zero_headroom_offers_zero_inertia(self):
        assert compute_h_ag_max(0.3, 0.3, 50.0, 1.0) == 0.0

    def test_p0_ir_reference_value(self):
        assert compute_p0_ir(5.0, 1.0, 50.0, 0.3) == pytest.approx(0.5)

    def test_zero_inertia_adds_no_power(self):
        assert compute_p0_ir(0.0, 1.3, 50.0, 0.3) == 0.3

    def test_rejects_nonpositive_rocof(self):
        with pytest.raises(InvalidInputError):
            compute_h_ag_max(0.2, 0.0, 50.0, 0.0)

    @pytest.mark.parametrize("rocof", [math.nan, 0.0, -1.0])
    def test_p0_ir_rejects_invalid_rocof(self, rocof):
        with pytest.raises(InvalidInputError, match="rocof_max_hz_per_s"):
            compute_p0_ir(5.0, rocof, 50.0, 0.3)

    def test_infeasible_headroom(self):
        with pytest.raises(InfeasibleHeadroomError):
            compute_h_ag_max(0.1, 0.3, 50.0, 1.0)

    @given(p0_irmax=positive, p0_ss=positive, f_n=st.floats(1.0, 500.0),
           rocof=st.floats(1e-3, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_inverse(self, p0_irmax, p0_ss, f_n, rocof):
        lo, hi = sorted((p0_ss, p0_irmax))
        h = compute_h_ag_max(hi, lo, f_n, rocof)
        back = compute_p0_ir(h, rocof, f_n, lo)
        assert back == pytest.approx(hi, rel=1e-12)


class TestDistributeInertia:
    def units(self, headrooms, rating=1.0):
        return [DerUnit(id=f"u{i}", p_rating=rating,
                        p_available=rating - hr, bus=f"b{i}")
                for i, hr in enumerate(headrooms)]

    def test_identical_units_get_equal_constants(self):
        units = self.units([0.3, 0.3])
        result = distribute_inertia(2.0, units, 1.0, 50.0)
        assert result["u0"] == pytest.approx(result["u1"])

    def test_zero_headroom_gets_zero(self):
        units = self.units([0.0, 0.5])
        result = distribute_inertia(2.0, units, 1.0, 50.0)
        assert result["u0"] == 0.0

    def test_proportional_to_headroom(self):
        # Headrooms 1:2:3 and an aggregate inertial power of 0.6 pu split
        # as 0.1 / 0.2 / 0.3. With three 1.0 pu units, rocof 1 Hz/s and
        # f_n 50 Hz the aggregate power 2*H*(3/50)*1 = 0.6 needs H = 5.
        units = self.units([0.1, 0.2, 0.3])
        result = distribute_inertia(5.0, units, 1.0, 50.0)
        powers = {uid: 2.0 * h * (1.0 / 50.0) * 1.0 for uid, h in result.items()}
        assert powers["u0"] == pytest.approx(0.1, abs=1e-12)
        assert powers["u1"] == pytest.approx(0.2, abs=1e-12)
        assert powers["u2"] == pytest.approx(0.3, abs=1e-12)

    def test_no_unit_exceeds_headroom(self):
        # Total headroom 0.6 pu supports up to H = 0.6 * 50 / (2 * 3) = 5 s.
        units = self.units([0.05, 0.4, 0.15])
        result = distribute_inertia(4.0, units, 1.0, 50.0)
        for unit in units:
            power = 2.0 * result[unit.id] * (unit.p_rating / 50.0) * 1.0
            assert power <= unit.headroom + 1e-12

    def test_aggregation_consistency(self):
        import random
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 8)
            units = [DerUnit(id=f"u{i}", p_rating=rng.uniform(0.2, 2.0),
                             p_available=0.0, bus="b")
                     for i in range(n)]
            units = [DerUnit(id=u.id, p_rating=u.p_rating,
                             p_available=rng.uniform(0, u.p_rating), bus="b")
                     for u in units]
            s_ag = sum(u.p_rating for u in units)
            rocof, f_n = rng.uniform(0.1, 2.0), 50.0
            max_h = sum(u.headroom for u in units) * f_n / (2.0 * s_ag * rocof)
            target = rng.uniform(0.0, max_h)
            result = distribute_inertia(target, units, rocof, f_n)
            total_power = sum(2.0 * result[u.id] * (u.p_rating / f_n) * rocof
                              for u in units)
            assert total_power == pytest.approx(
                2.0 * target * (s_ag / f_n) * rocof, abs=1e-9)

    def test_infeasible_target_rejected(self):
        units = self.units([0.1, 0.1])
        with pytest.raises(InfeasibleAssignmentError):
            distribute_inertia(50.0, units, 1.0, 50.0)

    def test_assignment_requires_strictly_lower_selection(self):
        phase1 = InertiaPhase1(rocof_max_hz_per_s=1.0, h_ag_max_s=5.0,
                               p0_ss_pu=0.3, p0_irmax_pu=0.5)
        units = self.units([0.4, 0.4])
        assignment = make_inertia_assignment(phase1, 4.0, units, 50.0)
        assert assignment.h_ag_tso_s == 4.0
        with pytest.raises(InvalidInputError):
            make_inertia_assignment(phase1, 5.0, units, 50.0)

    @pytest.mark.parametrize("h_tso", [5.0, 6.0, math.nan])
    def test_assignment_and_fleet_document_share_the_selection_rule(self, h_tso):
        # The message a fleet document lists under inertia.h_ag_tso_s.
        phase1 = InertiaPhase1(rocof_max_hz_per_s=1.0, h_ag_max_s=5.0,
                               p0_ss_pu=0.3, p0_irmax_pu=0.5)
        with pytest.raises(InvalidInputError) as err:
            make_inertia_assignment(phase1, h_tso, self.units([0.4, 0.4]), 50.0)
        assert [str(err.value)] == selection_violations(h_tso, 5.0) == [
            "h_ag_tso_s: must be below the offered maximum h_ag_max_s = 5"]


def grid_1hz():
    return FrequencyGrid(f_min=49.5, f_max=50.5, f_step=0.1, f_n=50.0)


class TestDroopEnvelope:
    def test_grid_rows_reach_or_exceed_maximum(self):
        rows = FrequencyGrid(49.5, 50.45, 0.1, 50.0).frequencies()
        assert rows[0] == 49.5
        assert rows[-1] >= 50.45
        assert rows[-2] < 50.45

    def test_single_unit(self):
        env = compute_droop_envelope(
            [DerUnit(id="a", p_rating=1.0, p_available=0.5)], grid_1hz())
        assert all(p == 0.0 for p in env.p_agg_min)
        assert all(p == 1.0 for p in env.p_agg_max)

    def test_two_units_sum(self):
        env = compute_droop_envelope(
            [DerUnit(id="a", p_rating=1.0, p_available=0.5),
             DerUnit(id="b", p_rating=0.5, p_available=0.2)], grid_1hz())
        assert env.p_agg_max[0] == 1.5

    def test_empty_fleet(self):
        env = compute_droop_envelope([], grid_1hz())
        assert env.p_agg_max[0] == 0.0

    def test_corner_points(self):
        env = compute_droop_envelope(
            [DerUnit(id="a", p_rating=1.5, p_available=0.5)], grid_1hz())
        assert env.corners["A"] == (50.5, 0.0)
        assert env.corners["B"] == (50.5, 1.5)
        assert env.corners["C"] == (50.0, 0.0)
        assert env.corners["D"] == (50.0, 1.5)
        assert env.corners["E"] == (49.5, 0.0)
        assert env.corners["F"] == (49.5, 1.5)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            FrequencyGrid(f_min=49.5, f_max=50.5, f_step=0.0)
        with pytest.raises(InvalidInputError):
            FrequencyGrid(f_min=50.5, f_max=49.5, f_step=0.1)


class TestSelectDroop:
    def fleet(self):
        return [DerUnit(id="a", p_rating=1.0, p_available=0.5),
                DerUnit(id="b", p_rating=0.5, p_available=0.2)]

    def test_interior_curve_accepted(self):
        env = compute_droop_envelope(self.fleet(), grid_1hz())
        candidate = DroopCurve(f_n=50.0, dead_band_half_width=0.02,
                               p_nominal=0.7, p_max=1.2, f_min=49.5,
                               p_min=0.1, f_max=50.5)
        assert select_droop(env, candidate) is candidate

    def test_peak_above_envelope_rejected_with_frequencies(self):
        env = compute_droop_envelope(self.fleet(), grid_1hz())
        candidate = DroopCurve(f_n=50.0, dead_band_half_width=0.02,
                               p_nominal=0.7, p_max=2.0, f_min=49.5,
                               p_min=0.1, f_max=50.5)
        with pytest.raises(FeasibilityViolationError) as err:
            select_droop(env, candidate)
        assert 49.5 in err.value.offending_frequencies

    def test_degenerate_envelope_accepts_only_the_matching_curve(self):
        grid = grid_1hz()
        freqs = tuple(grid.frequencies())
        env = DroopEnvelope(grid=grid, frequencies=freqs,
                            p_agg_min=tuple(0.5 for _ in freqs),
                            p_agg_max=tuple(0.5 for _ in freqs),
                            corners={})
        flat = DroopCurve(f_n=50.0, dead_band_half_width=0.02, p_nominal=0.5,
                          p_max=0.5, f_min=49.4, p_min=0.5, f_max=50.6)
        assert select_droop(env, flat) is flat
        off = DroopCurve(f_n=50.0, dead_band_half_width=0.02, p_nominal=0.6,
                         p_max=0.6, f_min=49.4, p_min=0.6, f_max=50.6)
        with pytest.raises(FeasibilityViolationError):
            select_droop(env, off)

    def test_shrinking_envelope_never_admits_a_rejected_curve(self):
        import random
        rng = random.Random(3)
        grid = grid_1hz()
        freqs = tuple(grid.frequencies())
        for _ in range(50):
            hi_wide = rng.uniform(0.8, 2.0)
            hi_narrow = hi_wide * rng.uniform(0.3, 1.0)
            wide = DroopEnvelope(grid=grid, frequencies=freqs,
                                 p_agg_min=tuple(0.0 for _ in freqs),
                                 p_agg_max=tuple(hi_wide for _ in freqs),
                                 corners={})
            narrow = DroopEnvelope(grid=grid, frequencies=freqs,
                                   p_agg_min=tuple(0.0 for _ in freqs),
                                   p_agg_max=tuple(hi_narrow for _ in freqs),
                                   corners={})
            p_max = rng.uniform(0.1, 2.2)
            curve = DroopCurve(f_n=50.0, dead_band_half_width=0.02,
                               p_nominal=p_max / 2, p_max=p_max, f_min=49.4,
                               p_min=0.0, f_max=50.6)
            def accepted(env):
                try:
                    select_droop(env, curve)
                    return True
                except FeasibilityViolationError:
                    return False
            if not accepted(wide):
                assert not accepted(narrow)


class TestDistributeDroop:
    def selected(self):
        return DroopCurve(f_n=50.0, dead_band_half_width=0.02, p_nominal=0.7,
                          p_max=1.2, f_min=49.5, p_min=0.1, f_max=50.5)

    def test_single_unit_receives_curve_verbatim(self):
        unit = DerUnit(id="solo", p_rating=1.5, p_available=0.5)
        split = distribute_droop(self.selected(), [unit], grid_1hz())
        assert split["solo"] == self.selected()

    def test_identical_units_halve_all_powers(self):
        units = [DerUnit(id="a", p_rating=1.0, p_available=0.5),
                 DerUnit(id="b", p_rating=1.0, p_available=0.5)]
        split = distribute_droop(self.selected(), units, grid_1hz())
        assert split["a"].p_max == pytest.approx(0.6)
        assert split["a"].p_nominal == pytest.approx(0.35)
        assert split["a"] == split["b"]

    def test_rating_ratio_split_and_reaggregation(self):
        units = [DerUnit(id="big", p_rating=1.0, p_available=0.0),
                 DerUnit(id="small", p_rating=0.5, p_available=0.0)]
        grid = grid_1hz()
        split = distribute_droop(self.selected(), units, grid)
        for f in grid.frequencies():
            p_big = evaluate_droop(split["big"], f)
            p_small = evaluate_droop(split["small"], f)
            assert p_big == pytest.approx(2.0 * p_small, rel=1e-12)
            total = p_big + p_small
            assert total == pytest.approx(
                evaluate_droop(self.selected(), f), abs=1e-9)

    def test_rating_violation_rejected(self):
        tiny = [DerUnit(id="a", p_rating=0.5, p_available=0.0)]
        with pytest.raises(DistributionError):
            distribute_droop(self.selected(), tiny, grid_1hz())

    def test_empty_fleet_with_nonzero_curve_rejected(self):
        with pytest.raises(DistributionError):
            distribute_droop(self.selected(), [], grid_1hz())


class TestReserveRules:
    def test_cap_exceeded_at_six_percent(self):
        report = check_reserve_rules({"u1": 0.06, "u2": 0.94}, 1.0)
        kinds = [(v.unit_id, v.rule) for v in report.violations]
        assert ("u1", "CapExceeded") in kinds

    def test_incident_unit_flagged(self):
        report = check_reserve_rules({"u1": 0.02}, 1.0, incident_unit_ids=["u1"])
        assert [v.rule for v in report.violations] == ["IncidentUnitIncluded"]

    def test_non_contributing_incident_unit_not_flagged(self):
        report = check_reserve_rules({"u1": 0.0, "u2": 0.04}, 1.0,
                                     incident_unit_ids=["u1"])
        assert report.compliant

    def test_25_units_at_4_percent_compliant(self):
        shares = {f"u{i}": 0.04 for i in range(25)}
        assert check_reserve_rules(shares, 1.0).compliant

    def test_exactly_5_percent_allowed(self):
        assert check_reserve_rules({"u1": 0.05, "u2": 0.95}, 1.0).compliant \
            is False  # u2 over the cap
        report = check_reserve_rules({f"u{i}": 0.05 for i in range(20)}, 1.0)
        assert report.compliant

    @pytest.mark.parametrize("share", [math.nan, -0.1])
    def test_invalid_share_rejected(self, share):
        with pytest.raises(InvalidInputError, match=r"fcr_shares_pu\[u1\]"):
            check_reserve_rules({"u1": share, "u2": 0.04}, 1.0)

    def test_nonpositive_total_rejected(self):
        with pytest.raises(InvalidInputError):
            check_reserve_rules({"u1": 0.1}, 0.0)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -1.0, True, "1"])
    def test_total_obeys_the_fleet_row(self, total):
        with pytest.raises(InvalidInputError, match="total_fcr_pu"):
            check_reserve_rules({"u1": 0.1}, total)

    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, scale):
        shares = {"a": 0.06, "b": 0.03, "c": 0.91}
        base = check_reserve_rules(shares, 1.0, incident_unit_ids=["b"])
        scaled = check_reserve_rules(
            {k: v * scale for k, v in shares.items()}, scale,
            incident_unit_ids=["b"])
        assert [(v.unit_id, v.rule) for v in base.violations] == \
            [(v.unit_id, v.rule) for v in scaled.violations]


class TestDerUnitValidation:
    def test_operating_point_above_rating_rejected(self):
        with pytest.raises(InvalidInputError):
            DerUnit(id="u", p_rating=1.0, p_available=1.2)

    def test_headroom(self):
        unit = DerUnit(id="u", p_rating=1.0, p_available=0.3)
        assert unit.headroom == pytest.approx(0.7)
