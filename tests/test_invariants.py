"""Physics relations that any correct implementation keeps.

The replaced-code oracles elsewhere pin today's order of float operations;
the relations here hold for any implementation of the same model, so they
still guard a change that is allowed to move bits within a stated tolerance.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres.blackstart import _EQ_TOL, monte_carlo, run_restoration
from gridres.frequency import (DisturbanceEvent, DroopCurve, RatedDroopCurve,
                               simulate_disturbance)
from test_blackstart import _shared_scenario

# Largest |(f+ - f_n) + (f- - f_n)| measured over H 2-5 s and |dP| 0.05-0.16:
# 0.0 Hz with no fleet, 7.1e-15 Hz (one ulp at 50 Hz) with the benchmark
# fleet, 5.0e-14 Hz with drawn symmetric curves. Scaling the over-frequency
# containment demand by 0.999 moves it to 4.7e-5 Hz with the benchmark
# fleet and to 1e-2 Hz with none.
MIRROR_TOL_HZ = 1e-12


@st.composite
def symmetric_fleets(draw):
    """No fleet, the benchmark fleet, or one curve that is odd about f_n."""
    kind = draw(st.sampled_from(["none", "benchmark", "drawn"]))
    if kind == "none":
        return []
    if kind == "benchmark":
        return bm.benchmark_droop_fleet()
    dead_band, reach = draw(st.floats(0.0, 0.05)), draw(st.floats(0.1, 1.0))
    p_nominal, swing = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    curve = DroopCurve(f_n=50.0, dead_band_half_width=dead_band, p_nominal=p_nominal,
                       p_max=p_nominal + swing, f_min=50.0 - dead_band - reach,
                       p_min=p_nominal - swing, f_max=50.0 + dead_band + reach)
    return [RatedDroopCurve(curve=curve, rating_mw=draw(st.floats(0.0, 100.0)))]


class TestFrequencyMirror:
    @given(h_sys_s=st.floats(2.0, 5.0), size=st.floats(0.05, 0.16),
           fleet=symmetric_fleets())
    @settings(max_examples=12, deadline=None)
    def test_flipping_the_step_mirrors_the_deviation(self, h_sys_s, size, fleet):
        # Droop curves, containment and restoration reserves are all odd in
        # the deviation from f_n, so a load loss retraces a generation loss
        # of the same size reflected about f_n.
        under, over = (simulate_disturbance(
            bm.benchmark_system(h_sys_s), DisturbanceEvent(t_event_s=1.0, delta_p_pu=dp),
            bm.benchmark_fcr(), bm.benchmark_secondary(), fleet, horizon_s=120.0).f - 50.0
            for dp in (-size, size))
        assert np.abs(under + over).max() <= MIRROR_TOL_HZ


def _at_most(served, total):
    """served <= total with classify_service's relative slack: the two sum
    the same loads in other orders."""
    return served <= total + _EQ_TOL * max(1.0, total)


@st.composite
def restoration_cases(draw):
    """The benchmark with its loads scaled by 0.2-5 (so runs range from
    restoring everything to falling short of critical load) and every
    load and capacity jittered (so sums are inexact), one cell radius, a
    drawn battery per comm node, a battery probability and a seed."""
    base = bm.benchmark_restoration_scenario()
    radius, scale = draw(st.floats(0.5, 12.0)), draw(st.floats(0.2, 5.0))
    scenario = replace(
        base,
        loads=tuple(replace(l, demand_mw=l.demand_mw * scale * draw(st.floats(0.5, 1.5)))
                    for l in base.loads),
        ders=tuple(replace(d, capacity_mw=d.capacity_mw * draw(st.floats(0.5, 1.5)))
                   for d in base.ders),
        comm=tuple(replace(c, has_battery=draw(st.booleans()), cell_radius_km=radius)
                   for c in base.comm))
    return scenario, radius, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**16))


class TestBlackstartBounds:
    @given(case=restoration_cases())
    @settings(max_examples=40, deadline=None)
    def test_served_load_times_and_fractions_are_bounded(self, case):
        scenario, radius, p_battery, seed = case
        timeline = run_restoration(scenario, seed=seed)
        total_load = scenario.total_load_mw()
        for ev in timeline.events:
            assert 0 <= ev.served_critical_mw
            assert _at_most(ev.served_critical_mw, ev.served_total_mw)
            assert _at_most(ev.served_total_mw, total_load)
        times = [ev.t_s for ev in timeline.events]
        assert times == sorted(times)
        for f in monte_carlo(scenario, p_battery, radius, 3, seed).restored_fractions:
            assert 0 <= f <= 1.0


class TestBlackstartBatteryMonotone:
    @given(name=st.sampled_from(["benchmark", "two_tile", "awkward"]),
           radius=st.floats(1.5, 6.0), seed=st.integers(0, 2**16),
           p_battery=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_more_batteries_never_restore_less(self, name, radius, seed, p_battery):
        # Common random numbers: run k places a battery wherever its draw for
        # the node is below p_battery, so a higher p_battery only adds
        # batteries. Merges may come in another order and sum the islands'
        # served load differently, hence the slack. Every island here covers
        # its critical load; where one does not, the merge order decides which
        # followers it can crank and the relation fails (ROADMAP item 5).
        runs = [monte_carlo(_shared_scenario(name), p, radius, 6, seed).restored_fractions
                for p in sorted(p_battery)]
        for low, high in zip(runs, runs[1:]):
            assert all(_at_most(lo, hi) for lo, hi in zip(low, high))
