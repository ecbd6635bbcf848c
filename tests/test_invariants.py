"""Physics relations that any correct implementation keeps.

The replaced-code oracles elsewhere pin today's order of float operations;
the relations here hold for any implementation of the same model, so they
still guard a change that is allowed to move bits within a stated tolerance.
"""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres.blackstart import _EQ_TOL, monte_carlo, run_restoration
from gridres.frequency import (DisturbanceEvent, DroopCurve, FcrProduct,
                               RatedDroopCurve, simulate_disturbance)
from gridres.protection import _fault_point, simulate_protection, solve_fault_currents
from test_blackstart import _shared_scenario
from test_protection import (general_faults, general_networks, protected_cases,
                             random_radial_network)

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


# Slack for the nadir relations. Over 300 draws of the ranges below no
# change moved the nadir the wrong way at all; scaling the containment
# demand down with capacity, by 1 - capacity/40, moved it the wrong way by
# up to 1.08 Hz.
NADIR_TOL_HZ = 1e-12


class TestFrequencyNadirMonotone:
    @given(h_sys_s=st.floats(1.5, 6.0), fcr_mw=st.floats(0.0, 30.0),
           size=st.floats(0.02, 0.2), fleet=st.sampled_from(["none", "benchmark"]))
    @settings(max_examples=30, deadline=None)
    def test_inertia_and_reserve_never_deepen_and_loss_never_raises_the_nadir(
            self, h_sys_s, fcr_mw, size, fleet):
        # The paper's case for inertia and containment reserve: more of
        # either never deepens the nadir, and a larger loss never raises it.
        droop_fleet = bm.benchmark_droop_fleet() if fleet == "benchmark" else []

        def nadir(h, fcr, dp):
            return simulate_disturbance(
                bm.benchmark_system(h), DisturbanceEvent(t_event_s=1.0, delta_p_pu=-dp),
                FcrProduct(fcr), bm.benchmark_secondary(), droop_fleet,
                horizon_s=40.0).f.min()

        base = nadir(h_sys_s, fcr_mw, size)
        assert nadir(h_sys_s * 1.1, fcr_mw, size) >= base - NADIR_TOL_HZ
        assert nadir(h_sys_s, fcr_mw * 1.1 + 0.1, size) >= base - NADIR_TOL_HZ
        assert nadir(h_sys_s, fcr_mw, size * 1.1) <= base + NADIR_TOL_HZ


# Currents of a relabelled network, relative to the largest current. The
# bottom-up sums may associate differently once the buses are reordered.
RELABEL_RTOL = 1e-12


def _relabelled(net, fault, trip_settings, data):
    """The case with buses, lines and breakers in drawn document orders and
    renamed under order-preserving maps, and the map from new ids to old."""
    new_id = {}
    for prefix, ids in (("N", net.buses), ("E", [ln.id for ln in net.lines]),
                        ("K", [b.id for b in net.breakers])):
        new_id |= {old: f"{prefix}{k:03d}" for k, old in enumerate(sorted(ids))}
    shuffled = lambda items: data.draw(st.permutations(items))
    net = replace(
        net, buses=tuple(new_id[b] for b in shuffled(net.buses)),
        lines=tuple(replace(ln, id=new_id[ln.id], from_bus=new_id[ln.from_bus],
                            to_bus=new_id[ln.to_bus]) for ln in shuffled(net.lines)),
        breakers=tuple(replace(b, id=new_id[b.id], line=new_id[b.line])
                       for b in shuffled(net.breakers)),
        source=replace(net.source, bus=new_id[net.source.bus]),
        ders=tuple(replace(d, bus=new_id[d.bus]) for d in net.ders),
        loads=tuple(replace(ld, bus=new_id[ld.bus]) for ld in net.loads))
    fault = replace(fault, element_id=new_id[fault.element_id])
    settings = {new_id[bid]: value for bid, value in trip_settings.items()}
    return net, fault, settings, {new: old for old, new in new_id.items()}


class TestProtectionRelabelling:
    @given(case=protected_cases(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabelling_keeps_trips_issues_and_currents(self, case, data):
        net, fault, _ = case
        # Settings at least 10 % away from the pre-trip current, so a
        # current that moves by an ulp trips the same breakers.
        initial = solve_fault_currents(net, fault, allow_dead_fault=True)
        trip_settings = {}
        for b in net.breakers:
            current = initial.branch_magnitude(b.line)
            scale = data.draw(st.floats(0.1, 0.9) | st.floats(1.1, 2.0))
            trip_settings[b.id] = current * scale if current > 0 else data.draw(
                st.floats(0.01, 5.0))
        new_net, new_fault, new_settings, old_id = _relabelled(net, fault, trip_settings, data)

        before = simulate_protection(net, fault, trip_settings)
        after = simulate_protection(new_net, new_fault, new_settings)
        assert [(old_id[ev.breaker_id], ev.time_s) for ev in after.trips] == \
            [(ev.breaker_id, ev.time_s) for ev in before.trips]
        assert tuple(old_id[ln] for ln in after.open_lines) == before.open_lines
        assert Counter((i.kind, tuple(old_id.get(e, e) for e in i.elements))
                       for i in after.issues) == \
            Counter((i.kind, i.elements) for i in before.issues)

        moved = solve_fault_currents(new_net, new_fault, allow_dead_fault=True)
        old = np.array([initial.branch_currents[old_id[ln.id]] for ln in new_net.lines])
        largest = max(np.abs(old).max(initial=0.0), abs(initial.i_fault_pu))
        assert np.abs(moved.line_currents - old).max(initial=0.0) <= RELABEL_RTOL * largest
        assert abs(moved.i_fault_pu - initial.i_fault_pu) <= RELABEL_RTOL * largest


# A line's current toward a fault changes by an exact -(1 - s) d when a DER
# joining below it raises its in-feed by d; the computed change may rise
# past 0 only by rounding, within this share of the largest current of the
# two solves. Each current is a sum of at most a few dozen terms, so the
# rounding stays near 1e-14 of that current.
INFEED_RTOL = 1e-12


def in_feed_cases(data):
    """(network, fault) of a drawn network with DER and a fault on it."""
    net = data.draw(st.tuples(st.integers(0, 2 ** 32), st.integers(3, 40)).map(
        lambda seed_size: random_radial_network(random.Random(seed_size[0]),
                                                seed_size[1]))
        | general_networks())
    return net, (data.draw(general_faults(net)) if net.ders else None)


def raised_in_feed(net, fault, k):
    """The fault's solve on net and on net with DER k's in-feed raised."""
    raised = replace(net, ders=tuple(
        replace(d, i_max_pu=d.i_max_pu * 1.5 + 0.1) if i == k else d
        for i, d in enumerate(net.ders)))
    return [solve_fault_currents(n, fault, allow_dead_fault=True) for n in (net, raised)]


class TestProtectionInFeedMonotone:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_more_der_in_feed_raises_the_fault_current_and_lowers_the_grid_share(self, data):
        # The mechanism behind protection blinding: a DER feeding a
        # source-fed fault adds its arrival share to the fault current and
        # takes the rest from the grid's share. Each share lies in [0, 1]
        # and every sum is monotone in its terms, so the relation is exact.
        net, fault = in_feed_cases(data)
        if fault is None:
            return
        before, after = raised_in_feed(net, fault, data.draw(st.integers(0, len(net.ders) - 1)))
        if not before.source_feeds_fault:
            return
        assert after.i_fault_pu >= before.i_fault_pu
        assert after.i_grid_pu <= before.i_grid_pu

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_more_der_in_feed_never_raises_the_current_toward_the_fault(self, data):
        # Blinding line by line: on each line from the source down to the
        # junction j where DER k's path meets the fault's, the current
        # toward the fault is the fault current less every injection below
        # the line, k's among them. Raising k's in-feed by d adds its
        # arrival share s d to the first and d to the second. Every DER k
        # is raised in turn.
        net, fault = in_feed_cases(data)
        if fault is None:
            return
        tree = net.compiled
        top, _low, _z = _fault_point(net, fault.element_kind, fault.element_id,
                                     fault.position)
        joints = tree.meet(tree.root_path(top), [tree.bus_index[d.bus] for d in net.ders])
        for k, joint in enumerate(joints.tolist()):
            before, after = raised_in_feed(net, fault, k)
            if not before.source_feeds_fault:
                return
            path = tree.root_path(joint)[:-1]
            lines, toward = tree.up_line[path], np.array(tree.sign)[path]
            rise = toward * after.line_currents[lines] - toward * before.line_currents[lines]
            largest = max(np.abs(before.line_currents).max(initial=0.0),
                          np.abs(after.line_currents).max(initial=0.0), after.i_fault_pu)
            assert (rise <= INFEED_RTOL * largest).all()


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


class TestBlackstartRadiusMonotone:
    @given(name=st.sampled_from(["benchmark", "two_tile", "awkward"]),
           radii=st.lists(st.floats(0.5, 15.0), min_size=3, max_size=3),
           p_battery=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_a_larger_cell_radius_never_restores_less(self, name, radii, p_battery, seed):
        # The paper's case for communication reach: a larger cell covers
        # every bus and links every node that the smaller one does. Common
        # random numbers give run k the same batteries at every radius.
        # Every island here covers its critical load, as in the battery
        # relation above.
        runs = [monte_carlo(_shared_scenario(name), p_battery, radius, 4, seed)
                .restored_fractions for radius in sorted(radii)]
        for low, high in zip(runs, runs[1:]):
            assert all(_at_most(lo, hi) for lo, hi in zip(low, high))
