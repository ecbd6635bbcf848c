"""Restoration tests: formation, followers, sync gate, agents, Monte Carlo."""

import hashlib
import io
import json
import math
import random
from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres import blackstart
from gridres import schemas
from gridres.blackstart import (STAGE_RANK, AreaSwitch, BusPoint, CommNode,
                                DerAsset, DerCapability, LoadAsset, Microgrid,
                                RestorationScenario, RestorationState,
                                ServiceClass, SyncPolicy, SyncRejectedError,
                                TimelineEvent, agent_round, classify_service,
                                comm_reachable, form_microgrids, monte_carlo,
                                reconnect_followers, run_restoration,
                                synchronize_and_merge)
from gridres.cli import EXIT_OK, main
from gridres.errors import InvalidInputError

# sha256 of each file `gridres blackstart --scenario bs.json FLAGS` writes,
# bs.json being the bundled scenario as README exports it: KEY -> (FLAGS,
# {file: digest}). Recorded while the timeline and merge records were
# frozen dataclasses. The console-script step of the CI workflow checks
# the same digests with sha256sum -c (blackstart_pin reads them from here).
BLACKSTART_PINS = {
    "single_run": (["--seed", "7"],
                   {"timeline.csv":
                    "adb1201e48a7ec9a3cce05c9be7c286c7686110bb68270bcf91c46ced2c9b9c3"}),
    "monte_carlo": (["--seed", "7", "--p", "0.5", "--radius-km", "3", "--runs", "20"],
                    {"monte_carlo.csv":
                     "c297e28773585646a0d1a80e3de6cef3f3b00d927061ce9415cc28989b922be1",
                     "summary.json":
                     "3141ac6f6bde5b83e0a07ae1fa50d65be6d4bc24cec8be4c25c90a9fd87f115b"}),
}


class TestClassifyService:
    def test_everything_served_is_acceptable(self):
        assert classify_service(10, 10, 100, 100) is ServiceClass.ACCEPTABLE

    def test_critical_only_is_impaired(self):
        assert classify_service(10, 10, 60, 100) is ServiceClass.IMPAIRED

    def test_partial_critical_is_unacceptable(self):
        assert classify_service(5, 10, 5, 100) is ServiceClass.UNACCEPTABLE

    def test_served_above_total_rejected(self):
        with pytest.raises(InvalidInputError):
            classify_service(11, 10, 50, 100)

    def test_an_ulp_short_of_a_large_total_is_served(self):
        # The thresholds take the bounds' relative slack; an absolute 1e-9
        # is below one ulp of 2.6e9 MW.
        total, critical = 2.6e9, 3.3e8
        short = math.nextafter(total, 0), math.nextafter(critical, 0)
        assert classify_service(critical, critical, short[0], total) is ServiceClass.ACCEPTABLE
        assert classify_service(short[1], critical, total / 2, total) is ServiceClass.IMPAIRED


def rescaled_benchmark(rng, capacity_range, k=1.0):
    """The benchmark with each load scaled by k * uniform(0.1, 3), then each
    DER capacity by k * uniform(*capacity_range), drawn in document order."""
    base = bm.benchmark_restoration_scenario()
    return replace(
        base,
        loads=tuple(replace(l, demand_mw=l.demand_mw * (k * rng.uniform(0.1, 3)))
                    for l in base.loads),
        ders=tuple(replace(d, capacity_mw=d.capacity_mw * (k * rng.uniform(*capacity_range)))
                   for d in base.ders))


def scenario_two_areas(comm_radius=2.5, a1_battery=True, gap_km=3.0):
    """Area A0 with a former and followers, dead area A1 behind a switch."""
    buses = (
        BusPoint("B0", 0.0, 0.0, "A0"), BusPoint("B1", 1.0, 0.0, "A0"),
        BusPoint("B2", gap_km, 0.0, "A1"), BusPoint("B3", gap_km + 1.0, 0.0, "A1"),
    )
    loads = (LoadAsset("B1", 2.0, critical=True), LoadAsset("B1", 4.0),
             LoadAsset("B2", 2.0, critical=True), LoadAsset("B3", 2.0))
    ders = (DerAsset("G1", "B0", DerCapability.GRID_FORMING, 5.0),
            DerAsset("G2", "B1", DerCapability.GRID_SUPPORTING, 3.0),
            DerAsset("G3", "B2", DerCapability.GRID_FEEDING, 2.0))
    comm = (CommNode("B0", False, 0.0, 0.5, comm_radius),
            CommNode("B1", False, 0.0, 0.5, comm_radius),
            CommNode("B2", a1_battery, 5.0, 0.5, comm_radius),
            CommNode("B3", False, 0.0, 0.5, comm_radius))
    return RestorationScenario(
        buses=buses, loads=loads, ders=ders,
        switches=(AreaSwitch("S01", "A0", "A1"),), comm=comm)


def comm_components(scenario, powered, charge=None):
    """comm_reachable's components as bus id -> component number."""
    comm = scenario.compiled.comm
    return {comm[i].bus: k
            for k, nodes in enumerate(comm_reachable(scenario, powered, charge))
            for i in range(len(comm)) if nodes >> i & 1}


def area_bits(compiled, names):
    """A set of area names as the engine holds it, one bit per area."""
    return sum(1 << i for i, a in enumerate(compiled.areas) if a in names)


def connected(component_of, bus_a, bus_b):
    return bus_a in component_of and component_of[bus_a] == component_of.get(bus_b)


class TestCommReachable:
    def base(self, positions, radii, powered, batteries=()):
        buses = tuple(BusPoint(f"B{i}", x, 0.0, "A0")
                      for i, x in enumerate(positions))
        comm = tuple(CommNode(f"B{i}", f"B{i}" in batteries, 5.0, 0.5, r)
                     for i, r in enumerate(radii))
        scenario = RestorationScenario(
            buses=buses, loads=(), ders=(), switches=(), comm=comm)
        return comm_components(scenario, powered)

    def test_edge_within_both_radii(self):
        graph = self.base([0.0, 1.5], [2.0, 2.0], {"B0", "B1"})
        assert connected(graph, "B0", "B1")

    def test_unpowered_without_battery_is_offline(self):
        graph = self.base([0.0, 1.5], [2.0, 2.0], {"B0"})
        assert "B1" not in graph

    def test_battery_keeps_node_up(self):
        graph = self.base([0.0, 1.5], [2.0, 2.0], {"B0"}, batteries={"B1"})
        assert connected(graph, "B0", "B1")

    def test_chain_connectivity_depends_on_radius(self):
        positions = [0.0, 1.9, 3.8, 5.7]
        powered = {f"B{i}" for i in range(4)}
        linked = self.base(positions, [2.0] * 4, powered)
        assert connected(linked, "B0", "B3")
        broken = self.base(positions, [1.8] * 4, powered)
        assert not connected(broken, "B0", "B3")

    def test_edge_uses_smaller_radius(self):
        graph = self.base([0.0, 1.5], [5.0, 1.0], {"B0", "B1"})
        assert not connected(graph, "B0", "B1")

    # The distance from the origin is exactly 5.0 (a 3-4-5 triangle), or
    # math.dist = 1.3892443989449805 where np.hypot and the square root of
    # the summed squares both give ...808.
    AT_RADIUS = [((3.0, 4.0), 5.0, True),
                 ((3.0, 4.0), math.nextafter(5.0, 0.0), False),
                 ((7 * 0.1, 12 * 0.1), 1.3892443989449805, True)]

    @pytest.mark.parametrize("point,smaller,linked", AT_RADIUS)
    def test_edge_at_exactly_the_smaller_radius(self, point, smaller, linked):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0.0, 0.0, "A0"), BusPoint("B1", *point, "A0")),
            loads=(), ders=(), switches=(),
            comm=(CommNode("B0", False, 0.0, 0.5, 7.0),
                  CommNode("B1", False, 0.0, 0.5, smaller)))
        assert connected(comm_components(scenario, {"B0", "B1"}), "B0", "B1") is linked

    @pytest.mark.parametrize("battery_kwh,charge,up", [
        (5.0, 0.0, False), (5.0, 1e-300, True), (0.0, None, False)])
    def test_battery_at_exactly_zero_kwh_is_offline(self, battery_kwh, charge, up):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0.0, 0.0, "A0"), BusPoint("B1", 1.0, 0.0, "A0")),
            loads=(), ders=(), switches=(),
            comm=(CommNode("B0", False, 0.0, 0.5, 2.0),
                  CommNode("B1", True, battery_kwh, 0.5, 2.0)))
        charges = None if charge is None else {"B1": charge}
        assert connected(comm_components(scenario, {"B0"}, charges), "B0", "B1") is up


# The comm graph and dead-area gate as they were before the scenario was
# compiled: an O(N^2) pair loop with math.dist, and a math.dist coverage
# scan. Kept as the reference the compiled code must match exactly.

def _oracle_comm_reachable(scenario, powered_buses, battery_charge_kwh=None):
    powered = set(powered_buses)
    charge = battery_charge_kwh or {}
    nodes = {}
    for c in scenario.comm:
        remaining = charge.get(c.bus, c.battery_kwh if c.has_battery else 0.0)
        if c.bus in powered or (c.has_battery and remaining > 0):
            nodes[c.bus] = c
    pos = {b.id: (b.x_km, b.y_km) for b in scenario.buses}
    ids = sorted(nodes)
    neighbors = {i: set() for i in ids}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            d = math.dist(pos[a], pos[b])
            if d <= min(nodes[a].cell_radius_km, nodes[b].cell_radius_km):
                neighbors[a].add(b)
                neighbors[b].add(a)
    component_of = {}
    comp = 0
    for start in ids:
        if start in component_of:
            continue
        stack = [start]
        component_of[start] = comp
        while stack:
            n = stack.pop()
            for m in neighbors[n]:
                if m not in component_of:
                    component_of[m] = comp
                    stack.append(m)
        comp += 1
    return frozenset(ids), component_of


def _oracle_dead_area_reachable(scenario, operational, component_of,
                                grid_buses, area):
    grid_comps = {component_of[b] for b in grid_buses if b in operational}
    if not grid_comps:
        return False
    area_buses = [b for b in scenario.buses if b.area == area]
    for b in area_buses:
        if b.id in operational and component_of[b.id] in grid_comps:
            return True
    reachable_nodes = [c for c in scenario.comm if c.bus in operational
                       and component_of[c.bus] in grid_comps]
    pos = {b.id: (b.x_km, b.y_km) for b in scenario.buses}
    for b in area_buses:
        if not any(math.dist(pos[c.bus], (b.x_km, b.y_km)) <= c.cell_radius_km
                   for c in reachable_nodes):
            return False
    return True


@st.composite
def comm_layouts(draw):
    """Buses on a scaled integer grid (3-4-5 offsets put points exactly at
    a radius) or anywhere; radii fixed, random, or exactly the distance
    to another bus or node; batteries full, partly or fully drained."""
    n = draw(st.integers(1, 9))
    scale = draw(st.sampled_from([1.0, 0.1, 1.7]))
    coord = st.integers(0, 12).map(lambda k: k * scale) | st.floats(0.0, 12.0)
    buses = tuple(BusPoint(f"B{k:02d}", draw(coord), draw(coord),
                           draw(st.sampled_from(["A0", "A1", "A2"])))
                  for k in range(n))
    nodes = draw(st.lists(st.sampled_from(buses), unique=True))

    def radius(bus):
        kind = draw(st.sampled_from(["fixed", "float", "to_bus", "to_node"]))
        targets = [b for b in (buses if kind == "to_bus" else nodes)
                   if (b.x_km, b.y_km) != (bus.x_km, bus.y_km)]
        if kind == "float":
            return draw(st.floats(0.1, 15.0))
        if kind == "fixed" or not targets:
            return scale * draw(st.sampled_from(
                [3.0, 4.0, 5.0, math.nextafter(5.0, 0.0), 2.5]))
        other = draw(st.sampled_from(targets))
        return math.dist((bus.x_km, bus.y_km), (other.x_km, other.y_km))

    comm = tuple(CommNode(b.id, draw(st.booleans()),
                          draw(st.sampled_from([0.0, 0.5, 5.0])), 0.5, radius(b))
                 for b in nodes)
    scenario = RestorationScenario(buses=buses, loads=(), ders=(), switches=(),
                                   comm=comm)
    powered = draw(st.sets(st.sampled_from([b.id for b in buses])))
    charge = {c.bus: draw(st.sampled_from([0.0, 1e-9, 2.0]))
              for c in comm if draw(st.booleans())}
    return scenario, powered, charge or None


class TestCompiledMatchesReplacedLoop:
    @settings(max_examples=200, deadline=None)
    @given(comm_layouts())
    def test_graph_and_dead_area_gate_match_the_oracle(self, layout):
        scenario, powered, charge = layout
        graph = comm_reachable(scenario, powered, charge)
        operational, component_of = _oracle_comm_reachable(scenario, powered, charge)
        components = comm_components(scenario, powered, charge)
        assert frozenset(components) == operational
        assert components == component_of
        state = RestorationState(scenario)
        compiled = scenario.compiled
        for grid_areas in ({"A0"}, {"A1"}, {"A0", "A2"}):
            island = compiled.island(area_bits(compiled, grid_areas))
            reach = blackstart._reach(graph, island.comm)
            grid_buses = {b.id for b in scenario.buses if b.area in grid_areas}
            for i, area in enumerate(compiled.areas):
                if area not in grid_areas:
                    assert state._dead_area_reachable(i, reach) == \
                        _oracle_dead_area_reachable(scenario, operational, component_of,
                                                    grid_buses, area)


# Switch adjacency as it was before areas were numbered: a dict of
# area-name sets, and islands as sets of area names.

def _oracle_adjacent(scenario):
    adjacent = {b.area: set() for b in scenario.buses}
    for s in scenario.switches:
        adjacent[s.area_a].add(s.area_b)
        adjacent[s.area_b].add(s.area_a)
    return adjacent


def _oracle_neighbors(adjacent, areas):
    out = set()
    for a in areas:
        out |= adjacent[a]
    return sorted(out - areas)


def _oracle_switch_adjacent(adjacent, areas_a, areas_b):
    return any(adjacent[a] & areas_b for a in areas_a)


@st.composite
def switch_graphs(draw):
    """1-8 or 65-100 areas (so an area set may be wider than a machine
    word), whose name order ("A10" before "A2") is not their bus order,
    random switches, and two disjoint area sets on them, as two islands
    are."""
    n = draw(st.integers(1, 8) | st.integers(65, 100))
    names = [f"A{k}" for k in draw(st.permutations(range(n)))]
    buses = tuple(BusPoint(f"B{k}", 0.0, 0.0, a) for k, a in enumerate(names))
    ends = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)))
    switches = tuple(AreaSwitch(f"S{k}", names[i], names[(i + d) % n])
                     for k, (i, d) in enumerate(draw(st.lists(ends, max_size=2 * n))
                                                if n > 1 else []))
    scenario = RestorationScenario(buses=buses, loads=(), ders=(), switches=switches,
                                   comm=())
    area_sets = st.sets(st.sampled_from(names), max_size=len(names))
    areas_a = draw(area_sets)
    return scenario, areas_a, draw(area_sets) - areas_a


class TestAreaBitsMatchTheNameSets:
    @settings(max_examples=200, deadline=None)
    @given(switch_graphs())
    def test_neighbors_and_switch_adjacency_match_the_oracle(self, graph):
        scenario, names_a, names_b = graph
        compiled = scenario.compiled
        adjacent = _oracle_adjacent(scenario)
        near = compiled.island(area_bits(compiled, names_a)).neighbors
        assert [compiled.areas[i] for i in blackstart._bits(near)] == \
            _oracle_neighbors(adjacent, names_a)
        assert bool(near & area_bits(compiled, names_b)) == \
            _oracle_switch_adjacent(adjacent, names_a, names_b)


class TestFormMicrogrids:
    def test_no_formers_no_microgrids(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 1.0),),
            ders=(DerAsset("D", "B0", DerCapability.GRID_FEEDING, 2.0),),
            switches=(), comm=())
        assert form_microgrids(scenario) == []

    def test_critical_first_dispatch(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 2.0, critical=True), LoadAsset("B0", 4.0)),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 5.0),),
            switches=(), comm=())
        (mg,) = form_microgrids(scenario)
        assert mg.served_critical_mw == pytest.approx(2.0)
        assert mg.served_total_mw == pytest.approx(5.0)

    def test_two_formers_in_separate_areas(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"), BusPoint("B1", 9, 0, "A1")),
            loads=(),
            ders=(DerAsset("Ga", "B0", DerCapability.GRID_FORMING, 3.0),
                  DerAsset("Gb", "B1", DerCapability.GRID_FORMING, 3.0)),
            switches=(), comm=())
        grids = form_microgrids(scenario)
        assert len(grids) == 2
        assert (grids[0].areas, grids[1].areas) == (0b01, 0b10)


class TestReconnectFollowers:
    def test_capacity_sum_dispatch(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 7.0),),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 5.0),
                  DerAsset("S", "B0", DerCapability.GRID_SUPPORTING, 3.0)),
            switches=(), comm=())
        (mg,) = form_microgrids(scenario)
        grown = reconnect_followers(mg, scenario)
        assert grown.served_total_mw == pytest.approx(7.0)
        assert grown.generation_mw == pytest.approx(8.0)

    def test_no_followers_is_identity(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 1.0),),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 5.0),),
            switches=(), comm=())
        (mg,) = form_microgrids(scenario)
        assert reconnect_followers(mg, scenario) == mg

    def test_auxiliary_power_defers_then_starts(self):
        # Crank margin at formation is 5.0 - 4.5 = 0.5 < 1.0, so the
        # auxiliary-hungry unit waits for the small one to raise it.
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 4.5, critical=True), LoadAsset("B0", 6.0),),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 5.0),
                  DerAsset("H", "B0", DerCapability.GRID_SUPPORTING, 4.0,
                           aux_power_mw=1.0),
                  DerAsset("F", "B0", DerCapability.GRID_FEEDING, 2.0)),
            switches=(), comm=())
        (mg,) = form_microgrids(scenario)
        grown = reconnect_followers(mg, scenario)
        assert set(grown.started_units) == {"G", "H", "F"}

    def test_auxiliary_power_blocks_when_margin_never_grows(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 4.8, critical=True),),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 5.0),
                  DerAsset("H", "B0", DerCapability.GRID_SUPPORTING, 4.0,
                           aux_power_mw=1.0)),
            switches=(), comm=())
        (mg,) = form_microgrids(scenario)
        grown = reconnect_followers(mg, scenario)
        assert set(grown.started_units) == {"G"}

    def test_copies_every_field_it_does_not_change(self):
        # A hand-built island: its frequency and phase are off nominal and
        # it has a second former.
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"), BusPoint("B1", 1, 0, "A1")),
            loads=(LoadAsset("B0", 3.0, critical=True), LoadAsset("B1", 4.0)),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 5.0),
                  DerAsset("S", "B1", DerCapability.GRID_SUPPORTING, 3.0)),
            switches=(), comm=())
        mg = Microgrid(id="isl", areas=0b11,    # A0 and A1
                       forming_units=("G", "Gx"), started_units=("G",), generation_mw=5.0,
                       served_total_mw=5.0, served_critical_mw=3.0,
                       frequency_hz=49.93, phase_rad=1.25)
        grown = reconnect_followers(mg, scenario)
        kept = {"id", "areas", "forming_units", "frequency_hz", "phase_rad"}
        changed = {"started_units", "generation_mw", "served_total_mw",
                   "served_critical_mw"}
        assert set(Microgrid._fields) == kept | changed
        for name in kept:
            assert getattr(grown, name) == getattr(mg, name), name
        assert grown.started_units == ("G", "S")
        assert (grown.generation_mw, grown.served_total_mw,
                grown.served_critical_mw) == (8.0, 7.0, 3.0)

    def test_island_without_a_forming_unit_rejected(self):
        mg = microgrid("A")._replace(forming_units=())
        with pytest.raises(InvalidInputError, match="no forming unit"):
            reconnect_followers(mg, empty_scenario_for([mg]))


def microgrid(gid, gen=5.0, phase=0.0, freq=50.0):
    """The island of area gid, "A" or "B": bit 0 or 1 in a scenario from
    empty_scenario_for, which numbers its areas in name order."""
    return Microgrid(id=gid, areas=1 << "AB".index(gid), forming_units=(gid + "_g",),
                     started_units=(gid + "_g",),
                     generation_mw=gen, served_total_mw=0.0,
                     served_critical_mw=0.0, frequency_hz=freq, phase_rad=phase)


def empty_scenario_for(grids):
    buses = tuple(BusPoint(gid + "b", i * 1.0, 0.0, gid)
                  for i, gid in enumerate(g.id for g in grids))
    return RestorationScenario(buses=buses, loads=(), ders=(), switches=(),
                               comm=())


class TestSynchronizeAndMerge:
    def test_small_phase_shift_merges(self):
        a, b = microgrid("A"), microgrid("B", phase=0.1)
        merged = synchronize_and_merge(a, b, SyncPolicy(),
                                       empty_scenario_for([a, b]))
        assert merged.areas == 0b11
        assert merged.generation_mw == pytest.approx(10.0)

    def test_large_phase_shift_rejected_with_deltas(self):
        a, b = microgrid("A"), microgrid("B", phase=0.25)
        with pytest.raises(SyncRejectedError) as err:
            synchronize_and_merge(a, b, SyncPolicy(), empty_scenario_for([a, b]))
        assert err.value.phase_delta_rad == pytest.approx(0.25)

    def test_frequency_mismatch_rejected(self):
        a, b = microgrid("A"), microgrid("B", freq=50.2)
        with pytest.raises(SyncRejectedError) as err:
            synchronize_and_merge(a, b, SyncPolicy(), empty_scenario_for([a, b]))
        assert err.value.freq_delta_hz == pytest.approx(0.2)

    def test_phase_wraps_around_the_circle(self):
        a = microgrid("A", phase=0.05)
        b = microgrid("B", phase=2 * math.pi - 0.05)
        merged = synchronize_and_merge(a, b, SyncPolicy(),
                                       empty_scenario_for([a, b]))
        assert merged.areas == 0b11

    def test_self_merge_rejected(self):
        a = microgrid("A")
        with pytest.raises(InvalidInputError):
            synchronize_and_merge(a, a, SyncPolicy(), empty_scenario_for([a]))


def _oracle_sync_deltas(a, b):
    """The merge deltas as they were computed before the gate returned them."""
    d = abs(a.phase_rad - b.phase_rad) % (2 * math.pi)
    return abs(a.frequency_hz - b.frequency_hz), 2 * math.pi - d if d > math.pi else d


def _on_or_near(draw, value, elements):
    """A drawn bound: from elements, or value itself or one ulp either side."""
    return draw(elements | st.sampled_from([value, math.nextafter(value, math.inf),
                                            math.nextafter(value, -math.inf)]))


phases = st.floats(-8.0, 8.0) | st.sampled_from([0.0, math.pi, -math.pi, 2 * math.pi])


@st.composite
def merge_pairs(draw):
    """Two one-area islands "A" and "B" and a sync policy whose bounds can
    sit exactly on, or one ulp off, the pair's deltas."""
    a = microgrid("A", gen=draw(st.sampled_from([3.0, 5.0])), phase=draw(phases),
                  freq=draw(st.floats(49.0, 51.0)))
    b = microgrid("B", phase=draw(phases), freq=draw(st.floats(49.0, 51.0)))
    freq_delta, phase_delta = _oracle_sync_deltas(a, b)
    policy = SyncPolicy(
        max_phase_shift_rad=max(_on_or_near(draw, phase_delta, st.sampled_from(
            [1e-320, 0.2, 4.0]) | st.floats(1e-6, 4.0)), 5e-324),
        max_freq_diff_hz=max(_on_or_near(draw, freq_delta, st.sampled_from(
            [0.0, 0.01]) | st.floats(0.0, 2.0)), 0.0))
    return a, b, policy


class TestSyncGate:
    @settings(max_examples=200, deadline=None)
    @given(merge_pairs())
    def test_gate_matches_the_replaced_condition(self, pair):
        a, b, policy = pair
        freq_delta, phase_delta = _oracle_sync_deltas(a, b)
        rejected = freq_delta > policy.max_freq_diff_hz or \
            not phase_delta < policy.max_phase_shift_rad
        scenario = empty_scenario_for([a, b])
        try:
            merged = synchronize_and_merge(a, b, policy, scenario)
        except SyncRejectedError as err:
            assert rejected
            assert (err.freq_delta_hz.hex(), err.phase_delta_rad.hex()) == \
                (freq_delta.hex(), phase_delta.hex())
        else:
            assert not rejected and merged.areas == 0b11

    @settings(max_examples=200, deadline=None)
    @given(merge_pairs(), st.integers(0, 60) | st.integers(1070, 1100),
           st.integers(0, 2**32), st.booleans())
    def test_attempt_merge_agrees_with_synchronize_and_merge(self, pair, attempt, seed,
                                                            on_threshold):
        a, b, policy = pair
        # The attempt's draw, as the state's generator makes it.
        draw = random.Random(f"gridres-blackstart:{seed}").uniform(
            0.0, math.ldexp(math.pi, -attempt))
        aligned = b._replace(frequency_hz=a.frequency_hz, phase_rad=a.phase_rad + draw)
        freq_delta, phase_delta = _oracle_sync_deltas(a, aligned)
        if on_threshold:    # a shift on the bound is rejected; 0.0 passes 1e-320
            policy = replace(policy, max_phase_shift_rad=phase_delta or 1e-320)
        scenario = replace(empty_scenario_for([a, b]), sync_policy=policy)
        state = RestorationState(scenario, seed=seed)
        state.grids = {"A": a, "B": b}
        state.pair_attempts[("A", "B")] = attempt
        accepted = state._attempt_merge("A", "B")
        (record,) = state.merge_attempts
        assert (record.t_s, record.grid_a, record.grid_b) == (0.0, "A", "B")
        assert record.accepted is accepted
        try:
            merged = synchronize_and_merge(a, aligned, policy, scenario)
        except SyncRejectedError as err:
            assert not accepted and set(state.grids) == {"A", "B"}
            freq_delta, phase_delta = err.freq_delta_hz, err.phase_delta_rad
        else:
            assert accepted
            assert {gid: _exact_grid(g) for gid, g in state.grids.items()} == \
                {merged.id: _exact_grid(reconnect_followers(merged, scenario))}
        assert (record.freq_delta_hz.hex(), record.phase_delta_rad.hex()) == \
            (freq_delta.hex(), phase_delta.hex())


def _oracle_bit_rows(matrix):
    return [sum(1 << j for j in range(matrix.shape[1]) if matrix[i, j])
            for i in range(matrix.shape[0])]


class TestCommCells:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 27), st.integers(0, 2**32))
    def test_bit_rows_match_the_row_by_row_oracle(self, rows, cols, seed):
        matrix = np.random.default_rng(seed).random((rows, cols)) < 0.5
        assert blackstart._bit_rows(matrix) == _oracle_bit_rows(matrix)
        packed = np.packbits(matrix, axis=1, bitorder="little")
        assert blackstart._bit_rows(matrix) == \
            [int.from_bytes(row.tobytes(), "little") for row in packed]

    def test_a_scenario_without_comm_nodes_has_empty_cells(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"), BusPoint("B1", 1, 0, "A1")),
            loads=(), ders=(), switches=(), comm=())
        cells = blackstart._own_cells(scenario.compiled)
        assert (cells.cover, cells.link, cells.covered(0)) == ([], [], 0)
        assert blackstart._bit_rows(np.zeros((3, 0), dtype=bool)) == [0, 0, 0]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["benchmark", "two_tile", "awkward"]),
           st.floats(0.5, 12.0), st.data())
    def test_covered_is_the_union_of_the_cells_on_every_call(self, name, radius, data):
        compiled = _shared_scenario(name).compiled
        cells = blackstart._CommCells(compiled, np.full(len(compiled.comm), radius))
        for nodes in data.draw(st.lists(st.integers(0, 2**len(compiled.comm) - 1),
                                        min_size=1, max_size=4)):
            expected = 0
            for i in range(len(compiled.comm)):
                if nodes >> i & 1:
                    expected |= cells.cover[i]
            assert cells.covered(nodes) == expected    # first call
            assert cells.covered(nodes) == expected    # memoised


def served_totals(state):
    """The served total and critical load of a state's islands, summed in
    dict order (RestorationState.served_totals before records were lazy)."""
    total = sum(g.served_total_mw for g in state.grids.values())
    crit = sum(g.served_critical_mw for g in state.grids.values())
    return total, crit


def eager_events(scenario, seed=0, cells=None, battery=None):
    """run_restoration's events under the record it replaced, which
    summed the islands and classified service at every stage change."""
    events = []

    class EagerState(RestorationState):
        def record(self, stage):
            served, crit = served_totals(self)
            events.append(TimelineEvent(
                t_s=self.t_s, stage=stage, served_total_mw=served,
                served_critical_mw=crit,
                service_class=classify_service(
                    crit, self.compiled.total_critical_mw,
                    served, self.compiled.total_load_mw)))

    with mock.patch.object(blackstart, "RestorationState", EagerState):
        run_restoration(scenario, seed, cells, battery)
    return events


def eager_fraction(scenario, events):
    """restored_fraction as read from the last eager event."""
    total = scenario.compiled.total_load_mw
    return 1.0 if total <= 0 else min(events[-1].served_total_mw / total, 1.0)


class TestAgentRound:
    def transfer_scenario(self, with_comm=True):
        """A0 has surplus, A1 has a small former and unserved critical load."""
        far = 100.0
        buses = (BusPoint("B0", 0.0, 0.0, "A0"),
                 BusPoint("B1", 2.0 if with_comm else far, 0.0, "A1"))
        loads = (LoadAsset("B0", 4.0), LoadAsset("B1", 3.0, critical=True))
        ders = (DerAsset("Ga", "B0", DerCapability.GRID_FORMING, 6.0),
                DerAsset("Gb", "B1", DerCapability.GRID_FORMING, 1.0))
        comm = (CommNode("B0", False, 0.0, 0.5, 2.5),
                CommNode("B1", False, 0.0, 0.5, 2.5))
        return RestorationScenario(
            buses=buses, loads=loads, ders=ders,
            switches=(AreaSwitch("S", "A0", "A1"),), comm=comm)

    def run_rounds(self, scenario, rounds=8):
        state = RestorationState(scenario, seed=5)
        for mg in form_microgrids(scenario):
            state.grids[mg.id] = reconnect_followers(mg, scenario)
        for _ in range(rounds):
            if not agent_round(state, state.comm_graph()):
                break
        return state

    def test_single_area_fixpoint_in_one_round(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 1.0),),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 2.0),),
            switches=(), comm=(CommNode("B0", False, 0.0, 0.5, 2.0),))
        state = RestorationState(scenario, seed=1)
        for mg in form_microgrids(scenario):
            state.grids[mg.id] = mg
        assert agent_round(state, state.comm_graph()) is False

    def test_surplus_covers_neighbor_critical_load(self):
        state = self.run_rounds(self.transfer_scenario(with_comm=True))
        assert len(state.grids) == 1
        total, crit = served_totals(state)
        assert crit == pytest.approx(3.0)
        assert total == pytest.approx(7.0)

    def test_no_comm_edge_no_transfer(self):
        state = self.run_rounds(self.transfer_scenario(with_comm=False))
        assert len(state.grids) == 2
        _total, crit = served_totals(state)
        assert crit == pytest.approx(1.0)  # A1 serves only its own 1 MW


class TestRunRestoration:
    def test_no_formers_timeline_is_collapse_only(self):
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0, 0, "A0"),),
            loads=(LoadAsset("B0", 1.0),),
            ders=(DerAsset("D", "B0", DerCapability.GRID_FEEDING, 2.0),),
            switches=(), comm=())
        timeline = run_restoration(scenario, seed=0)
        assert [ev.stage for ev in timeline.events] == ["S2"]
        assert timeline.final_served_total_mw == 0.0

    def test_sufficient_capacity_reaches_acceptable(self):
        scenario = scenario_two_areas()
        timeline = run_restoration(scenario, seed=0)
        final = timeline.events[-1]
        assert final.service_class is ServiceClass.ACCEPTABLE
        assert final.served_total_mw == pytest.approx(10.0)
        assert timeline.events[-1].stage == "S5'"

    def test_served_load_is_monotone(self):
        timeline = run_restoration(bm.benchmark_restoration_scenario(), seed=9)
        served = [ev.served_total_mw for ev in timeline.events]
        assert all(b >= a - 1e-9 for a, b in zip(served, served[1:]))

    def test_stage_ranks_never_regress(self):
        timeline = run_restoration(bm.benchmark_restoration_scenario(), seed=9)
        ranks = [STAGE_RANK[ev.stage] for ev in timeline.events]
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    def test_power_balance_in_every_event(self):
        timeline = run_restoration(bm.benchmark_restoration_scenario(), seed=9)
        total_gen = 60.5
        for ev in timeline.events:
            assert ev.served_total_mw <= total_gen + 1e-9
            assert ev.served_critical_mw <= ev.served_total_mw + 1e-12

    def test_determinism_byte_identical(self):
        scenario = bm.benchmark_restoration_scenario()
        outputs = []
        for _ in range(2):
            timeline = run_restoration(scenario, seed=42)
            buf = io.StringIO()
            schemas.write_timeline_csv(buf, timeline)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]

    def test_battery_gates_dead_area_pickup(self):
        with_batt = run_restoration(scenario_two_areas(a1_battery=True), seed=1)
        without = run_restoration(scenario_two_areas(a1_battery=False), seed=1)
        assert with_batt.restored_fraction == pytest.approx(1.0)
        # A0 alone serves its local 6 MW of the 10 MW total.
        assert without.restored_fraction == pytest.approx(0.6)

    @pytest.mark.parametrize("battery_kwh,fraction", [
        (2.0, 0.6), (math.nextafter(2.0, 3.0), 1.0)])
    def test_battery_drained_to_exactly_zero_is_offline(self, battery_kwh, fraction):
        # 60 kW drains exactly 1.0 + 0.5 + 0.5 kWh by the first agent round.
        scenario = scenario_two_areas(a1_battery=True)
        drained = replace(scenario, comm=tuple(
            replace(c, battery_kwh=battery_kwh, drain_kw=60.0) for c in scenario.comm))
        assert run_restoration(drained, seed=1).restored_fraction == \
            pytest.approx(fraction)

    @pytest.mark.parametrize("point,radius,covered", TestCommReachable.AT_RADIUS)
    def test_dead_area_bus_at_exactly_the_radius_is_covered(self, point, radius,
                                                            covered):
        # The island's node at the origin reaches the dead bus, which has
        # no node of its own, only if the bus lies within its cell.
        scenario = RestorationScenario(
            buses=(BusPoint("B0", 0.0, 0.0, "A0"), BusPoint("B1", *point, "A1")),
            loads=(LoadAsset("B0", 1.0), LoadAsset("B1", 1.0)),
            ders=(DerAsset("G", "B0", DerCapability.GRID_FORMING, 5.0),),
            switches=(AreaSwitch("S", "A0", "A1"),),
            comm=(CommNode("B0", False, 0.0, 0.5, radius),))
        assert run_restoration(scenario).restored_fraction == (1.0 if covered else 0.5)

    def test_battery_drain_kills_late_coordination(self):
        # A battery that only lasts a few seconds dies before the agent
        # round that would energize its area.
        scenario = scenario_two_areas(a1_battery=True)
        drained = RestorationScenario(
            buses=scenario.buses, loads=scenario.loads, ders=scenario.ders,
            switches=scenario.switches,
            comm=tuple(
                CommNode(c.bus, c.has_battery, 0.001, 36.0, c.cell_radius_km)
                for c in scenario.comm),
            sync_policy=scenario.sync_policy)
        timeline = run_restoration(drained, seed=1)
        assert timeline.restored_fraction == pytest.approx(0.6)

    def test_agent_rounds_reach_fixpoint_within_square_bound(self):
        # One agent per area, load and generation unit.
        scenario = bm.benchmark_restoration_scenario()
        n_agents = (len(scenario.areas) + len(scenario.loads)
                    + len(scenario.ders))
        state = RestorationState(scenario, seed=13)
        for mg in form_microgrids(scenario):
            state.grids[mg.id] = reconnect_followers(mg, scenario)
        rounds = 0
        while agent_round(state, state.comm_graph()):
            rounds += 1
            assert rounds <= n_agents ** 2
        assert len(state.grids) >= 1

    def test_merge_gate_never_passes_wide_phase(self):
        attempts = []
        for seed in range(40):
            timeline = run_restoration(bm.benchmark_restoration_scenario(),
                                       seed=seed)
            attempts.extend(timeline.merge_attempts)
        accepted = [a for a in attempts if a.accepted]
        assert accepted, "expected at least one successful merge"
        assert all(a.phase_delta_rad < 0.2 for a in accepted)
        assert all(a.freq_delta_hz <= 0.01 for a in accepted)

    def test_a_full_restoration_of_a_large_grid_is_acceptable(self):
        # Served total is 0.9999999999999998 of a 2.6e9 MW load here.
        rng = random.Random(6)
        k = 10 ** rng.uniform(5, 8)
        final = run_restoration(rescaled_benchmark(rng, (5, 20), k), seed=6).events[-1]
        assert final.service_class is ServiceClass.ACCEPTABLE


class TestMonteCarlo:
    def test_a_full_restoration_reads_exactly_one(self):
        # The islands' served sums and the total load sum the same loads in
        # other orders; uncapped, these fractions read 1.0000000000000002.
        scenario = rescaled_benchmark(random.Random(2), (0.5, 20))
        assert run_restoration(scenario, seed=2).restored_fraction == 1.0
        assert monte_carlo(scenario, 1.0, 30.0, runs=2, seed=2).restored_fractions == \
            (1.0, 1.0)

    def test_full_comm_reaches_capacity_limited_maximum(self):
        scenario = bm.benchmark_restoration_scenario()
        result = monte_carlo(scenario, p_battery=1.0, cell_radius_km=30.0,
                             runs=5, seed=3)
        expected = 60.5 / 65.0
        assert all(f == pytest.approx(expected) for f in result.restored_fractions)

    def test_no_batteries_small_cells_floor(self):
        scenario = bm.benchmark_restoration_scenario()
        result = monte_carlo(scenario, p_battery=0.0, cell_radius_km=2.0,
                             runs=5, seed=3)
        floor = 19.5 / 65.0  # the three seed areas serve themselves
        assert all(f == pytest.approx(floor) for f in result.restored_fractions)

    def test_means_monotone_in_p_and_radius(self):
        scenario = bm.benchmark_restoration_scenario()
        means = {}
        for p in (0.1, 0.5, 0.9):
            for r in (2.0, 6.0):
                means[(p, r)] = monte_carlo(scenario, p, r, runs=30,
                                            seed=21).mean
        assert means[(0.1, 2.0)] <= means[(0.5, 2.0)] <= means[(0.9, 2.0)]
        assert means[(0.1, 2.0)] <= means[(0.1, 6.0)]
        assert means[(0.9, 2.0)] <= means[(0.9, 6.0)]

    def test_reproducible_per_seed(self):
        scenario = bm.benchmark_restoration_scenario()
        a = monte_carlo(scenario, 0.5, 2.0, runs=10, seed=77)
        b = monte_carlo(scenario, 0.5, 2.0, runs=10, seed=77)
        assert a.restored_fractions == b.restored_fractions

    def test_invalid_probability_rejected(self):
        with pytest.raises(InvalidInputError):
            monte_carlo(bm.benchmark_restoration_scenario(), 1.5, 2.0, runs=1)

    def test_invalid_runs_rejected(self):
        with pytest.raises(InvalidInputError):
            monte_carlo(bm.benchmark_restoration_scenario(), 0.5, 2.0, runs=0)

    @pytest.mark.parametrize("p_battery,radius,runs", [
        (0.5, 2.0, 2.5), (0.5, 2.0, True), (0.5, 2.0, "3"),
        (True, 2.0, 3), (False, 2.0, 3), (0.5, True, 3), ("0.5", 2.0, 3),
        (math.nan, 2.0, 3), (0.5, math.inf, 3)],
        ids=["runs_float", "runs_bool", "runs_str", "p_true", "p_false",
             "radius_bool", "p_str", "p_nan", "radius_inf"])
    def test_argument_types_rejected(self, p_battery, radius, runs):
        with pytest.raises(InvalidInputError):
            monte_carlo(bm.benchmark_restoration_scenario(), p_battery, radius,
                        runs=runs)


def two_tile_scenario(cols=2, rows=1):
    """cols x rows copies of the benchmark (two side by side by default),
    with mixed radii and batteries that are full, short-lived or missing.
    Facing boundary areas of neighbouring tiles are joined by switches:
    two across a vertical seam, five across a horizontal one."""
    base = bm.benchmark_restoration_scenario()

    def tag(x, y):
        return f"t{y * cols + x}" if (x, y) != (0, 0) else ""

    buses, loads, ders, switches, comm = [], [], [], [], []
    for y in range(rows):
        for x in range(cols):
            t, dx, dy = tag(x, y), x * 5 * bm.AREA_SPACING_KM, y * 2 * bm.AREA_SPACING_KM
            buses += [BusPoint(t + b.id, b.x_km + dx, b.y_km + dy, t + b.area)
                      for b in base.buses]
            loads += [replace(l, bus=t + l.bus) for l in base.loads]
            ders += [replace(d, id=t + d.id, bus=t + d.bus) for d in base.ders]
            switches += [AreaSwitch(t + s.id, t + s.area_a, t + s.area_b)
                         for s in base.switches]
            for k, c in enumerate(base.comm):
                comm.append(CommNode(
                    t + c.bus, has_battery=k % 3 != 1,
                    battery_kwh=(5.0, 0.02, 0.0125)[k % 3 if t else (k // 3) % 3],
                    drain_kw=0.5, cell_radius_km=(2.0, 3.0, 4.5, 1.4)[k % 4]))
    for y in range(rows):
        for x in range(cols):
            t = tag(x, y)
            if x + 1 < cols:
                switches += [AreaSwitch(f"x{t}{r}", f"{t}A4{r}", f"{tag(x + 1, y)}A0{r}")
                             for r in range(2)]
            if y + 1 < rows:
                switches += [AreaSwitch(f"y{t}{c}", f"{t}A{c}1", f"{tag(x, y + 1)}A{c}0")
                             for c in range(5)]
    return RestorationScenario(buses=tuple(buses), loads=tuple(loads),
                               ders=tuple(ders), switches=tuple(switches),
                               comm=tuple(comm), sync_policy=base.sync_policy)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _timeline_text(timeline) -> str:
    """timeline.csv followed by the repr of every merge attempt."""
    buf = io.StringIO()
    schemas.write_timeline_csv(buf, timeline)
    return buf.getvalue() + "".join(f"{m!r}\n" for m in timeline.merge_attempts)


class TestCompiledScenario:
    def test_compiled_once_per_scenario(self, monkeypatch):
        builds = []

        class Counting(blackstart._CompiledRestoration):
            def __init__(self, scn):
                builds.append(scn)
                super().__init__(scn)

        monkeypatch.setattr(blackstart, "_CompiledRestoration", Counting)
        scenario = bm.benchmark_restoration_scenario()
        run_restoration(scenario, seed=1)
        monte_carlo(scenario, 0.5, 2.0, runs=4, seed=1)
        monte_carlo(scenario, 0.9, 6.0, runs=4, seed=2)
        comm_reachable(scenario, set())
        assert scenario.compiled is scenario.compiled
        assert builds == [scenario]

    # Recorded before the scenario was compiled, on the code that rebuilt
    # the comm graph every round and a scenario copy for every run.
    @pytest.mark.parametrize("seed,expected", [
        (0, "d8ac53c9a606ef79"), (3, "d80abe8f846e52de"), (8, "363b384cb4f6ac48")])
    def test_two_tile_timeline_and_merges_are_pinned(self, seed, expected):
        timeline = run_restoration(two_tile_scenario(), seed=seed)
        assert any(m.accepted for m in timeline.merge_attempts)
        assert _digest(_timeline_text(timeline)) == expected

    # 160 areas, so an island is wider than a machine word. Recorded while
    # islands were sets of area names.
    @pytest.mark.parametrize("seed,expected", [
        (0, "c1371ee90a90bfb4"), (1, "133995fc20dcb839"), (4, "524d5d6e9cf1464e")])
    def test_four_by_four_timeline_and_merges_are_pinned(self, seed, expected):
        timeline = run_restoration(two_tile_scenario(4, 4), seed=seed)
        assert any(m.accepted for m in timeline.merge_attempts)
        assert _digest(_timeline_text(timeline)) == expected

    @pytest.mark.parametrize("scenario,grid,runs,seed,expected", [
        (bm.benchmark_restoration_scenario,
         [(p, r) for p in (0.1, 0.5, 0.9) for r in (2.0, 6.0, 10.0)], 6, 11,
         "9ef1262f512cb79c"),
        (two_tile_scenario, [(0.5, 3.0)], 4, 2, "d2a000d64c5c4d51"),
        (lambda: two_tile_scenario(4, 4), [(0.5, 3.0), (0.9, 6.0)], 3, 2,
         "70ddbc018bd7123e"),
    ], ids=["benchmark", "two_tile", "four_by_four"])
    def test_monte_carlo_fractions_are_pinned(self, scenario, grid, runs, seed,
                                              expected):
        scn = scenario()
        assert _digest("".join(
            f"{p} {r} " + " ".join(f.hex() for f in monte_carlo(
                scn, p, r, runs, seed).restored_fractions) + "\n"
            for p, r in grid)) == expected


class TestBundledBlackstartPins:
    @pytest.mark.parametrize("key", sorted(BLACKSTART_PINS))
    def test_cli_bytes_are_pinned(self, tmp_path, key):
        flags, expected = BLACKSTART_PINS[key]
        scenario = tmp_path / "bs.json"
        scenario.write_text(json.dumps(schemas.dump_restoration_scenario(
            bm.benchmark_restoration_scenario()), indent=2))
        out = tmp_path / "out"
        assert main(["blackstart", "--scenario", str(scenario), *flags,
                     "--out", str(out)]) == EXIT_OK
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == expected


def _oracle_dispatch(scenario, buses, generation_mw):
    """Critical-first dispatch as it was before the load split was memoised."""
    crit = sum(l.demand_mw for l in scenario.loads if l.bus in buses and l.critical)
    rest = sum(l.demand_mw for l in scenario.loads if l.bus in buses and not l.critical)
    served_crit = min(crit, generation_mw)
    served_rest = min(rest, generation_mw - served_crit)
    return served_crit + served_rest, served_crit


def _buses_of(scenario, areas):
    return frozenset(b.id for b in scenario.buses if b.area in areas)


def _oracle_reconnect_followers(mg, buses, scenario):
    """reconnect_followers as it was before its candidates were memoised,
    on an island that also listed its buses."""
    started = set(mg.started_units)
    generation = mg.generation_mw
    served, served_crit = mg.served_total_mw, mg.served_critical_mw
    rank = {DerCapability.GRID_SUPPORTING: 0, DerCapability.GRID_FEEDING: 1}
    candidates = sorted(
        (d for d in scenario.ders
         if d.bus in buses and d.id not in started
         and d.capability is not DerCapability.GRID_FORMING),
        key=lambda d: (rank[d.capability], d.bus, d.id))
    for _ in range(len(candidates) + 1):
        progressed = False
        for d in candidates:
            if d.id in started:
                continue
            if d.aux_power_mw > (generation - served_crit) + blackstart._EQ_TOL:
                continue
            started.add(d.id)
            generation += d.capacity_mw
            served, served_crit = _oracle_dispatch(scenario, buses, generation)
            progressed = True
        if not progressed:
            break
    return mg._replace(started_units=tuple(sorted(started)),
                       generation_mw=generation, served_total_mw=served,
                       served_critical_mw=served_crit)


def awkward_two_tile_scenario():
    """two_tile_scenario with demands, capacities and auxiliary powers
    that are not sums of powers of two, so summing loads or starting
    units in another order changes the bits."""
    scn = two_tile_scenario()
    return replace(
        scn,
        loads=tuple(replace(l, demand_mw=l.demand_mw * (1 + k % 7 / 10) / 3)
                    for k, l in enumerate(scn.loads)),
        ders=tuple(replace(d, capacity_mw=d.capacity_mw * (1 + k % 5 / 10) / 3,
                           aux_power_mw=(0.0, 0.1, 0.9, 2.5)[k % 4])
                   for k, d in enumerate(scn.ders)))


@cache
def _shared_scenario(name):
    """One scenario per name for every example, so its memos warm up."""
    return {"benchmark": bm.benchmark_restoration_scenario,
            "two_tile": two_tile_scenario,
            "awkward": awkward_two_tile_scenario}[name]()


def _exact(values):
    """Numbers by type and float.hex(), so 0 and 0.0 or two floats one
    ulp apart differ."""
    return [(type(v).__name__, float(v).hex()) if isinstance(v, (int, float))
            and not isinstance(v, bool) else v for v in values]


def _exact_grid(mg):
    return _exact(mg)


@st.composite
def islands(draw):
    """An island on one of the shared scenarios: a few areas, some
    followers already started, any generation."""
    scenario = _shared_scenario(draw(st.sampled_from(["benchmark", "two_tile",
                                                       "awkward"])))
    compiled = scenario.compiled
    names = draw(st.sets(st.sampled_from(compiled.areas), max_size=6))
    areas = area_bits(compiled, names)
    buses = _buses_of(scenario, names)
    on_buses = [d for d in scenario.ders if d.bus in buses]
    formers = tuple(d.id for d in on_buses
                    if d.capability is DerCapability.GRID_FORMING) or ("X",)
    followers = [d.id for d in on_buses
                 if d.capability is not DerCapability.GRID_FORMING]
    started = formers + tuple(d for d in followers if draw(st.integers(0, 3)) == 0)
    generation = draw(st.floats(0.0, 12.0) | st.floats(0.0, 400.0)
                      | st.sampled_from([0.0, 1e-9, 17.5]))
    served, served_crit = _oracle_dispatch(scenario, buses, generation)
    mg = Microgrid(id="isl", areas=areas, forming_units=formers, started_units=started,
                   generation_mw=generation, served_total_mw=served,
                   served_critical_mw=served_crit,
                   frequency_hz=draw(st.floats(49.0, 51.0)),
                   phase_rad=draw(st.floats(-4.0, 4.0)))
    return scenario, mg, buses


class TestIslandMemos:
    @settings(max_examples=300, deadline=None)
    @given(islands())
    def test_dispatch_and_followers_match_the_oracles(self, island):
        scenario, mg, buses = island
        for generation in (mg.generation_mw, 0.5 * mg.generation_mw, 1e6):
            grid = blackstart._microgrid(scenario, mg.id, mg.areas, mg.forming_units,
                                         mg.started_units, generation)
            assert _exact((grid.served_total_mw, grid.served_critical_mw)) == \
                _exact(_oracle_dispatch(scenario, buses, generation))
        assert _exact_grid(reconnect_followers(mg, scenario)) == \
            _exact_grid(_oracle_reconnect_followers(mg, buses, scenario))
        assert scenario.compiled.island(mg.areas).comm == \
            sum(1 << i for i, c in enumerate(scenario.compiled.comm) if c.bus in buses)

    @settings(max_examples=200, deadline=None)
    @given(islands(), st.floats(), st.floats())    # nan and inf too
    def test_followers_ignore_the_served_load_they_are_given(self, island, total, crit):
        # The crank margin and the result's served load come from the
        # island's areas and generation alone.
        scenario, mg, _ = island
        stale = mg._replace(served_total_mw=total, served_critical_mw=crit)
        assert _exact_grid(reconnect_followers(stale, scenario)) == \
            _exact_grid(reconnect_followers(mg, scenario))

    @pytest.mark.parametrize("name", ["benchmark", "two_tile", "awkward"])
    def test_every_pair_of_areas_matches_the_oracles(self, name):
        scenario = _shared_scenario(name)
        compiled = scenario.compiled
        formers = tuple(d.id for d in scenario.ders
                        if d.capability is DerCapability.GRID_FORMING)
        for i, a in enumerate(compiled.areas):
            for j, b in enumerate(compiled.areas[i:], i):
                buses = _buses_of(scenario, {a, b})
                for generation in (0.3, 2.0, 7.7, 25.0):
                    served, crit = _oracle_dispatch(scenario, buses, generation)
                    mg = Microgrid("isl", 1 << i | 1 << j, formers, formers,
                                   generation, served, crit)
                    assert _exact_grid(reconnect_followers(mg, scenario)) == \
                        _exact_grid(_oracle_reconnect_followers(mg, buses, scenario))

    @pytest.mark.parametrize("make,seed", [
        (two_tile_scenario, 0), (two_tile_scenario, 3), (two_tile_scenario, 8),
        (awkward_two_tile_scenario, 0), (awkward_two_tile_scenario, 5)])
    def test_warm_memos_write_the_same_bytes(self, make, seed):
        warm = make()
        monte_carlo(warm, 0.5, 3.0, 4, seed=2)
        run_restoration(warm, seed=seed + 1)
        islands = warm.compiled._islands
        assert islands
        warm_text = _timeline_text(run_restoration(warm, seed=seed))
        assert warm_text == _timeline_text(run_restoration(make(), seed=seed))
        seen = dict(islands)
        run_restoration(warm, seed=seed)    # a repeated run adds no entry
        assert islands == seen


@cache
def _rescaled(k):
    return rescaled_benchmark(random.Random(k), (0.5, 20))


@st.composite
def restoration_runs(draw):
    """A scenario, a run seed, one cell radius for every node and a
    battery mask, as a Monte Carlo run passes them to run_restoration."""
    name = draw(st.sampled_from(["benchmark", "two_tile", "awkward", "rescaled"]))
    scenario = (_rescaled(draw(st.integers(0, 3))) if name == "rescaled"
                else _shared_scenario(name))
    compiled = scenario.compiled
    radius = draw(st.sampled_from([1.4, 2.0, 3.0, 6.0, 10.0]) | st.floats(0.5, 30.0))
    cells = blackstart._CommCells(compiled, np.full(len(compiled.comm), radius))
    battery = draw(st.integers(0, (1 << len(compiled.comm)) - 1))
    return scenario, draw(st.integers(0, 2**32)), cells, battery


def _mc_oracle(scenario, p_battery, radius, runs, seed):
    """monte_carlo's fractions, each read from the eager record's last event."""
    compiled = scenario.compiled
    cells = blackstart._CommCells(compiled, np.full(len(compiled.comm), radius))
    out = []
    for k in range(runs):
        draw = random.Random(f"gridres-mc:{seed}:{k}").random
        battery = sum(1 << i for i in range(len(compiled.comm)) if draw() < p_battery)
        out.append(eager_fraction(
            scenario, eager_events(scenario, f"{seed}:{k}", cells, battery)))
    return out


class TestLazyTimeline:
    @settings(max_examples=60, deadline=None)
    @given(restoration_runs())
    def test_events_match_the_eager_record(self, run):
        scenario, seed, cells, battery = run
        expected = eager_events(scenario, seed, cells, battery)
        timeline = run_restoration(scenario, seed, cells, battery)
        before = timeline.restored_fraction.hex()
        events = timeline.events
        assert [_exact(ev) for ev in events] == [_exact(ev) for ev in expected]
        assert timeline.restored_fraction.hex() == before
        assert before == eager_fraction(scenario, expected).hex()
        assert timeline.events is events

    @pytest.mark.parametrize("make", [bm.benchmark_restoration_scenario,
                                      lambda: two_tile_scenario(2, 2)],
                             ids=["benchmark", "two_by_two"])
    def test_monte_carlo_fractions_match_the_eager_record(self, make):
        scenario = make()
        for p, r in ((0.1, 2.0), (0.5, 6.0), (0.9, 10.0)):
            result = monte_carlo(scenario, p, r, runs=4, seed=3)
            assert [f.hex() for f in result.restored_fractions] == \
                [f.hex() for f in _mc_oracle(scenario, p, r, 4, 3)]


class TestScenarioValidation:
    def test_negative_demand_rejected(self):
        with pytest.raises(InvalidInputError):
            RestorationScenario(
                buses=(BusPoint("B0", 0, 0, "A0"),),
                loads=(LoadAsset("B0", -1.0),), ders=(), switches=(), comm=())

    def test_zero_cell_radius_rejected(self):
        with pytest.raises(InvalidInputError):
            RestorationScenario(
                buses=(BusPoint("B0", 0, 0, "A0"),), loads=(), ders=(),
                switches=(), comm=(CommNode("B0", True, 1.0, 0.5, 0.0),))

    def test_switch_between_same_area_rejected(self):
        with pytest.raises(InvalidInputError):
            RestorationScenario(
                buses=(BusPoint("B0", 0, 0, "A0"),), loads=(), ders=(),
                switches=(AreaSwitch("S", "A0", "A0"),), comm=())

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["switches"][0].update(area_b="A99"), r"switches\[sw_00_10\]: unknown area"),
        (lambda d: [ld.update(demand_mw=1e308) for ld in d["loads"][:2]],
         "loads: total demand_mw must be finite"),
        (lambda d: [u.update(capacity_mw=1e308) for u in d["ders"][:2]],
         "ders: total capacity_mw must be finite"),
    ], ids=["unknown_area", "load_total_overflows", "capacity_total_overflows"])
    def test_document_rejected(self, edit, message):
        doc = schemas.dump_restoration_scenario(bm.benchmark_restoration_scenario())
        edit(doc)
        with pytest.raises(InvalidInputError, match=message):
            schemas.load_restoration_scenario(doc)

    def test_no_load_reads_fully_restored(self):
        doc = schemas.dump_restoration_scenario(bm.benchmark_restoration_scenario())
        doc["loads"] = []
        scenario = schemas.load_restoration_scenario(doc)
        assert run_restoration(scenario, seed=0).restored_fraction == 1.0
