"""Protection tests: fault solver vs dense nodal oracle, misoperations."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres.errors import InvalidInputError
from gridres.protection import (AmbiguousLocationError, Breaker, DerSource,
                                ExternalSource, FaultScenario, IsolationError,
                                Line, LoadPoint, NoFaultDetectedError,
                                RadialNetwork, SettingGroupTable, TopologyKey,
                                UnconfiguredError, UnreachableFaultError,
                                _fault_point, _fault_share, _isolating_breakers,
                                apply_setting_group, build_fault_signature_map,
                                centralized_locate_fault, detect_energized,
                                simulate_protection, solve_fault_currents,
                                source_fault_path_lines)

# ---------------------------------------------------------------------------
# Independent oracle: dense nodal conductance solve. Voltage source as a
# Norton equivalent, DER as current injections, bolted faults eliminated
# as zero-voltage nodes. Completely separate code path from the tree
# solver under test.
# ---------------------------------------------------------------------------

FAULT_NODE = "__fault__"


def dense_nodal_solve(network, fault):
    nodes = list(network.buses)
    edges = []
    split = (fault is not None and math.isfinite(fault.impedance_pu)
             and fault.element_kind == "line" and 1e-9 < fault.position < 1 - 1e-9)
    for line in network.lines:
        if split and line.id == fault.element_id:
            nodes_mid = FAULT_NODE
            edges.append((line.id, line.from_bus, nodes_mid,
                          line.impedance_pu * fault.position))
            edges.append((line.id + "#far", nodes_mid, line.to_bus,
                          line.impedance_pu * (1 - fault.position)))
        else:
            edges.append((line.id, line.from_bus, line.to_bus, line.impedance_pu))
    if split:
        nodes.append(FAULT_NODE)

    if fault is None or not math.isfinite(fault.impedance_pu):
        fault_node = None
    elif fault.element_kind == "bus":
        fault_node = fault.element_id
    elif fault.position <= 1e-9:
        fault_node = network.line_by_id(fault.element_id).from_bus
    elif fault.position >= 1 - 1e-9:
        fault_node = network.line_by_id(fault.element_id).to_bus
    else:
        fault_node = FAULT_NODE

    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    g_matrix = np.zeros((n, n))
    j_vector = np.zeros(n)
    for _eid, a, b, z in edges:
        g = 1.0 / z
        ia, ib = index[a], index[b]
        g_matrix[ia, ia] += g
        g_matrix[ib, ib] += g
        g_matrix[ia, ib] -= g
        g_matrix[ib, ia] -= g
    src = network.source
    i_src = index[src.bus]
    if src.available:
        g_matrix[i_src, i_src] += 1.0 / src.impedance_pu
        j_vector[i_src] += src.voltage_pu / src.impedance_pu
    if fault_node is not None:
        for der in network.ders:
            if der.injecting and der.i_max_pu > 0:
                j_vector[index[der.bus]] += der.i_max_pu
    else:
        for der in network.ders:
            if der.injecting and der.i_max_pu > 0:
                j_vector[index[der.bus]] += der.i_max_pu
        for load in network.loads:
            j_vector[index[load.bus]] -= load.current_pu

    # Islands reaching neither a live source nor the fault carry no
    # current; ground them so that the matrix stays regular.
    reached = ({i_src} if src.available else set()) | (
        {index[fault_node]} if fault_node is not None else set())
    stack = list(reached)
    while stack:
        i = stack.pop()
        for j in np.flatnonzero(g_matrix[i]):
            if j not in reached:
                reached.add(j)
                stack.append(j)
    for i in set(range(n)) - reached:
        g_matrix[i, i] += 1.0
        j_vector[i] = 0.0

    v = np.zeros(n)
    if fault_node is not None and fault.impedance_pu <= 1e-12:
        i_f = index[fault_node]
        keep = [i for i in range(n) if i != i_f]
        v_keep = np.linalg.solve(g_matrix[np.ix_(keep, keep)], j_vector[keep])
        v[keep] = v_keep
        i_fault = j_vector[i_f] - g_matrix[i_f, keep] @ v_keep
    elif fault_node is not None:
        i_f = index[fault_node]
        g_matrix[i_f, i_f] += 1.0 / fault.impedance_pu
        v = np.linalg.solve(g_matrix, j_vector)
        i_fault = v[i_f] / fault.impedance_pu
    else:
        v = np.linalg.solve(g_matrix, j_vector)
        i_fault = 0.0

    branch = {}
    for eid, a, b, z in edges:
        branch[eid] = (v[index[a]] - v[index[b]]) / z
    i_grid = (src.voltage_pu - v[i_src]) / src.impedance_pu if src.available else 0.0
    return branch, float(i_fault), float(i_grid)


# ---------------------------------------------------------------------------
# Second oracle: the tree solve as it was when it built an id-keyed dict of
# branch currents and of nodal injections on every call. The array-first
# solve must match it bit for bit; its injections also feed the Kirchhoff
# residuals below.
# ---------------------------------------------------------------------------

def dict_solve(network, fault, open_lines=frozenset(), der_injecting=None,
               allow_dead_fault=False):
    """(branch currents, i_fault, i_grid, contributions, arrivals, fed,
    bus injections) by the replaced dict-building solve."""
    tree = network.compiled
    flags = {d.id: d.injecting for d in network.ders} | dict(der_injecting or {})
    live = [(d, tree.bus_index[d.bus]) for d in network.ders
            if flags.get(d.id) and d.i_max_pu > 0]
    cut = tree.cut_below(open_lines)
    piece = tree.pieces(cut).tolist()
    src = network.source
    s = tree.bus_index[src.bus]
    inj, contributions, arrivals = {}, {}, {}
    i_fault = i_grid = 0.0
    fed, split, at = False, False, None

    if fault is not None and fault.is_fault:
        top, low, z_f = _fault_point(network, fault)
        split = top != low
        near_up = tree.sign[low] > 0
        upper_open = split and low in cut and near_up
        lower_open = split and low in cut and not near_up
        f_piece = piece[low] if upper_open else piece[top]
        fed = src.available and piece[s] == f_piece
        ders = [(d, v) for d, v in live if piece[v] == f_piece]
        shares = [1.0] * len(ders)
        if fed:
            i_fault = i_grid = src.voltage_pu / (src.impedance_pu + z_f + fault.impedance_pu)
            shares = _fault_share(tree, src.impedance_pu, fault.impedance_pu, top,
                                  low, z_f, np.array([v for _, v in ders], dtype=int)
                                  ).tolist()
        for (d, v), share in zip(ders, shares):
            i_fault += d.i_max_pu * share
            i_grid -= d.i_max_pu * (1 - share)
            contributions[d.id] = d.i_max_pu
            arrivals[d.id] = d.i_max_pu * share
            inj[v] = inj.get(v, 0.0) + d.i_max_pu
        if not fed and i_fault == 0.0 and not allow_dead_fault:
            raise UnreachableFaultError("fault is disconnected")
        at = low if upper_open else top

    if src.available and not fed:
        total = 0.0
        for v, amount in ([(v, d.i_max_pu) for d, v in live]
                          + [(tree.bus_index[ld.bus], -ld.current_pu) for ld in network.loads]):
            if piece[v] == piece[s]:
                inj[v] = inj.get(v, 0.0) + amount
                total += amount
        i_grid = -total
    if src.available:
        inj[s] = inj.get(s, 0.0) + i_grid

    acc = [0.0] * len(network.buses)
    for v, amount in inj.items():
        acc[v] = amount
    bus_injections = {network.buses[v]: amount for v, amount in inj.items()}
    if at is not None:
        acc[at] -= i_fault
        node = FAULT_NODE if split else network.buses[at]
        bus_injections[node] = bus_injections.get(node, 0.0) - i_fault
    parent = tree.parent
    for v in reversed(tree.order):
        if parent[v] >= 0 and v not in cut:
            acc[parent[v]] += acc[v]

    values = 0.0 - tree.line_sign * np.array(acc)[tree.child]
    values[[tree.up_line[v] for v in cut]] = 0.0
    currents = dict(zip(tree.line_ids, values.tolist()))
    if split:
        up_lower = 0.0 if lower_open else acc[low] + (i_fault if upper_open else 0.0)
        up_upper = 0.0 if upper_open else up_lower - i_fault
        lid = tree.line_ids[tree.up_line[low]]
        currents[lid], currents[lid + "#far"] = (
            (-up_upper, -up_lower) if near_up else (up_lower, up_upper))
    return currents, i_fault, i_grid, contributions, arrivals, fed, bus_injections


def kirchhoff_residuals(network, fault, sol, open_lines=frozenset()):
    """Net current imbalance at every node of a solution, with the nodal
    injections of dict_solve; all zero when consistent."""
    *_, bus_injections = dict_solve(network, fault, open_lines,
                                    allow_dead_fault=True)
    nodes = {b: 0.0 for b in network.buses}
    for bus, inj in bus_injections.items():
        nodes[bus] = nodes.get(bus, 0.0) + inj
    split = None
    if fault is not None and fault.is_fault:
        top, low, _z = _fault_point(network, fault)
        if top != low:
            split = fault.element_id
    for ln in network.lines:
        flow = sol.branch_currents.get(ln.id, 0.0)
        nodes[ln.from_bus] -= flow
        if ln.id == split:
            far = sol.branch_currents.get(ln.id + "#far", 0.0)
            nodes[FAULT_NODE] = nodes.get(FAULT_NODE, 0.0) + flow - far
            flow = far
        nodes[ln.to_bus] += flow
    return nodes


def random_radial_network(rng, n_buses, with_loads=False):
    buses = [f"b{i}" for i in range(n_buses)]
    lines = []
    for i in range(1, n_buses):
        parent = rng.randrange(i)
        lines.append(Line(id=f"l{i}", from_bus=f"b{parent}", to_bus=f"b{i}",
                          impedance_pu=rng.uniform(0.05, 0.5)))
    ders = []
    for i in range(n_buses):
        if rng.random() < 0.5:
            ders.append(DerSource(id=f"d{i}", bus=f"b{i}",
                                  i_max_pu=rng.uniform(0.1, 2.0),
                                  injecting=rng.random() < 0.8))
    loads = []
    if with_loads:
        for i in range(n_buses):
            if rng.random() < 0.4:
                loads.append(LoadPoint(bus=f"b{i}",
                                       current_pu=rng.uniform(0.05, 0.3)))
    return RadialNetwork(
        buses=tuple(buses), lines=tuple(lines),
        source=ExternalSource(bus="b0", voltage_pu=rng.uniform(0.9, 1.1),
                              impedance_pu=rng.uniform(0.02, 0.2)),
        ders=tuple(ders), loads=tuple(loads))


def random_fault(rng, network):
    if rng.random() < 0.4 or not network.lines:
        element = ("bus", network.buses[rng.randrange(len(network.buses))])
        position = 0.5
    else:
        line = network.lines[rng.randrange(len(network.lines))]
        element = ("line", line.id)
        position = rng.choice([0.0, 0.3, 0.5, 0.8, 1.0])
    impedance = 0.0 if rng.random() < 0.5 else rng.uniform(0.02, 0.5)
    return FaultScenario(element_kind=element[0], element_id=element[1],
                         impedance_pu=impedance, position=position)


@st.composite
def general_networks(draw):
    """Radial networks beyond random_radial_network's family.

    Lines may be stored child -> parent, the source may sit on any bus
    and be unavailable, some buses start a new component (a forest),
    and DER may have no current or not inject.
    """
    n = draw(st.integers(1, 7))
    names = draw(st.permutations([f"b{i}" for i in range(n)]))
    lines = []
    for i in range(1, n):
        if draw(st.integers(0, 4)) == 0:
            continue
        a, b = names[draw(st.integers(0, i - 1))], names[i]
        if draw(st.booleans()):
            a, b = b, a
        lines.append(Line(f"l{i}", a, b, draw(st.floats(0.05, 0.5))))
    ders = tuple(
        DerSource(f"d{i}", names[i], draw(st.just(0.0) | st.floats(0.1, 2.0)),
                  injecting=draw(st.booleans()))
        for i in range(n) if draw(st.booleans()))
    loads = tuple(LoadPoint(names[i], draw(st.floats(0.05, 0.3)))
                  for i in range(n) if draw(st.booleans()))
    source = ExternalSource(bus=draw(st.sampled_from(names)),
                            voltage_pu=draw(st.floats(0.9, 1.1)),
                            impedance_pu=draw(st.floats(0.02, 0.2)),
                            available=draw(st.booleans()))
    return RadialNetwork(buses=tuple(sorted(names)), lines=tuple(lines),
                         source=source, ders=ders, loads=loads)


@st.composite
def general_faults(draw, network):
    """A bus or line fault, bolted, resistive or none (inf)."""
    if network.lines and draw(st.booleans()):
        element = ("line", draw(st.sampled_from(network.lines)).id)
    else:
        element = ("bus", draw(st.sampled_from(network.buses)))
    impedance = draw(st.sampled_from([0.0, math.inf]) | st.floats(0.02, 0.5))
    position = draw(st.sampled_from([0.0, 0.3, 0.5, 0.8, 1.0]))
    return FaultScenario(*element, impedance, position)


def assert_matches_oracle(network, fault, tol=1e-9):
    sol = solve_fault_currents(network, fault, allow_dead_fault=True)
    branch, i_fault, i_grid = dense_nodal_solve(network, fault)
    for eid, expected in branch.items():
        got = sol.branch_currents.get(eid, 0.0)
        assert abs(got - expected) <= tol * max(1.0, abs(expected)), \
            f"{eid}: {got} vs oracle {expected}"
    assert abs(sol.i_fault_pu - i_fault) <= tol * max(1.0, abs(i_fault))
    assert abs(sol.i_grid_pu - i_grid) <= tol * max(1.0, abs(i_grid))


class TestFaultSolver:
    def test_hand_computed_single_line(self):
        # 1.0 pu behind 0.1 source impedance into a 0.1 line, bolted at
        # the far end: 1.0 / 0.2 = 5.0 pu.
        net = RadialNetwork(
            buses=("S", "A"), lines=(Line("L1", "S", "A", 0.1),),
            source=ExternalSource(bus="S", voltage_pu=1.0, impedance_pu=0.1))
        sol = solve_fault_currents(net, FaultScenario("bus", "A", 0.0))
        assert sol.i_fault_pu == pytest.approx(5.0)
        assert sol.i_grid_pu == pytest.approx(5.0)
        assert sol.branch_currents["L1"] == pytest.approx(5.0)

    def test_healthy_network_carries_load_currents_only(self):
        net = RadialNetwork(
            buses=("S", "A", "B"),
            lines=(Line("L1", "S", "A", 0.1), Line("L2", "A", "B", 0.1)),
            source=ExternalSource(bus="S"),
            loads=(LoadPoint("B", 0.3), LoadPoint("A", 0.2)))
        sol = solve_fault_currents(
            net, FaultScenario("bus", "B", math.inf))
        assert sol.branch_currents["L1"] == pytest.approx(0.5)
        assert sol.branch_currents["L2"] == pytest.approx(0.3)
        assert sol.i_fault_pu == 0.0

    def test_der_at_fault_bus_reduces_grid_share(self):
        net = RadialNetwork(
            buses=("S", "A"), lines=(Line("L1", "S", "A", 0.1),),
            source=ExternalSource(bus="S", voltage_pu=1.0, impedance_pu=0.1),
            ders=(DerSource("D1", "A", 1.0, injecting=True),))
        sol = solve_fault_currents(net, FaultScenario("bus", "A", 0.0))
        assert sol.i_grid_pu < sol.i_fault_pu
        assert sol.i_grid_pu + sum(sol.der_contributions_pu.values()) == \
            pytest.approx(sol.i_fault_pu, abs=1e-12)

    def test_kirchhoff_balance(self):
        rng = random.Random(5)
        for _ in range(20):
            net = random_radial_network(rng, rng.randint(2, 6))
            fault = random_fault(rng, net)
            sol = solve_fault_currents(net, fault, allow_dead_fault=True)
            residuals = kirchhoff_residuals(net, fault, sol)
            assert max(abs(r) for r in residuals.values()) < 1e-9

    def test_matches_dense_oracle_on_random_networks(self):
        rng = random.Random(11)
        for _ in range(60):
            net = random_radial_network(rng, rng.randint(2, 6))
            fault = random_fault(rng, net)
            assert_matches_oracle(net, fault)

    def test_matches_oracle_on_healthy_solves_with_loads(self):
        rng = random.Random(13)
        for _ in range(20):
            net = random_radial_network(rng, rng.randint(2, 6), with_loads=True)
            assert_matches_oracle(net, FaultScenario("bus", "b0", math.inf))

    def test_adding_der_never_increases_grid_current(self):
        rng = random.Random(17)
        for _ in range(30):
            net = random_radial_network(rng, rng.randint(3, 6))
            fault = random_fault(rng, net)
            quiet = {d.id: False for d in net.ders}
            base = solve_fault_currents(net, fault, der_injecting=quiet,
                                        allow_dead_fault=True)
            full = solve_fault_currents(net, fault, allow_dead_fault=True)
            assert full.i_grid_pu <= base.i_grid_pu + 1e-12

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_general_networks_match_oracle_and_balance(self, data):
        net = data.draw(general_networks())
        fault = data.draw(general_faults(net))
        if fault.is_fault:
            # Faulted solves neglect loads, the oracle included.
            net = replace(net, loads=())
        open_lines = data.draw(st.sets(st.sampled_from(
            [ln.id for ln in net.lines]) if net.lines else st.nothing()))
        sol = solve_fault_currents(net, fault, open_lines=open_lines,
                                   allow_dead_fault=True)
        residuals = kirchhoff_residuals(net, fault, sol, open_lines)
        assert max(abs(r) for r in residuals.values()) < 1e-9
        if not open_lines:
            assert_matches_oracle(net, fault)

    @given(general_networks(), st.just(0.0) | st.floats(0.02, 0.5))
    @settings(max_examples=150, deadline=None)
    def test_signature_map_equals_solved_arrivals(self, net, impedance):
        candidates = ([("line", ln.id) for ln in net.lines]
                      + [("bus", b) for b in net.buses])
        all_on = {d.id: True for d in net.ders}
        for position in (0.0, 0.5, 1.0):
            fmap = build_fault_signature_map(net, candidates, impedance, position)
            assert set(fmap.entries) == set(candidates)
            for (kind, element_id), signature in fmap.entries.items():
                sol = solve_fault_currents(
                    net, FaultScenario(kind, element_id, impedance, position),
                    der_injecting=all_on, allow_dead_fault=True)
                expected = [sol.der_fault_arrivals_pu.get(d, 0.0)
                            for d in fmap.der_ids]
                assert signature == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_compiled_feeder_is_kept_per_network(self):
        net = bm.two_feeder_network()
        assert net.compiled is net.compiled
        assert replace(net, loads=()).compiled is not net.compiled

    @pytest.mark.parametrize("n_buses", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_min_depth_matches_padded_rows(self, n_buses):
        # The sparse table as the replaced construction built it: each row
        # zero-padded to n by np.pad.
        tree = random_radial_network(random.Random(n_buses), n_buses).compiled
        rows = [np.arange(n_buses)]
        while 2 ** len(rows) <= n_buses:
            prev, half = rows[-1], 2 ** (len(rows) - 1)
            a, b = prev[:-half], prev[half:]
            rows.append(np.where(tree.depth_pre[a] <= tree.depth_pre[b], a, b))
        expected = np.array([np.pad(row, (0, n_buses - len(row))) for row in rows])
        assert tree.min_depth.dtype == expected.dtype
        assert np.array_equal(tree.min_depth, expected)

    def test_unreachable_fault_raises(self):
        net = RadialNetwork(
            buses=("S", "A", "B"),
            lines=(Line("L1", "S", "A", 0.1), Line("L2", "A", "B", 0.1)),
            source=ExternalSource(bus="S"))
        with pytest.raises(UnreachableFaultError):
            solve_fault_currents(net, FaultScenario("bus", "B", 0.0),
                                 open_lines={"L1"})

    def test_fault_island_fed_by_der_only(self):
        net = RadialNetwork(
            buses=("S", "A", "B"),
            lines=(Line("L1", "S", "A", 0.1), Line("L2", "A", "B", 0.1)),
            source=ExternalSource(bus="S"),
            ders=(DerSource("D1", "B", 1.5, injecting=True),))
        sol = solve_fault_currents(net, FaultScenario("bus", "A", 0.0),
                                   open_lines={"L1"})
        assert sol.i_fault_pu == pytest.approx(1.5)
        assert sol.i_grid_pu == 0.0
        assert sol.der_fault_arrivals_pu["D1"] == pytest.approx(1.5)


def assert_solves_match(net, fault, open_lines=frozenset(), der_injecting=None,
                        allow_dead_fault=True):
    """The array-first solve against dict_solve, by float.hex()."""
    def hexes(values):
        return {key: float(value).hex() for key, value in values.items()}

    try:
        currents, i_fault, i_grid, contributions, arrivals, fed, _inj = dict_solve(
            net, fault, open_lines, der_injecting, allow_dead_fault)
    except UnreachableFaultError:
        with pytest.raises(UnreachableFaultError):
            solve_fault_currents(net, fault, open_lines, der_injecting, allow_dead_fault)
        return
    sol = solve_fault_currents(net, fault, open_lines, der_injecting, allow_dead_fault)
    expected = hexes(currents)
    assert [x.hex() for x in sol.line_currents.tolist()] == \
        [expected[ln.id] for ln in net.lines]
    if sol.split_line is None:
        assert len(expected) == len(net.lines)
    else:
        assert sol.far_pu.hex() == expected[sol.split_line + "#far"]
    assert list(hexes(sol.branch_currents).items()) == list(expected.items())
    assert (sol.i_fault_pu.hex(), sol.i_grid_pu.hex()) == (i_fault.hex(), i_grid.hex())
    assert hexes(sol.der_fault_arrivals_pu) == hexes(arrivals)
    assert hexes(sol.der_contributions_pu) == hexes(contributions)
    assert sol.source_feeds_fault == fed


class TestSolveMatchesReplacedSolve:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_general_networks_match_bit_for_bit(self, data):
        net = data.draw(general_networks())
        fault = data.draw(general_faults(net) | st.none())
        line_ids = [ln.id for ln in net.lines]
        open_lines = set(data.draw(st.sets(st.sampled_from(line_ids)))) if line_ids else set()
        if fault is not None and fault.element_kind == "line" and data.draw(st.booleans()):
            open_lines.add(fault.element_id)     # an open split line
        der_injecting = data.draw(st.none() | st.dictionaries(
            st.sampled_from([d.id for d in net.ders]), st.booleans())) if net.ders else None
        assert_solves_match(net, fault, frozenset(open_lines), der_injecting,
                            data.draw(st.booleans()))

    @pytest.mark.parametrize("stored_down", [True, False])
    @pytest.mark.parametrize("position", [0.3, 0.5, 0.8])
    def test_open_split_line_on_either_side(self, stored_down, position):
        # The near segment of an opened faulted line is the upper one when
        # the line is stored from its upper bus, else the lower one.
        ends = ("A", "B") if stored_down else ("B", "A")
        net = RadialNetwork(
            buses=("S", "A", "B", "C"),
            lines=(Line("L1", "S", "A", 0.1), Line("L2", *ends, 0.2),
                   Line("L3", "B", "C", 0.1)),
            source=ExternalSource(bus="S"),
            ders=(DerSource("DA", "A", 0.7), DerSource("DC", "C", 0.4)),
            loads=(LoadPoint("B", 0.1),))
        fault = FaultScenario("line", "L2", 0.05, position)
        for open_lines in ({"L2"}, {"L1", "L2"}, {"L2", "L3"}):
            assert_solves_match(net, fault, frozenset(open_lines))

    def test_random_feeders_match_bit_for_bit(self):
        rng = random.Random(23)
        for _ in range(40):
            net = random_radial_network(rng, rng.randint(10, 60), with_loads=True)
            fault = random_fault(rng, net) if rng.random() < 0.8 else None
            open_lines = frozenset(ln.id for ln in net.lines if rng.random() < 0.1)
            quiet = ({d.id: rng.random() < 0.5 for d in net.ders}
                     if rng.random() < 0.3 else None)
            assert_solves_match(net, fault, open_lines, quiet)


class TestNetworkValidation:
    def test_cycle_rejected(self):
        with pytest.raises(InvalidInputError, match="radial"):
            RadialNetwork(
                buses=("S", "A", "B"),
                lines=(Line("L1", "S", "A", 0.1), Line("L2", "A", "B", 0.1),
                       Line("L3", "B", "S", 0.1)),
                source=ExternalSource(bus="S"))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InvalidInputError):
            RadialNetwork(buses=("S",),
                          lines=(Line("L1", "S", "X", 0.1),),
                          source=ExternalSource(bus="S"))

    def test_nonpositive_impedance_rejected(self):
        with pytest.raises(InvalidInputError):
            RadialNetwork(buses=("S", "A"),
                          lines=(Line("L1", "S", "A", 0.0),),
                          source=ExternalSource(bus="S"))

    @pytest.mark.parametrize("call, message", [
        (lambda net: replace(net, source=replace(net.source, bus="X")),
         "source.bus: unknown bus 'X'"),
        (lambda net: net.line_by_id("X"), "unknown line: X"),
        (lambda net: solve_fault_currents(net, FaultScenario("bus", "X")),
         "fault.element_id: unknown bus 'X'"),
        (lambda net: solve_fault_currents(net, FaultScenario("line", "X")),
         "fault.element_id: unknown line 'X'"),
    ], ids=["source_bus", "line_by_id", "fault_bus", "fault_line"])
    def test_unknown_id_rejected(self, call, message):
        with pytest.raises(InvalidInputError, match=message):
            call(bm.two_feeder_network())


class TestTwoFeederBenchmark:
    """The two-feeder study: hand-computed currents, then the detectors."""

    def test_clean_fault_trips_exactly_breaker_a(self):
        net = bm.two_feeder_network()
        report = simulate_protection(net, bm.two_feeder_fault(),
                                     bm.TWO_FEEDER_SETTINGS)
        assert [ev.breaker_id for ev in report.trips] == ["A"]
        assert report.issues == ()

    def test_grid_current_hand_value(self):
        # Path impedance 0.05 + 0.05 + 0.10 + 0.05 = 0.25, so 4.0 pu.
        net = bm.two_feeder_network()
        sol = solve_fault_currents(net, bm.two_feeder_fault())
        assert sol.source_feeds_fault
        assert sol.i_grid_pu == pytest.approx(4.0)
        assert sol.branch_currents["L1"] == pytest.approx(4.0)
        assert sol.branch_currents["L3"] == pytest.approx(0.0, abs=1e-12)

    def test_blinding_configuration(self):
        # DER at F1A: source side 0.20, fault side 0.05, so 0.2 / 0.25 of
        # the 2.0 pu injection flows back toward the source and breaker A
        # sees 4.0 - 0.4 = 3.6 pu < 3.8 pu while the fault sees 5.6 pu.
        net = bm.two_feeder_network(der_a_injection_pu=2.0)
        sol = solve_fault_currents(net, bm.two_feeder_fault())
        assert sol.branch_currents["L1"] == pytest.approx(3.6)
        assert sol.i_fault_pu == pytest.approx(5.6)
        report = simulate_protection(net, bm.two_feeder_fault(),
                                     bm.TWO_FEEDER_SETTINGS)
        assert report.trips == ()
        blinding = report.issues_of("Blinding")
        assert len(blinding) == 1
        assert "A" in blinding[0].elements

    def test_blinding_soundness_without_der(self):
        net = bm.two_feeder_network(der_a_injection_pu=2.0)
        quiet = {d.id: False for d in net.ders}
        sol = solve_fault_currents(net, bm.two_feeder_fault(),
                                   der_injecting=quiet)
        assert sol.branch_currents["L1"] == pytest.approx(4.0)
        assert 4.0 > bm.TWO_FEEDER_SETTINGS["A"]

    def test_sympathetic_trip_configuration(self):
        # Dead upstream grid; the healthy feeder's DER feeds the fault
        # through both breakers, which share a setting and trip together.
        net = bm.two_feeder_network(der_b_injection_pu=4.5,
                                    source_available=False)
        report = simulate_protection(net, bm.two_feeder_fault(),
                                     bm.TWO_FEEDER_SETTINGS)
        tripped = {ev.breaker_id for ev in report.trips}
        assert tripped == {"A", "B"}
        kinds = {i.kind for i in report.issues}
        assert "SympatheticTrip" in kinds
        sympathetic = report.issues_of("SympatheticTrip")
        assert all("B" in issue.elements[0] for issue in sympathetic)
        path = source_fault_path_lines(net, bm.two_feeder_fault())
        assert "L3" not in path and "L1" in path

    def test_energized_after_trip(self):
        # Breaker A clears but the DER behind it keeps injecting.
        net = bm.two_feeder_network(der_a_injection_pu=0.5)
        sol = solve_fault_currents(net, bm.two_feeder_fault())
        assert sol.branch_currents["L1"] == pytest.approx(3.9)
        report = simulate_protection(net, bm.two_feeder_fault(),
                                     bm.TWO_FEEDER_SETTINGS)
        assert [ev.breaker_id for ev in report.trips] == ["A"]
        energized = report.issues_of("EnergizedAfterTrip")
        assert len(energized) == 1
        assert "DER_A" in energized[0].elements
        assert "F1A" in energized[0].elements

    def test_no_issue_when_der_stops(self):
        net = bm.two_feeder_network(der_a_injection_pu=0.5)
        der_a, der_b = net.ders
        net = replace(net, ders=(replace(der_a, injecting=False), der_b))
        assert detect_energized(net, open_lines={"L1"}) == []

    def test_no_open_breakers_no_energized_issue(self):
        net = bm.two_feeder_network(der_a_injection_pu=0.5)
        assert detect_energized(net, open_lines=set()) == []

    def test_termination_is_bounded_by_breaker_count(self):
        net = bm.two_feeder_network(der_b_injection_pu=4.5,
                                    source_available=False)
        report = simulate_protection(net, bm.two_feeder_fault(),
                                     bm.TWO_FEEDER_SETTINGS)
        assert len(report.trips) <= len(net.breakers)

    def test_settings_must_cover_all_breakers(self):
        net = bm.two_feeder_network()
        with pytest.raises(InvalidInputError, match="C"):
            simulate_protection(net, bm.two_feeder_fault(), {"A": 3.8, "B": 3.8})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_settings_must_be_finite_and_positive(self, bad):
        net = bm.two_feeder_network()
        trip_settings = dict(bm.TWO_FEEDER_SETTINGS, A=bad)
        with pytest.raises(InvalidInputError, match=r"settings\[A\]"):
            simulate_protection(net, bm.two_feeder_fault(), trip_settings)

    def test_cascade_arms_second_breaker_after_first_trip(self):
        # Weak source: i_src = 1 / (0.2 + 0.3 + 0.25) = 1.333 pu. The DER
        # at J splits 2/3 toward the fault and 1/3 back to the source, so
        # B1 carries |1.333 - 1.5| = 0.167 pu (reverse flow) and B2
        # carries 1.333 + 3.0 = 4.333 pu. Opening B1 islands {J, F} and
        # reroutes the full 4.5 pu through B2, only then above its
        # 4.4 pu setting.
        net = RadialNetwork(
            buses=("S", "J", "F"),
            lines=(Line("L1", "S", "J", 0.3), Line("L2", "J", "F", 0.25)),
            source=ExternalSource(bus="S", voltage_pu=1.0, impedance_pu=0.2),
            ders=(DerSource("D", "J", 4.5, injecting=True),),
            breakers=(Breaker("B1", "L1", 0.1, delay_s=0.1),
                      Breaker("B2", "L2", 4.4, delay_s=0.1)))
        fault = FaultScenario("bus", "F", 0.0)
        pre = solve_fault_currents(net, fault)
        assert abs(pre.branch_currents["L1"]) == pytest.approx(1.0 / 6.0)
        assert pre.branch_currents["L2"] == pytest.approx(13.0 / 3.0)
        report = simulate_protection(net, fault, {"B1": 0.1, "B2": 4.4})
        assert [(ev.breaker_id, ev.time_s) for ev in report.trips] == \
            [("B1", pytest.approx(0.1)), ("B2", pytest.approx(0.2))]
        assert len(report.issues_of("EnergizedAfterTrip")) == 1


def _oracle_fixpoint(network, fault, trip_settings):
    """The breaker fixpoint as it was before armed was rebuilt each round:
    an over set, the armed map, and a disarm loop and per-trip deletes
    that kept the two in step. Issues are screened from its trips and
    open lines with the public helpers. Kept as the reference that
    simulate_protection must match exactly."""
    breaker = {b.id: b for b in network.breakers}
    open_lines, tripped, armed, t_now = set(), [], {}, 0.0
    initial = solution = solve_fault_currents(network, fault, allow_dead_fault=True)
    for _ in range(len(network.breakers) + 1):
        over = set()
        for b in network.breakers:
            if b.line in open_lines:
                continue
            if solution.branch_magnitude(b.line) > trip_settings[b.id]:
                over.add(b.id)
                if b.id not in armed:
                    armed[b.id] = t_now + b.delay_s
        for bid in list(armed):
            if bid not in over:
                del armed[bid]
        if not armed:
            break
        t_next = min(armed.values())
        now_tripping = sorted(bid for bid, deadline in armed.items()
                              if deadline <= t_next + 1e-12)
        t_now = t_next
        for bid in now_tripping:
            open_lines.add(breaker[bid].line)
            tripped.append((bid, t_now))
            del armed[bid]
        solution = solve_fault_currents(network, fault, open_lines=open_lines,
                                        allow_dead_fault=True)
    path = source_fault_path_lines(network, fault)
    no_der = solve_fault_currents(network, fault, allow_dead_fault=True,
                                  der_injecting={d.id: False for d in network.ders})
    tripped_ids = {bid for bid, _t in tripped}
    issues = [("Blinding", (b.id, b.line)) for b in network.breakers
              if b.id not in tripped_ids and b.line in path
              and initial.branch_magnitude(b.line) <= trip_settings[b.id]
              < no_der.branch_magnitude(b.line)]
    issues += [("SympatheticTrip", (bid, breaker[bid].line)) for bid, _t in tripped
               if breaker[bid].line not in path]
    issues += [(i.kind, i.elements) for i in detect_energized(network, open_lines)]
    return tripped, issues, tuple(sorted(open_lines))


@st.composite
def protected_cases(draw):
    """A general network and fault with zero to two breakers per line.
    Delays come from a small set, so deadlines tie, exactly or within
    the 1e-12 slack (0 and 1e-13, 0.1 + 0.2 and 0.3); a setting is a
    multiple of the line's pre-trip current, sometimes exactly that
    current."""
    net = draw(general_networks())
    fault = draw(general_faults(net))
    initial = solve_fault_currents(net, fault, allow_dead_fault=True)
    breakers, trip_settings = [], {}
    for line in net.lines:
        for k in range(draw(st.integers(0, 2))):
            bid = f"{line.id}_{k}"
            breakers.append(Breaker(bid, line.id, 1.0, draw(
                st.sampled_from([0.0, 1e-13, 0.1, 0.2, 0.3]) | st.floats(0.0, 1.0))))
            current = initial.branch_magnitude(line.id)
            scale = draw(st.sampled_from([0.5, 1.0, 1.5]) | st.floats(0.1, 2.0))
            trip_settings[bid] = current * scale if current > 0 else draw(
                st.floats(0.01, 5.0))
    return replace(net, breakers=tuple(breakers)), fault, trip_settings


class TestFixpointMatchesReplacedLoop:
    @given(protected_cases())
    @settings(max_examples=300, deadline=None)
    def test_trips_issues_and_open_lines_match_the_oracle(self, case):
        net, fault, trip_settings = case
        report = simulate_protection(net, fault, trip_settings)
        tripped, issues, open_lines = _oracle_fixpoint(net, fault, trip_settings)
        assert [(ev.breaker_id, ev.time_s.hex()) for ev in report.trips] == \
            [(bid, t.hex()) for bid, t in tripped]
        assert [(i.kind, i.elements) for i in report.issues] == issues
        assert report.open_lines == open_lines


class TestSettingGroups:
    def groups(self):
        key_grid = TopologyKey.of(False, {"DER_A", "DER_B"})
        key_island = TopologyKey.of(True, {"DER_A"})
        return SettingGroupTable({
            key_grid: {"A": 3.8, "B": 3.8, "C": 8.0},
            key_island: {"A": 1.2, "B": 1.2, "C": 2.0},
        }, breaker_ids=("A", "B", "C")), key_grid, key_island

    def test_exact_match(self):
        table, key_grid, _ = self.groups()
        result = apply_setting_group(table, key_grid)
        assert result.settings["A"] == 3.8
        assert not result.held

    def test_hold_on_missing_key(self):
        table, key_grid, _ = self.groups()
        apply_setting_group(table, key_grid)
        missing = TopologyKey.of(True, {"DER_A", "DER_B"})
        result = apply_setting_group(table, missing)
        assert result.held
        assert result.settings == {"A": 3.8, "B": 3.8, "C": 8.0}

    def test_unconfigured_error_without_prior(self):
        table, _, _ = self.groups()
        with pytest.raises(UnconfiguredError):
            apply_setting_group(table, TopologyKey.of(True, set()))

    def test_empty_table_rejected(self):
        with pytest.raises(InvalidInputError):
            SettingGroupTable({})

    def test_incomplete_group_rejected(self):
        with pytest.raises(InvalidInputError):
            SettingGroupTable({TopologyKey.of(False, set()): {"A": 1.0}},
                              breaker_ids=("A", "B"))

    @pytest.mark.parametrize("current", [math.nan, math.inf, 0.0, -1.0, "x", True])
    def test_group_with_invalid_trip_current_rejected(self, current):
        # The Breaker.i_trip_pu row, as for a settings document.
        with pytest.raises(InvalidInputError, match=r"settings\[A\]"):
            SettingGroupTable({TopologyKey.of(False, set()): {"A": current}})

    def test_island_group_drives_simulation(self):
        # In islanded operation only the healthy feeder's DER feeds the
        # fault (2.0 pu through A and B). The grid-connected setting of
        # 3.8 pu would never clear it; the island group does.
        table, key_grid, key_island = self.groups()
        net = bm.two_feeder_network(der_b_injection_pu=2.0,
                                    source_available=False)
        grid_settings = apply_setting_group(table, key_grid).settings
        report = simulate_protection(net, bm.two_feeder_fault(), grid_settings)
        assert report.trips == ()
        island_settings = apply_setting_group(table, key_island).settings
        report = simulate_protection(net, bm.two_feeder_fault(), island_settings)
        assert any(ev.breaker_id == "A" for ev in report.trips)


def norm_locate_decision(measured, fmap, tolerance):
    """The replaced ranking: np.linalg.norm distances and a stable argsort.
    ("located", location), or the error type and message it raised."""
    vec = np.array([measured.get(d, 0.0) for d in fmap.der_ids], dtype=float)
    if np.all(np.abs(vec) <= 1e-12):
        return NoFaultDetectedError, "measurement vector is zero; grid looks healthy"
    dist = np.linalg.norm(fmap.signatures - vec, axis=1)
    ranked = np.argsort(dist, kind="stable")[:2]
    best_d, best_loc = float(dist[ranked[0]]), fmap.candidates[ranked[0]]
    if best_d > tolerance:
        return NoFaultDetectedError, (
            f"nearest signature ({best_loc[0]} {best_loc[1]}) is {best_d:.4f} pu "
            f"away, beyond tolerance {tolerance:g}")
    if len(ranked) > 1 and dist[ranked[1]] - best_d < tolerance:
        second = fmap.candidates[ranked[1]]
        return AmbiguousLocationError, (
            f"{best_loc[0]} {best_loc[1]} and {second[0]} {second[1]} "
            f"both match within tolerance")
    return "located", best_loc


@st.composite
def located_measurements(draw):
    """A signature map and a measurement near, on or far from one of its
    rows: exact rows (which tie wherever two candidates share a
    signature), small offsets, and injections whose squared gaps overflow
    to inf."""
    net = draw(general_networks() | st.integers(0, 2 ** 32).map(
        lambda seed: random_radial_network(random.Random(seed), 12)))
    candidates = ([("line", ln.id) for ln in net.lines]
                  + [("bus", b) for b in net.buses])
    fmap = build_fault_signature_map(
        net, candidates, draw(st.just(0.0) | st.floats(0.02, 0.5)),
        draw(st.sampled_from([0.0, 0.5, 1.0])))
    row = fmap.signatures[draw(st.integers(0, len(fmap.candidates) - 1))]
    entry = draw(st.sampled_from([
        st.just,                                             # on the row
        lambda v: st.floats(-1e-3, 1e-3).map(lambda e: v + e),
        lambda v: (st.just(v) | st.floats(-3.0, 3.0)
                   | st.sampled_from([1e155, -1e200, 1.7e308, 1e-13]))]))
    measured = {der_id: draw(entry(value))
                for der_id, value in zip(fmap.der_ids, row.tolist())}
    return fmap, measured, draw(st.sampled_from([1e-3, 0.05, 0.1])
                                | st.floats(1e-6, 5.0))


class TestLocatorMatchesReplacedRanking:
    @given(located_measurements())
    @settings(max_examples=300, deadline=None)
    def test_same_decision_location_and_message(self, case):
        fmap, measured, tolerance = case
        with np.errstate(over="ignore"):
            expected = norm_locate_decision(measured, fmap, tolerance)
        try:
            with np.errstate(over="ignore"):
                result = centralized_locate_fault(measured, fmap, tolerance)
        except (NoFaultDetectedError, AmbiguousLocationError) as err:
            assert (type(err), str(err)) == expected
        except IsolationError:
            # Located, but no working breaker isolates the location.
            assert expected[0] == "located"
            with pytest.raises(IsolationError):
                _isolating_breakers(fmap.network, expected[1], set(), fmap.position)
        else:
            assert ("located", result.location) == expected

    def test_exact_tie_goes_to_the_lowest_row(self):
        # At position 1.0 a fault on L2 is one at bus F1B: rows 0 and 2
        # (bus F1B and line L2) are equal to the bit, so a measurement on
        # row 2 ties them, and the tie names row 0 first.
        net = bm.two_feeder_network(der_a_injection_pu=2.0, der_b_injection_pu=4.5)
        fmap = build_fault_signature_map(
            net, [("line", "L2"), ("bus", "F1B"), ("bus", "F2B")], position=1.0)
        assert fmap.signatures[0].tobytes() == fmap.signatures[2].tobytes()
        measured = dict(zip(fmap.der_ids, fmap.signatures[2].tolist()))
        expected = norm_locate_decision(measured, fmap, 0.1)
        assert expected[0] is AmbiguousLocationError
        assert expected[1].startswith("bus F1B and line L2")
        with pytest.raises(AmbiguousLocationError) as err:
            centralized_locate_fault(measured, fmap, 0.1)
        assert str(err.value) == expected[1]


class TestCentralizedScheme:
    def network(self):
        return bm.two_feeder_network(der_a_injection_pu=2.0,
                                     der_b_injection_pu=4.5)

    def test_exact_signature_lookup(self):
        net = self.network()
        fmap = build_fault_signature_map(net)
        sol = solve_fault_currents(net, bm.two_feeder_fault())
        result = centralized_locate_fault(sol.der_fault_arrivals_pu, fmap,
                                          tolerance=0.1)
        assert result.location == ("line", "L2")
        assert result.breakers_to_open == ("A",)
        assert not result.escalated
        assert result.cleared_from_source
        # DER_A sits inside the isolated region and keeps feeding the fault.
        assert result.residual_fault_current_pu == pytest.approx(2.0)

    def test_bus_fault_between_two_breakers(self):
        net = self.network()
        fmap = build_fault_signature_map(
            net, candidates=[("bus", "MAIN"), ("line", "L2"), ("line", "L4")])
        sol = solve_fault_currents(net, FaultScenario("bus", "MAIN", 0.0))
        result = centralized_locate_fault(sol.der_fault_arrivals_pu, fmap,
                                          tolerance=0.1)
        assert result.location == ("bus", "MAIN")
        assert set(result.breakers_to_open) == {"A", "B", "C"}

    @pytest.mark.parametrize("kwargs", [
        {"position": math.nan},
        {"position": 1.5},
        {"fault_impedance_pu": -1.0},
        {"candidates": [("node", "L2")]},
    ])
    def test_map_rejects_invalid_fault_arguments(self, kwargs):
        # Each candidate is a FaultScenario, checked against its rows.
        with pytest.raises(InvalidInputError):
            build_fault_signature_map(self.network(), **kwargs)

    def test_zero_measurement_means_no_fault(self):
        fmap = build_fault_signature_map(self.network())
        with pytest.raises(NoFaultDetectedError):
            centralized_locate_fault({"DER_A": 0.0, "DER_B": 0.0}, fmap,
                                     tolerance=0.1)

    def test_distant_measurement_means_no_fault(self):
        fmap = build_fault_signature_map(self.network())
        with pytest.raises(NoFaultDetectedError):
            centralized_locate_fault({"DER_A": 40.0, "DER_B": 40.0}, fmap,
                                     tolerance=0.1)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -0.1])
    def test_non_finite_or_non_positive_tolerance_rejected(self, tolerance):
        # Against a NaN tolerance every distance test is false, so a
        # measurement 111 pu from every signature would be located.
        fmap = build_fault_signature_map(self.network())
        with pytest.raises(InvalidInputError, match="tolerance"):
            centralized_locate_fault({"DER_A": 111.0, "DER_B": 1.0}, fmap,
                                     tolerance=tolerance)

    @pytest.mark.parametrize("measured", [
        {"DER_A": math.nan, "DER_B": 1.0}, {"DER_A": 2.0, "DER_B": math.inf},
        {"DER_A": 2.0, "DER_B": 1.0, "DER_X": -math.inf},
        {"DER_A": "x", "DER_B": 1.0}, {"DER_A": 10**400, "DER_B": 1.0}])
    def test_non_finite_measurement_rejected(self, measured):
        # A NaN injection makes every distance NaN, and the stable sort
        # would then pick the first candidate.
        fmap = build_fault_signature_map(self.network())
        with pytest.raises(InvalidInputError, match="measured"):
            centralized_locate_fault(measured, fmap, tolerance=0.1)

    def test_map_without_candidates_means_no_fault(self):
        fmap = build_fault_signature_map(self.network(), candidates=[])
        with pytest.raises(NoFaultDetectedError, match="no candidate"):
            centralized_locate_fault({"DER_A": 2.0, "DER_B": 1.0}, fmap,
                                     tolerance=0.1)

    def test_ambiguous_on_electrically_equivalent_candidates(self):
        # A fault at the very end of a line and one at its terminal bus
        # are the same electrical point, so their signatures coincide.
        net = self.network()
        fmap = build_fault_signature_map(
            net, candidates=[("line", "L2"), ("bus", "F1B")], position=1.0)
        sol = solve_fault_currents(net, FaultScenario("bus", "F1B", 0.0))
        with pytest.raises(AmbiguousLocationError):
            centralized_locate_fault(sol.der_fault_arrivals_pu, fmap,
                                     tolerance=0.05)

    def test_ambiguous_on_first_bus_and_source_line(self):
        # Every DER sits below MAIN, so a bolted fault at MAIN and one
        # inside the source line L0 both draw every injection in full.
        net = self.network()
        fmap = build_fault_signature_map(
            net, [("line", ln.id) for ln in net.lines]
            + [("bus", b) for b in net.buses if b != net.source.bus])
        assert fmap.entries[("bus", "MAIN")] == fmap.entries[("line", "L0")]
        sol = solve_fault_currents(net, FaultScenario("bus", "MAIN", 0.0))
        with pytest.raises(AmbiguousLocationError):
            centralized_locate_fault(sol.der_fault_arrivals_pu, fmap,
                                     tolerance=0.1)

    def test_escalation_past_failed_breaker(self):
        net = self.network()
        fmap = build_fault_signature_map(net)
        sol = solve_fault_currents(net, bm.two_feeder_fault())
        result = centralized_locate_fault(sol.der_fault_arrivals_pu, fmap,
                                          tolerance=0.1,
                                          failed_breakers={"A"})
        assert result.escalated
        assert "C" in result.breakers_to_open
        assert "B" in result.breakers_to_open
        assert result.cleared_from_source
        assert result.residual_fault_current_pu == pytest.approx(2.0)

    def test_unisolatable_when_everything_failed(self):
        net = self.network()
        fmap = build_fault_signature_map(net)
        sol = solve_fault_currents(net, bm.two_feeder_fault())
        with pytest.raises(IsolationError):
            centralized_locate_fault(sol.der_fault_arrivals_pu, fmap,
                                     tolerance=0.1,
                                     failed_breakers={"A", "B", "C"})
