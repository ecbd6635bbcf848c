"""Protection tests: fault solver vs dense nodal oracle, misoperations."""

import hashlib
import itertools
import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres import schemas
from gridres.cli import EXIT_OK, main
from gridres.errors import InvalidInputError
from gridres.protection import (AmbiguousLocationError, Breaker, DerSource,
                                ExternalSource, FaultScenario, IsolationError,
                                Line, LoadPoint, NoFaultDetectedError,
                                RadialNetwork, SettingGroupTable, TopologyKey,
                                UnconfiguredError, UnreachableFaultError,
                                _distances, _fault_point, _fault_share,
                                _isolating_breakers, _screen_rows,
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

# sha256 of report.json from `gridres protection`, per run: the network
# builder ("two_feeder" for bm.two_feeder_network, "trunk_feeder" for the
# builder below), its keyword arguments, the fault document and the
# digest. Digests as the solver produced them when every solve swept the
# whole feeder. The console-script step of .github/workflows/tests.yml
# checks the "blinded", "energized" and "sympathetic" runs' digests (its
# pin helper reads them from here), so it is a plain literal.
PROTECTION_PINS = {
    "clean": (
        "two_feeder", {},
        {"element": {"kind": "line", "id": "L2"}, "impedance_pu": 0.0, "position": 0.5},
        "08f6565cd62955378aa08fefae1312ab5341d366c202d944112914d4a39e23ca"),
    "blinded": (
        "two_feeder", {"der_a_injection_pu": 2.0},
        {"element": {"kind": "line", "id": "L2"}, "impedance_pu": 0.0, "position": 0.5},
        "c91c06a45126b6101a72437c16e25e543091aeb7327268024a0574fb5482ddc9"),
    "sympathetic": (
        "two_feeder", {"der_b_injection_pu": 4.5, "source_available": False},
        {"element": {"kind": "line", "id": "L2"}, "impedance_pu": 0.0, "position": 0.5},
        "d7c274a4a201c6c2fb2cea2417c96d6b08fc333d56e191f623dae99eceeaf200"),
    "energized": (
        "two_feeder", {"der_a_injection_pu": 0.5},
        {"element": {"kind": "line", "id": "L2"}, "impedance_pu": 0.0, "position": 0.5},
        "c4f41fa519c5260d105c23368ae6a16ba48e5fdf2c843818c688b2fd78433086"),
    "feeder_bolted_line": (
        "trunk_feeder", {"n_buses": 240, "seed": 0},
        {"element": {"kind": "line", "id": "l40"}, "impedance_pu": 0.0, "position": 0.5},
        "6ac20139deaed7b9b69dc7ede3bbd80b17b927b740133bf00f8674d0dabd80bf"),
    "feeder_resistive_bus": (
        "trunk_feeder", {"n_buses": 240, "seed": 0},
        {"element": {"kind": "bus", "id": "b170"}, "impedance_pu": 0.05},
        "b67f216f1cbb55d14ea13bc1fb6d3729e948a7034f8a1c516ff866090a474cdf"),
    "feeder_source_line": (
        "trunk_feeder", {"n_buses": 240, "seed": 0},
        {"element": {"kind": "line", "id": "l0"}, "impedance_pu": 0.0, "position": 0.4},
        "e2b77cb02c916715daf6fb7a8685ce12f8f3086fa5e4ad80c5247c18b3b712b7"),
}

# sha256 of a signature map's signatures.tobytes() and of repr(candidates),
# per (n_buses, seed) of trunk_feeder and (fault_impedance_pu, position),
# every line and every bus a candidate. Digests as the map builder produced
# them when it found each junction with a sparse lowest-common-ancestor
# table.
SIGNATURE_PINS = {
    (400, 1, 0.0, 0.5): (
        "6b305da4a53ca40af3e854617b427b40841df5674f31b6385e42590061c91da0",
        "4a25eea8977626ed666deff31c81b48ee75b6e0656088dad2417894636d1c69f"),
    (400, 1, 0.05, 0.0): (
        "07bb9ce918484b5bc027b5ba3e9d71535a88745de5f903ca07fc0c92422d2243",
        "4a25eea8977626ed666deff31c81b48ee75b6e0656088dad2417894636d1c69f"),
    (400, 2, 0.0, 0.5): (
        "99d8b4d6d4d4e9ce6a35f34c3658c4b18a55ed25ff4e9c38b38d7cd264e107b5",
        "4a25eea8977626ed666deff31c81b48ee75b6e0656088dad2417894636d1c69f"),
    (400, 2, 0.05, 0.0): (
        "cd3cef790e79aeca24aa45abc11258371c06cd1f4be79754a7b21ca57dad29e3",
        "4a25eea8977626ed666deff31c81b48ee75b6e0656088dad2417894636d1c69f"),
    (800, 1, 0.0, 0.5): (
        "40f0e625f9ee786dccd57d833b989b64dbd90ab8f0b3319e923fcdf306385042",
        "7898a96c7fcb0ce0c57ef56593626c3d264812e36e429bf4bc39976b2792258f"),
    (800, 1, 0.05, 0.0): (
        "1e8d88865bc096d63f5c7094aac3bf49d847c84a587b1ec960b0f12e115d5aa0",
        "7898a96c7fcb0ce0c57ef56593626c3d264812e36e429bf4bc39976b2792258f"),
    (800, 2, 0.0, 0.5): (
        "37c77ce7270c305535e76d82417b093e534f64508baa50d35e45382d2ac5186e",
        "7898a96c7fcb0ce0c57ef56593626c3d264812e36e429bf4bc39976b2792258f"),
    (800, 2, 0.05, 0.0): (
        "bc74e994066da19c6ee12a4f8e74795a29e047c4b3286e302dc3f5a0b7d9186e",
        "7898a96c7fcb0ce0c57ef56593626c3d264812e36e429bf4bc39976b2792258f"),
}


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

def ancestors(tree, v):
    """Bus v and its ancestors up to its component's root, by parent links."""
    out = [v]
    while tree.parent[out[-1]] >= 0:
        out.append(tree.parent[out[-1]])
    return out


def walk_lca(tree, u, v):
    """The lowest common ancestor of buses u and v of one component: the
    first of v's ancestors that is also one of u's."""
    up = set(ancestors(tree, u))
    return next(w for w in ancestors(tree, v) if w in up)


def dict_solve(network, fault, open_lines=frozenset(), allow_dead_fault=False):
    """(branch currents, i_fault, i_grid, contributions, arrivals, fed,
    bus injections) by the replaced dict-building solve."""
    tree = network.compiled
    live = [(d, tree.bus_index[d.bus]) for d in network.ders
            if d.injecting and d.i_max_pu > 0]
    cut = tree.cut_below(open_lines)
    piece = tree.pieces(cut).tolist()
    src = network.source
    s = tree.bus_index[src.bus]
    inj, contributions, arrivals = {}, {}, {}
    i_fault = i_grid = 0.0
    fed, split, at = False, False, None

    if fault is not None and fault.is_fault:
        top, low, z_f = _fault_point(network, fault.element_kind, fault.element_id,
                                     fault.position)
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
            buses = [v for _, v in ders]
            shares = _fault_share(tree, src.impedance_pu, fault.impedance_pu, low, z_f,
                                  np.array([walk_lca(tree, low, v) for v in buses], dtype=int)
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
        top, low, _z = _fault_point(network, fault.element_kind, fault.element_id,
                                    fault.position)
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


def issues_of(report, kind):
    """The issues of one kind in a protection report, in report order."""
    return [i for i in report.issues if i.kind == kind]


def signature_entries(fmap):
    """A signature map's rows by candidate location, as tuples."""
    return dict(zip(fmap.candidates, map(tuple, fmap.signatures.tolist())))


def with_injecting(network, flags):
    """The network with the injecting flag of each DER in flags replaced."""
    return replace(network, ders=tuple(replace(d, injecting=flags.get(d.id, d.injecting))
                                       for d in network.ders))


def silenced(network):
    """The network with every DER's injecting flag off."""
    return with_injecting(network, {d.id: False for d in network.ders})


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


def trunk_feeder(n_buses, seed):
    """(network, trip settings) of a seeded radial feeder: a trunk of
    n_buses // 4 lines from the source, laterals of five buses hung at
    drawn trunk buses, a DER on every sixth bus from b3, a load on every
    bus but the source's, and a breaker on every fourth trunk line from
    the source line and at the head of every lateral."""
    rng = random.Random(seed)
    n_trunk = n_buses // 4
    buses = [f"b{i}" for i in range(n_buses)]
    lines, breakers = [], []

    def add(a, b, i_trip=None):
        lid = f"l{len(lines)}"
        lines.append(Line(lid, a, b, rng.uniform(0.002, 0.006)))
        if i_trip is not None:
            breakers.append(Breaker(f"B{len(breakers)}", lid, i_trip,
                                    delay_s=rng.choice((0.1, 0.2, 0.3))))

    for i in range(1, n_trunk + 1):
        add(buses[i - 1], buses[i], rng.uniform(3.0, 12.0) if i % 4 == 1 else None)
    rest = buses[n_trunk + 1:]
    for j in range(0, len(rest), 5):
        prev = buses[1 + rng.randrange(n_trunk)]
        for k, bus in enumerate(rest[j:j + 5]):
            add(prev, bus, rng.uniform(0.2, 6.0) if k == 0 else None)
            prev = bus
    ders = tuple(DerSource(f"d{i}", buses[i], rng.uniform(0.05, 0.6))
                 for i in range(3, n_buses, 6))
    loads = tuple(LoadPoint(b, rng.uniform(0.002, 0.006)) for b in buses[1:])
    net = RadialNetwork(buses=tuple(buses), lines=tuple(lines),
                        source=ExternalSource(buses[0], impedance_pu=0.05),
                        ders=ders, breakers=tuple(breakers), loads=loads)
    return net, {b.id: b.i_trip_pu for b in breakers}


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
            base = solve_fault_currents(net, fault, allow_dead_fault=True, grid_only=True)
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
        all_on = with_injecting(net, {d.id: True for d in net.ders})
        for position in (0.0, 0.5, 1.0):
            fmap = build_fault_signature_map(net, candidates, impedance, position)
            entries = signature_entries(fmap)
            assert set(entries) == set(candidates)
            for (kind, element_id), signature in entries.items():
                sol = solve_fault_currents(
                    all_on, FaultScenario(kind, element_id, impedance, position),
                    allow_dead_fault=True)
                expected = [sol.der_fault_arrivals_pu.get(d, 0.0)
                            for d in fmap.der_ids]
                assert signature == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_compiled_feeder_is_kept_per_network(self):
        net = bm.two_feeder_network()
        assert net.compiled is net.compiled
        assert replace(net, loads=()).compiled is not net.compiled

    @given(general_networks())
    @settings(max_examples=200, deadline=None)
    def test_meet_is_the_parent_walk_lca(self, net):
        # Within a component meet is the lowest common ancestor; a bus of
        # another component gets some bus index, without raising.
        tree, n = net.compiled, len(net.buses)
        for v in range(n):
            path = tree.root_path(v)
            each = [int(tree.meet(path, np.array([u]))[0]) for u in range(n)]
            for u, got in enumerate(each):
                if ancestors(tree, u)[-1] == ancestors(tree, v)[-1]:
                    assert got == walk_lca(tree, u, v)
                else:
                    assert 0 <= got < n
            assert tree.meet(path, np.arange(n)).tolist() == each

    @pytest.mark.parametrize("n_buses", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_min_depth_matches_padded_rows(self, n_buses):
        # The replaced junction rule: a sparse table over the preorder, each
        # row zero-padded to n by np.pad, whose range minimum of depth over
        # slots (tin[u], tin[v]] is a child of the LCA. meet agrees with it
        # on every pair of buses.
        tree = random_radial_network(random.Random(n_buses), n_buses).compiled
        depth_pre = np.array([len(ancestors(tree, v)) for v in tree.order])
        rows = [np.arange(n_buses)]
        while 2 ** len(rows) <= n_buses:
            prev, half = rows[-1], 2 ** (len(rows) - 1)
            a, b = prev[:-half], prev[half:]
            rows.append(np.where(depth_pre[a] <= depth_pre[b], a, b))
        padded = np.array([np.pad(row, (0, n_buses - len(row))) for row in rows])
        for u, v in itertools.product(range(n_buses), repeat=2):
            lo, hi = sorted((int(tree.tin[u]), int(tree.tin[v])))
            if lo == hi:
                expected = u
            else:
                k = (hi - lo).bit_length() - 1
                a, b = padded[k, lo + 1], padded[k, hi + 1 - (1 << k)]
                expected = tree.parent[tree.order[a if depth_pre[a] <= depth_pre[b] else b]]
            assert int(tree.meet(tree.root_path(v), np.array([u]))[0]) == expected

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


def assert_solves_match(net, fault, open_lines=frozenset(), allow_dead_fault=True,
                        grid_only=False):
    """The array-first solve against dict_solve, by float.hex(). A
    grid-only solve is held to dict_solve with every DER's flag off."""
    def hexes(values):
        return {key: float(value).hex() for key, value in values.items()}

    def solve():
        return solve_fault_currents(net, fault, open_lines, allow_dead_fault=allow_dead_fault,
                                    grid_only=grid_only)

    try:
        currents, i_fault, i_grid, contributions, arrivals, fed, _inj = dict_solve(
            silenced(net) if grid_only else net, fault, open_lines, allow_dead_fault)
    except UnreachableFaultError:
        with pytest.raises(UnreachableFaultError):
            solve()
        return
    sol = solve()
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


@st.composite
def uncut_solves(draw):
    """(network, fault, grid_only) of a solve with no open line, built in
    plain Python from one drawn byte string, read as zeros past its end
    (cheap to draw and to shrink).

    Up to eight buses, each hung below one of the last three (deep
    paths); a bus may start a new component (a forest), lines run
    either way, and the source sits on any bus, available or not. The
    fault is on the source's bus, on any bus or on a line, at a terminal
    or inside it. Up to fifteen DER sit on the fault's bus, on the
    source's or on any bus, so a bus may hold several and a piece more
    than eight; some carry no current or do not inject.
    """
    raw = itertools.chain(draw(st.binary(min_size=240, max_size=240)), itertools.repeat(0))

    def pick(k):
        return next(raw) % k

    def real(lo, hi):
        return lo + (hi - lo) * (next(raw) * 256 + next(raw)) / 65535

    n = 1 + pick(10)
    names = [f"b{i}" for i in range(n)]
    for i in range(n - 1, 0, -1):
        j = pick(i + 1)
        names[i], names[j] = names[j], names[i]
    lines = []
    for i in range(1, n):
        a, b = names[i - 1 - pick(min(i, 3))], names[i]
        if pick(8):
            lines.append(Line(f"l{i}", *((a, b) if pick(2) else (b, a)), real(0.05, 0.5)))
    source = ExternalSource(names[pick(n)], real(0.9, 1.1), real(0.02, 0.2), bool(pick(3)))
    where = pick(4) if lines else pick(2)
    if where >= 2:
        line = lines[pick(len(lines))]
        position = (0.0, 0.3, 0.5, 0.8, 1.0)[pick(5)]
        fault = FaultScenario("line", line.id, 0.0, position)
        fault_bus = line.from_bus if position <= 0.5 else line.to_bus
    else:
        fault_bus = names[pick(n)] if where else source.bus
        fault = FaultScenario("bus", fault_bus, 0.0)
    if pick(2):
        fault = replace(fault, impedance_pu=real(0.02, 0.5))
    ders = tuple(DerSource(f"d{k}", (fault_bus, source.bus, *names)[pick(n + 2)],
                           0.0 if pick(6) == 0 else real(0.1, 2.0), injecting=bool(pick(5)))
                 for k in range(pick(21)))
    loads = tuple(LoadPoint(b, real(0.05, 0.3)) for b in names if pick(2))
    net = RadialNetwork(buses=tuple(sorted(names)), lines=tuple(lines), source=source,
                        ders=ders, loads=loads)
    return net, fault, bool(pick(2))


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
        if net.ders:
            net = with_injecting(net, data.draw(st.dictionaries(
                st.sampled_from([d.id for d in net.ders]), st.booleans())))
        assert_solves_match(net, fault, frozenset(open_lines), data.draw(st.booleans()),
                            grid_only=data.draw(st.booleans()))

    @given(uncut_solves())
    @settings(max_examples=300, deadline=None)
    def test_solves_with_no_open_line_match_bit_for_bit(self, case):
        # The solves that re-fold only the fault's root path: the source
        # feeds the fault, or is unavailable, or sits in another component.
        net, fault, grid_only = case
        assert_solves_match(net, fault, grid_only=grid_only)

    def test_large_feeder_with_no_open_line_matches_bit_for_bit(self):
        net, _settings = trunk_feeder(320, 4)
        dead = replace(net, source=replace(net.source, available=False))
        faults = [FaultScenario("line", "l40", 0.0, 0.5), FaultScenario("line", "l200", 0.1, 0.3),
                  FaultScenario("line", "l0", 0.0, 0.0), FaultScenario("line", "l7", 0.0, 1.0),
                  FaultScenario("bus", "b0", 0.0), FaultScenario("bus", "b250", 0.05)]
        for case, fault, grid_only in [(n, f, g) for n in (net, dead) for f in faults
                                       for g in (False, True)]:
            assert_solves_match(case, fault, grid_only=grid_only)

    def test_large_feeder_with_open_lines_matches_bit_for_bit(self):
        # Walks that join on long paths: nested open lines (l10 above l40
        # above l80's lateral, l80 above l82), open lines inside a dead
        # piece, the faulted line open, stored down (l40) or up (l39, whose
        # ends the flipped copy swaps, as every third line's), faults cut
        # away from the source and healthy solves, cut or not.
        net, _settings = trunk_feeder(320, 4)
        flipped = replace(net, lines=tuple(
            replace(ln, from_bus=ln.to_bus, to_bus=ln.from_bus) if k % 3 == 0 else ln
            for k, ln in enumerate(net.lines)))
        faults = [None, FaultScenario("line", "l39", 0.05, 0.3),
                  FaultScenario("line", "l40", 0.0, 0.5), FaultScenario("line", "l60", 0.0, 0.7),
                  FaultScenario("line", "l82", 0.1, 0.5), FaultScenario("bus", "b25", 0.0),
                  FaultScenario("bus", "b83", 0.02), FaultScenario("bus", "b0", 0.05)]
        cuts = [(), ("l10",), ("l10", "l40"), ("l10", "l40", "l80"), ("l39",),
                ("l40", "l70"), ("l80", "l82"), ("l0",)]
        for case, fault, cut, grid_only in itertools.product(
                (net, flipped), faults, cuts, (False, True)):
            assert_solves_match(case, fault, frozenset(cut), grid_only=grid_only)

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
            if rng.random() < 0.3:
                net = with_injecting(net, {d.id: rng.random() < 0.5 for d in net.ders})
            assert_solves_match(net, fault, open_lines)


class TestProtectionPins:
    @pytest.mark.parametrize("key", sorted(PROTECTION_PINS))
    def test_cli_bytes_are_pinned(self, tmp_path, key):
        builder, kwargs, fault, digest = PROTECTION_PINS[key]
        if builder == "two_feeder":
            net, trip = bm.two_feeder_network(**kwargs), bm.TWO_FEEDER_SETTINGS
        else:
            net, trip = trunk_feeder(**kwargs)
        docs = {"network": schemas.dump_network(net), "fault": fault, "settings": trip}
        args = ["protection"]
        for flag, doc in docs.items():
            (tmp_path / f"{flag}.json").write_text(json.dumps(doc, indent=2))
            args += [f"--{flag}", str(tmp_path / f"{flag}.json")]
        assert main([*args, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest() \
            == digest


class TestSignaturePins:
    @pytest.mark.parametrize("key", sorted(SIGNATURE_PINS))
    def test_signature_bytes_are_pinned(self, key):
        n_buses, seed, impedance, position = key
        net, _ = trunk_feeder(n_buses, seed)
        candidates = [("line", ln.id) for ln in net.lines] + [("bus", b) for b in net.buses]
        fmap = build_fault_signature_map(net, candidates, impedance, position)
        assert (hashlib.sha256(fmap.signatures.tobytes()).hexdigest(),
                hashlib.sha256(repr(fmap.candidates).encode()).hexdigest()) \
            == SIGNATURE_PINS[key]


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
        # Dropping an unknown open line would solve the intact feeder, and
        # detect_energized(net, {"l1"}) would miss the island {"L1"} leaves.
        (lambda net: solve_fault_currents(net, bm.two_feeder_fault(),
                                          open_lines={"nope", "L1"}),
         "open_lines: unknown lines: 'nope'$"),
        (lambda net: detect_energized(net, {"l1", "l0"}),
         "open_lines: unknown lines: 'l0', 'l1'$"),
    ], ids=["source_bus", "line_by_id", "fault_bus", "fault_line", "open_line",
            "energized_open_line"])
    def test_unknown_id_rejected(self, call, message):
        with pytest.raises(InvalidInputError, match=message):
            call(bm.two_feeder_network(der_a_injection_pu=0.5))

    def test_impedances_that_sum_past_the_float_range_rejected(self):
        net = bm.two_feeder_network()
        lines = tuple(replace(ln, impedance_pu=1e308) for ln in net.lines[:2])
        with pytest.raises(InvalidInputError, match="sum past the float range"):
            replace(net, lines=lines + net.lines[2:])

    def test_loop_impedance_past_the_float_range_gives_a_zero_share(self):
        # A valid network and fault whose loop impedance overflows: the
        # share is 0 with no numpy overflow warning, and the DER current
        # flows back to the source.
        net = bm.two_feeder_network(der_a_injection_pu=2.0)
        net = replace(net, lines=(replace(net.lines[0], impedance_pu=1e308),) + net.lines[1:])
        fault = FaultScenario("line", "L2", 1e308, 0.5)
        sol = solve_fault_currents(net, fault)
        assert (sol.i_fault_pu, sol.der_fault_arrivals_pu, sol.i_grid_pu) == \
            (0.0, {"DER_A": 0.0}, -2.0)
        assert simulate_protection(net, fault, bm.TWO_FEEDER_SETTINGS).trips == ()

    @pytest.mark.parametrize("args", [(frozenset(), None, True), (frozenset(), False)])
    def test_solve_options_are_keyword_only(self, args):
        # A positional option would land in another slot.
        with pytest.raises(TypeError):
            solve_fault_currents(bm.two_feeder_network(), bm.two_feeder_fault(), *args)


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
        blinding = issues_of(report, "Blinding")
        assert len(blinding) == 1
        assert "A" in blinding[0].elements

    def test_blinding_soundness_without_der(self):
        net = bm.two_feeder_network(der_a_injection_pu=2.0)
        sol = solve_fault_currents(net, bm.two_feeder_fault(), grid_only=True)
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
        sympathetic = issues_of(report, "SympatheticTrip")
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
        energized = issues_of(report, "EnergizedAfterTrip")
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
        assert len(issues_of(report, "EnergizedAfterTrip")) == 1


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
    no_der = solve_fault_currents(silenced(network), fault, allow_dead_fault=True)
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


@st.composite
def screened_measurements(draw):
    """A map of 40-200 buses with line and bus candidates (at positions 0
    and 1 a line's row duplicates a bus's, 1e-8 from an end it nearly
    does) and a measurement on a row, near it, far along one DER's axis,
    or with injections whose squares overflow; tolerances 1e-9 to 5."""
    net = random_radial_network(random.Random(draw(st.integers(0, 2 ** 32))),
                                draw(st.integers(40, 200)))
    fmap = build_fault_signature_map(
        net, [("line", ln.id) for ln in net.lines] + [("bus", b) for b in net.buses],
        draw(st.just(0.0) | st.floats(0.02, 0.5)),
        draw(st.sampled_from([0.0, 0.5, 1.0, 1e-8, 1.0 - 1e-8])))
    vec = fmap.signatures[draw(st.integers(0, len(fmap.candidates) - 1))].copy()
    kind = draw(st.sampled_from(["on", "near", "far", "overflow"]))
    if kind == "near":
        scale = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 0.3]))
        vec += np.array(draw(st.lists(st.floats(-scale, scale), min_size=len(vec),
                                      max_size=len(vec))))
    elif kind == "far" and len(vec):
        vec[draw(st.integers(0, len(vec) - 1))] += draw(
            st.sampled_from([1e3, 1e6, 1e8, -1e8, 1e12, 1e150]))
    elif kind == "overflow" and len(vec):
        vec[draw(st.integers(0, len(vec) - 1))] = draw(
            st.sampled_from([1e155, -1e200, 1.7e308]))
    tolerance = draw(st.sampled_from([1e-9, 3e-9, 1e-8])
                     | st.floats(-9.0, math.log10(5.0)).map(lambda e: 10.0 ** e))
    return fmap, dict(zip(fmap.der_ids, vec.tolist())), tolerance


def assert_locator_matches_ranking(fmap, measured, tolerance):
    """centralized_locate_fault's decision and message against
    norm_locate_decision, and the exact distances of the screened rows
    and of one row against the full pass's, by tobytes()."""
    with np.errstate(over="ignore"):
        expected = norm_locate_decision(measured, fmap, tolerance)
    try:
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
    vec = np.array([measured.get(d, 0.0) for d in fmap.der_ids])
    if not fmap.candidates or not vec.any():
        return None
    with np.errstate(over="ignore"):
        gap = fmap.signatures - vec    # the full pass the screen replaced
        full = np.sqrt(np.add.reduce(gap * gap, axis=1))
        rows = _screen_rows(fmap, vec, tolerance)
        for subset in (rows, rows[-1:]):
            assert _distances(fmap, vec, subset).tobytes() == full[subset].tobytes()
    return rows


class TestLocatorMatchesReplacedRanking:
    @given(located_measurements())
    @settings(max_examples=300, deadline=None)
    def test_same_decision_location_and_message(self, case):
        assert_locator_matches_ranking(*case)

    def test_screen_prunes_and_keeps_the_decision(self):
        # Maps of 40-200 buses, where the screen drops most rows. At 1e-8
        # from a line's end, the line's row lies about 1e-9 from its end
        # bus's, so the two squared distances differ by far less than the
        # screen's rounding: only its error bound keeps both rows, and with
        # them the ambiguity, at a tolerance of 1e-9.
        kept = []

        @given(screened_measurements())
        @settings(max_examples=120, deadline=None)
        def check(case):
            rows = assert_locator_matches_ranking(*case)
            if rows is not None:
                kept.append(len(rows) / len(case[0].candidates))

        check()
        assert sum(share < 0.5 for share in kept) >= len(kept) // 4

    def test_injection_whose_square_overflows_is_inf_pu_away(self):
        # 1e155 squared passes the float range: the exact distance is inf,
        # and no numpy overflow warning escapes on the way.
        fmap = build_fault_signature_map(
            bm.two_feeder_network(der_a_injection_pu=2.0, der_b_injection_pu=4.5))
        with pytest.raises(NoFaultDetectedError, match=r"\) is inf pu away"):
            centralized_locate_fault({"DER_A": 1e155, "DER_B": 1.0}, fmap, 0.1)

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


@st.composite
def planned_locations(draw):
    """A general network or a random feeder with zero to two breakers per
    line, a signature map over its lines and buses, a measurement on one
    row and a set of failed breakers."""
    net = draw(st.tuples(st.integers(0, 2 ** 32), st.integers(4, 16)).map(
        lambda seed_size: random_radial_network(random.Random(seed_size[0]), seed_size[1]))
        | general_networks())
    breakers = tuple(Breaker(f"{ln.id}_{k}", ln.id, 1.0)
                     for ln in net.lines for k in range(draw(st.integers(0, 2))))
    net = replace(net, breakers=breakers)
    fmap = build_fault_signature_map(
        net, [("line", ln.id) for ln in net.lines] + [("bus", b) for b in net.buses],
        draw(st.just(0.0) | st.floats(0.02, 0.5)), draw(st.sampled_from([0.3, 0.5, 0.8])))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    row = fmap.signatures[rng.randrange(len(fmap.candidates))]
    failed = {b.id for b in breakers if rng.random() < 0.3}
    return fmap, dict(zip(fmap.der_ids, row.tolist())), failed


class TestLocatorPlanCheck:
    def test_plan_check_matches_a_full_solve(self):
        # The locator reads what feeds the fault with the plan's lines open;
        # a full solve of the same case must agree to the bit.
        residuals = []

        @given(planned_locations())
        @settings(max_examples=200, deadline=None)
        def check(case):
            fmap, measured, failed = case
            try:
                result = centralized_locate_fault(measured, fmap, 1e-9, failed)
            except (NoFaultDetectedError, AmbiguousLocationError, IsolationError):
                return
            net = fmap.network
            after = solve_fault_currents(
                net, FaultScenario(*result.location, fmap.fault_impedance_pu, fmap.position),
                open_lines={net.compiled.breaker[bid].line for bid in result.breakers_to_open},
                allow_dead_fault=True)
            assert (result.cleared_from_source, result.residual_fault_current_pu.hex()) == \
                (not after.source_feeds_fault, after.i_fault_pu.hex())
            # A plan that leaves the source feeding the fault raises instead.
            assert result.cleared_from_source
            residuals.append((result.escalated, result.residual_fault_current_pu))

        check()
        # Located cases with and without escalation, with and without DER
        # in-feed left behind the plan.
        assert {escalated for escalated, _ in residuals} == {False, True}
        assert {residual > 0 for _, residual in residuals} == {False, True}


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
        {"candidates": [("line", "nope")]},
        {"position": True},
        {"fault_impedance_pu": math.nan},
    ])
    def test_map_rejects_invalid_fault_arguments(self, kwargs):
        # fault_impedance_pu, position and each candidate's kind are checked
        # against FaultScenario's rows, and each element id against the
        # network.
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
        entries = signature_entries(fmap)
        assert entries[("bus", "MAIN")] == entries[("line", "L0")]
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

    @pytest.mark.parametrize("failed", [{"a"}, {"A", "X", "b"}])
    def test_unknown_failed_breaker_rejected(self, failed):
        # Skipping a typo would let the plan trip breaker A although the
        # caller reported it failed.
        fmap = build_fault_signature_map(self.network())
        sol = solve_fault_currents(self.network(), bm.two_feeder_fault())
        unknown = ", ".join(repr(bid) for bid in sorted(failed - {"A"}))
        with pytest.raises(InvalidInputError,
                           match=f"^failed_breakers: unknown breakers: {unknown}$"):
            centralized_locate_fault(sol.der_fault_arrivals_pu, fmap, tolerance=0.1,
                                     failed_breakers=failed)

    def test_unknown_measured_der_rejected(self):
        # Read as a zero, the typo DER_a (for DER_A) would leave the fault unlocated.
        fmap = build_fault_signature_map(self.network())
        with pytest.raises(InvalidInputError, match="^measured: unknown DERs: 'DER_a'$"):
            centralized_locate_fault({"DER_a": 1.6, "DER_B": 0.4}, fmap, tolerance=0.1)

    def test_unisolatable_when_everything_failed(self):
        net = self.network()
        fmap = build_fault_signature_map(net)
        sol = solve_fault_currents(net, bm.two_feeder_fault())
        with pytest.raises(IsolationError):
            centralized_locate_fault(sol.der_fault_arrivals_pu, fmap,
                                     tolerance=0.1,
                                     failed_breakers={"A", "B", "C"})
