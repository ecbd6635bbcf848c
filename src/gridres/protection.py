"""Quasi-static fault currents and breaker behavior on radial feeders.

The network model is magnitude-only per-unit phasor: real impedances,
an external voltage source behind a source impedance, distributed
generation as ideal current sources with a fault-injection cap, and
definite-time breakers.

Each network is compiled once into a rooted tree of bus indices
(RadialNetwork.compiled): buses parent before child, each bus's parent
line and its orientation, the impedance z from the root, breaker
indexes, and a lowest-common-ancestor table (Bender & Farach-Colton,
"The LCA Problem Revisited", 2000). A fault solve places the source,
DER and fault currents as nodal injections and sums them over subtrees
in one bottom-up Python loop (the backward sweep of radial load flow, in
an order that fixes the sums' bits), giving every line current as one
array; exact on radial networks, and an open line cuts its subtree off.

A DER feeding a source-fed fault f splits its current where its path
meets the source-fault path, at junction j. The share that arrives is
(Zs + z[j]) / (Zs + z[f] + Zf): the source side against the whole loop.
The fault-signature map evaluates this closed form for every candidate
location and DER at once.

During faulted solves load currents are neglected (fault currents
dominate); the healthy solve includes them. That convention makes the
current balance I_fault = I_grid + sum of injections hold exactly.

The module also provides the two adaptive-protection schemes: local
setting groups selected by topology (with a hold rule on communication
failure) and a centralized locator that matches measured per-DER
injections against precomputed fault signatures.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridResError, InvalidInputError
from .fields import choice, duplicates, flag, num, number, obj, require, row, seq, table, text


class UnreachableFaultError(GridResError):
    """The faulted element has no connected source to feed it."""


class UnconfiguredError(GridResError):
    """No setting group matches and no previous settings are held."""


class NoFaultDetectedError(GridResError):
    """No stored fault signature lies within tolerance of the measurement."""


class AmbiguousLocationError(GridResError):
    """Two candidate locations match the measurement too closely."""


class IsolationError(GridResError):
    """No set of working breakers can separate the fault from its sources."""


@table
class Line:
    id: str = text()
    from_bus: str = text()
    to_bus: str = text()
    impedance_pu: float = num(gt=0)


@table
class ExternalSource:
    bus: str = text()
    voltage_pu: float = num(1.0)
    impedance_pu: float = num(0.05, gt=0)
    available: bool = flag(True)


@table
class DerSource:
    """Current-source model of a DER: fixed injection when active."""

    id: str = text()
    bus: str = text()
    i_max_pu: float = num(ge=0)
    injecting: bool = flag(True)


@table
class Breaker:
    id: str = text()
    line: str = text()
    i_trip_pu: float = num(gt=0)
    delay_s: float = num(0.1, ge=0)


@table
class LoadPoint:
    bus: str = text()
    current_pu: float = num(ge=0)


@table
class RadialNetwork:
    """Radial feeder network rooted at the external-source bus."""

    buses: tuple[str, ...] = seq(str)
    lines: tuple[Line, ...] = seq(Line)
    source: ExternalSource = obj(ExternalSource)
    ders: tuple[DerSource, ...] = seq(DerSource, ())
    breakers: tuple[Breaker, ...] = seq(Breaker, ())
    loads: tuple[LoadPoint, ...] = seq(LoadPoint, ())

    def invariants(self):
        """Radiality, unknown references and duplicate ids."""
        bus_set = set(self.buses)
        line_ids = [ln.id for ln in self.lines]
        out = (duplicates("buses", self.buses) + duplicates("lines", line_ids)
               + duplicates("ders", [d.id for d in self.ders])
               + duplicates("breakers", [b.id for b in self.breakers]))
        if self.source.bus not in bus_set:
            out.append(f"source.bus: unknown bus {self.source.bus!r}")
        parent = {b: b for b in bus_set}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ln in self.lines:
            if ln.from_bus not in bus_set or ln.to_bus not in bus_set:
                out.append(f"lines[{ln.id}]: endpoint not in buses")
                continue
            ra, rb = find(ln.from_bus), find(ln.to_bus)
            if ra == rb:
                out.append(f"lines[{ln.id}]: creates a cycle, network must be radial")
            else:
                parent[ra] = rb
        out += [f"ders[{d.id}].bus: unknown bus {d.bus!r}"
                for d in self.ders if d.bus not in bus_set]
        line_set = set(line_ids)
        out += [f"breakers[{b.id}].line: unknown line {b.line!r}"
                for b in self.breakers if b.line not in line_set]
        out += [f"loads[{i}].bus: unknown bus {load.bus!r}"
                for i, load in enumerate(self.loads) if load.bus not in bus_set]
        return out

    def line_by_id(self, line_id: str) -> Line:
        for ln in self.lines:
            if ln.id == line_id:
                return ln
        raise InvalidInputError(f"unknown line: {line_id}")

    @cached_property
    def compiled(self) -> "_CompiledFeeder":
        """The topology as index arrays, built on first use and kept."""
        return _CompiledFeeder(self)


def check_settings(settings, breaker_ids=()) -> list[str]:
    """All violations of a breaker-id -> trip-current map (empty if valid).

    Every trip current obeys the Breaker.i_trip_pu row (finite and > 0; a
    NaN setting never trips), and every id in breaker_ids has one.
    """
    trip = row(Breaker, "i_trip_pu")
    out = [f"settings[{bid}]: {problem}" for bid, value in settings.items()
           if (problem := trip.check(value))]
    missing = [bid for bid in breaker_ids if bid not in settings]
    if missing:
        out.append(f"settings: missing breakers: {', '.join(missing)}")
    return out


class _CompiledFeeder:
    """A network's topology as a rooted forest over bus indices.

    Buses are numbered as in network.buses, lines as in network.lines.
    The source bus roots its component; every other component is rooted
    at its first bus. order lists the buses in DFS preorder, so parents
    come before children and bus v's subtree is the order slice
    [tin[v], tout[v]). Line k hangs bus child[k] below parent[child[k]];
    sign[v] is +1 when the line above v is stored parent -> v, else -1.
    bottom_up is (bus, parent) in reversed preorder; a root's parent is n.
    """

    def __init__(self, net: RadialNetwork):
        self.bus_index = {b: i for i, b in enumerate(net.buses)}
        self.line_index = {ln.id: k for k, ln in enumerate(net.lines)}
        self.line_ids = [ln.id for ln in net.lines]
        self.breaker = {b.id: b for b in net.breakers}
        self.breaker_rows = np.array([self.line_index[b.line] for b in net.breakers], int)
        self.line_breakers = [[] for _ in net.lines]
        for b in net.breakers:
            self.line_breakers[self.line_index[b.line]].append(b)
        n = len(net.buses)
        self.ends = [(self.bus_index[ln.from_bus], self.bus_index[ln.to_bus])
                     for ln in net.lines]
        self.live = [(d, self.bus_index[d.bus]) for d in net.ders
                     if d.injecting and d.i_max_pu > 0]
        self.load_rows = [(self.bus_index[ld.bus], -ld.current_pu) for ld in net.loads]
        self.incident = [[] for _ in range(n)]
        for k, (a, b) in enumerate(self.ends):
            self.incident[a].append((k, b))
            self.incident[b].append((k, a))
        parent, up_line, sign, depth = [-1] * n, [-1] * n, [1] * n, [0] * n
        z, root, order, seen = [0.0] * n, list(range(n)), [], [False] * n
        self.child = np.zeros(len(net.lines), dtype=int)
        for top in (self.bus_index[net.source.bus], *range(n)):
            stack = [] if seen[top] else [top]
            seen[top] = True
            while stack:
                v = stack.pop()
                order.append(v)
                for k, w in self.incident[v]:
                    if not seen[w]:
                        seen[w], parent[w], up_line[w], root[w] = True, v, k, root[v]
                        sign[w] = 1 if self.ends[k][0] == v else -1
                        depth[w], z[w] = depth[v] + 1, z[v] + net.lines[k].impedance_pu
                        self.child[k] = w
                        stack.append(w)
        self.order, self.parent, self.up_line, self.sign = order, parent, up_line, sign
        self.bottom_up = [(v, n if parent[v] < 0 else parent[v]) for v in reversed(order)]
        self.z = np.array(z)
        self.line_sign = np.array(sign)[self.child]
        size = [1] * (n + 1)
        for v, p in self.bottom_up:
            size[p] += size[v]
        self.tin = np.empty(n, dtype=int)
        self.tin[order] = np.arange(n)
        self.tout = self.tin + np.array(size[:n])
        self.root_pre = np.array(root)[order]
        # Sparse table over the preorder: min_depth[k, i] is the slot of
        # least depth in slots [i, i + 2**k).
        self.up_pre = np.array(parent)[order]
        self.depth_pre = np.array(depth)[order]
        rows = [np.arange(n)]
        while 2 ** len(rows) <= n:
            prev, half = rows[-1], 2 ** (len(rows) - 1)
            a, b = prev[:-half], prev[half:]
            rows.append(np.where(self.depth_pre[a] <= self.depth_pre[b], a, b))
        self.min_depth = np.zeros((len(rows), n), dtype=int)
        for k, row in enumerate(rows):
            self.min_depth[k, :len(row)] = row
        self.roots = self.pieces(()).tolist()

    def lca(self, u, v):
        """Lowest common ancestor of bus indices u and v, elementwise: for
        u != v the parent of the shallowest bus in preorder slots
        (tin[u], tin[v]], which is -1 across components."""
        tu, tv = self.tin[u], self.tin[v]
        lo, hi = np.minimum(tu, tv) + 1, np.maximum(tu, tv)
        k = np.frexp(np.maximum(hi - lo + 1, 1))[1] - 1
        lo = np.minimum(lo, hi)
        a, b = self.min_depth[k, lo], self.min_depth[k, hi + 1 - (1 << k)]
        w = np.where(self.depth_pre[a] <= self.depth_pre[b], a, b)
        return np.where(tu == tv, u, self.up_pre[w])

    def below(self, v, u):
        """Whether bus u lies in the subtree of bus v, elementwise."""
        return (self.tin[v] <= self.tin[u]) & (self.tin[u] < self.tout[v])

    def cut_below(self, open_lines) -> set[int]:
        """The buses whose line to their parent is open."""
        return {int(self.child[self.line_index[lid]])
                for lid in open_lines if lid in self.line_index}

    def pieces(self, cut):
        """Top bus of every bus's connected piece once the lines above
        the buses in cut are open."""
        top = self.root_pre.copy()
        for c in sorted(cut, key=self.tin.__getitem__):
            top[self.tin[c]:self.tout[c]] = c
        return top[self.tin]


@table
class FaultScenario:
    """A short circuit on a line (at a position fraction) or at a bus.

    impedance_pu = 0 is a bolted fault; math.inf is the no-fault
    sentinel and yields the healthy load-flow solution. In a fault
    document the element sits under "element" and null stands for inf.
    """

    element_kind: str = choice(("line", "bus"), key="element.kind")
    element_id: str = text(key="element.id")
    impedance_pu: float = num(0.0, ge=0, null=math.inf)
    position: float = num(0.5, ge=0, le=1)   # along the line from from_bus, line faults only

    @property
    def is_fault(self) -> bool:
        return math.isfinite(self.impedance_pu)


@dataclass(eq=False)
class FaultSolution:
    """Signed line currents plus the fault-current bookkeeping.

    line_currents[k] is the current of network.lines[k], positive from
    from_bus toward to_bus; on the line split_line that a mid-line fault
    splits, the near segment's, and far_pu the far segment's. The
    branch_currents dict, built on first read, keys them by line id and
    '<line>#far'. i_grid_pu is the net current the grid feeds in;
    der_contributions_pu are the full injections of connected, injecting
    units; der_fault_arrivals_pu is the share of each that arrives at the
    fault, which makes a measurement characteristic of the location.
    """

    network: RadialNetwork = field(repr=False)
    line_currents: np.ndarray
    i_fault_pu: float
    i_grid_pu: float
    der_contributions_pu: dict[str, float]
    der_fault_arrivals_pu: dict[str, float]
    source_feeds_fault: bool = False
    split_line: str | None = None
    far_pu: float = 0.0

    @cached_property
    def branch_currents(self) -> dict[str, float]:
        currents = dict(zip(self.network.compiled.line_ids, self.line_currents.tolist()))
        return currents | ({} if self.split_line is None
                           else {self.split_line + "#far": self.far_pu})

    def branch_magnitude(self, line_id: str) -> float:
        return abs(self.branch_currents.get(line_id, 0.0))


@dataclass(frozen=True)
class TripEvent:
    breaker_id: str
    time_s: float


@dataclass(frozen=True)
class ProtectionIssue:
    kind: str                 # Blinding | SympatheticTrip | EnergizedAfterTrip
    elements: tuple[str, ...]
    explanation: str


@dataclass(frozen=True)
class ProtectionReport:
    trips: tuple[TripEvent, ...]
    issues: tuple[ProtectionIssue, ...]
    open_lines: tuple[str, ...]

    def issues_of(self, kind: str) -> list[ProtectionIssue]:
        return [i for i in self.issues if i.kind == kind]


def _fault_point(network: RadialNetwork, fault: FaultScenario):
    """Where a fault sits on the compiled tree: (top, low, z from the root).

    A bus fault, or a line fault at a terminal, sits on bus top == low.
    A fault inside a line sits between bus top and the bus low below it.
    """
    tree = network.compiled
    if fault.element_kind == "bus":
        if fault.element_id not in tree.bus_index:
            raise InvalidInputError(f"fault.element_id: unknown bus {fault.element_id!r}")
        bus = tree.bus_index[fault.element_id]
        return bus, bus, float(tree.z[bus])
    if fault.element_id not in tree.line_index:
        raise InvalidInputError(f"fault.element_id: unknown line {fault.element_id!r}")
    k = tree.line_index[fault.element_id]
    pos = fault.position
    if pos <= 1e-9 or pos >= 1.0 - 1e-9:
        bus = tree.ends[k][0 if pos <= 1e-9 else 1]
        return bus, bus, float(tree.z[bus])
    low = int(tree.child[k])
    top = tree.parent[low]
    upper = pos if tree.sign[low] > 0 else 1.0 - pos
    return top, low, float(tree.z[top]) + network.lines[k].impedance_pu * upper


def _fault_share(tree: _CompiledFeeder, z_src, z_f, top, low, z_fault, der_bus):
    """Share of each DER's current that arrives at a source-fed fault.

    The current splits at junction j inversely to the impedances toward
    the source (Zs + z[j]) and toward the fault (z[f] - z[j] + Zf). DER
    below a split line join at the fault node. Broadcasts over faults.
    """
    z_j = np.where(tree.below(low, der_bus), z_fault,
                   tree.z[tree.lca(top, der_bus)])
    z_left = z_src + z_j
    return z_left / (z_left + ((z_fault - z_j) + z_f))


def solve_fault_currents(network: RadialNetwork, fault: FaultScenario | None,
                         open_lines=frozenset(), der_injecting=None,
                         allow_dead_fault: bool = False) -> FaultSolution:
    """Solve branch currents for a fault (or the healthy network).

    The source drives V / (Zs + z[f] + Zf) into a source-fed fault and
    each injecting DER delivers its arrival share, the rest flowing back
    to the source. A fault the source cannot reach takes the full
    injections of the DER in its piece. der_injecting optionally
    overrides the per-unit injecting flags. open_lines removes tripped
    lines (the far side of a split faulted line stays connected, the
    breaker sits on the near side).
    """
    tree = network.compiled
    live = tree.live   # (DER, bus index) of every injecting unit
    if der_injecting:
        flags = {d.id: d.injecting for d in network.ders} | dict(der_injecting)
        live = [(d, tree.bus_index[d.bus]) for d in network.ders
                if flags.get(d.id) and d.i_max_pu > 0]
    cut = tree.cut_below(open_lines)
    piece = tree.pieces(cut).tolist() if cut else tree.roots
    src = network.source
    s = tree.bus_index[src.bus]
    n = len(network.buses)
    acc = [0.0] * (n + 1)   # net injection, then subtree sum, per bus
    contributions, arrivals = {}, {}
    i_fault = i_grid = 0.0
    fed, split, at = False, False, None

    if fault is not None and fault.is_fault:
        top, low, z_f = _fault_point(network, fault)
        split = top != low
        # An open split line loses its near segment only: the upper one
        # when the line is stored top -> low, else the lower one.
        near_up = tree.sign[low] > 0
        upper_open = split and low in cut and near_up
        lower_open = split and low in cut and not near_up
        f_piece = piece[low] if upper_open else piece[top]
        fed = src.available and piece[s] == f_piece
        ders = [(d, v) for d, v in live if piece[v] == f_piece]
        shares = [1.0] * len(ders)
        if fed:
            i_fault = i_grid = src.voltage_pu / (src.impedance_pu + z_f + fault.impedance_pu)
        if fed and ders:
            shares = _fault_share(tree, src.impedance_pu, fault.impedance_pu, top, low,
                                  z_f, np.array([v for _, v in ders], int)).tolist()
        for (d, v), share in zip(ders, shares):
            i_fault += d.i_max_pu * share
            i_grid -= d.i_max_pu * (1 - share)
            contributions[d.id] = d.i_max_pu
            arrivals[d.id] = d.i_max_pu * share
            acc[v] += d.i_max_pu
        if not fed and i_fault == 0.0 and not allow_dead_fault:
            raise UnreachableFaultError(
                "fault is disconnected from the external source and from any "
                "injecting DER")
        at = low if upper_open else top   # a bus on the fault's side of the cut

    if src.available and not fed:
        # Healthy load flow in the source's piece: net injections stream
        # to the source.
        total = 0.0
        for v, amount in [(v, d.i_max_pu) for d, v in live] + tree.load_rows:
            if piece[v] == piece[s]:
                acc[v] += amount
                total += amount
        i_grid = -total
    if src.available:
        acc[s] += i_grid
    if at is not None:
        acc[at] -= i_fault
    ups = tree.bottom_up
    if cut:
        # An open line passes its subtree's sum to the spare slot n instead;
        # bus v's pair is entry n - 1 - tin[v] of bottom_up.
        ups = ups.copy()
        for v in cut:
            ups[n - 1 - tree.tin[v]] = (v, n)
    for v, p in ups:
        acc[p] += acc[v]

    values = 0.0 - tree.line_sign * np.array(acc, dtype=float)[tree.child]
    if cut:
        values[[tree.up_line[v] for v in cut]] = 0.0
    split_line, far = None, 0.0
    if split:
        # The segment below the fault carries the current of low's subtree.
        up_lower = 0.0 if lower_open else acc[low] + (i_fault if upper_open else 0.0)
        up_upper = 0.0 if upper_open else up_lower - i_fault
        k = tree.up_line[low]
        split_line = tree.line_ids[k]
        values[k], far = (-up_upper, -up_lower) if near_up else (up_lower, up_upper)
    return FaultSolution(network=network, line_currents=values, i_fault_pu=i_fault,
                         i_grid_pu=i_grid, der_contributions_pu=contributions,
                         der_fault_arrivals_pu=arrivals, source_feeds_fault=fed,
                         split_line=split_line, far_pu=far)


def source_fault_path_lines(network: RadialNetwork, fault: FaultScenario) -> set[str]:
    """Line ids on the topological path from the source bus to the fault."""
    tree = network.compiled
    _top, v, _z = _fault_point(network, fault)
    lines = set()
    while tree.parent[v] >= 0:
        lines.add(tree.line_ids[tree.up_line[v]])
        v = tree.parent[v]
    return lines if v == tree.bus_index[network.source.bus] else set()


def simulate_protection(network: RadialNetwork, fault: FaultScenario,
                        settings: dict[str, float]) -> ProtectionReport:
    """Run the breaker reaction to a fault to its fixpoint and screen it.

    Iteratively solves the fault currents, arms every closed breaker
    whose current exceeds its trip setting, trips the earliest deadline
    (simultaneous deadlines trip together), re-solves on the post-trip
    topology, and repeats until quiescent. Afterwards the three
    DER-induced misoperations are detected and attached.
    """
    violations = check_settings(settings, network.compiled.breaker)
    if violations:
        raise InvalidInputError("; ".join(violations))
    breaker, rows = network.compiled.breaker, network.compiled.breaker_rows
    trip = np.array([settings[b.id] for b in network.breakers])

    initial = solve_fault_currents(network, fault, allow_dead_fault=True)
    path_lines = source_fault_path_lines(network, fault)

    open_lines: set[str] = set()
    tripped: list[TripEvent] = []
    armed, t_now, solution = {}, 0.0, initial
    for _ in range(len(network.breakers) + 1):
        # A breaker stays armed, with the deadline it got when first
        # armed, while its current exceeds the setting; else it disarms.
        # An open line carries no current and every setting is > 0, so
        # the breakers of open lines never arm.
        over = np.flatnonzero(np.abs(solution.line_currents[rows]) > trip).tolist()
        armed = {b.id: armed.get(b.id, t_now + b.delay_s)
                 for b in map(network.breakers.__getitem__, over)}
        if not armed:
            break
        t_now = min(armed.values())
        for bid in sorted(bid for bid, deadline in armed.items()
                          if deadline <= t_now + 1e-12):
            open_lines.add(breaker[bid].line)
            tripped.append(TripEvent(breaker_id=bid, time_s=t_now))
        solution = solve_fault_currents(network, fault, open_lines=open_lines,
                                        allow_dead_fault=True)

    issues: list[ProtectionIssue] = []

    # Blinding: a path breaker that stayed closed although the grid alone
    # would have tripped it.
    no_der = solve_fault_currents(
        network, fault, der_injecting={d.id: False for d in network.ders},
        allow_dead_fault=True)
    tripped_ids = {ev.breaker_id for ev in tripped}
    currents = np.abs([initial.line_currents[rows], no_der.line_currents[rows]])
    for b, i_with, i_without in zip(network.breakers, *currents.tolist()):
        if b.id in tripped_ids or b.line not in path_lines:
            continue
        if i_with <= settings[b.id] < i_without:
            issues.append(ProtectionIssue(
                kind="Blinding", elements=(b.id, b.line),
                explanation=(
                    f"breaker {b.id} sees {i_with:.3f} pu with DER in-feed, "
                    f"below its {settings[b.id]:.3f} pu setting, but would see "
                    f"{i_without:.3f} pu from the grid alone")))

    for ev in tripped:
        b = breaker[ev.breaker_id]
        if b.line not in path_lines:
            issues.append(ProtectionIssue(
                kind="SympatheticTrip", elements=(b.id, b.line),
                explanation=(
                    f"breaker {b.id} is not on the source-fault path; "
                    f"it tripped on DER current feeding the fault from a "
                    f"healthy feeder")))

    issues.extend(detect_energized(network, open_lines))

    return ProtectionReport(trips=tuple(tripped), issues=tuple(issues),
                            open_lines=tuple(sorted(open_lines)))


def detect_energized(network: RadialNetwork, open_lines) -> list[ProtectionIssue]:
    """Flag islanded segments kept energized by injecting DER.

    A segment is any maximal group of buses connected through closed
    lines that has no live path to an available external source.
    """
    tree = network.compiled
    piece = tree.pieces(tree.cut_below(open_lines))
    grid = piece[tree.bus_index[network.source.bus]] if network.source.available else -1
    live: dict[int, list[str]] = {}
    for d, v in tree.live:
        live.setdefault(int(piece[v]), []).append(d.id)
    islands = [np.flatnonzero(piece == top) for top in live if top != grid]
    issues: list[ProtectionIssue] = []
    for members in sorted(islands, key=lambda m: m[0]):
        component = sorted(network.buses[i] for i in members)
        live_ders = sorted(live[int(piece[members[0]])])
        issues.append(ProtectionIssue(
            kind="EnergizedAfterTrip",
            elements=tuple(component) + tuple(live_ders),
            explanation=(
                f"segment {{{', '.join(component)}}} is isolated "
                f"from the external source but DER "
                f"{', '.join(live_ders)} keep injecting")))
    return issues


@dataclass(frozen=True)
class TopologyKey:
    """Grid configuration a setting group is tied to."""

    islanded: bool
    connected_ders: frozenset[str]

    @classmethod
    def of(cls, islanded: bool, connected_ders) -> "TopologyKey":
        return cls(islanded=islanded, connected_ders=frozenset(connected_ders))


@dataclass(frozen=True)
class SettingGroupResult:
    settings: dict[str, float]
    held: bool                 # True when stale settings were kept


class SettingGroupTable:
    """Pre-configured relay settings per grid configuration.

    Lookup is exact-match on the topology key. On a miss the previously
    applied settings are kept (communication-failure hold rule); with no
    prior application a miss is an error.
    """

    def __init__(self, groups: dict[TopologyKey, dict[str, float]],
                 breaker_ids=()):
        if not groups:
            raise InvalidInputError("setting groups: table must be non-empty")
        for key, settings in groups.items():
            violations = check_settings(settings, breaker_ids)
            if violations:
                raise InvalidInputError(
                    f"setting group {key}: {'; '.join(violations)}")
        self.groups = dict(groups)
        self._last: dict[str, float] | None = None


def apply_setting_group(table: SettingGroupTable, key: TopologyKey) -> SettingGroupResult:
    """Settings for a topology key, holding the previous ones on a miss."""
    group = table.groups.get(key)
    if group is not None:
        table._last = dict(group)
        return SettingGroupResult(settings=dict(group), held=False)
    if table._last is not None:
        return SettingGroupResult(settings=dict(table._last), held=True)
    raise UnconfiguredError(
        f"no setting group for {key} and no previously applied settings to hold")


@dataclass(frozen=True, eq=False)
class FaultSignatureMap:
    """Expected per-DER fault arrivals per candidate location.

    Row i of signatures is the arrival vector, in der_ids order, of a
    fault at candidates[i] on the intact network with every DER
    injecting. It is the closed-form arrival share of _fault_share on
    the compiled feeder, so no candidate is solved; the shares differ
    by location because the impedance split toward the fault does.
    Candidates are kept sorted, which makes the lowest row win a tie.
    """

    network: RadialNetwork
    der_ids: tuple[str, ...]
    candidates: tuple[tuple[str, str], ...]
    signatures: np.ndarray
    fault_impedance_pu: float
    position: float

    @property
    def entries(self) -> dict[tuple[str, str], tuple[float, ...]]:
        """Signature per candidate location, read from the matrix."""
        return dict(zip(self.candidates, map(tuple, self.signatures.tolist())))


def build_fault_signature_map(network: RadialNetwork, candidates=None,
                              fault_impedance_pu: float = 0.0,
                              position: float = 0.5) -> FaultSignatureMap:
    """Characterize every protectable element by its DER arrival vector."""
    tree = network.compiled
    if candidates is None:
        candidates = [("line", ln.id) for ln in network.lines]
    candidates = tuple(sorted(set(map(tuple, candidates))))
    points = [_fault_point(network, FaultScenario(kind, element_id,
                                                  fault_impedance_pu, position))
              for kind, element_id in candidates]
    cols = np.array(points, dtype=float).reshape(-1, 3)
    top, low, z_fault = cols[:, :1].astype(int), cols[:, 1:2].astype(int), cols[:, 2:]
    ders = sorted(network.ders, key=lambda d: d.id)
    der_bus = np.array([tree.bus_index[d.bus] for d in ders], dtype=int)
    i_max = np.array([d.i_max_pu for d in ders])
    src = network.source
    root = tree.pieces(())
    fed = src.available & (root[top] == tree.bus_index[src.bus])
    live = (i_max > 0) & math.isfinite(fault_impedance_pu)
    signatures = np.empty((len(candidates), len(ders)))
    for rows in (slice(i, i + 128) for i in range(0, len(candidates), 128)):
        # Blocks of rows keep the temporaries small next to the result.
        share = _fault_share(tree, src.impedance_pu, fault_impedance_pu, top[rows],
                             low[rows], z_fault[rows], der_bus)
        signatures[rows] = np.where((root[top[rows]] == root[der_bus]) & live,
                                    np.where(fed[rows], i_max * share, i_max), 0.0)
    return FaultSignatureMap(network=network, der_ids=tuple(d.id for d in ders),
                             candidates=candidates, signatures=signatures,
                             fault_impedance_pu=fault_impedance_pu,
                             position=position)


@dataclass(frozen=True)
class LocateResult:
    """Located fault plus the trip plan and its verified effect.

    residual_fault_current_pu is the current still feeding the fault
    after the plan executes (failed breakers stay closed): nonzero means
    in-plan-region DER keep the fault alive, the signal the scheme keeps
    watching to decide on further escalation.
    """

    location: tuple[str, str]
    breakers_to_open: tuple[str, ...]
    escalated: bool
    cleared_from_source: bool
    residual_fault_current_pu: float


_TOLERANCE = number(gt=0)


def centralized_locate_fault(measured: dict[str, float], fmap: FaultSignatureMap,
                             tolerance: float,
                             failed_breakers=frozenset()) -> LocateResult:
    """Match a measured per-DER injection vector to a fault location.

    The nearest stored signature wins if it lies within tolerance and
    beats the second-best by at least the tolerance. The result carries
    the closest isolating breakers; breakers reported failed are bypassed
    by escalating outward to the next one, and the plan is re-solved to
    report whether the fault persists.
    """
    require(("tolerance", _TOLERANCE, tolerance))
    try:    # one pass: a string raises TypeError, an int beyond a float OverflowError
        finite = all(map(math.isfinite, measured.values()))
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise InvalidInputError("measured: injections must be finite")
    vec = np.array([measured.get(d, 0.0) for d in fmap.der_ids], dtype=float)
    if np.all(np.abs(vec) <= 1e-12):
        raise NoFaultDetectedError("measurement vector is zero; grid looks healthy")
    if not fmap.candidates:
        raise NoFaultDetectedError("the signature map holds no candidate location")
    # np.linalg.norm(gap, axis=1)'s bits without its conj() and .real copies.
    gap = fmap.signatures - vec
    dist = np.sqrt(np.add.reduce(np.multiply(gap, gap, out=gap), axis=1))
    best = int(np.argmin(dist))   # the lowest row wins a tie
    best_d, best_loc = float(dist[best]), fmap.candidates[best]
    if best_d > tolerance:
        raise NoFaultDetectedError(
            f"nearest signature ({best_loc[0]} {best_loc[1]}) is {best_d:.4f} pu "
            f"away, beyond tolerance {tolerance:g}")
    dist[best] = np.inf   # a lone row's runner-up is inf: never within tolerance
    runner_up = int(np.argmin(dist))
    if dist[runner_up] - best_d < tolerance:
        second = fmap.candidates[runner_up]
        raise AmbiguousLocationError(
            f"{best_loc[0]} {best_loc[1]} and {second[0]} {second[1]} "
            f"both match within tolerance")
    breakers, escalated = _isolating_breakers(
        fmap.network, best_loc, set(failed_breakers), fmap.position)

    # Re-solve with the plan executed (failed breakers stay closed) to
    # check what still feeds the fault.
    fault = FaultScenario(*best_loc, fmap.fault_impedance_pu, fmap.position)
    plan_lines = {fmap.network.compiled.breaker[bid].line for bid in breakers}
    after = solve_fault_currents(fmap.network, fault, open_lines=plan_lines,
                                 allow_dead_fault=True)
    return LocateResult(location=best_loc,
                        breakers_to_open=tuple(sorted(breakers)),
                        escalated=escalated,
                        cleared_from_source=not after.source_feeds_fault,
                        residual_fault_current_pu=after.i_fault_pu)


def _isolating_breakers(network: RadialNetwork, location, failed: set[str],
                        position: float):
    """Smallest working-breaker cut around a fault location.

    Grows the de-energized region outward from the fault through lines
    without a working breaker; working breakers on the boundary form the
    plan. Escalation happens implicitly: a failed breaker is transparent,
    so the region grows past it to the next one out.
    """
    tree = network.compiled
    top, low, _z = _fault_point(network, FaultScenario(*location, 0.0, position))
    split = tree.up_line[low] if top != low else -1
    region, plan, queue = set(), set(), deque()
    escalated = False

    def reach(bus, breakers):
        nonlocal escalated
        if bus in region:
            return
        working = [b.id for b in breakers if b.id not in failed]
        if working:
            plan.update(working)
            return
        escalated = escalated or bool(breakers)
        region.add(bus)
        queue.append(bus)

    if split >= 0:
        # From the fault node inside the line: the near end carries the
        # line's breakers, the far end none.
        near, far = tree.ends[split]
        reach(near, tree.line_breakers[split])
        reach(far, ())
    else:
        reach(top, ())
    while queue:
        v = queue.popleft()
        for k, w in tree.incident[v]:
            if k != split:
                reach(w, tree.line_breakers[k])
    if network.source.available and tree.bus_index[network.source.bus] in region:
        raise IsolationError(
            "no working breaker separates the fault from the external source")
    return plan, escalated
