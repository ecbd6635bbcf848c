"""Quasi-static fault currents and breaker behavior on radial feeders.

The network model is magnitude-only per-unit phasor: real impedances,
an external voltage source behind a source impedance, distributed
generation as ideal current sources with a fault-injection cap, and
definite-time breakers.

Each network is compiled once into a rooted tree of bus indices
(RadialNetwork.compiled): buses parent before child, each bus's parent
line and its orientation, the impedance z from the root and breaker
indexes. One function (_fault_feed) gives the source, DER and fault
currents of a fault; a fault solve places them as nodal injections and
sums them over subtrees (the backward sweep of radial load flow, in an
order that fixes the sums' bits), giving every line current as one
array; exact on radial networks, and an open line cuts its subtree off.
The compile holds every subtree's sum for each set of injectors that a
piece of the feeder can have (the DER alone, the healthy load flow with
or without DER, nothing); a solve re-folds, in the same order, only the
buses above the fault and above each open line.

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
injections against precomputed fault signatures. The locator screens
every signature with one matrix-vector product under a stated rounding
bound and takes exact distances only on the rows that can still win,
so its decisions are those of exact distances over the whole map; it
checks its trip plan with _fault_feed alone, without a line-current
sweep.
"""

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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
        if not math.isfinite(self.source.impedance_pu + sum(ln.impedance_pu for ln in self.lines)):
            # Every impedance toward the source, and every share, is then finite.
            out.append("lines: source and line impedances sum past the float range")
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
    up_line[v] is the line above bus v, and sign[v] is +1 when it is
    stored parent -> v, else -1. bottom_up is (bus, parent) in reversed
    preorder; a root's parent is n, and kids[v] lists v's children in
    that order. The live DER (injecting, with current) are live_ids,
    live_bus and live_i. held[loads, der] is _hold's values for the
    intact feeder with the loads, the live DER, both or neither
    injecting; a solve re-folds from them (sweep).
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
        live = [d for d in net.ders if d.injecting and d.i_max_pu > 0]
        self.live_ids = np.array([d.id for d in live], dtype=object)
        self.live_bus = np.array([self.bus_index[d.bus] for d in live], dtype=int)
        self.live_i = np.array([d.i_max_pu for d in live], dtype=float)
        # The healthy load flow's injections, (bus, amount), by grid_only:
        # the live DER unless grid_only, then the loads.
        load_bus = np.array([self.bus_index[ld.bus] for ld in net.loads], dtype=int)
        load_i = np.array([-ld.current_pu for ld in net.loads], dtype=float)
        self.load_flow = {False: (np.concatenate((self.live_bus, load_bus)),
                                  np.concatenate((self.live_i, load_i))),
                          True: (load_bus, load_i)}
        self.incident = [[] for _ in range(n)]
        for k, (a, b) in enumerate(self.ends):
            self.incident[a].append((k, b))
            self.incident[b].append((k, a))
        parent, up_line, sign = [-1] * n, [-1] * n, [1] * n
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
                        z[w] = z[v] + net.lines[k].impedance_pu
                        self.child[k] = w
                        stack.append(w)
        self.order, self.parent, self.up_line, self.sign = order, parent, np.array(up_line), sign
        self.bottom_up = [(v, n if parent[v] < 0 else parent[v]) for v in reversed(order)]
        self.z = np.array(z)
        self.line_sign = np.array(sign)[self.child]
        size, self.kids = [1] * (n + 1), [[] for _ in range(n + 1)]
        for v, p in self.bottom_up:
            size[p] += size[v]
            self.kids[p].append(v)
        zeros = [0.0] * (n + 1)
        self.held = {(False, True): self._hold(self.live_bus, self.live_i),
                     (True, True): self._hold(*self.load_flow[False]),
                     (True, False): self._hold(*self.load_flow[True]),
                     (False, False): (zeros, zeros, np.zeros(len(net.lines)))}
        self.tin = np.empty(n, dtype=int)
        self.tin[order] = np.arange(n)
        self.tout = self.tin + np.array(size[:n])
        self.root_pre = np.array(root)[order]
        self.roots = self.pieces(())
        self.forest = bool((self.roots != self.roots[0]).any())

    def root_path(self, v) -> list[int]:
        """The buses from bus v up to the root of its component, v first."""
        path, parent = [v], self.parent
        while (v := parent[v]) >= 0:
            path.append(v)
        return path

    def meet(self, path, u):
        """The lowest common ancestor of path[0] and bus indices u, for a
        root path (root_path), elementwise: the deepest bus of the path
        whose preorder slice [tin, tout) holds u. Up the path tin falls
        and tout never does, so each bound is one binary search. A bus of
        another component gets the path's root."""
        path, at = np.fromiter(path, int, len(path)), self.tin[u]
        starts = self.tin[path[::-1]].searchsorted(at, "right")   # tin <= at
        ends = self.tout[path].searchsorted(at, "right")          # tout <= at
        return path[np.minimum(np.maximum(len(path) - starts, ends), len(path) - 1)]

    def _hold(self, bus, amounts):
        """(injection, subtree sum in bottom_up order, line current) per bus or line."""
        own = [0.0] * (len(self.bottom_up) + 1)
        for v, amount in zip(bus.tolist(), amounts.tolist()):
            own[v] += amount
        sums = own.copy()
        for v, p in self.bottom_up:
            sums[p] += sums[v]
        return own, sums, 0.0 - self.line_sign * np.array(sums)[self.child]

    def sweep(self, feed, cut, piece, inject):
        """(line currents, subtree sum of bus feed.low) of a fault feed once
        the lines above the buses in cut are open, piece being pieces(cut).

        inject maps the top bus of a piece to the held values (own, sums,
        line currents) that it keeps; other pieces inject nothing. Only
        the buses from feed.low and from each cut bus's parent up to their
        root are re-folded, as the held sums were: the bus's injection,
        the fault's draw, then its children in bottom_up order, a cut
        child adding nothing. A walk ends at a cut bus, whose parent starts
        a walk of its own, so a run lies in one piece; folding the runs in
        the reverse of the order found folds each bus after its re-folded
        children.
        """
        parent, kids, at, i_fault = self.parent, self.kids, -1, feed.i_fault
        runs, seen, starts = [], set(), []
        up = {}   # a cut bus adds 0.0 (no sum is -0.0, so it adds nothing), a run's top its sum
        for c in cut:
            starts.append(parent[c])
            up[c] = 0.0
        if feed.top is not None:
            low, at = feed.low, feed.low if feed.upper_open else feed.top
            if feed.path is None:
                starts.insert(0, low)
            else:   # fed: low's root path, where only low's own line may be open
                run = feed.path[1:-1] if low in cut else feed.path[:-1]
                runs += [run] if run else []
                seen.update(run if cut else ())
        for v in starts:
            run = []
            while v not in seen and parent[v] >= 0:
                seen.add(v)
                run.append(v)
                if v in cut:
                    break
                v = parent[v]
            runs += [run] if run else []
        buses, folded = [], []
        for run in reversed(runs):
            own, sums, _currents = inject.get(piece[run[0]], self.held[False, False])
            below, prev = -1, 0.0
            for u in run:
                acc = own[u] - i_fault if u == at else own[u]
                for c in kids[u]:
                    acc += prev if c == below else up[c] if c in up else sums[c]
                folded.append(acc)
                below, prev = u, acc
            buses += run
            if below not in cut:
                up[below] = acc
        if cut or self.forest:
            values, line_piece = np.zeros(len(self.child)), piece[self.child]
            for top, (_own, _sums, currents) in inject.items():
                np.copyto(values, currents, where=line_piece == top)
        else:   # one piece
            values = inject.get(self.order[0], self.held[False, False])[2].copy()
        lines = self.up_line[np.fromiter(buses, int, len(buses))]
        values[lines] = 0.0 - self.line_sign[lines] * np.fromiter(folded, float, len(folded))
        if cut:
            values[self.up_line[list(cut)]] = 0.0
        # runs[0], folded last, starts at feed.low when a split line's lower segment is closed.
        return values, folded[-len(runs[0])] if runs and runs[0][0] == feed.low else None

    def cut_below(self, open_lines) -> set[int]:
        """The buses whose line to their parent is open; an unknown line
        id raises InvalidInputError."""
        try:
            return {int(self.child[self.line_index[lid]]) for lid in open_lines}
        except KeyError:
            unknown = ", ".join(sorted(map(repr, set(open_lines) - self.line_index.keys())))
            raise InvalidInputError(f"open_lines: unknown lines: {unknown}") from None

    def open(self, open_lines) -> tuple[set[int], np.ndarray]:
        """cut_below(open_lines) and the pieces of that cut."""
        cut = self.cut_below(open_lines)
        return cut, self.pieces(cut) if cut else self.roots

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


def _fault_point(network: RadialNetwork, kind, element_id, pos):
    """Where a fault on element (kind, element_id), at position pos along
    a line, sits on the compiled tree: (top, low, z from the root).

    A bus fault, or a line fault at a terminal, sits on bus top == low.
    A fault inside a line sits between bus top and the bus low below it.
    """
    tree = network.compiled
    if kind == "bus":
        if element_id not in tree.bus_index:
            raise InvalidInputError(f"fault.element_id: unknown bus {element_id!r}")
        bus = tree.bus_index[element_id]
        return bus, bus, float(tree.z[bus])
    if element_id not in tree.line_index:
        raise InvalidInputError(f"fault.element_id: unknown line {element_id!r}")
    k = tree.line_index[element_id]
    if pos <= 1e-9 or pos >= 1.0 - 1e-9:
        bus = tree.ends[k][0 if pos <= 1e-9 else 1]
        return bus, bus, float(tree.z[bus])
    low = int(tree.child[k])
    top = tree.parent[low]
    upper = pos if tree.sign[low] > 0 else 1.0 - pos
    return top, low, float(tree.z[top]) + network.lines[k].impedance_pu * upper


def _fault_share(tree: _CompiledFeeder, z_src, z_f, low, z_fault, joint):
    """Share of each DER's current that arrives at a source-fed fault.

    The current splits at junction j inversely to the impedances toward
    the source (Zs + z[j]) and toward the fault (z[f] - z[j] + Zf).
    Broadcasts over faults and DER. joint is where each DER's root path
    meets bus low's, _CompiledFeeder.meet of the two; a DER whose joint
    is low sits below the fault and joins at the fault node. A loop
    impedance past the float range gives a share of 0.
    """
    z_j = np.where(joint == low, z_fault, tree.z[joint])
    z_left = z_src + z_j
    with np.errstate(over="ignore"):
        return z_left / (z_left + ((z_fault - z_j) + z_f))


class _Feed(NamedTuple):
    """What feeds a fault: see _fault_feed."""

    fed: bool
    i_fault: float
    i_grid: float
    contributions: dict
    arrivals: dict
    top: int | None         # the fault's place (_fault_point); None without a fault
    low: int | None
    upper_open: bool        # the open near segment of a split line is its upper one
    path: list | None       # root_path(low) when the source feeds the fault


def _fault_feed(network: RadialNetwork, fault: FaultScenario | None, grid_only, cut,
                piece) -> _Feed:
    """The currents that feed a fault once the lines above cut are open.

    cut and piece are _CompiledFeeder.open of the open lines (piece is
    the top bus of every bus's piece). The live DER inject, or none does
    with grid_only. The source drives V / (Zs + z[f] + Zf) into a fault
    in its piece, and each DER of the fault's piece delivers its arrival
    share, the rest flowing back to the source; a fault the source
    cannot reach takes the DER's full injections. Without a fault
    nothing feeds it. The currents are left folds in unit order, the
    source term first.
    """
    if fault is None or not fault.is_fault:
        return _Feed(False, 0.0, 0.0, {}, {}, None, None, False, None)
    tree, src = network.compiled, network.source
    top, low, z_f = _fault_point(network, fault.element_kind, fault.element_id,
                                 fault.position)
    # An open split line loses its near segment only: the upper one
    # when the line is stored top -> low, else the lower one.
    upper_open = top != low and low in cut and tree.sign[low] > 0
    f_piece = piece[low] if upper_open else piece[top]
    fed = bool(src.available and piece[tree.bus_index[src.bus]] == f_piece)
    path = tree.root_path(low) if fed else None
    i_fault = i_grid = 0.0
    if fed:
        i_fault = i_grid = src.voltage_pu / (src.impedance_pu + z_f + fault.impedance_pu)
    if grid_only or not len(tree.live_ids):
        return _Feed(fed, i_fault, i_grid, {}, {}, top, low, upper_open, path)
    ids, bus, cur = tree.live_ids, tree.live_bus, tree.live_i
    if cut or tree.forest:
        take = piece[bus] == f_piece
        ids, bus, cur = ids[take], bus[take], cur[take]
    arrive = cur
    if fed and len(bus):
        share = _fault_share(tree, src.impedance_pu, fault.impedance_pu, low, z_f,
                             tree.meet(path, bus))
        arrive = cur * share
        i_grid = float(np.subtract.accumulate(np.concatenate(([i_grid], cur * (1 - share))))[-1])
    i_fault = float(np.add.accumulate(np.concatenate(([i_fault], arrive)))[-1])
    ids = ids.tolist()
    return _Feed(fed, i_fault, i_grid, dict(zip(ids, cur.tolist())),
                 dict(zip(ids, arrive.tolist())), top, low, upper_open, path)


def solve_fault_currents(network: RadialNetwork, fault: FaultScenario | None,
                         open_lines=frozenset(), *, allow_dead_fault: bool = False,
                         grid_only: bool = False) -> FaultSolution:
    """Solve branch currents for a fault (or the healthy network).

    _fault_feed gives the source, DER and fault currents of a fault;
    this solve places them as nodal injections and sums them over
    subtrees into line currents. Each DER feeds in by its own injecting
    flag, or none does with grid_only. open_lines removes tripped lines,
    known ids only (the far side of a split faulted line stays
    connected, the breaker sits on the near side).

    Of the pieces that the open lines leave, the fault's injects its DER
    and the source's, unless the source feeds the fault, the healthy load
    flow, whose net injection streams to the source as i_grid. The sweep
    (_CompiledFeeder.sweep) re-folds only what the fault and cut change.
    """
    tree, src = network.compiled, network.source
    cut, piece = tree.open(open_lines)
    feed = _fault_feed(network, fault, grid_only, cut, piece)
    top, low, i_fault = feed.top, feed.low, feed.i_fault
    if top is not None and not feed.fed and i_fault == 0.0 and not allow_dead_fault:
        raise UnreachableFaultError(
            "fault is disconnected from the external source and from any "
            "injecting DER")
    inject, i_grid = {}, feed.i_grid
    if top is not None:
        inject[piece[low] if feed.upper_open else piece[top]] = tree.held[False, not grid_only]
    if src.available and not feed.fed:
        s = piece[tree.bus_index[src.bus]]
        bus, amounts = tree.load_flow[grid_only]
        # A left fold in unit order: np.add.accumulate keeps the order.
        i_grid = -float(np.add.accumulate(np.concatenate(([0.0], amounts[piece[bus] == s])))[-1])
        inject[s] = tree.held[True, not grid_only]
    values, low_sum = tree.sweep(feed, cut, piece, inject)
    split_line, far = None, 0.0
    if top is not None and top != low:
        # The segment below the fault carries the current of low's subtree.
        lower_open = low in cut and not feed.upper_open
        up_lower = 0.0 if lower_open else low_sum + (i_fault if feed.upper_open else 0.0)
        up_upper = 0.0 if feed.upper_open else up_lower - i_fault
        k = tree.up_line[low]
        split_line = tree.line_ids[k]
        values[k], far = (-up_upper, -up_lower) if tree.sign[low] > 0 else (up_lower, up_upper)
    return FaultSolution(network=network, line_currents=values, i_fault_pu=i_fault,
                         i_grid_pu=i_grid, der_contributions_pu=feed.contributions,
                         der_fault_arrivals_pu=feed.arrivals, source_feeds_fault=feed.fed,
                         split_line=split_line, far_pu=far)


def source_fault_path_lines(network: RadialNetwork, fault: FaultScenario) -> set[str]:
    """Line ids on the topological path from the source bus to the fault."""
    tree = network.compiled
    _top, low, _z = _fault_point(network, fault.element_kind, fault.element_id,
                                 fault.position)
    path = tree.root_path(low)
    if path[-1] != tree.bus_index[network.source.bus]:
        return set()
    return {tree.line_ids[k] for k in tree.up_line[path[:-1]].tolist()}


def simulate_protection(network: RadialNetwork, fault: FaultScenario,
                        settings: dict[str, float]) -> ProtectionReport:
    """Run the breaker reaction to a fault to its fixpoint and screen it.

    Iteratively solves the fault currents, arms every closed breaker
    whose current exceeds its trip setting, trips the earliest deadline
    (simultaneous deadlines trip together), re-solves on the post-trip
    topology, and repeats until quiescent. Afterwards the three
    DER-induced misoperations are detected and attached. DER in-feed
    follows each unit's injecting flag, except in the one grid-only
    solve (grid_only) that Blinding is judged against.
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
    no_der = solve_fault_currents(network, fault, allow_dead_fault=True, grid_only=True)
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
    _cut, piece = tree.open(open_lines)
    grid = piece[tree.bus_index[network.source.bus]] if network.source.available else -1
    live: dict[int, list[str]] = {}
    for did, top in zip(tree.live_ids.tolist(), piece[tree.live_bus].tolist()):
        live.setdefault(top, []).append(did)
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
    injecting. Column j is DER j's closed-form arrival share
    (_fault_share), each candidate's junction being where the DER's root
    path meets the candidate's low bus (_CompiledFeeder.meet), so no
    candidate is solved; the shares differ by location because the
    impedance split toward the fault does.
    Candidates are kept sorted, which makes the lowest row win a tie.
    """

    network: RadialNetwork
    der_ids: tuple[str, ...]
    candidates: tuple[tuple[str, str], ...]
    signatures: np.ndarray
    fault_impedance_pu: float
    position: float

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """Each row's squared Euclidean norm, which the locator's screen
        reads (centralized_locate_fault)."""
        return np.einsum("ij,ij->i", self.signatures, self.signatures)


def build_fault_signature_map(network: RadialNetwork, candidates=None,
                              fault_impedance_pu: float = 0.0,
                              position: float = 0.5) -> FaultSignatureMap:
    """Characterize every protectable element by its DER arrival vector.

    fault_impedance_pu, position and each candidate's kind obey the rows
    of FaultScenario; an unknown element id raises InvalidInputError.
    """
    tree = network.compiled
    if candidates is None:
        candidates = [("line", ln.id) for ln in network.lines]
    candidates = tuple(sorted(set(map(tuple, candidates))))
    kind = row(FaultScenario, "element_kind")
    require(("fault_impedance_pu", row(FaultScenario, "impedance_pu"), fault_impedance_pu),
            ("position", row(FaultScenario, "position"), position),
            *(("candidates", kind, k) for k in {k for k, _ in candidates}))
    points = [_fault_point(network, k, element_id, position) for k, element_id in candidates]
    cols = np.array(points, dtype=float).reshape(-1, 3)
    top, low, z_fault = cols[:, 0].astype(int), cols[:, 1].astype(int), cols[:, 2]
    ders = sorted(network.ders, key=lambda d: d.id)
    src, root = network.source, tree.roots
    fed = src.available & (root[top] == tree.bus_index[src.bus])
    signatures = np.zeros((len(candidates), len(ders)))
    for j, d in enumerate(ders):
        if d.i_max_pu == 0 or not math.isfinite(fault_impedance_pu):
            continue
        bus = tree.bus_index[d.bus]
        share = _fault_share(tree, src.impedance_pu, fault_impedance_pu, low, z_fault,
                             tree.meet(tree.root_path(bus), low))
        signatures[:, j] = np.where(root[top] == root[bus],
                                    np.where(fed, d.i_max_pu * share, d.i_max_pu), 0.0)
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
    watching to decide on further escalation. cleared_from_source is True
    for every result: a plan that would leave an available source in the
    fault's region raises IsolationError instead.
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
    by escalating outward to the next one. A measured DER id or a failed
    breaker id the network does not hold raises InvalidInputError. The
    plan's check reads only what still feeds the fault once the plan's
    lines are open (_fault_feed), not the line currents.

    A screen (_screen_rows) bounds every row's distance with one
    matrix-vector product, and exact distances (_distances) are taken
    only on the rows that can still win or tie within tolerance. The
    decision, the rows it names and every message are those of exact
    distances over the whole map.
    """
    require(("tolerance", _TOLERANCE, tolerance))
    try:    # one pass: a string raises TypeError, an int beyond a float OverflowError
        finite = all(map(math.isfinite, measured.values()))
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise InvalidInputError("measured: injections must be finite")
    unknown = ", ".join(sorted(map(repr, measured.keys() - fmap.der_ids)))
    if unknown:
        raise InvalidInputError(f"measured: unknown DERs: {unknown}")
    failed = set(failed_breakers)
    unknown = ", ".join(sorted(map(repr, failed - fmap.network.compiled.breaker.keys())))
    if unknown:
        raise InvalidInputError(f"failed_breakers: unknown breakers: {unknown}")
    vec = np.array([measured.get(d, 0.0) for d in fmap.der_ids], dtype=float)
    if np.all(np.abs(vec) <= 1e-12):
        raise NoFaultDetectedError("measurement vector is zero; grid looks healthy")
    if not fmap.candidates:
        raise NoFaultDetectedError("the signature map holds no candidate location")
    rows = _screen_rows(fmap, vec, tolerance)
    dist = _distances(fmap, vec, rows)
    best = int(np.argmin(dist))   # rows ascend, so the lowest row wins a tie
    best_d, best_loc = float(dist[best]), fmap.candidates[rows[best]]
    if best_d > tolerance:
        raise NoFaultDetectedError(
            f"nearest signature ({best_loc[0]} {best_loc[1]}) is {best_d:.4f} pu "
            f"away, beyond tolerance {tolerance:g}")
    dist[best] = np.inf   # a lone row's runner-up is inf: never within tolerance
    runner_up = int(np.argmin(dist))
    if dist[runner_up] - best_d < tolerance:
        second = fmap.candidates[rows[runner_up]]
        raise AmbiguousLocationError(
            f"{best_loc[0]} {best_loc[1]} and {second[0]} {second[1]} "
            f"both match within tolerance")
    network = fmap.network
    breakers, escalated = _isolating_breakers(
        network, best_loc, failed, fmap.position)

    # Execute the plan (failed breakers stay closed) and check what still
    # feeds the fault.
    tree = network.compiled
    cut, piece = tree.open({tree.breaker[bid].line for bid in breakers})
    after = _fault_feed(network, FaultScenario(*best_loc, fmap.fault_impedance_pu,
                                               fmap.position),
                        False, cut, piece)
    return LocateResult(location=best_loc,
                        breakers_to_open=tuple(sorted(breakers)),
                        escalated=escalated,
                        cleared_from_source=not after.fed,
                        residual_fault_current_pu=after.i_fault)


def _screen_rows(fmap: FaultSignatureMap, vec: np.ndarray, tolerance: float) -> np.ndarray:
    """The ascending signature rows that can win or tie within tolerance.

    Row i's squared distance d2 = |s|^2 - 2 s.v + |v|^2 is screened as
    q with one matrix-vector product and the stored |s|^2. With n DER and
    unit roundoff u, Higham's bound for dot products and sums in any
    order (Accuracy and Stability of Numerical Algorithms, 2002, 3.1)
    gives |q - d2| <= 2 gamma(n+2) (|s|^2 + |v|^2), where gamma(k) =
    k u / (1 - k u), and the exact pass's distance D has
    |D^2 - d2| <= 2 gamma(n+4) (|s|^2 + |v|^2). slack, 16 (n + 4) u times
    the computed |s|^2 + |v|^2, is about four times the sum of the two
    bounds, which leaves room for the roundings of slack and of
    q - slack. So D^2 lies within q +- slack, the least D is at most
    h = sqrt(min(q + slack)), and a row whose D lies within tolerance of
    the least has q - slack <= (h + tolerance)^2; the factor 1 + 2^-40
    covers the few roundings of that limit. If a screen value is not
    finite (an injection near the float range), every row is kept.
    """
    with np.errstate(all="ignore"):   # the overflow falls back to every row
        vv = vec @ vec
        q = fmap.sq_norms - 2.0 * (fmap.signatures @ vec) + vv
        slack = (16 * (len(vec) + 4) * 2.0 ** -53) * (fmap.sq_norms + vv)
        low = q - slack
        if not np.isfinite(low).all():
            return np.arange(len(fmap.candidates))
        reach = math.sqrt(float(np.min(q + slack))) + tolerance
        return np.flatnonzero(low <= reach * reach * (1.0 + 2.0 ** -40))


def _distances(fmap: FaultSignatureMap, vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Euclidean distances from vec to the signature rows listed in rows.

    np.linalg.norm(gap, axis=1)'s bits without its conj() and .real
    copies. Each row is summed on its own, so a row's distance has the
    same bits whichever rows are taken with it. A gap whose square
    overflows gives an inf distance, with no warning.
    """
    gap = fmap.signatures[rows] - vec
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(np.multiply(gap, gap, out=gap), axis=1))


def _isolating_breakers(network: RadialNetwork, location, failed: set[str],
                        position: float):
    """Smallest working-breaker cut around a fault location.

    Grows the de-energized region outward from the fault through lines
    without a working breaker; working breakers on the boundary form the
    plan. Escalation happens implicitly: a failed breaker is transparent,
    so the region grows past it to the next one out.
    """
    tree = network.compiled
    top, low, _z = _fault_point(network, *location, position)
    split = int(tree.up_line[low]) if top != low else -1
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
