"""Bottom-up restoration of a collapsed grid.

After a total blackout, grid-forming units restart their switch-delimited
areas as islands (microgrids), grid-supporting and grid-feeding units
reconnect behind them, and neighboring islands are energized or merged
step by step. Every coordination step is gated by the communication
system: comm nodes run only while their bus is powered or an emergency
battery lasts, and their radio range is a disk of the cell radius.

A merge of two live islands additionally passes a synchronization check:
equal frequency and a phase shift below the policy threshold. Phase
alignment is a seeded draw whose window halves on every retry.

Monte Carlo studies sample battery placement with common random numbers
across parameter cells (see monte_carlo).

Each scenario is compiled once (RestorationScenario.compiled): comm-node
and bus distances and the area-switch adjacency, none of which battery
flags or cell radii change. A run turns its radii into link and coverage
sets, and the disk-graph components of each operational node set are
computed once and reused by later rounds and, within one Monte Carlo
study, by later runs; a comm graph is just that tuple of components,
one int bitset of comm nodes each. Single runs and Monte Carlo runs go
through run_restoration.

An island is its set of areas, an int with one bit per area in
sorted-name order. What that set fixes, its load split, its follower
candidates, its comm nodes and its switch neighbors, is built once per
distinct area set and kept with the compiled scenario.
"""

import itertools
import math
import random
import statistics
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GridResError, InvalidInputError
from .fields import choice, duplicates, flag, num, number, obj, require, row, seq, table, text

FORMATION_DELAY_S = 60.0       # collapse to first island
FOLLOWER_DELAY_S = 30.0        # island formation to follower reconnection
ROUND_DELAY_S = 30.0           # between agent coordination rounds
NOMINAL_FREQUENCY_HZ = 50.0
MAX_RUNS = 10_000              # Monte Carlo replicates per study
_EQ_TOL = 1e-9


class SyncRejectedError(GridResError):
    """Synchronization condition violated; carries the measured deltas."""

    def __init__(self, freq_delta_hz: float, phase_delta_rad: float):
        self.freq_delta_hz = freq_delta_hz
        self.phase_delta_rad = phase_delta_rad
        super().__init__(
            f"sync rejected: |df|={freq_delta_hz:.4f} Hz, "
            f"|dphase|={phase_delta_rad:.4f} rad")


class DerCapability(str, Enum):
    GRID_FORMING = "grid_forming"
    GRID_SUPPORTING = "grid_supporting"
    GRID_FEEDING = "grid_feeding"


class ServiceClass(str, Enum):
    UNACCEPTABLE = "unacceptable"
    IMPAIRED = "impaired"
    ACCEPTABLE = "acceptable"


# Stage progression: S2 collapse, S3 island formation, S4 follower
# reconnection, then interleaved expansion into dead areas (S4') and
# island merges (S5), closed by the maximum-extent marker S5'.
STAGE_RANK = {"S1": 0, "S2": 1, "S3": 2, "S4": 3, "S4'": 4, "S5": 4, "S5'": 5}
# Grid-supporting units reconnect before grid-feeding ones.
_FOLLOWER_RANK = {DerCapability.GRID_SUPPORTING: 0, DerCapability.GRID_FEEDING: 1}


@table
class BusPoint:
    id: str = text()
    x_km: float = num()
    y_km: float = num()
    area: str = text()


@table
class LoadAsset:
    bus: str = text()
    demand_mw: float = num(ge=0)
    critical: bool = flag(False)


@table
class DerAsset:
    id: str = text()
    bus: str = text()
    capability: DerCapability = choice(DerCapability)
    capacity_mw: float = num(ge=0)
    aux_power_mw: float = num(0.0, ge=0)   # start-up power drawn before self-supply


@table
class AreaSwitch:
    id: str = text()
    area_a: str = text()
    area_b: str = text()


@table
class CommNode:
    bus: str = text()
    has_battery: bool = flag(False)
    battery_kwh: float = num(0.0, ge=0)
    drain_kw: float = num(0.5, ge=0)
    cell_radius_km: float = num(2.0, gt=0)


@table
class SyncPolicy:
    max_phase_shift_rad: float = num(0.2, gt=0)
    max_freq_diff_hz: float = num(0.01, ge=0)


@table
class RestorationScenario:
    """Buses with positions, loads, DER fleet, switch topology and comm."""

    buses: tuple[BusPoint, ...] = seq(BusPoint)
    loads: tuple[LoadAsset, ...] = seq(LoadAsset)
    ders: tuple[DerAsset, ...] = seq(DerAsset)
    switches: tuple[AreaSwitch, ...] = seq(AreaSwitch)
    comm: tuple[CommNode, ...] = seq(CommNode)
    sync_policy: SyncPolicy = obj(SyncPolicy, SyncPolicy())

    def invariants(self):
        """Unknown references, duplicate ids and finite totals."""
        bus_ids = {b.id for b in self.buses}
        areas = {b.area for b in self.buses}
        out = (duplicates("buses", [b.id for b in self.buses])
               + duplicates("ders", [d.id for d in self.ders])
               + duplicates("comm", [c.bus for c in self.comm]))
        out += [f"loads[{i}].bus: unknown bus {load.bus!r}"
                for i, load in enumerate(self.loads) if load.bus not in bus_ids]
        out += [f"ders[{d.id}].bus: unknown bus {d.bus!r}"
                for d in self.ders if d.bus not in bus_ids]
        out += [f"comm[{c.bus}].bus: unknown bus {c.bus!r}"
                for c in self.comm if c.bus not in bus_ids]
        for s in self.switches:
            if s.area_a not in areas or s.area_b not in areas:
                out.append(f"switches[{s.id}]: unknown area")
            elif s.area_a == s.area_b:
                out.append(f"switches[{s.id}]: must connect two distinct areas")
        # Served load and generation are sums over these; keep them finite.
        if not math.isfinite(self.total_load_mw()):
            out.append("loads: total demand_mw must be finite")
        if not math.isfinite(sum(d.capacity_mw for d in self.ders)):
            out.append("ders: total capacity_mw must be finite")
        return out

    @property
    def areas(self) -> list[str]:
        return sorted({b.area for b in self.buses})

    def total_load_mw(self) -> float:
        return sum(l.demand_mw for l in self.loads)

    def total_critical_mw(self) -> float:
        return sum(l.demand_mw for l in self.loads if l.critical)

    @cached_property
    def compiled(self) -> "_CompiledRestoration":
        """Comm geometry, areas and switch topology, built on first use
        and kept."""
        return _CompiledRestoration(self)


def _distances(a, b) -> np.ndarray:
    """[i, j] = math.dist(a[i], b[j]) for lists of (x, y) points.

    math.dist is math.hypot of the coordinate differences; np.hypot and
    np.sqrt(dx*dx + dy*dy) round differently on some pairs, which would
    flip a link or coverage test that sits exactly on a radius.
    """
    out = np.empty((len(a), len(b)))
    for i, (xa, ya) in enumerate(a):
        out[i] = [math.hypot(xa - xb, ya - yb) for xb, yb in b]
    return out


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Island(NamedTuple):
    """Demand, followers, comm nodes and switch neighbors of a set of areas."""

    critical_mw: float
    other_mw: float
    candidates: tuple[DerAsset, ...]
    comm: int
    neighbors: int


class _CompiledRestoration:
    """What every run of a scenario shares; battery flags and cell radii
    change none of it.

    Comm nodes are numbered in bus-id order (comm[i]), buses as in
    scenario.buses, areas in name order (areas[a]). cover_dist[i, k] is
    the distance from comm node i to bus k, and bus comm_at[i] holds node
    i. Sets of comm nodes, buses and areas are ints with one bit per
    index; area_of maps a bus id to its area's number. The load split,
    follower candidates, comm nodes and switch neighbors of an island
    are memoised per area set (island), for every run of the scenario.
    """

    def __init__(self, scn: RestorationScenario):
        self.loads = scn.loads
        self.followers = tuple(d for d in scn.ders
                               if d.capability is not DerCapability.GRID_FORMING)
        self._islands: dict[int, _Island] = {}
        self.comm = tuple(sorted(scn.comm, key=lambda c: c.bus))
        bus_index = {b.id: k for k, b in enumerate(scn.buses)}
        points = [(float(b.x_km), float(b.y_km)) for b in scn.buses]   # as math.dist
        self.comm_at = [bus_index[c.bus] for c in self.comm]
        self.cover_dist = _distances([points[k] for k in self.comm_at], points)
        self.areas = scn.areas
        number = {a: i for i, a in enumerate(self.areas)}
        self.area_of = {b.id: number[b.area] for b in scn.buses}
        self.area_bus_bits = [0] * len(self.areas)
        for k, b in enumerate(scn.buses):
            self.area_bus_bits[number[b.area]] |= 1 << k
        self.area_comm_bits = [0] * len(self.areas)
        for i, c in enumerate(self.comm):
            self.area_comm_bits[self.area_of[c.bus]] |= 1 << i
        self.adjacent = [0] * len(self.areas)
        for s in scn.switches:
            self.adjacent[number[s.area_a]] |= 1 << number[s.area_b]
            self.adjacent[number[s.area_b]] |= 1 << number[s.area_a]
        self.total_load_mw = scn.total_load_mw()
        self.total_critical_mw = scn.total_critical_mw()

    def island(self, areas: int) -> _Island:
        """What a set of areas fixes, built on first use and kept. Loads
        are summed in scenario.loads order; grid-supporting units come
        before grid-feeding ones, then by bus and id; neighbors are the
        areas one switch away, outside the set."""
        island = self._islands.get(areas)
        if island is None:
            loads = [l for l in self.loads if areas >> self.area_of[l.bus] & 1]
            comm = near = 0
            for a in _bits(areas):
                comm |= self.area_comm_bits[a]
                near |= self.adjacent[a]
            island = self._islands[areas] = _Island(
                sum(l.demand_mw for l in loads if l.critical),
                sum(l.demand_mw for l in loads if not l.critical),
                tuple(sorted((d for d in self.followers if areas >> self.area_of[d.bus] & 1),
                             key=lambda d: (_FOLLOWER_RANK[d.capability], d.bus, d.id))),
                comm, near & ~areas)
        return island


@dataclass(frozen=True)
class Microgrid:
    """An independently supplied island; areas has a bit per area it holds."""

    id: str
    areas: int
    forming_units: tuple[str, ...]
    started_units: tuple[str, ...]
    generation_mw: float
    served_total_mw: float
    served_critical_mw: float
    frequency_hz: float = NOMINAL_FREQUENCY_HZ
    phase_rad: float = 0.0


@dataclass(frozen=True)
class TimelineEvent:
    t_s: float
    stage: str
    served_total_mw: float
    served_critical_mw: float
    service_class: ServiceClass


@dataclass(frozen=True)
class MergeAttempt:
    t_s: float
    grid_a: str
    grid_b: str
    freq_delta_hz: float
    phase_delta_rad: float
    accepted: bool


@dataclass(frozen=True)
class RestorationTimeline:
    events: tuple[TimelineEvent, ...]
    merge_attempts: tuple[MergeAttempt, ...]
    total_load_mw: float
    total_critical_mw: float

    @property
    def final_served_total_mw(self) -> float:
        return self.events[-1].served_total_mw if self.events else 0.0

    @property
    def restored_fraction(self) -> float:
        if self.total_load_mw <= 0:
            return 1.0
        # Capped: inexact load sums can put a full restoration an ulp above 1.
        return min(self.final_served_total_mw / self.total_load_mw, 1.0)


def classify_service(served_critical: float, total_critical: float,
                     served_total: float, total_load: float) -> ServiceClass:
    """Service class from served and required load quantities.

    Acceptable when everything is served, impaired when all critical but
    not all other load is served, unacceptable otherwise.
    """
    full = {}
    for name, served, total in (("critical", served_critical, total_critical),
                                ("total", served_total, total_load)):
        # Relative slack: served and total sum the same loads in other orders.
        slack = _EQ_TOL * max(1.0, total)
        if not (0 <= served <= total + slack):
            raise InvalidInputError(f"served_{name}: must satisfy 0 <= served <= total")
        full[name] = served >= total - slack
    if full["total"]:
        return ServiceClass.ACCEPTABLE
    return ServiceClass.IMPAIRED if full["critical"] else ServiceClass.UNACCEPTABLE


def _bit_rows(matrix: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, column j at bit j."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class _CommCells:
    """The comm cells of a compiled scenario at one set of radii.

    cover[i] holds the buses in node i's cell; link[i] the nodes within
    both cell radii of node i. The comm graph of a working-node set is
    its disk-graph components, each a set bit per node, numbered by
    their lowest node; graph computes them once per set.
    """

    def __init__(self, compiled: _CompiledRestoration, radii: np.ndarray):
        near = compiled.cover_dist <= radii[:, None]
        mutual = near[:, compiled.comm_at]      # node i's cell holds node j
        self.cover = _bit_rows(near)
        self.link = [a & b for a, b in zip(_bit_rows(mutual), _bit_rows(mutual.T))]
        self._graphs: dict[int, tuple[int, ...]] = {}

    def graph(self, working: int) -> tuple[int, ...]:
        components = self._graphs.get(working)
        if components is None:
            out, left = [], working
            while left:
                seen = frontier = left & -left    # the lowest node left
                while frontier:
                    linked = 0
                    for i in _bits(frontier):
                        linked |= self.link[i]
                    frontier = linked & left & ~seen
                    seen |= frontier
                out.append(seen)
                left &= ~seen
            components = self._graphs[working] = tuple(out)
        return components

    def covered(self, nodes: int) -> int:
        """The buses inside the cell of at least one of the nodes."""
        buses = 0
        for i in _bits(nodes):
            buses |= self.cover[i]
        return buses


def _own_cells(compiled: _CompiledRestoration) -> _CommCells:
    """Cells at the scenario's own radii."""
    return _CommCells(compiled, np.array([c.cell_radius_km for c in compiled.comm],
                                         dtype=float))


def comm_reachable(scenario: RestorationScenario, powered_buses,
                   battery_charge_kwh: dict[str, float] | None = None
                   ) -> tuple[int, ...]:
    """Disk-graph components of the operational comm nodes.

    A node works when its bus is powered or its battery still holds
    charge; an edge exists when both endpoints work and their distance
    is within both cell radii. Each component is a set bit per node of
    scenario.compiled.comm (bus-id order), numbered by its lowest node.
    """
    compiled = scenario.compiled
    powered = set(powered_buses)
    charge = battery_charge_kwh or {}
    working = 0
    for i, c in enumerate(compiled.comm):
        if c.bus in powered or (c.has_battery and charge.get(c.bus, c.battery_kwh) > 0):
            working |= 1 << i
    return _own_cells(compiled).graph(working)


def _reach(components: tuple[int, ...], nodes: int) -> int:
    """Every node in a component with one of the given nodes."""
    out = 0
    for comp in components:
        if comp & nodes:
            out |= comp
    return out


def _dispatch(scenario: RestorationScenario, areas: int,
              generation_mw: float) -> tuple[float, float]:
    """Critical-first load dispatch inside one island. Loads are divisible."""
    island = scenario.compiled.island(areas)
    served_crit = min(island.critical_mw, generation_mw)
    served_rest = min(island.other_mw, generation_mw - served_crit)
    return served_crit + served_rest, served_crit


def form_microgrids(scenario: RestorationScenario) -> list[Microgrid]:
    """One island per switch-delimited area holding grid-forming units.

    Only the formers run at this stage; they serve local load up to
    their combined capacity, critical loads first.
    """
    compiled = scenario.compiled
    by_area: dict[int, list[DerAsset]] = {}
    for d in scenario.ders:
        if d.capability is DerCapability.GRID_FORMING:
            by_area.setdefault(compiled.area_of[d.bus], []).append(d)
    grids = []
    for area in sorted(by_area):
        formers = sorted(by_area[area], key=lambda d: (d.bus, d.id))
        generation = sum(d.capacity_mw for d in formers)
        served, served_crit = _dispatch(scenario, 1 << area, generation)
        grids.append(Microgrid(
            id=compiled.areas[area], areas=1 << area,
            forming_units=tuple(d.id for d in formers),
            started_units=tuple(d.id for d in formers),
            generation_mw=generation, served_total_mw=served,
            served_critical_mw=served_crit))
    return grids


def reconnect_followers(mg: Microgrid, scenario: RestorationScenario) -> Microgrid:
    """Start grid-supporting then grid-feeding units inside the island.

    A unit that needs auxiliary start-up power connects only while the
    island can crank it: non-critical load may be held back briefly, so
    the crank margin is generation minus the served critical load. A
    unit whose auxiliary demand exceeds that margin is deferred and may
    start in a later round once other units have raised the margin.
    """
    if not mg.forming_units:
        raise InvalidInputError("microgrid has no forming unit")
    started = set(mg.started_units)
    generation = mg.generation_mw
    served, served_crit = mg.served_total_mw, mg.served_critical_mw
    candidates = [d for d in scenario.compiled.island(mg.areas).candidates
                  if d.id not in started]
    for _ in range(len(candidates) + 1):
        progressed = False
        for d in candidates:
            if d.id in started:
                continue
            if d.aux_power_mw > (generation - served_crit) + _EQ_TOL:
                continue  # deferred until the crank margin grows
            started.add(d.id)
            generation += d.capacity_mw
            served, served_crit = _dispatch(scenario, mg.areas, generation)
            progressed = True
        if not progressed:
            break
    return Microgrid(mg.id, mg.areas, mg.forming_units, tuple(sorted(started)),
                     generation, served, served_crit, mg.frequency_hz, mg.phase_rad)


def _sync_deltas(a: Microgrid, b: Microgrid) -> tuple[float, float]:
    """|df| and the wrapped phase shift, in [0, pi], between two islands."""
    d = abs(a.phase_rad - b.phase_rad) % (2 * math.pi)
    return abs(a.frequency_hz - b.frequency_hz), 2 * math.pi - d if d > math.pi else d


def synchronize_and_merge(a: Microgrid, b: Microgrid,
                          policy: SyncPolicy,
                          scenario: RestorationScenario) -> Microgrid:
    """Merge two live islands after the synchronization gate.

    Requires matching frequency within policy and a wrapped phase shift
    strictly below the policy threshold; pools generation and load and
    re-dispatches critical-first over the union.
    """
    if a is b or a.id == b.id:
        raise InvalidInputError("cannot merge a microgrid with itself")
    freq_delta, phase_delta = _sync_deltas(a, b)
    if freq_delta > policy.max_freq_diff_hz or not phase_delta < policy.max_phase_shift_rad:
        raise SyncRejectedError(freq_delta, phase_delta)
    # Larger generation keeps its reference; ties go to the lower id.
    leader = a if (a.generation_mw, b.id) >= (b.generation_mw, a.id) else b
    areas = a.areas | b.areas
    generation = a.generation_mw + b.generation_mw
    served, served_crit = _dispatch(scenario, areas, generation)
    return Microgrid(
        id=min(a.id, b.id), areas=areas,
        forming_units=tuple(sorted(set(a.forming_units) | set(b.forming_units))),
        started_units=tuple(sorted(set(a.started_units) | set(b.started_units))),
        generation_mw=generation, served_total_mw=served,
        served_critical_mw=served_crit,
        frequency_hz=leader.frequency_hz, phase_rad=leader.phase_rad)


class RestorationState:
    """Mutable working state of one restoration run.

    cells and battery (a set bit per node of compiled.comm) default to
    the scenario's own radii and battery flags; a Monte Carlo run passes
    its own.
    """

    def __init__(self, scenario: RestorationScenario, seed=0,
                 cells: _CommCells | None = None, battery: int | None = None):
        self.scenario = scenario
        self.compiled = compiled = scenario.compiled
        self.cells = _own_cells(compiled) if cells is None else cells
        if battery is None:
            battery = sum(1 << i for i, c in enumerate(compiled.comm) if c.has_battery)
        self.rng = random.Random(f"gridres-blackstart:{seed}")
        self.t_s = 0.0
        self.grids: dict[str, Microgrid] = {}
        self.events: list[TimelineEvent] = []
        self.merge_attempts: list[MergeAttempt] = []
        self.pair_attempts: dict[tuple[str, str], int] = {}
        self.drained_kwh = [0.0] * len(compiled.comm)
        # Batteries that still hold charge; a drained one stays drained.
        self.charged = sum(1 << i for i in _bits(battery)
                           if compiled.comm[i].battery_kwh > 0)

    # -- bookkeeping ----------------------------------------------------

    def _powered_comm(self) -> int:
        out = 0
        for g in self.grids.values():
            out |= self.compiled.island(g.areas).comm
        return out

    def advance_time(self, dt_s: float):
        comm = self.compiled.comm
        for i in _bits(self.charged & ~self._powered_comm()):
            self.drained_kwh[i] += comm[i].drain_kw * dt_s / 3600.0
            if not comm[i].battery_kwh - self.drained_kwh[i] > 0:
                self.charged &= ~(1 << i)
        self.t_s += dt_s

    def comm_graph(self) -> tuple[int, ...]:
        return self.cells.graph(self._powered_comm() | self.charged)

    def served_totals(self) -> tuple[float, float]:
        total = sum(g.served_total_mw for g in self.grids.values())
        crit = sum(g.served_critical_mw for g in self.grids.values())
        return total, crit

    def record(self, stage: str):
        served, crit = self.served_totals()
        self.events.append(TimelineEvent(
            t_s=self.t_s, stage=stage, served_total_mw=served,
            served_critical_mw=crit,
            service_class=classify_service(
                crit, self.compiled.total_critical_mw,
                served, self.compiled.total_load_mw)))

    # -- agent coordination ---------------------------------------------

    def _dead_area_reachable(self, area: int, reach: int) -> bool:
        """Gate for energizing a dead neighbor area.

        The island's agents coordinate the re-connection either through
        a battery-backed comm node inside the dead area (the local agent
        answers), or by covering every bus of the dead area with comm
        cells they reach: those of every operational node in a comm
        component that holds one of the island's nodes, battery relays
        and other islands' nodes included. That lets them monitor the
        area remotely while energizing it. Small cells therefore need
        battery relays to advance; large cells can sweep across dead
        areas without them.
        """
        if reach & self.compiled.area_comm_bits[area]:
            return True
        return not self.compiled.area_bus_bits[area] & ~self.cells.covered(reach)

    def _expand_into(self, grid_id: str, area: int):
        grid = self.grids[grid_id]
        areas = grid.areas | 1 << area
        served, crit = _dispatch(self.scenario, areas, grid.generation_mw)
        grown = Microgrid(grid.id, areas, grid.forming_units, grid.started_units,
                          grid.generation_mw, served, crit, grid.frequency_hz,
                          grid.phase_rad)
        self.grids[grid_id] = reconnect_followers(grown, self.scenario)

    def _attempt_merge(self, ga: str, gb: str) -> bool:
        a, b = self.grids[ga], self.grids[gb]
        key = (min(ga, gb), max(ga, gb))
        attempt = self.pair_attempts.get(key, 0)
        # Alignment controller: each retry halves the phase window, to 0.0.
        window = math.ldexp(math.pi, -attempt)
        draw = self.rng.uniform(0.0, window)
        self.pair_attempts[key] = attempt + 1
        b_aligned = Microgrid(b.id, b.areas, b.forming_units, b.started_units,
                              b.generation_mw, b.served_total_mw,
                              b.served_critical_mw, a.frequency_hz, a.phase_rad + draw)
        try:
            merged = synchronize_and_merge(a, b_aligned, self.scenario.sync_policy,
                                           self.scenario)
        except SyncRejectedError:
            merged = None
        self.merge_attempts.append(MergeAttempt(
            self.t_s, ga, gb, *_sync_deltas(a, b_aligned), accepted=merged is not None))
        if merged is None:
            return False
        del self.grids[ga], self.grids[gb]
        self.grids[merged.id] = reconnect_followers(merged, self.scenario)
        return True


def agent_round(state: RestorationState, comm: tuple[int, ...]) -> bool:
    """One coordination round among the area agents.

    Agents of comm-connected areas exchange load and generation
    information, derive the round's target (which dead neighbor areas to
    energize, which islands to merge) and apply it greedily. Agents
    without an operational comm path simply do not participate. Returns
    whether the round changed or progressed anything; repeated to a
    fixpoint by the caller.
    """
    changed = False
    compiled, grids = state.compiled, state.grids
    # Energize dead neighbor areas (S4' path).
    occupied = 0
    for g in grids.values():
        occupied |= g.areas
    for gid in sorted(grids):
        island = compiled.island(grids[gid].areas)
        reach = _reach(comm, island.comm)    # the nodes its agents talk to
        for area in _bits(island.neighbors & ~occupied):
            if state._dead_area_reachable(area, reach):
                state._expand_into(gid, area)
                occupied |= 1 << area
                state.record("S4'")
                changed = True

    # Merge live islands connected by a switch and a comm path (S5).
    islands = {gid: compiled.island(g.areas) for gid, g in grids.items()}
    reach = {gid: _reach(comm, island.comm) for gid, island in islands.items()}
    merge_candidates = [
        (ga, gb) for ga, gb in itertools.combinations(sorted(grids), 2)
        if reach[ga] & reach[gb] and islands[ga].neighbors & grids[gb].areas]
    for ga, gb in merge_candidates:
        if ga not in grids or gb not in grids:
            continue  # consumed by an earlier merge this round
        if state._attempt_merge(ga, gb):
            state.record("S5")
        changed = True
    return changed


def run_restoration(scenario: RestorationScenario, seed=0,
                    cells: _CommCells | None = None,
                    battery: int | None = None) -> RestorationTimeline:
    """Full staged restoration run; deterministic for a given seed.

    Timeline starts at the collapsed state (S2), forms islands (S3),
    reconnects followers (S4), then iterates agent rounds that energize
    dead areas (S4') and merge islands (S5) until nothing more is
    communication- and switch-reachable, closed by the maximum-extent
    event (S5'). Battery-backed comm nodes drain while their bus is
    unpowered and revive when it is re-energized. cells and battery
    replace the scenario's radii and battery flags (see RestorationState);
    monte_carlo passes them for each run.
    """
    state = RestorationState(scenario, seed, cells, battery)
    state.record("S2")
    formed = form_microgrids(scenario)
    if formed:
        state.advance_time(FORMATION_DELAY_S)
        for mg in formed:
            state.grids[mg.id] = mg
            state.record("S3")

        state.advance_time(FOLLOWER_DELAY_S)
        for gid in sorted(state.grids):
            before = state.grids[gid]
            after = reconnect_followers(before, scenario)
            state.grids[gid] = after
            if len(after.started_units) != len(before.started_units):
                state.record("S4")

        compiled = state.compiled
        max_rounds = max(4 * (len(compiled.areas) + len(scenario.switches) + 4) ** 2, 64)
        for _ in range(max_rounds):
            state.advance_time(ROUND_DELAY_S)
            if not agent_round(state, state.comm_graph()):
                break
        state.record("S5'")
    return RestorationTimeline(
        events=tuple(state.events),
        merge_attempts=tuple(state.merge_attempts),
        total_load_mw=state.compiled.total_load_mw,
        total_critical_mw=state.compiled.total_critical_mw)


@dataclass(frozen=True)
class MonteCarloResult:
    restored_fractions: tuple[float, ...]
    mean: float
    median: float
    p_battery: float
    cell_radius_km: float
    seed: int


def monte_carlo(scenario: RestorationScenario, p_battery: float,
                cell_radius_km: float, runs: int, seed: int = 0) -> MonteCarloResult:
    """Restoration study over random battery placement at a cell radius.

    Each run samples battery presence per comm node with probability
    p_battery and sets every cell radius to cell_radius_km. Sampling
    uses common random numbers keyed by (seed, run, bus): raising
    p_battery only adds batteries to a run. Its fraction can still fall
    when an island's critical load exceeds its generation, since the
    merge order then decides which followers it can crank.

    The runs share the scenario's compiled geometry and one set of comm
    cells. cell_radius_km is checked against the CommNode row it fills
    and the battery draws are bools, so no per-run scenario is built.
    """
    require(("p_battery", number(ge=0, le=1), p_battery),
            ("cell_radius_km", row(CommNode, "cell_radius_km"), cell_radius_km))
    if type(runs) is bool or not (isinstance(runs, int) and 1 <= runs <= MAX_RUNS):
        raise InvalidInputError(f"runs: must be an integer in [1, {MAX_RUNS}]")
    compiled = scenario.compiled
    cells = _CommCells(compiled, np.full(len(compiled.comm), float(cell_radius_km)))
    fractions = []
    for k in range(runs):
        draw = random.Random(f"gridres-mc:{seed}:{k}").random
        battery = sum(1 << i for i in range(len(compiled.comm)) if draw() < p_battery)
        timeline = run_restoration(scenario, f"{seed}:{k}", cells, battery)
        fractions.append(timeline.restored_fraction)
    return MonteCarloResult(
        restored_fractions=tuple(fractions),
        mean=statistics.fmean(fractions),
        median=statistics.median(fractions),
        p_battery=p_battery, cell_radius_km=cell_radius_km, seed=seed)
