"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain domain objects
or JSON-ready documents; the same seed always gives the same inputs.
Sizes and shapes are fixed, only values and placements are drawn, so the
work one pass does stays nearly constant from seed to seed.
"""

import math
import random
from dataclasses import replace

from gridres import benchmarks as bm
from gridres import blackstart as bs
from gridres import frequency as fq
from gridres import protection as pt


def rng_for(*key) -> random.Random:
    """A generator keyed by a tuple; string seeding is stable across runs."""
    return random.Random(":".join(str(k) for k in key))


# ---------------------------------------------------------------------------
# freq_sweep: the 2030 inertia presets x seeded disturbance sizes
# ---------------------------------------------------------------------------

# Event at 1 s; the restoration reserve starts 30 s after the dead-band
# crossing, about 31 s into the run, so a 36 s horizon sees it act.
SWEEP_T_EVENT_S = 1.0
SWEEP_HORIZON_S = 36.0
SWEEP_DT_S = 0.01
# One disturbance size per band, in pu of the 100 MVA base.
SWEEP_SIZE_BANDS = ((0.04, 0.07), (0.07, 0.10), (0.10, 0.13), (0.13, 0.16))


def frequency_sweep(seed: int) -> list[tuple[str, float]]:
    """(country, delta_p_pu) for every 2030 preset and size band."""
    rng = rng_for("freq_sweep", seed)
    sizes = [-rng.uniform(lo, hi) for lo, hi in SWEEP_SIZE_BANDS]
    return [(country, size) for country in sorted(fq.INERTIA_PRESETS_2030)
            for size in sizes]


def frequency_case(country: str, delta_p_pu: float,
                   horizon_s: float = SWEEP_HORIZON_S):
    """Frequency scenario arguments with the benchmark reserves and fleet."""
    base = fq.inertia_preset_2030(country)
    system = fq.SystemParameters(f_n=base.f_n, s_base_mva=base.s_base_mva,
                                 h_sys_s=base.h_sys_s, damping_pu_per_hz=0.01,
                                 band_half_width_hz=0.5)
    return dict(system=system,
                event=fq.DisturbanceEvent(t_event_s=SWEEP_T_EVENT_S,
                                          delta_p_pu=delta_p_pu),
                fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
                droop_fleet=bm.benchmark_droop_fleet(),
                horizon_s=horizon_s, dt_s=SWEEP_DT_S)


# ---------------------------------------------------------------------------
# feeder_protection: trunk-and-lateral radial feeders
# ---------------------------------------------------------------------------

LATERAL_LEN = 12          # buses per lateral
TRUNK_SHARE = 6           # one bus in six sits on the trunk
DER_SHARE = 6             # one DER per six buses
BREAKER_EVERY = 10        # trunk lines between trunk breakers
SOURCE_Z_PU = 0.05


def spread_picks(rng, items: list, n: int) -> list:
    """n items, one drawn from each of n equal blocks of the list, shuffled.

    Spreading the draws keeps the mix of shallow and deep places, and
    so the work of a batch, nearly the same from seed to seed.
    """
    picks = [rng.choice(items[i * len(items) // n:(i + 1) * len(items) // n])
             for i in range(n)]
    rng.shuffle(picks)
    return picks


class Feeder:
    """A generated feeder with its trip settings and tree bookkeeping."""

    def __init__(self, network, settings, parent_line, line_parent_bus):
        self.network = network
        self.settings = settings
        self.parent_line = parent_line          # bus -> line feeding it
        self.line_parent_bus = line_parent_bus  # line -> upstream bus
        self.breaker_of_line = {b.line: b.id for b in network.breakers}

    def upstream_breakers(self, line_id: str) -> list[str]:
        """Breakers from a line toward the source, nearest first."""
        out = []
        line = line_id
        while line is not None:
            if line in self.breaker_of_line:
                out.append(self.breaker_of_line[line])
            line = self.parent_line.get(self.line_parent_bus[line])
        return out


def feeder(n_buses: int, seed: int) -> Feeder:
    """Radial feeder: a trunk from the source with fixed-length laterals.

    One DER per DER_SHARE buses at seeded places, a breaker on the
    source line, every BREAKER_EVERY-th trunk line and the head of every
    lateral. Trip settings sit between each breaker's healthy current
    and its grid-only fault current, except for a seeded tenth of the
    breakers, all at lateral heads, set below the DER in-feed from under
    them so that a fault elsewhere trips them (sympathetic trips). DER between a breaker and
    a fault can pull the current below the other settings (blinding).
    """
    rng = rng_for("feeder", n_buses, seed)
    n_trunk = n_buses // TRUNK_SHARE
    buses = [f"b{i}" for i in range(n_buses)]
    lines, parent_line, line_parent_bus = [], {}, {}
    breaker_lines, lateral_heads = [], set()

    def add_line(a, b):
        lid = f"l{len(lines)}"
        lines.append(pt.Line(lid, a, b, rng.uniform(0.002, 0.006)))
        parent_line[b] = lid
        line_parent_bus[lid] = a
        return lid

    for i in range(1, n_trunk + 1):
        lid = add_line(buses[i - 1], buses[i])
        if (i - 1) % BREAKER_EVERY == 0:
            breaker_lines.append(lid)
    rest = buses[n_trunk + 1:]
    n_laterals = math.ceil(len(rest) / LATERAL_LEN)
    for j in range(n_laterals):
        chunk = rest[j * LATERAL_LEN:(j + 1) * LATERAL_LEN]
        attach = buses[1 + (j * n_trunk) // n_laterals]
        prev = attach
        for k, bus in enumerate(chunk):
            lid = add_line(prev, bus)
            if k == 0:
                breaker_lines.append(lid)
                lateral_heads.add(lid)
            prev = bus

    # One DER at a drawn bus of every block of DER_SHARE consecutive buses,
    # so their depths, and the map's cost, vary little from seed to seed.
    der_buses = [rng.choice(buses[1 + k:1 + k + DER_SHARE])
                 for k in range(0, n_buses - DER_SHARE, DER_SHARE)]
    ders = tuple(pt.DerSource(f"d{k}", bus, rng.uniform(0.005, 0.02))
                 for k, bus in enumerate(der_buses))
    loads = tuple(pt.LoadPoint(bus, rng.uniform(0.002, 0.006))
                  for bus in buses[1:])
    source = pt.ExternalSource(bus=buses[0], voltage_pu=1.0,
                               impedance_pu=SOURCE_Z_PU)
    draft = pt.RadialNetwork(buses=tuple(buses), lines=tuple(lines),
                             source=source, ders=ders, loads=loads)

    healthy = pt.solve_fault_currents(draft, None)
    z_to = {buses[0]: 0.0}
    for ln in lines:
        z_to[ln.to_bus] = z_to[ln.from_bus] + ln.impedance_pu
    # DER current that flows up through each line when a fault elsewhere
    # draws every DER below it.
    der_below = {}
    for d in ders:
        line = parent_line.get(d.bus)
        while line is not None:
            der_below[line] = der_below.get(line, 0.0) + d.i_max_pu
            line = parent_line.get(line_parent_bus[line])
    # Sensitive breakers sit at lateral heads only: one on the trunk would
    # add a second trip instant to nearly every fault, so whether the draw
    # put one there would change the work of every case.
    sensitive = set(spread_picks(
        rng, [lid for lid in breaker_lines if lid in der_below and lid in lateral_heads],
        len(breaker_lines) // 10))
    breakers, settings = [], {}
    for k, lid in enumerate(breaker_lines):
        ln = lines[int(lid[1:])]
        bid = f"k{k}"
        if lid in sensitive:
            settings[bid] = rng.uniform(0.6, 0.9) * der_below[lid]
        else:
            i_healthy = healthy.branch_magnitude(lid)
            i_fault = source.voltage_pu / (SOURCE_Z_PU + z_to[ln.to_bus])
            settings[bid] = i_healthy + rng.uniform(0.3, 0.9) * (i_fault - i_healthy)
        # Time grading: lateral breakers act before the trunk ones.
        breakers.append(pt.Breaker(bid, lid, settings[bid],
                                   delay_s=0.1 if lid in lateral_heads else 0.3))
    network = replace(draft, breakers=tuple(breakers))
    return Feeder(network, settings, parent_line, line_parent_bus)


def fault_stream(fdr: Feeder, n_cases: int, seed: int):
    """Seeded fault cases: (FaultScenario, failed breaker ids).

    The mix is fixed, so every seed gives the same kind of work: 70 %
    line faults (mid-line, where the signature map characterizes lines)
    and 30 % bus faults, 60 % of each kind bolted and 40 % resistive.
    Every fourth line fault comes with its nearest upstream breaker
    failed, when another breaker backs it up. Places are drawn spread
    over the feeder (spread_picks); impedances are drawn.
    """
    rng = rng_for("faults", len(fdr.network.buses), seed)
    n_line = round(0.7 * n_cases)
    places = [("line", lid, k) for k, lid in enumerate(spread_picks(
        rng, [ln.id for ln in fdr.network.lines], n_line))]
    places += [("bus", bus, k) for k, bus in enumerate(spread_picks(
        rng, list(fdr.network.buses[1:]), n_cases - n_line))]
    counts = {"line": n_line, "bus": n_cases - n_line}
    rng.shuffle(places)
    cases = []
    for kind, element_id, k in places:
        # The first 60 % of each kind's draws are bolted; draws are shuffled.
        bolted = k < round(0.6 * counts[kind])
        impedance = 0.0 if bolted else rng.uniform(0.05, 0.5)
        failed = frozenset()
        if kind == "line":
            fault = pt.FaultScenario("line", element_id, impedance, 0.5)
            upstream = fdr.upstream_breakers(element_id)
            if k % 4 == 0 and len(upstream) >= 2:
                failed = frozenset(upstream[:1])
        else:
            fault = pt.FaultScenario("bus", element_id, impedance)
        cases.append((fault, failed))
    return cases


# ---------------------------------------------------------------------------
# blackstart_mc: the 30-bus benchmark and a seeded 2 x 2 tiling of it
# ---------------------------------------------------------------------------

TILE_DX_KM = 5 * bm.AREA_SPACING_KM
TILE_DY_KM = 2 * bm.AREA_SPACING_KM


def _jitter(rng, value, share):
    return value * rng.uniform(1.0 - share, 1.0 + share)


def restoration_base(seed: int) -> bs.RestorationScenario:
    """The 30-bus benchmark with seeded load and capacity values."""
    return tiled_restoration(seed, tiles=((0, 0),))


def tiled_restoration(seed: int, tiles=((0, 0), (1, 0), (0, 1), (1, 1))
                      ) -> bs.RestorationScenario:
    """Copies of the 30-bus benchmark on a grid of tiles (120 buses).

    Geometry, seeds and switches of each copy are the benchmark's;
    loads and DER capacities get a seeded +-20 % / +-10 % jitter.
    Neighbouring tiles are joined by switches between their facing
    boundary areas, so islands grown in one tile can merge across.
    """
    rng = rng_for("tiling", len(tiles), seed)
    base = bm.benchmark_restoration_scenario()
    buses, loads, ders, switches, comm = [], [], [], [], []
    for tx, ty in tiles:
        tag = f"t{tx}{ty}"
        dx, dy = tx * TILE_DX_KM, ty * TILE_DY_KM

        def rename(name):
            return f"{tag}{name}"
        for b in base.buses:
            buses.append(bs.BusPoint(rename(b.id), b.x_km + dx, b.y_km + dy,
                                     rename(b.area)))
        for ld in base.loads:
            loads.append(bs.LoadAsset(rename(ld.bus),
                                      _jitter(rng, ld.demand_mw, 0.2),
                                      ld.critical))
        for d in base.ders:
            ders.append(replace(d, id=rename(d.id), bus=rename(d.bus),
                                capacity_mw=_jitter(rng, d.capacity_mw, 0.1)))
        for s in base.switches:
            switches.append(bs.AreaSwitch(rename(s.id), rename(s.area_a),
                                          rename(s.area_b)))
        for c in base.comm:
            comm.append(replace(c, bus=rename(c.bus)))
    tile_set = set(tiles)
    for tx, ty in tiles:
        if (tx + 1, ty) in tile_set:
            for row in range(2):
                switches.append(bs.AreaSwitch(
                    f"x{tx}{ty}_{row}", f"t{tx}{ty}A4{row}",
                    f"t{tx + 1}{ty}A0{row}"))
        if (tx, ty + 1) in tile_set:
            for col in range(5):
                switches.append(bs.AreaSwitch(
                    f"y{tx}{ty}_{col}", f"t{tx}{ty}A{col}1",
                    f"t{tx}{ty + 1}A{col}0"))
    return bs.RestorationScenario(
        buses=tuple(buses), loads=tuple(loads), ders=tuple(ders),
        switches=tuple(switches), comm=tuple(comm),
        sync_policy=base.sync_policy)


# ---------------------------------------------------------------------------
# cli_mix: documents, including a seeded share of malformed ones
# ---------------------------------------------------------------------------

def fleet_doc(seed: int, k: int) -> dict:
    """A valid coordination fleet document with seeded units."""
    rng = rng_for("fleet", seed, k)
    units = []
    for i in range(rng.randint(3, 6)):
        rating = rng.uniform(0.32, 0.6)   # 3 units cover the candidate's p_max
        units.append({"id": f"u{i}", "p_rating": rating,
                      "p_available": rating * rng.uniform(0.2, 0.8),
                      "fcr_share": rng.uniform(0.0, 0.04),
                      "in_reference_incident": i == 0})
    return {
        "schema_version": 1, "f_n": 50.0, "units": units,
        "inertia": {"rocof_max_hz_per_s": 1.0, "p0_ss_pu": 0.3,
                    "p0_irmax_pu": 0.5,
                    "h_ag_tso_s": rng.uniform(2.0, 4.0)},
        "droop": {"grid": {"f_min": 49.5, "f_max": 50.5, "f_step": 0.1},
                  "candidate": {"f_n": 50.0, "dead_band_half_width": 0.02,
                                "p_nominal": 0.5, "p_max": 0.9,
                                "f_min": 49.5, "p_min": 0.1, "f_max": 50.5}},
        "total_fcr_pu": 1.0,
    }


def synthetic_trace_csv(seed: int, horizon_s: float = 600.0,
                        dt_s: float = 0.01) -> str:
    """A damped-oscillation frequency trace in the trace CSV format.

    ROCOF is the forward difference, the last row repeating the one
    before, as the trace writer defines it.
    """
    rng = rng_for("trace", seed)
    depth = rng.uniform(0.6, 1.2)
    tau = rng.uniform(20.0, 60.0)
    omega = rng.uniform(0.05, 0.2)
    n = int(round(horizon_s / dt_s)) + 1
    ts = [i * dt_s for i in range(n)]
    fs = [50.0 - depth * math.exp(-t / tau) * math.sin(omega * t + 0.3)
          - 0.3 * depth * (1.0 - math.exp(-t / tau)) for t in ts]
    rocof = [(b - a) / dt_s for a, b in zip(fs, fs[1:])]
    rocof.append(rocof[-1])
    rows = [f"{t:.9g},{f:.9g},{r:.9g}" for t, f, r in zip(ts, fs, rocof)]
    return "t,f,rocof\n" + "\n".join(rows) + "\n"


def _mutations():
    """Malformed-document families; each must end as exit code 1.

    Each family turns fresh valid documents into one malformed document,
    drawing the place and kind of the damage from rng. The first four
    reproduce the known crashes (a scalar where an object is expected);
    tso_above_max is a fleet that validate accepts although coordinate
    rejects it, and nan_setting a settings document with a NaN trip
    current, which protection accepts. The others are rejected cleanly.
    """
    def scalar_unit(rng, docs):
        doc = docs["fleet"]
        doc["units"][rng.randrange(len(doc["units"]))] = rng.randint(0, 9)
        return doc

    def scalar_line(rng, docs):
        doc = docs["network"]
        doc["lines"][rng.randrange(len(doc["lines"]))] = rng.randint(0, 9)
        return doc

    def string_buses(rng, docs):
        doc = docs["restoration"]
        doc["buses"] = "".join(rng.choice("xyz") for _ in range(3))
        return doc

    def scalar_policy(rng, docs):
        doc = docs["restoration"]
        doc["sync_policy"] = rng.randint(0, 9)
        return doc

    def missing_key(rng, docs):
        doc = docs["frequency"]
        del doc[rng.choice(("system", "event", "fcr", "secondary"))]
        return doc

    def string_number(rng, docs):
        doc = docs["frequency"]
        doc["system"][rng.choice(("f_n", "h_sys_s", "s_base_mva"))] = "fast"
        return doc

    def negative_impedance(rng, docs):
        doc = docs["network"]
        doc["lines"][rng.randrange(len(doc["lines"]))]["impedance_pu"] = \
            -rng.uniform(0.01, 0.1)
        return doc

    def wrong_version(rng, docs):
        doc = docs[rng.choice(("frequency", "network", "restoration"))]
        doc["schema_version"] = rng.choice((0, 2))
        return doc

    def not_an_object(rng, docs):
        return rng.choice(([1, 2, 3], 7, "frequency", None))

    def unknown_kind(rng, docs):
        return {"schema_version": 1, f"key{rng.randrange(100)}": True}

    def tso_above_max(rng, docs):
        doc = docs["fleet"]
        doc["inertia"]["h_ag_tso_s"] = rng.uniform(1e3, 1e6)
        return doc

    def nan_setting(rng, docs):
        settings = dict(bm.TWO_FEEDER_SETTINGS)
        settings[rng.choice(sorted(settings))] = math.nan
        return settings

    return (scalar_unit, scalar_line, string_buses, scalar_policy,
            missing_key, string_number, negative_impedance, wrong_version,
            not_an_object, unknown_kind, tso_above_max, nan_setting)


MALFORMED_FAMILIES = _mutations()


def malformed_docs(seed: int, per_family: int, valid_docs):
    """per_family malformed documents of every family, as (family, doc).

    valid_docs(rng) returns fresh valid documents keyed by kind. The mix
    of families is fixed, so the share of each defect does not change
    with the seed; the documents and the damage do.
    """
    rng = rng_for("malformed", seed)
    return [(family.__name__, family(rng, valid_docs(rng)))
            for family in MALFORMED_FAMILIES for _ in range(per_family)]
