"""Scenario document schemas and the CSV exchange formats.

One code path serves both validation and execution: every loader first
collects all invariant violations of the raw document and raises a
ScenarioValidationError listing them, then builds the domain objects.
The validate CLI subcommand calls the same loaders, so a document that
validates cleanly is exactly a document the engines accept.

Documents carry a schema_version field, currently 1.
"""

import csv
import math
from types import SimpleNamespace

import numpy as np

from . import blackstart as bs
from . import coordination as co
from . import frequency as fq
from . import protection as pt
from .errors import InvalidInputError, ScenarioValidationError

SCHEMA_VERSION = 1

_CURVE_KEYS = ("f_n", "dead_band_half_width", "p_nominal", "p_max", "f_min",
               "p_min", "f_max")


def _require(doc, key, path, violations, kind=dict):
    value = doc.get(key)
    if value is None:
        violations.append(f"{path}.{key}: missing")
        return None
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            violations.append(f"{path}.{key}: must be a number")
            return None
        return float(value)
    if not isinstance(value, kind):
        violations.append(f"{path}.{key}: must be {kind.__name__}")
        return None
    return value


def _number(doc, key, path, violations, default=None):
    if key not in doc:
        if default is None:
            violations.append(f"{path}.{key}: missing")
        return default
    return _require(doc, key, path, violations, kind=float)


def _check_version(doc, violations):
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        violations.append(
            f"schema_version: must be {SCHEMA_VERSION}, got {version!r}")


def _finish(violations):
    if violations:
        raise ScenarioValidationError(violations)


def detect_kind(doc) -> str:
    """Infer the scenario kind from its top-level keys."""
    if not isinstance(doc, dict):
        raise InvalidInputError("document: must be a JSON object")
    keys = set(doc)
    if {"system", "event"} <= keys:
        return "frequency"
    if {"lines", "source"} <= keys:
        return "network"
    if {"switches", "comm"} <= keys:
        return "restoration"
    if "units" in keys:
        return "fleet"
    raise InvalidInputError(
        "document: cannot infer scenario kind from keys "
        f"{sorted(keys)}")


def validate_document(doc) -> list[str]:
    """All invariant violations of a scenario document (empty if valid)."""
    try:
        kind = detect_kind(doc)
    except InvalidInputError as err:
        return [str(err)]
    loader = {"frequency": load_frequency_scenario, "network": load_network,
              "restoration": load_restoration_scenario, "fleet": load_fleet}[kind]
    try:
        loader(doc)
    except ScenarioValidationError as err:
        return list(err.violations)
    return []


# ---------------------------------------------------------------------------
# Frequency scenarios
# ---------------------------------------------------------------------------

class FrequencyScenario:
    """Parsed frequency study: system, event, reserves and run controls."""

    def __init__(self, system, event, fcr, secondary, droop_fleet,
                 horizon_s, dt_s):
        self.system = system
        self.event = event
        self.fcr = fcr
        self.secondary = secondary
        self.droop_fleet = droop_fleet
        self.horizon_s = horizon_s
        self.dt_s = dt_s

    def simulate(self) -> fq.FrequencyTrace:
        return fq.simulate_disturbance(
            self.system, self.event, self.fcr, self.secondary,
            self.droop_fleet, horizon_s=self.horizon_s, dt_s=self.dt_s)


def _parse_curve(doc, path, violations):
    values = {}
    for key in _CURVE_KEYS:
        values[key] = _number(doc, key, path, violations)
    if any(v is None for v in values.values()):
        return None
    curve_violations = fq.check_droop_curve(prefix=path, **values)
    if curve_violations:
        violations.extend(curve_violations)
        return None
    return fq.DroopCurve(**values)


def load_frequency_scenario(doc) -> FrequencyScenario:
    violations: list[str] = []
    _check_version(doc, violations)
    system = event = fcr = secondary = None

    sys_doc = _require(doc, "system", "", violations)
    if sys_doc is not None:
        fields = {k: _number(sys_doc, k, "system", violations)
                  for k in ("f_n", "s_base_mva", "h_sys_s",
                            "damping_pu_per_hz", "band_half_width_hz")}
        if all(v is not None for v in fields.values()):
            sys_violations = fq.check_system_parameters(**fields)
            violations.extend(sys_violations)
            if not sys_violations:
                system = fq.SystemParameters(**fields)

    ev_doc = _require(doc, "event", "", violations)
    if ev_doc is not None:
        t_event = _number(ev_doc, "t_event_s", "event", violations)
        delta_p = _number(ev_doc, "delta_p_pu", "event", violations)
        if t_event is not None and delta_p is not None:
            ev_violations = fq.check_disturbance_event(t_event, delta_p)
            violations.extend(ev_violations)
            if not ev_violations:
                event = fq.DisturbanceEvent(t_event_s=t_event, delta_p_pu=delta_p)

    fcr_doc = _require(doc, "fcr", "", violations)
    if fcr_doc is not None:
        cap = _number(fcr_doc, "capacity_mw", "fcr", violations)
        if cap is not None:
            if math.isfinite(cap) and cap >= 0:
                fcr = fq.FcrProduct(capacity_mw=cap)
            else:
                violations.append("fcr.capacity_mw: must be finite and >= 0")

    sec_doc = _require(doc, "secondary", "", violations)
    if sec_doc is not None:
        fields = {
            "capacity_mw": _number(sec_doc, "capacity_mw", "secondary", violations),
            "full_activation_time_s": _number(sec_doc, "full_activation_time_s",
                                              "secondary", violations, default=300.0),
            "sustain_duration_s": _number(sec_doc, "sustain_duration_s",
                                          "secondary", violations, default=900.0),
        }
        if all(v is not None for v in fields.values()):
            sec_violations = fq.check_secondary_reserve(**fields)
            violations.extend(sec_violations)
            if not sec_violations:
                secondary = fq.SecondaryReserve(**fields)

    fleet = []
    fleet_doc = doc.get("droop_fleet", [])
    if not isinstance(fleet_doc, list):
        violations.append("droop_fleet: must be a list")
        fleet_doc = []
    for i, entry in enumerate(fleet_doc):
        path = f"droop_fleet[{i}]"
        if not isinstance(entry, dict):
            violations.append(f"{path}: must be an object")
            continue
        rating = _number(entry, "rating_mw", path, violations)
        curve_doc = _require(entry, "curve", path, violations)
        curve = _parse_curve(curve_doc, f"{path}.curve", violations) \
            if curve_doc is not None else None
        if rating is not None and (not math.isfinite(rating) or rating < 0):
            violations.append(f"{path}.rating_mw: must be finite and >= 0")
        elif rating is not None and curve is not None:
            fleet.append(fq.RatedDroopCurve(curve=curve, rating_mw=rating))

    horizon = _number(doc, "horizon_s", "", violations, default=60.0)
    dt = _number(doc, "dt_s", "", violations, default=0.01)
    if dt is not None and (not math.isfinite(dt) or dt <= 0):
        violations.append("dt_s: must be > 0")
    if horizon is not None and event is not None and horizon <= event.t_event_s:
        violations.append("horizon_s: must exceed event.t_event_s")

    _finish(violations)
    return FrequencyScenario(system=system, event=event, fcr=fcr,
                             secondary=secondary, droop_fleet=fleet,
                             horizon_s=horizon, dt_s=dt)


def dump_frequency_scenario(scn: FrequencyScenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "system": {
            "f_n": scn.system.f_n, "s_base_mva": scn.system.s_base_mva,
            "h_sys_s": scn.system.h_sys_s,
            "damping_pu_per_hz": scn.system.damping_pu_per_hz,
            "band_half_width_hz": scn.system.band_half_width_hz,
        },
        "event": {"t_event_s": scn.event.t_event_s,
                  "delta_p_pu": scn.event.delta_p_pu},
        "fcr": {"capacity_mw": scn.fcr.capacity_mw},
        "secondary": {
            "capacity_mw": scn.secondary.capacity_mw,
            "full_activation_time_s": scn.secondary.full_activation_time_s,
            "sustain_duration_s": scn.secondary.sustain_duration_s,
        },
        "droop_fleet": [
            {"rating_mw": r.rating_mw,
             "curve": {k: getattr(r.curve, k) for k in _CURVE_KEYS}}
            for r in scn.droop_fleet],
        "horizon_s": scn.horizon_s,
        "dt_s": scn.dt_s,
    }


# ---------------------------------------------------------------------------
# Protection networks, faults and settings
# ---------------------------------------------------------------------------

def load_network(doc) -> pt.RadialNetwork:
    violations: list[str] = []
    _check_version(doc, violations)
    buses = doc.get("buses")
    if not (isinstance(buses, list) and all(isinstance(b, str) for b in buses)):
        violations.append("buses: must be a list of bus ids")
        buses = []

    lines = []
    for i, entry in enumerate(doc.get("lines", [])):
        path = f"lines[{i}]"
        lid = _require(entry, "id", path, violations, kind=str)
        a = _require(entry, "from_bus", path, violations, kind=str)
        b = _require(entry, "to_bus", path, violations, kind=str)
        z = _number(entry, "impedance_pu", path, violations)
        if None not in (lid, a, b, z):
            lines.append(pt.Line(id=lid, from_bus=a, to_bus=b, impedance_pu=z))

    source = None
    src_doc = _require(doc, "source", "", violations)
    if src_doc is not None:
        bus = _require(src_doc, "bus", "source", violations, kind=str)
        v = _number(src_doc, "voltage_pu", "source", violations, default=1.0)
        z = _number(src_doc, "impedance_pu", "source", violations, default=0.05)
        available = src_doc.get("available", True)
        if not isinstance(available, bool):
            violations.append("source.available: must be a boolean")
            available = True
        if None not in (bus, v, z):
            source = pt.ExternalSource(bus=bus, voltage_pu=v, impedance_pu=z,
                                       available=available)

    ders = []
    for i, entry in enumerate(doc.get("ders", [])):
        path = f"ders[{i}]"
        did = _require(entry, "id", path, violations, kind=str)
        bus = _require(entry, "bus", path, violations, kind=str)
        imax = _number(entry, "i_max_pu", path, violations)
        injecting = entry.get("injecting", True)
        if not isinstance(injecting, bool):
            violations.append(f"{path}.injecting: must be a boolean")
            injecting = True
        if None not in (did, bus, imax):
            ders.append(pt.DerSource(id=did, bus=bus, i_max_pu=imax,
                                     injecting=injecting))

    breakers = []
    for i, entry in enumerate(doc.get("breakers", [])):
        path = f"breakers[{i}]"
        bid = _require(entry, "id", path, violations, kind=str)
        line = _require(entry, "line", path, violations, kind=str)
        i_trip = _number(entry, "i_trip_pu", path, violations)
        delay = _number(entry, "delay_s", path, violations, default=0.1)
        if None not in (bid, line, i_trip, delay):
            breakers.append(pt.Breaker(id=bid, line=line, i_trip_pu=i_trip,
                                       delay_s=delay))

    loads = []
    for i, entry in enumerate(doc.get("loads", [])):
        path = f"loads[{i}]"
        bus = _require(entry, "bus", path, violations, kind=str)
        current = _number(entry, "current_pu", path, violations)
        if None not in (bus, current):
            loads.append(pt.LoadPoint(bus=bus, current_pu=current))

    if source is not None:
        draft = SimpleNamespace(buses=tuple(buses), lines=tuple(lines),
                                source=source, ders=tuple(ders),
                                breakers=tuple(breakers), loads=tuple(loads))
        violations.extend(pt.check_radial_network(draft))
    _finish(violations)
    return pt.RadialNetwork(buses=tuple(buses), lines=tuple(lines),
                            source=source, ders=tuple(ders),
                            breakers=tuple(breakers), loads=tuple(loads))


def dump_network(net: pt.RadialNetwork) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "buses": list(net.buses),
        "lines": [{"id": l.id, "from_bus": l.from_bus, "to_bus": l.to_bus,
                   "impedance_pu": l.impedance_pu} for l in net.lines],
        "source": {"bus": net.source.bus, "voltage_pu": net.source.voltage_pu,
                   "impedance_pu": net.source.impedance_pu,
                   "available": net.source.available},
        "ders": [{"id": d.id, "bus": d.bus, "i_max_pu": d.i_max_pu,
                  "injecting": d.injecting} for d in net.ders],
        "breakers": [{"id": b.id, "line": b.line, "i_trip_pu": b.i_trip_pu,
                      "delay_s": b.delay_s} for b in net.breakers],
        "loads": [{"bus": l.bus, "current_pu": l.current_pu} for l in net.loads],
    }


def load_fault(doc) -> pt.FaultScenario:
    violations: list[str] = []
    element = _require(doc, "element", "", violations)
    kind = element_id = None
    if element is not None:
        kind = _require(element, "kind", "element", violations, kind=str)
        element_id = _require(element, "id", "element", violations, kind=str)
        if kind is not None and kind not in ("line", "bus"):
            violations.append("element.kind: must be 'line' or 'bus'")
    impedance = doc.get("impedance_pu", 0.0)
    if impedance is None:
        impedance = math.inf  # JSON null encodes the no-fault sentinel
    elif not isinstance(impedance, (int, float)) or isinstance(impedance, bool):
        violations.append("impedance_pu: must be a number or null")
        impedance = 0.0
    position = _number(doc, "position", "", violations, default=0.5)
    if position is not None and not (0.0 <= position <= 1.0):
        violations.append("position: must be in [0, 1]")
    _finish(violations)
    return pt.FaultScenario(element_kind=kind, element_id=element_id,
                            impedance_pu=float(impedance), position=position)


def load_settings(doc) -> dict[str, float]:
    if not isinstance(doc, dict):
        _finish(["settings: must map breaker ids to trip currents"])
    settings = {k: v for k, v in doc.items() if k != "schema_version"}
    _finish(pt.check_settings(settings))
    return {k: float(v) for k, v in settings.items()}


# ---------------------------------------------------------------------------
# Restoration scenarios
# ---------------------------------------------------------------------------

def load_restoration_scenario(doc) -> bs.RestorationScenario:
    violations: list[str] = []
    _check_version(doc, violations)

    buses = []
    for i, entry in enumerate(doc.get("buses", [])):
        path = f"buses[{i}]"
        bid = _require(entry, "id", path, violations, kind=str)
        x = _number(entry, "x_km", path, violations)
        y = _number(entry, "y_km", path, violations)
        area = _require(entry, "area", path, violations, kind=str)
        if None not in (bid, x, y, area):
            buses.append(bs.BusPoint(id=bid, x_km=x, y_km=y, area=area))

    loads = []
    for i, entry in enumerate(doc.get("loads", [])):
        path = f"loads[{i}]"
        bus = _require(entry, "bus", path, violations, kind=str)
        demand = _number(entry, "demand_mw", path, violations)
        critical = entry.get("critical", False)
        if not isinstance(critical, bool):
            violations.append(f"{path}.critical: must be a boolean")
            critical = False
        if None not in (bus, demand):
            loads.append(bs.LoadAsset(bus=bus, demand_mw=demand, critical=critical))

    ders = []
    capabilities = {c.value: c for c in bs.DerCapability}
    for i, entry in enumerate(doc.get("ders", [])):
        path = f"ders[{i}]"
        did = _require(entry, "id", path, violations, kind=str)
        bus = _require(entry, "bus", path, violations, kind=str)
        cap_name = _require(entry, "capability", path, violations, kind=str)
        capacity = _number(entry, "capacity_mw", path, violations)
        aux = _number(entry, "aux_power_mw", path, violations, default=0.0)
        capability = capabilities.get(cap_name) if cap_name else None
        if cap_name is not None and capability is None:
            violations.append(
                f"{path}.capability: must be one of {sorted(capabilities)}")
        if None not in (did, bus, capability, capacity, aux):
            ders.append(bs.DerAsset(id=did, bus=bus, capability=capability,
                                    capacity_mw=capacity, aux_power_mw=aux))

    switches = []
    for i, entry in enumerate(doc.get("switches", [])):
        path = f"switches[{i}]"
        sid = _require(entry, "id", path, violations, kind=str)
        a = _require(entry, "area_a", path, violations, kind=str)
        b = _require(entry, "area_b", path, violations, kind=str)
        if None not in (sid, a, b):
            switches.append(bs.AreaSwitch(id=sid, area_a=a, area_b=b))

    comm = []
    for i, entry in enumerate(doc.get("comm", [])):
        path = f"comm[{i}]"
        bus = _require(entry, "bus", path, violations, kind=str)
        has_battery = entry.get("has_battery", False)
        if not isinstance(has_battery, bool):
            violations.append(f"{path}.has_battery: must be a boolean")
            has_battery = False
        battery = _number(entry, "battery_kwh", path, violations, default=0.0)
        drain = _number(entry, "drain_kw", path, violations, default=0.5)
        radius = _number(entry, "cell_radius_km", path, violations)
        if None not in (bus, battery, drain, radius):
            comm.append(bs.CommNode(bus=bus, has_battery=has_battery,
                                    battery_kwh=battery, drain_kw=drain,
                                    cell_radius_km=radius))

    policy = bs.SyncPolicy()
    pol_doc = doc.get("sync_policy")
    if pol_doc is not None:
        phase = _number(pol_doc, "max_phase_shift_rad", "sync_policy",
                        violations, default=0.2)
        freq = _number(pol_doc, "max_freq_diff_hz", "sync_policy",
                       violations, default=0.01)
        if None not in (phase, freq):
            policy = bs.SyncPolicy(max_phase_shift_rad=phase,
                                   max_freq_diff_hz=freq)

    draft = SimpleNamespace(buses=tuple(buses), loads=tuple(loads),
                            ders=tuple(ders), switches=tuple(switches),
                            comm=tuple(comm), sync_policy=policy)
    violations.extend(bs.check_restoration_scenario(draft))
    _finish(violations)
    return bs.RestorationScenario(buses=tuple(buses), loads=tuple(loads),
                                  ders=tuple(ders), switches=tuple(switches),
                                  comm=tuple(comm), sync_policy=policy)


def dump_restoration_scenario(sc: bs.RestorationScenario) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "buses": [{"id": b.id, "x_km": b.x_km, "y_km": b.y_km, "area": b.area}
                  for b in sc.buses],
        "loads": [{"bus": l.bus, "demand_mw": l.demand_mw, "critical": l.critical}
                  for l in sc.loads],
        "ders": [{"id": d.id, "bus": d.bus, "capability": d.capability.value,
                  "capacity_mw": d.capacity_mw, "aux_power_mw": d.aux_power_mw}
                 for d in sc.ders],
        "switches": [{"id": s.id, "area_a": s.area_a, "area_b": s.area_b}
                     for s in sc.switches],
        "comm": [{"bus": c.bus, "has_battery": c.has_battery,
                  "battery_kwh": c.battery_kwh, "drain_kw": c.drain_kw,
                  "cell_radius_km": c.cell_radius_km} for c in sc.comm],
        "sync_policy": {
            "max_phase_shift_rad": sc.sync_policy.max_phase_shift_rad,
            "max_freq_diff_hz": sc.sync_policy.max_freq_diff_hz,
        },
    }


# ---------------------------------------------------------------------------
# Coordination fleet documents
# ---------------------------------------------------------------------------

class FleetCase:
    """Parsed coordination case: units plus the two phase-2 selections."""

    def __init__(self, f_n, units, fcr_shares, total_fcr_pu, incident_units,
                 rocof_max, p0_ss, p0_irmax, h_ag_tso, grid, candidate):
        self.f_n = f_n
        self.units = units
        self.fcr_shares = fcr_shares
        self.total_fcr_pu = total_fcr_pu
        self.incident_units = incident_units
        self.rocof_max = rocof_max
        self.p0_ss = p0_ss
        self.p0_irmax = p0_irmax
        self.h_ag_tso = h_ag_tso
        self.grid = grid
        self.candidate = candidate


def load_fleet(doc) -> FleetCase:
    violations: list[str] = []
    _check_version(doc, violations)
    f_n = _number(doc, "f_n", "", violations, default=50.0)

    units = []
    fcr_shares = {}
    incident = []
    for i, entry in enumerate(doc.get("units", [])):
        path = f"units[{i}]"
        uid = _require(entry, "id", path, violations, kind=str)
        rating = _number(entry, "p_rating", path, violations)
        available = _number(entry, "p_available", path, violations)
        bus = entry.get("bus", "")
        flagged = entry.get("in_reference_incident", False)
        share = _number(entry, "fcr_share", path, violations, default=0.0)
        if None in (uid, rating, available):
            continue
        unit_violations = co.check_der_unit(uid, rating, available)
        violations.extend(unit_violations)
        if unit_violations:
            continue
        units.append(co.DerUnit(id=uid, p_rating=rating, p_available=available,
                                bus=bus, in_reference_incident=bool(flagged)))
        fcr_shares[uid] = share
        if flagged:
            incident.append(uid)

    inertia = _require(doc, "inertia", "", violations) or {}
    rocof = _number(inertia, "rocof_max_hz_per_s", "inertia", violations)
    p0_ss = _number(inertia, "p0_ss_pu", "inertia", violations)
    p0_irmax = _number(inertia, "p0_irmax_pu", "inertia", violations)
    h_tso = _number(inertia, "h_ag_tso_s", "inertia", violations)
    if rocof is not None and rocof <= 0:
        violations.append("inertia.rocof_max_hz_per_s: must be > 0")
    if p0_ss is not None and p0_irmax is not None and p0_irmax < p0_ss:
        violations.append("inertia.p0_irmax_pu: must be >= p0_ss_pu")

    droop = _require(doc, "droop", "", violations) or {}
    grid = candidate = None
    grid_doc = _require(droop, "grid", "droop", violations) if droop else None
    if grid_doc is not None:
        g_fields = {k: _number(grid_doc, k, "droop.grid", violations)
                    for k in ("f_min", "f_max", "f_step")}
        g_fields["f_n"] = _number(grid_doc, "f_n", "droop.grid", violations,
                                  default=f_n if f_n is not None else 50.0)
        if all(v is not None for v in g_fields.values()):
            grid_violations = co.check_frequency_grid(
                g_fields["f_min"], g_fields["f_max"], g_fields["f_step"],
                g_fields["f_n"], prefix="droop.grid")
            violations.extend(grid_violations)
            if not grid_violations:
                grid = co.FrequencyGrid(**g_fields)
    cand_doc = _require(droop, "candidate", "droop", violations) if droop else None
    if cand_doc is not None:
        candidate = _parse_curve(cand_doc, "droop.candidate", violations)

    total_fcr = _number(doc, "total_fcr_pu", "", violations, default=1.0)
    if total_fcr is not None and total_fcr <= 0:
        violations.append("total_fcr_pu: must be > 0")

    _finish(violations)
    return FleetCase(f_n=f_n, units=units, fcr_shares=fcr_shares,
                     total_fcr_pu=total_fcr, incident_units=incident,
                     rocof_max=rocof, p0_ss=p0_ss, p0_irmax=p0_irmax,
                     h_ag_tso=h_tso, grid=grid, candidate=candidate)


# ---------------------------------------------------------------------------
# CSV exchange formats (9 significant digits)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_trace_csv(fp, trace: fq.FrequencyTrace) -> None:
    fp.write("t,f,rocof\n")
    for t, f, r in trace.to_rows():
        fp.write(f"{_fmt(t)},{_fmt(f)},{_fmt(r)}\n")


def read_trace_csv(fp) -> fq.FrequencyTrace:
    reader = csv.DictReader(fp)
    t, f = [], []
    for row in reader:
        t.append(float(row["t"]))
        f.append(float(row["f"]))
    if len(t) < 2:
        raise InvalidInputError("trace csv: needs at least two rows")
    dt = t[1] - t[0]
    return fq.FrequencyTrace.from_frequencies(np.array(t), np.array(f), dt)


def write_timeline_csv(fp, timeline: bs.RestorationTimeline) -> None:
    fp.write("t,stage,served_total,served_critical,service_class\n")
    for ev in timeline.events:
        fp.write(f"{_fmt(ev.t_s)},{ev.stage},{_fmt(ev.served_total_mw)},"
                 f"{_fmt(ev.served_critical_mw)},{ev.service_class.value}\n")


def read_timeline_csv(fp) -> list[bs.TimelineEvent]:
    reader = csv.DictReader(fp)
    events = []
    for row in reader:
        events.append(bs.TimelineEvent(
            t_s=float(row["t"]), stage=row["stage"],
            served_total_mw=float(row["served_total"]),
            served_critical_mw=float(row["served_critical"]),
            service_class=bs.ServiceClass(row["service_class"])))
    if not events:
        raise InvalidInputError("timeline csv: no rows")
    return events


def write_monte_carlo_csv(fp, result: bs.MonteCarloResult) -> None:
    fp.write("run,restored_fraction\n")
    for k, fraction in enumerate(result.restored_fractions):
        fp.write(f"{k},{_fmt(fraction)}\n")
