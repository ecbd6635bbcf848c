"""Scenario documents and the CSV exchange formats.

Each document kind is a field table (see fields.py): the frequency,
network, fault, restoration and fleet documents, whose nested objects
are the engines' own tables. Loading walks the table, collects every
violation with its JSON path and raises a ScenarioValidationError
listing them, then builds the domain objects. The validate CLI
subcommand calls the same loaders, so a document that validates cleanly
is exactly a document the engines accept.

Documents carry a schema_version field, currently 1; fault and settings
documents may leave it out.
"""

import csv
import itertools
import math
import warnings

import numpy as np

from . import blackstart as bs
from . import coordination as co
from . import frequency as fq
from . import metrics as mt
from . import protection as pt
from .errors import InvalidInputError, ScenarioValidationError
from .fields import dump, load, num, obj, seq, table

SCHEMA_VERSION = 1
# Characters that a CSV cell holds only when quoted.
_CSV_SPECIAL = frozenset(',"\r\n')


def detect_kind(doc) -> str:
    """Infer the scenario kind from its top-level keys."""
    if not isinstance(doc, dict):
        raise InvalidInputError("document: must be a JSON object")
    for keys, kind in (({"system", "event"}, "frequency"),
                       ({"lines", "source"}, "network"),
                       ({"switches", "comm"}, "restoration"),
                       ({"units"}, "fleet"), ({"element"}, "fault")):
        if keys <= doc.keys():
            return kind
    raise InvalidInputError(
        f"document: cannot infer scenario kind from keys {sorted(doc)}")


def validate_document(doc) -> list[str]:
    """All invariant violations of a scenario document (empty if valid)."""
    try:
        kind = detect_kind(doc)
    except InvalidInputError as err:
        return [str(err)]
    loader = {"frequency": load_frequency_scenario, "network": load_network,
              "restoration": load_restoration_scenario, "fleet": load_fleet,
              "fault": load_fault}[kind]
    try:
        loader(doc)
    except ScenarioValidationError as err:
        return list(err.violations)
    return []


@table
class FrequencyScenario:
    """Parsed frequency study: system, event, reserves and run controls."""

    system: fq.SystemParameters = obj(fq.SystemParameters)
    event: fq.DisturbanceEvent = obj(fq.DisturbanceEvent)
    fcr: fq.FcrProduct = obj(fq.FcrProduct)
    secondary: fq.SecondaryReserve = obj(fq.SecondaryReserve)
    droop_fleet: tuple[fq.RatedDroopCurve, ...] = seq(fq.RatedDroopCurve, ())
    horizon_s: float = num(60.0)
    dt_s: float = num(0.01)

    def invariants(self):
        return fq.run_violations(self.event.t_event_s, self.horizon_s, self.dt_s)

    def simulate(self) -> fq.FrequencyTrace:
        return fq.simulate_disturbance(
            self.system, self.event, self.fcr, self.secondary,
            self.droop_fleet, horizon_s=self.horizon_s, dt_s=self.dt_s)


def load_frequency_scenario(doc) -> FrequencyScenario:
    return load(FrequencyScenario, doc, SCHEMA_VERSION)


def dump_frequency_scenario(scn: FrequencyScenario) -> dict:
    return {"schema_version": SCHEMA_VERSION, **dump(scn)}


def load_network(doc) -> pt.RadialNetwork:
    return load(pt.RadialNetwork, doc, SCHEMA_VERSION)


def dump_network(net: pt.RadialNetwork) -> dict:
    return {"schema_version": SCHEMA_VERSION, **dump(net)}


def load_fault(doc) -> pt.FaultScenario:
    return load(pt.FaultScenario, doc)


def load_settings(doc) -> dict[str, float]:
    if not isinstance(doc, dict):
        raise ScenarioValidationError(
            ["settings: must map breaker ids to trip currents"])
    settings = {k: v for k, v in doc.items() if k != "schema_version"}
    violations = pt.check_settings(settings)
    if violations:
        raise ScenarioValidationError(violations)
    return {k: float(v) for k, v in settings.items()}


def load_restoration_scenario(doc) -> bs.RestorationScenario:
    return load(bs.RestorationScenario, doc, SCHEMA_VERSION)


def dump_restoration_scenario(sc: bs.RestorationScenario) -> dict:
    return {"schema_version": SCHEMA_VERSION, **dump(sc)}


def load_fleet(doc) -> co.FleetCase:
    # A grid without an f_n of its own takes the fleet's nominal frequency.
    droop = doc.get("droop") if type(doc) is dict else None
    grid = droop.get("grid") if type(droop) is dict else None
    if type(grid) is dict and "f_n" not in grid and "f_n" in doc:
        doc = {**doc, "droop": {**droop, "grid": {**grid, "f_n": doc["f_n"]}}}
    return load(co.FleetCase, doc, SCHEMA_VERSION)


# ---------------------------------------------------------------------------
# CSV exchange formats (9 significant digits)
# ---------------------------------------------------------------------------

def write_trace_csv(fp, trace: fq.FrequencyTrace) -> None:
    # Row-major cells: t, f and rocof of each sample in turn, for one % call.
    cells = np.stack((trace.t, trace.f, trace.rocof), axis=1).ravel().tolist()
    fp.write(("t,f,rocof\n" + "%.9g,%.9g,%.9g\n" * len(trace)) % tuple(cells))


def read_trace_csv(fp) -> fq.FrequencyTrace:
    """A trace from its CSV: columns t and f, t in uniform steps, at most
    fq.MAX_SAMPLES rows."""
    try:
        header = next(csv.reader([fp.readline()]), [])
    except (csv.Error, UnicodeDecodeError) as err:   # readline decodes past the header
        raise InvalidInputError(f"trace csv: {err}") from None
    if "t" not in header or "f" not in header:
        raise InvalidInputError("trace csv: needs columns t and f")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # no data rows
            cells = np.loadtxt(fp, delimiter=",", comments=None, ndmin=2,
                               usecols=(header.index("t"), header.index("f")),
                               max_rows=fq.MAX_SAMPLES + 1)
    except ValueError as err:
        raise InvalidInputError(f"trace csv: {err}") from None
    if len(cells) > fq.MAX_SAMPLES:
        raise InvalidInputError(f"trace csv: at most {fq.MAX_SAMPLES} rows")
    if len(cells) < 2 or not np.isfinite(cells).all():
        raise InvalidInputError("trace csv: needs two or more rows of finite numbers")
    t, f = cells[:, 0], cells[:, 1]
    dt = t[1] - t[0]
    # The writer keeps 9 significant digits, which moves each t by at
    # most 5e-9 of |t| and so each step by at most 2e-8 of max |t|.
    if not (dt > 0 and np.all(np.abs(np.diff(t) - dt) <= 5e-8 * np.abs(t).max())):
        raise InvalidInputError("trace csv: t must increase in uniform steps")
    return fq.FrequencyTrace.from_frequencies(t, f, dt)


def write_timeline_csv(fp, timeline: bs.RestorationTimeline) -> None:
    fp.write("t,stage,served_total,served_critical,service_class\n" + "".join(
        "%.9g,%s,%.9g,%.9g,%s\n" % (ev.t_s, ev.stage, ev.served_total_mw,
                                     ev.served_critical_mw, ev.service_class.value)
        for ev in timeline.events))


def read_timeline_csv(fp) -> list[bs.TimelineEvent]:
    """Timeline events from their CSV: at most fq.MAX_SAMPLES rows."""
    rows = itertools.islice(csv.DictReader(fp), fq.MAX_SAMPLES + 1)
    try:
        events = [bs.TimelineEvent(
            t_s=float(row["t"]), stage=row["stage"],
            served_total_mw=float(row["served_total"]),
            served_critical_mw=float(row["served_critical"]),
            service_class=bs.ServiceClass(row["service_class"]))
            for row in rows]
    # No such column, a short row, a bad cell, a row the csv module rejects.
    # A cell, or a decode error's chunk, can be as long as the file: bound the text.
    except (KeyError, TypeError, ValueError, csv.Error) as err:
        raise InvalidInputError(f"timeline csv: {type(err).__name__}: {str(err):.100}") from None
    if not events:
        raise InvalidInputError("timeline csv: no rows")
    if len(events) > fq.MAX_SAMPLES:
        raise InvalidInputError(f"timeline csv: at most {fq.MAX_SAMPLES} rows")
    if not all(math.isfinite(x) for ev in events
               for x in (ev.t_s, ev.served_total_mw, ev.served_critical_mw)):
        raise InvalidInputError("timeline csv: numbers must be finite")
    # Stages are written back unquoted (write_service_csv, write_timeline_csv).
    for ev in events:
        if not _CSV_SPECIAL.isdisjoint(ev.stage):
            raise InvalidInputError(f"timeline csv: stage {ev.stage[:60]!r} must not hold "
                                    "a comma, a quote or a line break")
    return events


def write_monte_carlo_csv(fp, result: bs.MonteCarloResult) -> None:
    fp.write("run,restored_fraction\n" + "".join(
        map("%d,%.9g\n".__mod__, enumerate(result.restored_fractions))))


def write_service_csv(fp, trajectory: mt.ServiceTrajectory, annotation=None) -> None:
    """Each sample's t, level and label or, given a PhaseAnnotation, its
    phase (metrics.phase_index)."""
    t, names, index = trajectory.t, trajectory.labels, trajectory.code
    if annotation is not None:
        names = [iv.phase for iv in annotation.intervals]
        index = mt.phase_index(annotation, t)
    fp.write("t,level,phase\n" + "".join(map("%.9g,%.9g,%s\n".__mod__, zip(
        t.tolist(), trajectory.level.tolist(), [names[k] for k in index.tolist()]))))
