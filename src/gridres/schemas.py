"""Scenario documents and the CSV exchange formats.

Each document kind is a field table (see fields.py): the frequency,
network, fault, restoration and fleet documents, whose nested objects
are the engines' own tables. Loading walks the table, collects every
violation with its JSON path and raises a ScenarioValidationError
listing them, then builds the domain objects. The validate CLI
subcommand calls the same loaders, so a document that validates cleanly
is exactly a document the engines accept.

Documents carry a schema_version field, currently 1; fault and settings
documents may leave it out, but one they give is checked by the same rule.

Frequency traces and restoration timelines are read by one CSV reader,
_read_columns, so both take the same cells; read_trace_csv and
read_timeline_csv add only the checks of their own kind.
"""

import csv
import itertools
import re
import warnings

import numpy as np

from . import blackstart as bs
from . import coordination as co
from . import frequency as fq
from . import metrics as mt
from . import protection as pt
from .errors import InvalidInputError, ScenarioValidationError
from .fields import dump, load, num, obj, seq, table, version_violations

SCHEMA_VERSION = 1
# Characters that a CSV cell holds only when quoted.
_CSV_SPECIAL = frozenset(',"\r\n')
# np.loadtxt's message for a row whose cell count is not the dtype's (its
# row counts data rows from 1), and for a cell it cannot read as a number
# (its row counts them from 0).
_CELL_COUNT = re.compile(r"requires (\d+) columns but (\d+) were found at row (\d+)")
_NOT_A_NUMBER = re.compile(r"could not convert string (.*) to \w+ at row (\d+), column (\d+)",
                           re.DOTALL)


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


def _given_version(doc) -> int | None:
    """SCHEMA_VERSION if doc gives a schema_version (null counts as absent):
    fault and settings documents may leave it out."""
    return SCHEMA_VERSION if type(doc) is dict and doc.get("schema_version") is not None else None


def load_fault(doc) -> pt.FaultScenario:
    return load(pt.FaultScenario, doc, _given_version(doc))


def load_settings(doc) -> dict[str, float]:
    if not isinstance(doc, dict):
        raise ScenarioValidationError(
            ["settings: must map breaker ids to trip currents"])
    settings = {k: v for k, v in doc.items() if k != "schema_version"}
    violations = version_violations(doc, _given_version(doc)) + pt.check_settings(settings)
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


def _read_columns(fp, kind: str, numbers, texts=()) -> list[np.ndarray]:
    """The columns named in numbers (as floats) and texts (as strings) of
    a trace or timeline CSV, in that order, from one np.loadtxt pass: at
    most fq.MAX_SAMPLES rows in fq.MAX_SAMPLES + 1 lines, each with as
    many cells as the header, each number cell finite. A cell may be
    quoted; a repeated column name reads its first column. Messages
    start with '<kind> csv:'."""
    try:
        header = next(csv.reader([fp.readline()]), [])
    except (csv.Error, UnicodeDecodeError) as err:   # readline decodes past the header
        raise InvalidInputError(f"{kind} csv: {err}") from None
    names = (*numbers, *texts)
    if not set(names) <= set(header):
        raise InvalidInputError(
            f"{kind} csv: needs columns {', '.join(names[:-1])} and {names[-1]}")
    # A field per column, so that np.loadtxt checks each row's cell count
    # as it parses; the columns not named are read as empty strings.
    index = {name: header.index(name) for name in names}
    field = {index[n]: float for n in numbers} | {index[n]: object for n in texts}
    cols = np.dtype([(f"c{i}", field.get(i, "U0")) for i in range(len(header))])
    # The cap bounds lines, not np.loadtxt's max_rows, which reserves room
    # for every row up front; loadtxt skips empty lines, so a line past the
    # cap is refused too, and no row is dropped unread.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # no data rows
            rows = np.loadtxt(itertools.islice(fp, fq.MAX_SAMPLES + 1), dtype=cols,
                              delimiter=",", comments=None, quotechar='"', ndmin=1)
        too_long = len(rows) > fq.MAX_SAMPLES or fp.readline()
    except ValueError as err:
        if count := _CELL_COUNT.search(str(err)):
            need, found, row = map(int, count.groups())
            err = f"row {row} has {'more' if found > need else 'fewer'} cells than the header"
        elif cell := _NOT_A_NUMBER.search(str(err)):
            text, row, column = cell.groups()
            err = f"row {int(row) + 1}, column {column}: {text} is not a number"
        raise InvalidInputError(f"{kind} csv: {err}") from None
    if too_long:
        raise InvalidInputError(f"{kind} csv: at most {fq.MAX_SAMPLES} rows")
    columns = [rows[f"c{index[n]}"] for n in names]
    # np.loadtxt reads nan, inf and a cell past the float range as numbers:
    # name the first such cell in row order, then in column order.
    finite = [np.isfinite(c) for c in columns[:len(numbers)]]
    if not all(f.all() for f in finite):
        row, column = min((f.argmin(), index[n]) for n, f in zip(numbers, finite) if not f.all())
        raise InvalidInputError(
            f"{kind} csv: row {row + 1}, column {column + 1}: must be a finite number")
    return columns


def read_trace_csv(fp) -> fq.FrequencyTrace:
    """A trace from its CSV (_read_columns): columns t and f, t in uniform
    steps."""
    t, f = _read_columns(fp, "trace", ("t", "f"))
    if len(t) < 2:
        raise InvalidInputError("trace csv: needs two or more rows")
    # Cells near the float range overflow a difference: such a trace
    # fails a check below instead of warning.
    with np.errstate(all="ignore"):
        dt = t[1] - t[0]
        # The writer keeps 9 significant digits, which moves each t by at
        # most 5e-9 of |t| and so each step by at most 2e-8 of max |t|.
        uniform = dt > 0 and np.all(np.abs(np.diff(t) - dt) <= 5e-8 * np.abs(t).max())
        trace = fq.FrequencyTrace.from_frequencies(t, f, dt) if uniform else None
    if not uniform:
        raise InvalidInputError("trace csv: t must increase in uniform steps")
    if not np.isfinite(trace.rocof).all():
        raise InvalidInputError("trace csv: f must change at a finite rate")
    return trace


def write_timeline_csv(fp, timeline: bs.RestorationTimeline) -> None:
    fp.write("t,stage,served_total,served_critical,service_class\n" + "".join(
        "%.9g,%s,%.9g,%.9g,%s\n" % (ev.t_s, ev.stage, ev.served_total_mw,
                                     ev.served_critical_mw, ev.service_class.value)
        for ev in timeline.events))


def read_timeline_csv(fp) -> list[bs.TimelineEvent]:
    """Timeline events from their CSV (_read_columns): one or more rows."""
    t, total, critical, stages, classes = _read_columns(
        fp, "timeline", ("t", "served_total", "served_critical"), ("stage", "service_class"))
    if not len(t):
        raise InvalidInputError("timeline csv: no rows")
    try:
        classes = list(map(bs.ServiceClass, classes))
    except ValueError as err:   # the cell can be as long as the file: bound it
        raise InvalidInputError(f"timeline csv: {err!s:.100}") from None
    # Stages are written back unquoted (write_service_csv, write_timeline_csv).
    for stage in stages:
        if not _CSV_SPECIAL.isdisjoint(stage):
            raise InvalidInputError(f"timeline csv: stage {stage[:60]!r} must not hold "
                                    "a comma, a quote or a line break")
    return list(map(bs.TimelineEvent, t.tolist(), stages.tolist(), total.tolist(),
                    critical.tolist(), classes))


def write_monte_carlo_csv(fp, result: bs.MonteCarloResult) -> None:
    fractions = result.restored_fractions
    fp.write(("run,restored_fraction\n" + "%d,%.9g\n" * len(fractions))
             % _row_major(range(len(fractions)), fractions))


def write_service_csv(fp, trajectory: mt.ServiceTrajectory, annotation=None) -> None:
    """Each sample's t, level and label or, given a PhaseAnnotation, its
    phase (metrics.phase_index)."""
    t, names, index = trajectory.t, trajectory.labels, trajectory.code
    if annotation is not None:
        names = [iv.phase for iv in annotation.intervals]
        index = mt.phase_index(annotation, t)
    fp.write(("t,level,phase\n" + "%.9g,%.9g,%s\n" * len(t)) % _row_major(
        t.tolist(), trajectory.level.tolist(), [names[k] for k in index.tolist()]))


def _row_major(*columns) -> tuple:
    """The cells of equal-length columns, row by row, for one % call."""
    cells = [None] * sum(map(len, columns))
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    return tuple(cells)
