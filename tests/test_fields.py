"""One admission test per number: row checks, document parsing and the
scalar arguments of the engine functions."""

import contextlib
import importlib.util
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridres import benchmarks as bm
from gridres import blackstart as bs
from gridres import coordination as co
from gridres import fields
from gridres import frequency as fq
from gridres import metrics as mt
from gridres import protection as pt
from gridres import schemas
from gridres.errors import InvalidInputError

TABLES = list(dict.fromkeys(
    cls for module in (fq, co, pt, bs, schemas) for cls in vars(module).values()
    if isinstance(cls, type) and "__table__" in vars(cls)))
NUMBER_ROWS = [(f"{cls.__name__}.{attr}", spec) for cls in TABLES
               for attr, spec in cls.__table__.specs.items()
               if isinstance(spec, type(fields.number()))]

values = (st.integers() | st.sampled_from([10**400, -10**400, 2**1024, -2**1024])
          | st.floats(allow_nan=True, allow_infinity=True) | st.booleans()
          | st.text(max_size=3))


def test_every_table_has_been_found():
    names = {name for name, _spec in NUMBER_ROWS}
    assert {"SystemParameters.f_n", "Line.impedance_pu", "FleetCase.total_fcr_pu",
            "CommNode.cell_radius_km", "FaultScenario.impedance_pu"} <= names


@given(value=values)
@settings(max_examples=300, deadline=None)
def test_parse_and_check_accept_the_same_numbers(value):
    for name, spec in NUMBER_ROWS:
        out = []
        parsed = spec.parse(value, "", "x", out)
        assert (not out) == (spec.check(value) is None), name
        if not out:
            assert type(parsed) is float and parsed == float(value), name


def _trajectory():
    trace = fq.FrequencyTrace.from_frequencies(np.arange(3.0), np.full(3, 50.0), 1.0)
    return mt.service_from_frequency(trace, fq.SystemParameters())


def _locate(tolerance):
    net = bm.two_feeder_network(der_a_injection_pu=2.0, der_b_injection_pu=4.5)
    measured = pt.solve_fault_currents(net, bm.two_feeder_fault()).der_fault_arrivals_pu
    return pt.centralized_locate_fault(measured, pt.build_fault_signature_map(net),
                                       tolerance)


def _simulate(horizon_s=2.0, dt_s=0.01):
    return fq.simulate_disturbance(bm.benchmark_system(), bm.benchmark_event(),
                                   bm.benchmark_fcr(), bm.benchmark_secondary(),
                                   horizon_s=horizon_s, dt_s=dt_s)


def _positional(prefix, fn, names, valid):
    """One entry per argument of fn: the call with that argument replaced."""
    return {f"{prefix}.{name}": ((lambda v, i=i: fn(*valid[:i], v, *valid[i + 1:])),
                                 valid[i]) for i, name in enumerate(names)}


# Every scalar argument that an engine function checks:
# name -> (call with the argument replaced by a value, a valid value).
ARGUMENTS = {
    "evaluate_droop.f": (lambda v: fq.evaluate_droop(
        bm.benchmark_droop_fleet()[0].curve, v), 49.9),
    "fcr_ramp_output.t_since_activation_s": (lambda v: fq.fcr_ramp_output(
        v, bm.benchmark_fcr()), 10.0),
    **_positional("inertial_power", fq.inertial_power,
                  ("h_s", "rocof_hz_per_s", "f_n", "s_base_mva"), (5.0, -0.1, 50.0, 100.0)),
    "simulate_disturbance.horizon_s": (lambda v: _simulate(horizon_s=v), 2.0),
    "simulate_disturbance.dt_s": (lambda v: _simulate(dt_s=v), 0.01),
    **_positional("compute_h_ag_max", co.compute_h_ag_max,
                  ("p0_irmax_pu", "p0_ss_pu", "f_n", "rocof_max_hz_per_s"),
                  (0.5, 0.3, 50.0, 1.0)),
    **_positional("compute_p0_ir", co.compute_p0_ir,
                  ("h_ag_tso_s", "rocof_max_hz_per_s", "f_n", "p0_ss_pu"),
                  (1.0, 0.5, 50.0, 0.3)),
    "check_reserve_rules.total_fcr_pu": (
        lambda v: co.check_reserve_rules({"u": 0.01}, v), 1.0),
    "check_reserve_rules.fcr_shares_pu": (
        lambda v: co.check_reserve_rules({"u": v}, 1.0), 0.01),
    "centralized_locate_fault.tolerance": (_locate, 0.1),
    "monte_carlo.p_battery": (lambda v: bs.monte_carlo(
        bm.benchmark_restoration_scenario(), v, 2.0, 1), 0.5),
    "monte_carlo.cell_radius_km": (lambda v: bs.monte_carlo(
        bm.benchmark_restoration_scenario(), 0.5, v, 1), 2.0),
    "degradation_area.baseline": (lambda v: mt.degradation_area(_trajectory(), v), 1.0),
    "service_from_frequency.floor_deviation_hz": (lambda v: mt.service_from_frequency(
        fq.FrequencyTrace.from_frequencies(np.arange(3.0), np.full(3, 50.0), 1.0),
        fq.SystemParameters(), v), 2.5),
    "service_from_restoration.total_load_mw": (lambda v: mt.service_from_restoration(
        bs.run_restoration(bm.benchmark_restoration_scenario()).events, v), 10.0),
    **_positional("annotate_phases", lambda *marks: mt.annotate_phases(_trajectory(), *marks),
                  ("challenge_t", "detection_t", "remediation_start_t",
                   "recovery_complete_t"), (0.5, 1.0, 1.5, 2.0)),
    "state_space_path.state_metric": (lambda v: mt.state_space_path(
        _trajectory(), {"in_band": v}), 0.5),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, 10**400, "1"],
                         ids=["nan", "inf", "-inf", "True", "10**400", "str"])
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_argument_rejected(argument, value):
    call, _valid = ARGUMENTS[argument]
    with pytest.raises(InvalidInputError):
        call(value)


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_valid_argument_accepted(argument):
    # The calls above fail on the value under test, not on their other inputs.
    call, valid = ARGUMENTS[argument]
    call(valid)


def test_require_lists_every_rejected_value():
    with pytest.raises(InvalidInputError) as err:
        fields.require(("a", fields.number(gt=0), 0.0), ("b", fields.number(), 1.0),
                       ("c", fields.number(ge=0, le=1), True))
    assert str(err.value) == "a: must be finite and > 0; c: must be a number"


def _fleet_doc_with(**top):
    fleet = co.FleetCase(rocof_max_hz_per_s=1.0, p0_ss_pu=0.3, p0_irmax_pu=0.5,
                         h_ag_tso_s=4.0, grid=co.FrequencyGrid(49.5, 50.5, 0.1, 50.0),
                         candidate=bm.benchmark_droop_fleet()[0].curve)
    return {"schema_version": 1, **fields.dump(fleet), **top}


@pytest.mark.parametrize("make, message", [
    (lambda: pt.RadialNetwork(buses=("SRC", 3), lines=(), source=pt.ExternalSource(bus="SRC")),
     "RadialNetwork.buses: must be a list of str"),
    (lambda: schemas.load_fleet(_fleet_doc_with(inertia=5)), "inertia: must be an object"),
    (lambda: schemas.load_fleet({k: v for k, v in _fleet_doc_with().items() if k != "inertia"}),
     "inertia.rocof_max_hz_per_s: missing"),
], ids=["seq_item_type", "dotted_parent_not_an_object", "dotted_parent_absent"])
def test_shape_rejected(make, message):
    assert schemas.validate_document(_fleet_doc_with()) == []   # valid but for the edit
    with pytest.raises(InvalidInputError, match=message):
        make()


# ---------------------------------------------------------------------------
# Lists: the column pass against the per-item walk
# ---------------------------------------------------------------------------

LOADERS = {"network": schemas.load_network, "restoration": schemas.load_restoration_scenario,
           "fleet": schemas.load_fleet, "frequency": schemas.load_frequency_scenario}


def _fleet_with_units():
    doc = _fleet_doc_with()
    doc["units"] = [fields.dump(co.FleetUnit(f"u{i}", 0.4, 0.1 * i, fcr_share=0.02))
                    for i in range(3)]
    for unit in doc["units"]:       # defaulted keys left out of all units or of one
        del unit["bus"]
    del doc["units"][1]["in_reference_incident"]
    return doc


def _frequency_doc():
    return schemas.dump_frequency_scenario(schemas.FrequencyScenario(
        system=bm.benchmark_system(), event=bm.benchmark_event(), fcr=bm.benchmark_fcr(),
        secondary=bm.benchmark_secondary(), droop_fleet=bm.benchmark_droop_fleet() * 2))


BUNDLED = {"network": lambda: schemas.dump_network(bm.two_feeder_network(der_a_injection_pu=2.0)),
           "restoration": lambda: schemas.dump_restoration_scenario(
               bm.benchmark_restoration_scenario()),
           "fleet": _fleet_with_units, "frequency": _frequency_doc}


def _walk_only():
    """Every list walked an item at a time, as if there were no column pass."""
    return mock.patch.object(fields._Seq, "parse", fields._Seq.walk)


@contextlib.contextmanager
def _walked():
    """The paths of the lists walked an item at a time inside the block."""
    paths, walk = [], fields._Seq.walk

    def spy(self, raw, path, key, out):
        paths.append(fields._join(path, key))
        return walk(self, raw, path, key, out)
    with mock.patch.object(fields._Seq, "walk", spy):
        yield paths


def _fresh(kind):
    return json.loads(json.dumps(BUNDLED[kind]()))


def _list_cells(doc, path=(), in_list=False):
    """The paths of the nodes that sit inside a list."""
    if in_list:
        yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _list_cells(value, path + (key,), in_list)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _list_cells(value, path + (i,), True)


CELLS = (st.sampled_from([None, True, False, 0, 1, 3, -1, 10**400, 0.0, -0.5, 2.5, math.nan,
                          math.inf, -math.inf, "", "MAIN", "L1", "grid_forming", [], {},
                          ["SRC"], {"f_n": 50.0}])
         | st.floats(-10, 10) | st.integers(-3, 3))


@st.composite
def damaged_lists(draw):
    """A bundled document with one to three nodes inside its lists
    replaced, removed or written as an int."""
    kind = draw(st.sampled_from(sorted(BUNDLED)))
    doc = _fresh(kind)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_list_cells(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        how = draw(st.sampled_from(("replace", "remove", "int")))
        if how == "remove" and isinstance(parent, dict):
            del parent[path[-1]]
        elif how == "int" and type(old) is float and math.isfinite(old):
            parent[path[-1]] = round(old)
        else:
            parent[path[-1]] = draw(CELLS)
    return kind, doc


@given(case=damaged_lists())
@example(case=("network", {**_fresh("network"), "buses": ["SRC", 7]}))
@settings(max_examples=150, deadline=None)
def test_column_pass_matches_the_walk(case):
    kind, doc = case
    violations = schemas.validate_document(doc)
    with _walk_only():
        assert schemas.validate_document(doc) == violations
    if not violations:
        with _walk_only():
            walked = repr(LOADERS[kind](doc))
        assert repr(LOADERS[kind](doc)) == walked


def _bench_gen():
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_column_pass_loads_every_bundled_list():
    # Only a list of flat items takes the pass: a droop curve nests its
    # curve object. A new row kind in another list would send it to the walk.
    docs = [(kind, _fresh(kind)) for kind in BUNDLED]
    docs.append(("network", json.loads(json.dumps(
        schemas.dump_network(_bench_gen().feeder(1600, 1).network)))))
    for kind, doc in docs:
        with _walked() as walked:
            loaded = LOADERS[kind](doc)
        assert walked == (["droop_fleet"] if kind == "frequency" else []), kind
        with _walk_only():
            assert repr(loaded) == repr(LOADERS[kind](doc)), kind


def _with_ints(doc):
    """doc with every integral float written as an int."""
    if isinstance(doc, dict):
        return {key: _with_ints(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_with_ints(value) for value in doc]
    return int(doc) if type(doc) is float and doc.is_integer() else doc


def test_integer_cells_stay_on_the_column_pass():
    doc = _fresh("network")
    ints = _with_ints(doc)
    assert [d["i_max_pu"] for d in ints["ders"]] == [2, 0]
    with _walked() as walked:
        loaded = schemas.load_network(ints)
    assert walked == []
    assert repr(loaded) == repr(schemas.load_network(doc))


@fields.table
class _Inner:
    x: float = fields.num(ge=0)


@fields.table
class _Flat:
    """One row of each flat kind: text, flag, choice and numbers with a
    lower and with an upper bound."""

    name: str = fields.text()
    on: bool = fields.flag(True)
    kind: str = fields.choice(("a", "b"), "a")
    size: float = fields.num(0.5, gt=0)
    share: float = fields.num(0.5, ge=0, le=1)


@fields.table
class _Flats:
    items: tuple = fields.seq(_Flat)


FLATS = [{"name": "p", "on": False, "kind": "b", "size": 2.5, "share": 0.25},
         {"name": "q", "size": 1, "share": None},
         {"name": "r", "on": None, "kind": None, "share": 0}]


@fields.table
class _Item:
    """Not flat: one row of every kind, a dotted key and number rows with
    a null and with an upper bound."""

    name: str = fields.text()
    on: bool = fields.flag(True)
    kind: str = fields.choice(("a", "b"), "a")
    depth: float = fields.num(0.5, gt=0, key="at.depth")
    inner: _Inner = fields.obj(_Inner, _Inner(1.0))
    tags: tuple = fields.seq(str, ())
    inners: tuple = fields.seq(_Inner, ())
    limit: float = fields.num(0.0, ge=0, null=math.inf)
    share: float = fields.num(0.5, ge=0, le=1)


@fields.table
class _Items:
    items: tuple = fields.seq(_Item)


ITEMS = [{"name": "p", "on": False, "kind": "b", "at": {"depth": 2}, "inner": {"x": 0.5},
          "tags": ["s", "t"], "inners": [{"x": 1}, {"x": 2.5}], "limit": None, "share": 0.25},
         {"name": "q", "at": None, "inners": [], "limit": 3},
         {"name": "r", "kind": None, "at": {}, "tags": [], "limit": 0.5}]


@pytest.mark.parametrize("edit", [
    {}, {"name": 3}, {"on": 1}, {"kind": "c"}, {"at": 4}, {"at": {"depth": 0}},
    {"inner": {"x": -1}}, {"inner": None}, {"tags": ["s", 2]}, {"tags": "s"},
    {"inners": [{"x": math.nan}]}, {"inners": [{}]}, {"limit": -1}, {"limit": math.inf},
    {"share": 1}, {"share": 1.5}, {"share": -0.0},
    {"size": 0}, {"size": 3}, {"size": None}, {"size": math.inf}, {"size": 10**400},
    {"name": None}, {"on": None}, {"kind": None}, {"share": 0},
])
def test_column_pass_covers_every_row_kind(edit):
    # Each edit goes into the second item of a list of _Flat and of _Item;
    # a key that a class has no row for is ignored.
    for cls, items in ((_Flats, FLATS), (_Items, ITEMS)):
        doc = {"items": [items[0], {**items[1], **edit}, items[2]]}
        with _walk_only():
            out = []
            walked = fields._parse(cls, doc, "", out)
        with _walked() as paths:
            got = []
            parsed = fields._parse(cls, doc, "", got)
        assert got == out
        assert repr(parsed) == repr(walked)
        if cls is _Flats:   # a valid list takes the pass, a violation the walk
            assert paths == (["items"] if out else [])
        else:               # nested items always walk
            assert paths[:1] == ["items"]
