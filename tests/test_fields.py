"""One admission test per number: row checks, document parsing and the
scalar arguments of the engine functions."""

import math
import numpy as np
import pytest
from hypothesis import given, settings
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
                         h_ag_tso_s=4.0, grid=bm.benchmark_frequency_grid(),
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
