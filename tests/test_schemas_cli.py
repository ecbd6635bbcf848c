"""Scenario schema and CLI behavior: validation, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridres
from gridres import benchmarks as bm
from gridres import frequency as fq
from gridres import protection as pt
from gridres import schemas
from gridres.blackstart import CommNode, run_restoration
from gridres.cli import (COMMANDS, DEFAULT_SEED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE,
                         EXIT_VALIDATION, main)
from gridres.coordination import DerUnit, FleetUnit, InertiaPhase1
from gridres.errors import GridResError, InvalidInputError, ScenarioValidationError
from gridres.fields import dump
from gridres.frequency import DisturbanceEvent, FrequencyTrace, SystemParameters
from gridres.protection import FaultScenario, Line


def frequency_doc():
    scn = schemas.FrequencyScenario(
        system=bm.benchmark_system(), event=bm.benchmark_event(),
        fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
        droop_fleet=bm.benchmark_droop_fleet(), horizon_s=30.0, dt_s=0.01)
    return schemas.dump_frequency_scenario(scn)


def network_doc():
    return schemas.dump_network(bm.two_feeder_network(der_a_injection_pu=2.0))


def large_feeder_docs(seed=12):
    """A 101-bus feeder, a fault on it and its settings, as documents.

    A 20-line trunk from the source t0 carries eight 10-bus laterals,
    each behind a head breaker H<j>; impedances, loads and the lateral
    DER sizes are seeded. A resistive fault halfway down lateral 6's
    head line trips H6 at 0.2 s and leaves the far segment with the
    lateral's DER (EnergizedAfterTrip). H2 is set below its lateral's
    DER in-feed and trips first, at 0.1 s (SympatheticTrip). The 1.5 pu
    DER G at t12 blinds trunk breaker KT on T11, upstream of it.
    """
    rng = random.Random(seed)
    trunk = [f"t{i}" for i in range(21)]
    buses, lines, ders = list(trunk), [], []
    for i in range(1, 21):
        lines.append({"id": f"T{i}", "from_bus": trunk[i - 1], "to_bus": trunk[i],
                      "impedance_pu": rng.uniform(0.002, 0.006)})
    for j in range(8):
        prev = trunk[2 + 2 * j]
        for k in range(10):
            bus = f"a{j}_{k}"
            buses.append(bus)
            lines.append({"id": f"A{j}_{k}", "from_bus": prev, "to_bus": bus,
                          "impedance_pu": rng.uniform(0.003, 0.008)})
            if k % 3 == 2:
                ders.append({"id": f"D{j}_{k}", "bus": bus,
                             "i_max_pu": rng.uniform(0.01, 0.03)})
            prev = bus
    ders.append({"id": "G", "bus": "t12", "i_max_pu": 1.5})
    loads = [{"bus": b, "current_pu": rng.uniform(0.002, 0.006)} for b in buses[1:]]
    breakers = [{"id": "K0", "line": "T1", "i_trip_pu": 5.0, "delay_s": 0.5},
                {"id": "KT", "line": "T11", "i_trip_pu": 2.0, "delay_s": 0.4}]
    breakers += [{"id": f"H{j}", "line": f"A{j}_0",
                  "i_trip_pu": 0.04 if j == 2 else 1.5,
                  "delay_s": 0.1 if j == 2 else 0.2} for j in range(8)]
    network = {"schema_version": 1, "buses": buses, "lines": lines,
               "source": {"bus": "t0", "voltage_pu": 1.0, "impedance_pu": 0.05},
               "ders": ders, "breakers": breakers, "loads": loads}
    fault = {"element": {"kind": "line", "id": "A6_0"}, "impedance_pu": 0.3,
             "position": 0.5}
    return network, fault, {b["id"]: b["i_trip_pu"] for b in breakers}


def restoration_doc():
    return schemas.dump_restoration_scenario(bm.benchmark_restoration_scenario())


def fleet_doc():
    return {
        "schema_version": 1, "f_n": 50.0,
        "units": [
            {"id": "pv_north", "p_rating": 0.40, "p_available": 0.30,
             "fcr_share": 0.02},
            {"id": "pv_south", "p_rating": 0.35, "p_available": 0.20,
             "fcr_share": 0.03},
            {"id": "wind_east", "p_rating": 0.50, "p_available": 0.35,
             "fcr_share": 0.04},
        ],
        "inertia": {"rocof_max_hz_per_s": 1.0, "p0_ss_pu": 0.3,
                    "p0_irmax_pu": 0.5, "h_ag_tso_s": 4.0},
        "droop": {
            "grid": {"f_min": 49.5, "f_max": 50.5, "f_step": 0.1},
            "candidate": {"f_n": 50.0, "dead_band_half_width": 0.02,
                          "p_nominal": 0.7, "p_max": 1.2, "f_min": 49.5,
                          "p_min": 0.1, "f_max": 50.5}},
        "total_fcr_pu": 1.0,
    }


class TestSchemaRoundtrips:
    def test_frequency_roundtrip(self):
        doc = frequency_doc()
        scn = schemas.load_frequency_scenario(doc)
        assert schemas.dump_frequency_scenario(scn) == doc

    def test_network_roundtrip(self):
        doc = network_doc()
        net = schemas.load_network(doc)
        assert schemas.dump_network(net) == doc

    def test_restoration_roundtrip(self):
        doc = restoration_doc()
        sc = schemas.load_restoration_scenario(doc)
        assert schemas.dump_restoration_scenario(sc) == doc

    def test_kind_detection(self):
        assert schemas.detect_kind(frequency_doc()) == "frequency"
        assert schemas.detect_kind(network_doc()) == "network"
        assert schemas.detect_kind(restoration_doc()) == "restoration"
        assert schemas.detect_kind(fleet_doc()) == "fleet"

    def test_bundled_benchmarks_validate_cleanly(self):
        for doc in (frequency_doc(), network_doc(), restoration_doc(),
                    fleet_doc()):
            assert schemas.validate_document(doc) == []


class TestValidationReports:
    def test_violation_names_the_field(self):
        doc = fleet_doc()
        doc["units"][0]["p_available"] = 0.9  # above the 0.4 rating
        violations = schemas.validate_document(doc)
        assert any("p_available" in v for v in violations)

    def test_cycle_reported_as_radiality_violation(self):
        doc = network_doc()
        doc["lines"].append({"id": "LOOP", "from_bus": "F1B", "to_bus": "F2B",
                             "impedance_pu": 0.1})
        violations = schemas.validate_document(doc)
        assert any("radial" in v for v in violations)

    def test_droop_dead_band_overlap_named(self):
        doc = frequency_doc()
        doc["droop_fleet"][0]["curve"]["f_min"] = 49.99
        violations = schemas.validate_document(doc)
        assert any("f_min" in v for v in violations)

    def test_all_violations_listed_not_just_first(self):
        doc = frequency_doc()
        doc["system"]["s_base_mva"] = -5.0
        doc["fcr"]["capacity_mw"] = -1.0
        violations = schemas.validate_document(doc)
        assert len(violations) >= 2

    def test_wrong_schema_version_rejected(self):
        doc = frequency_doc()
        doc["schema_version"] = 99
        assert any("schema_version" in v
                   for v in schemas.validate_document(doc))

    def test_validator_and_loader_share_the_code_path(self):
        # Whatever the validator passes, the loader accepts, and the
        # other way round, by construction and by test.
        docs = [frequency_doc(), network_doc(), restoration_doc(), fleet_doc()]
        mutate = [lambda d: d["system"].__setitem__("h_sys_s", -1),
                  lambda d: d["lines"].__setitem__(0, {"id": "L0",
                                                       "from_bus": "SRC",
                                                       "to_bus": "MAIN",
                                                       "impedance_pu": -1}),
                  lambda d: d["comm"].__setitem__(0, {"bus": "A00b0",
                                                      "has_battery": True,
                                                      "battery_kwh": 1.0,
                                                      "drain_kw": 0.1,
                                                      "cell_radius_km": -2}),
                  lambda d: d["units"][0].__setitem__("p_rating", -1)]
        loaders = [schemas.load_frequency_scenario, schemas.load_network,
                   schemas.load_restoration_scenario, schemas.load_fleet]
        for doc, loader in zip(docs, loaders):
            assert schemas.validate_document(doc) == []
            loader(doc)  # must not raise
        for doc, loader, bad in zip(docs, loaders, mutate):
            bad(doc)
            assert schemas.validate_document(doc) != []
            with pytest.raises(ScenarioValidationError):
                loader(doc)


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        import io

        scn = schemas.load_frequency_scenario(frequency_doc())
        trace = scn.simulate()
        buf = io.StringIO()
        schemas.write_trace_csv(buf, trace)
        buf.seek(0)
        loaded = schemas.read_trace_csv(buf)
        assert len(loaded) == len(trace)
        assert loaded.f[0] == pytest.approx(trace.f[0])
        assert loaded.f[-1] == pytest.approx(trace.f[-1], abs=1e-6)

    def test_nine_significant_digits(self):
        import io

        scn = schemas.load_frequency_scenario(frequency_doc())
        buf = io.StringIO()
        schemas.write_trace_csv(buf, scn.simulate())
        header, first, *_ = buf.getvalue().splitlines()
        assert header == "t,f,rocof"
        for cell in first.split(","):
            mantissa = cell.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) <= 9


@pytest.fixture()
def workspace(tmp_path):
    paths = {}
    for name, doc in (("freq.json", frequency_doc()),
                      ("net.json", network_doc()),
                      ("bs.json", restoration_doc()),
                      ("fleet.json", fleet_doc())):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        paths[name] = p
    paths["fault.json"] = tmp_path / "fault.json"
    paths["fault.json"].write_text(json.dumps(
        {"element": {"kind": "line", "id": "L2"}, "impedance_pu": 0.0,
         "position": 0.5}))
    paths["settings.json"] = tmp_path / "settings.json"
    paths["settings.json"].write_text(json.dumps(bm.TWO_FEEDER_SETTINGS))
    for name, doc in zip(("feeder_net.json", "feeder_fault.json",
                          "feeder_settings.json"), large_feeder_docs()):
        paths[name] = tmp_path / name
        paths[name].write_text(json.dumps(doc))
    paths["root"] = tmp_path
    return paths


def run_cli(*args):
    return main([str(a) for a in args])


class TestCliExitCodes:
    def test_happy_path_frequency(self, workspace):
        out = workspace["root"] / "out"
        assert run_cli("frequency", "--scenario", workspace["freq.json"],
                       "--out", out) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "metrics.json").exists()

    def test_invalid_scenario_exits_1_and_names_field(self, workspace, capsys):
        doc = json.loads(workspace["freq.json"].read_text())
        doc["system"]["h_sys_s"] = -2.0
        bad = workspace["root"] / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("frequency", "--scenario", bad,
                       "--out", workspace["root"] / "o")
        assert code == EXIT_VALIDATION
        assert "h_sys_s" in capsys.readouterr().err

    def test_missing_file_exits_2(self, workspace):
        code = run_cli("frequency", "--scenario",
                       workspace["root"] / "nope.json",
                       "--out", workspace["root"] / "o")
        assert code == EXIT_RUNTIME

    # A usage error prints the usage line of the command it reached, or of
    # the group, then one error line, and exits 64 with nothing written.
    @pytest.mark.parametrize("args, command, message", [
        ((), None, "Missing command."),
        (("--errors-json",), None, "Missing command."),
        (("explode",), None, "No such command 'explode'."),
        (("--bogus", "validate"), None, "No such option '--bogus'."),
        (("--errors-json=1", "validate"), None, "Option '--errors-json' does not take a value."),
        (("validate",), "validate", "Missing option '--scenario'."),
        (("protection", "--network", "net.json", "--out", "m"), "protection",
         "Missing option '--fault'."),
        (("validate", "--scenario"), "validate", "Option '--scenario' requires an argument."),
        (("validate", "--scenaro", "bs.json"), "validate", "No such option '--scenaro'."),
        (("blackstart", "--scenario", "bs.json", "--out", "m", "--seed", "abc"), "blackstart",
         "Invalid value for '--seed': 'abc' is not a valid integer."),
        (("blackstart", "--scenario", "bs.json", "--out", "m", "--runs", "1.5"), "blackstart",
         "Invalid value for '--runs': '1.5' is not a valid integer."),
        (("metrics", "--trace", "t.csv", "--out", "m", "--baseline", "zz"), "metrics",
         "Invalid value for '--baseline': 'zz' is not a valid float."),
        (("metrics", "--trace", "t.csv", "--out", "m", "--format", "xml"), "metrics",
         "Invalid value for '--format': 'xml' is not one of 'json', 'csv'."),
        (("validate", "--scenario", "bs.json", "--out", "m", "extra"), "validate",
         "Got unexpected extra argument (extra)"),
        (("validate", "--errors-json", "--scenario", "bs.json"), "validate",
         "No such option '--errors-json'."),
    ], ids=["bare", "errors_json_only", "unknown_command", "unknown_group_option",
            "group_flag_with_value", "missing_option", "missing_second_option",
            "option_without_value", "unknown_option", "bad_integer_seed", "bad_integer_runs",
            "bad_float", "bad_choice", "extra_argument", "errors_json_after_command"])
    def test_usage_errors(self, workspace, monkeypatch, args, command, message):
        monkeypatch.chdir(workspace["root"])
        code, out, err = _cli(*args)
        usage = f"gridres {command} [OPTIONS]" if command else "gridres [OPTIONS] COMMAND [ARGS]..."
        assert (code, out, err) == (EXIT_USAGE, "", f"Usage: {usage}\ngridres: error: {message}\n")
        assert not Path("m").exists()

    @pytest.mark.parametrize("args, value", [
        (("--scenario=bs.json", "--out", "m"), "bs.json"),
        (("--scenario", "missing.json", "--scenario", "bs.json", "--out=m"), "bs.json"),
    ], ids=["equals", "last_value_wins"])
    def test_option_spellings(self, workspace, monkeypatch, args, value):
        monkeypatch.chdir(workspace["root"])
        assert run_cli("validate", *args) == EXIT_OK
        assert json.loads(Path("m", "validation.json").read_text())["valid"]

    @pytest.mark.parametrize("args, code, stream, text", [
        (("metrics", "--out", "m"), EXIT_VALIDATION, "err",
         "metrics: pass exactly one of --trace/--timeline"),
        (("metrics", "--timeline", "timeline.csv", "--out", "m"), EXIT_VALIDATION, "err",
         "metrics: --timeline needs --total-load-mw"),
        # The flags are checked before the file is opened.
        (("metrics", "--timeline", "missing.csv", "--out", "m"), EXIT_VALIDATION, "err",
         "metrics: --timeline needs --total-load-mw"),
        (("--help",), EXIT_OK, "out", "Usage"),
    ], ids=["no_input", "timeline_without_total", "missing_timeline_without_total", "help"])
    def test_argument_checks(self, workspace, capsys, monkeypatch, args, code, stream, text):
        monkeypatch.chdir(workspace["root"])
        Path("timeline.csv").write_text(
            "t,stage,served_total,served_critical,service_class\n0,S2,0,0,unacceptable\n")
        assert run_cli(*args) == code
        assert text in getattr(capsys.readouterr(), stream)
        assert not Path("m").exists()

    def test_errors_json_flag(self, workspace, capsys):
        doc = json.loads(workspace["freq.json"].read_text())
        doc["system"]["h_sys_s"] = -2.0
        bad = workspace["root"] / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("--errors-json", "frequency", "--scenario", bad,
                       "--out", workspace["root"] / "o")
        assert code == EXIT_VALIDATION
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ScenarioValidationError"
        assert any("h_sys_s" in v for v in payload["violations"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_protection_rejects_bad_trip_setting(self, workspace, capsys, bad):
        settings = workspace["root"] / "bad_settings.json"
        settings.write_text(json.dumps(dict(bm.TWO_FEEDER_SETTINGS, B=bad)))
        code = run_cli("protection", "--network", workspace["net.json"],
                       "--fault", workspace["fault.json"], "--settings", settings,
                       "--out", workspace["root"] / "o")
        assert code == EXIT_VALIDATION
        assert "settings[B]" in capsys.readouterr().err

    @pytest.mark.parametrize("version", [2, True, 1.0, "1"])
    def test_protection_rejects_a_settings_schema_version_other_than_1(
            self, workspace, capsys, version):
        # Settings may leave schema_version out (or give null or 1).
        for given in (None, 1):
            assert schemas.load_settings(dict(bm.TWO_FEEDER_SETTINGS, schema_version=given)) \
                == schemas.load_settings(bm.TWO_FEEDER_SETTINGS)
        settings = workspace["root"] / "versioned_settings.json"
        settings.write_text(json.dumps(dict(bm.TWO_FEEDER_SETTINGS, schema_version=version)))
        code = run_cli("protection", "--network", workspace["net.json"],
                       "--fault", workspace["fault.json"], "--settings", settings,
                       "--out", workspace["root"] / "o")
        assert code == EXIT_VALIDATION
        assert "schema_version: must be 1" in capsys.readouterr().err
        assert not (workspace["root"] / "o").exists()

    @pytest.mark.parametrize("flags", [
        ["--baseline", "nan"], ["--baseline", "inf"], ["--baseline", "-inf"],
        ["--challenge-t", "nan", "--detection-t", "2", "--remediation-t", "3",
         "--recovery-t", "10"],
        ["--challenge-t", "1", "--detection-t", "2", "--remediation-t", "nan",
         "--recovery-t", "10"],
    ], ids=["baseline_nan", "baseline_inf", "baseline_minus_inf",
            "challenge_nan", "remediation_nan"])
    def test_metrics_rejects_non_finite_flags(self, workspace, capsys, flags):
        src = workspace["root"] / "src"
        run_cli("frequency", "--scenario", workspace["freq.json"], "--out", src)
        out = workspace["root"] / "o"
        assert run_cli("metrics", "--trace", src / "trace.csv", "--out", out,
                       *flags) == EXIT_VALIDATION
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--challenge-t", "1"], ["--recovery-t", "30"],
        ["--challenge-t", "1", "--detection-t", "2"],
        ["--challenge-t", "1", "--detection-t", "2", "--remediation-t", "3"],
        ["--detection-t", "2", "--remediation-t", "3", "--recovery-t", "30"],
    ], ids=["challenge_only", "recovery_only", "two_marks", "three_marks",
            "three_marks_no_challenge"])
    def test_metrics_rejects_partial_phase_marks(self, workspace, capsys, flags):
        src = workspace["root"] / "src"
        run_cli("frequency", "--scenario", workspace["freq.json"], "--out", src)
        out = workspace["root"] / "o"
        assert run_cli("metrics", "--trace", src / "trace.csv", "--out", out,
                       *flags) == EXIT_VALIDATION
        assert "phase marks: pass all four or none" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()
        assert not out.exists()

    @pytest.mark.parametrize("mode,flags,message", [
        ("trace", ["--total-load-mw", "5"],
         "--total-load-mw applies to --timeline only"),
        ("timeline", ["--f-n", "60", "--band", "0.2", "--floor-deviation", "9"],
         "--f-n, --band, --floor-deviation apply to --trace only"),
    ], ids=["trace_with_total_load", "timeline_with_frequency_flags"])
    def test_metrics_rejects_flags_of_the_other_mode(self, workspace, capsys,
                                                    mode, flags, message):
        src = workspace["root"] / "src"
        if mode == "trace":
            run_cli("frequency", "--scenario", workspace["freq.json"], "--out", src)
            inputs = ["--trace", src / "trace.csv"]
        else:
            run_cli("blackstart", "--scenario", workspace["bs.json"], "--out", src)
            inputs = ["--timeline", src / "timeline.csv", "--total-load-mw", "65"]
        capsys.readouterr()
        out = workspace["root"] / "o"
        assert run_cli("metrics", *inputs, "--out", out, *flags) == EXIT_VALIDATION
        assert f"metrics: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--runs", "0"], ["--runs", "-5"], ["--runs", "1"], ["--runs", "3"],
        ["--radius-km", "-3"], ["--radius-km", "2"],
        ["--p", "0.5", "--radius-km", "2", "--runs", "0"],
        ["--p", "0.5", "--runs", "3"],
        ["--format", "csv"], ["--format", "json"],
    ], ids=["runs_0", "runs_minus_5", "runs_1", "runs_3", "radius_minus_3",
            "radius_2", "with_p_runs_0", "with_p_no_radius", "format_csv",
            "format_json"])
    def test_blackstart_rejects_incomplete_monte_carlo_flags(self, workspace,
                                                              capsys, flags):
        out = workspace["root"] / "o"
        assert run_cli("blackstart", "--scenario", workspace["bs.json"],
                       "--out", out, *flags) == EXIT_VALIDATION
        assert "gridres: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_reports_all_violations(self, workspace, capsys):
        doc = json.loads(workspace["net.json"].read_text())
        doc["lines"].append({"id": "LOOP", "from_bus": "F1B", "to_bus": "F2B",
                             "impedance_pu": 0.1})
        doc["breakers"][0]["i_trip_pu"] = -1.0
        bad = workspace["root"] / "badnet.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", bad) == EXIT_VALIDATION
        report = json.loads(capsys.readouterr().out)
        assert not report["valid"]
        assert len(report["violations"]) >= 2

    def test_validate_accepts_bundled_scenarios(self, workspace, capsys):
        for key in ("freq.json", "net.json", "bs.json", "fleet.json"):
            assert run_cli("validate", "--scenario", workspace[key]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert report["valid"] and report["violations"] == []


class TestCliArtifacts:
    def test_protection_report(self, workspace):
        out = workspace["root"] / "outp"
        assert run_cli("protection", "--network", workspace["net.json"],
                       "--fault", workspace["fault.json"],
                       "--settings", workspace["settings.json"],
                       "--out", out) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["trips"] == []  # blinded configuration
        assert any(i["kind"] == "Blinding" for i in report["issues"])

    def test_coordinate_artifacts(self, workspace):
        out = workspace["root"] / "outc"
        assert run_cli("coordinate", "--scenario", workspace["fleet.json"],
                       "--out", out) == EXIT_OK
        inertia = json.loads((out / "inertia_assignment.json").read_text())
        assert inertia["h_ag_max_s"] == pytest.approx(5.0)
        assert set(inertia["per_unit_h_s"]) == {"pv_north", "pv_south",
                                                "wind_east"}
        droop = json.loads((out / "droop_assignment.json").read_text())
        assert set(droop["per_unit"]) == {"pv_north", "pv_south", "wind_east"}
        report = json.loads((out / "rule_report.json").read_text())
        assert report["compliant"]

    def test_blackstart_single_run_timeline(self, workspace):
        out = workspace["root"] / "outb"
        assert run_cli("blackstart", "--scenario", workspace["bs.json"],
                       "--out", out, "--seed", "5") == EXIT_OK
        lines = (out / "timeline.csv").read_text().splitlines()
        assert lines[0] == "t,stage,served_total,served_critical,service_class"
        assert lines[1].startswith("0,S2,0")

    def test_blackstart_monte_carlo(self, workspace):
        out = workspace["root"] / "outm"
        assert run_cli("blackstart", "--scenario", workspace["bs.json"],
                       "--out", out, "--seed", "5", "--p", "0.9",
                       "--radius-km", "2", "--runs", "10") == EXIT_OK
        rows = (out / "monte_carlo.csv").read_text().splitlines()
        assert rows[0] == "run,restored_fraction"
        assert len(rows) == 11
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == 10

    def test_metrics_from_trace(self, workspace):
        out_f = workspace["root"] / "outf"
        run_cli("frequency", "--scenario", workspace["freq.json"], "--out", out_f)
        out_m = workspace["root"] / "outmt"
        assert run_cli("metrics", "--trace", out_f / "trace.csv",
                       "--out", out_m, "--challenge-t", "1", "--detection-t",
                       "2", "--remediation-t", "3", "--recovery-t", "10") == EXIT_OK
        payload = json.loads((out_m / "metrics.json").read_text())
        assert "degradation_area" in payload
        assert payload["recovery_time_s"] == pytest.approx(20.0)
        service = (out_m / "service.csv").read_text().splitlines()
        assert service[0] == "t,level,phase"
        assert service[1].endswith("Defend")

    def test_metrics_from_timeline(self, workspace):
        out_b = workspace["root"] / "outb2"
        run_cli("blackstart", "--scenario", workspace["bs.json"], "--out", out_b)
        out_m = workspace["root"] / "outmt2"
        assert run_cli("metrics", "--timeline", out_b / "timeline.csv",
                       "--out", out_m, "--total-load-mw", "65") == EXIT_OK
        payload = json.loads((out_m / "metrics.json").read_text())
        assert 0 < payload["final_level"] <= 1.0


FREQUENCY_ARGS = ("frequency", "--scenario", "freq.json")
COORDINATE_ARGS = ("coordinate", "--scenario", "fleet.json")
MONTE_CARLO_ARGS = ("blackstart", "--scenario", "bs.json", "--p", "0.5",
                    "--radius-km", "2", "--runs", "3")
METRICS_ARGS = ("metrics", "--trace", "src/trace.csv")
PROTECTION_ARGS = ("protection", "--network", "net.json", "--fault", "fault.json",
                   "--settings", "settings.json")
# Every artifact of the commands that write more than one, and protection's.
ARTIFACTS = [
    (FREQUENCY_ARGS, "trace.csv"), (FREQUENCY_ARGS, "metrics.json"),
    (COORDINATE_ARGS, "inertia_assignment.json"),
    (COORDINATE_ARGS, "droop_assignment.json"), (COORDINATE_ARGS, "rule_report.json"),
    (MONTE_CARLO_ARGS, "monte_carlo.csv"), (MONTE_CARLO_ARGS, "summary.json"),
    (METRICS_ARGS, "metrics.json"), (METRICS_ARGS, "service.csv"),
    (PROTECTION_ARGS, "report.json"),
]


class TestAllOrNone:
    @pytest.mark.parametrize("args,artifact", ARTIFACTS,
                             ids=[f"{a[0]}-{name}" for a, name in ARTIFACTS])
    def test_a_blocked_artifact_leaves_no_other_file(self, workspace, args, artifact):
        # A directory where the artifact goes makes its rename fail, after
        # every file of the command is staged and some are renamed.
        root = workspace["root"]
        run_cli("frequency", "--scenario", workspace["freq.json"], "--out", root / "src")
        out = root / "out"
        (out / artifact).mkdir(parents=True)
        argv = [root / a if a.endswith((".json", ".csv")) else a for a in args]
        code, _out, err = _cli(*argv, "--out", out)
        assert code == EXIT_RUNTIME, err
        assert [p.name for p in out.iterdir()] == [artifact]
        assert not any((out / artifact).iterdir())


class TestCliReproducibility:
    def _read_all(self, out_dir: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    @pytest.mark.parametrize("key,args", [
        ("frequency", lambda ws, out: ["frequency", "--scenario",
                                       ws["freq.json"], "--out", out,
                                       "--seed", "7"]),
        ("coordinate", lambda ws, out: ["coordinate", "--scenario",
                                        ws["fleet.json"], "--out", out,
                                        "--seed", "7"]),
        ("protection", lambda ws, out: ["protection", "--network",
                                        ws["net.json"], "--fault",
                                        ws["fault.json"], "--settings",
                                        ws["settings.json"], "--out", out,
                                        "--seed", "7"]),
        ("blackstart", lambda ws, out: ["blackstart", "--scenario",
                                        ws["bs.json"], "--out", out,
                                        "--seed", "7", "--p", "0.5",
                                        "--radius-km", "6", "--runs", "8"]),
    ])
    def test_byte_identical_across_runs(self, workspace, key, args):
        outputs = []
        for suffix in ("r1", "r2"):
            out = workspace["root"] / f"{key}_{suffix}"
            assert run_cli(*args(workspace, out)) == EXIT_OK
            outputs.append(self._read_all(out))
        assert outputs[0] == outputs[1]

    def test_env_seed_used_and_overridden(self, workspace, monkeypatch):
        out_env = workspace["root"] / "seed_env"
        out_flag = workspace["root"] / "seed_flag"
        out_default = workspace["root"] / "seed_default"
        monkeypatch.setenv("GRIDRES_SEED", "99")
        run_cli("blackstart", "--scenario", workspace["bs.json"],
                "--out", out_env, "--p", "0.5", "--radius-km", "2",
                "--runs", "4")
        run_cli("blackstart", "--scenario", workspace["bs.json"],
                "--out", out_flag, "--p", "0.5", "--radius-km", "2",
                "--runs", "4", "--seed", "99")
        monkeypatch.delenv("GRIDRES_SEED")
        run_cli("blackstart", "--scenario", workspace["bs.json"],
                "--out", out_default, "--p", "0.5", "--radius-km", "2",
                "--runs", "4")
        env_summary = json.loads((out_env / "summary.json").read_text())
        flag_summary = json.loads((out_flag / "summary.json").read_text())
        default_summary = json.loads((out_default / "summary.json").read_text())
        assert env_summary == flag_summary
        assert default_summary["seed"] == DEFAULT_SEED

    @pytest.mark.parametrize("args", [
        lambda ws, out: ["frequency", "--scenario", ws["freq.json"], "--out", out],
        lambda ws, out: ["coordinate", "--scenario", ws["fleet.json"], "--out", out],
        lambda ws, out: ["protection", "--network", ws["net.json"], "--fault",
                         ws["fault.json"], "--settings", ws["settings.json"],
                         "--out", out],
    ], ids=["frequency", "coordinate", "protection"])
    def test_deterministic_commands_ignore_env_seed(self, workspace, monkeypatch, args):
        monkeypatch.setenv("GRIDRES_SEED", "abc")
        assert run_cli(*args(workspace, workspace["root"] / "out")) == EXIT_OK

    def test_blackstart_rejects_a_non_integer_env_seed(self, workspace, monkeypatch):
        monkeypatch.setenv("GRIDRES_SEED", "abc")
        assert run_cli("blackstart", "--scenario", workspace["bs.json"],
                       "--out", workspace["root"] / "out") == EXIT_VALIDATION


# Every file each invocation writes, as the first 16 hex digits of its
# sha256. Names that are workspace keys stand for those files; trace.csv and
# timeline.csv come from a frequency and a blackstart run on the bundled
# scenarios.
PINNED_ARTIFACTS = {
    "frequency": (["frequency", "--scenario", "freq.json"],
                  {"metrics.json": "d3f71c3f77fa5fdb",
                   "trace.csv": "d37d4df8c589795f"}),
    "frequency_csv": (["frequency", "--scenario", "freq.json",
                       "--format", "csv"],
                      {"metrics.csv": "60354a6016faf6ef",
                       "trace.csv": "d37d4df8c589795f"}),
    "coordinate": (["coordinate", "--scenario", "fleet.json"],
                   {"droop_assignment.json": "5bad8736974face2",
                    "inertia_assignment.json": "7fa2bd4bb67d1415",
                    "rule_report.json": "74839814402edb61"}),
    "protection": (["protection", "--network", "net.json", "--fault",
                    "fault.json", "--settings", "settings.json"],
                   {"report.json": "c91c06a45126b610"}),
    # Trips at 0.1 and 0.2 s, a Blinding, a SympatheticTrip and two
    # EnergizedAfterTrip, one behind a split line under an open breaker.
    "protection_feeder": (["protection", "--network", "feeder_net.json",
                           "--fault", "feeder_fault.json",
                           "--settings", "feeder_settings.json"],
                          {"report.json": "c4077ca4482e5b83"}),
    "blackstart": (["blackstart", "--scenario", "bs.json", "--seed", "5"],
                   {"timeline.csv": "85f83ae225d30786"}),
    "monte_carlo": (["blackstart", "--scenario", "bs.json", "--seed", "5",
                     "--p", "0.5", "--radius-km", "6", "--runs", "8"],
                    {"monte_carlo.csv": "3c05e2f73629f02f",
                     "summary.json": "b1cd04f8db45ac84"}),
    "monte_carlo_csv": (["blackstart", "--scenario", "bs.json", "--seed", "5",
                         "--p", "0.5", "--radius-km", "6", "--runs", "8",
                         "--format", "csv"],
                        {"monte_carlo.csv": "3c05e2f73629f02f",
                         "summary.csv": "6286751d1a2073ec"}),
    "metrics_trace_phases_csv": (
        ["metrics", "--trace", "trace.csv", "--challenge-t", "1",
         "--detection-t", "2", "--remediation-t", "3", "--recovery-t", "10",
         "--format", "csv"],
        {"metrics.csv": "03710242901716d4", "service.csv": "d62e738b29eeda99"}),
    "metrics_timeline": (["metrics", "--timeline", "timeline.csv",
                          "--total-load-mw", "65"],
                         {"metrics.json": "df661e02eb0991e4",
                          "service.csv": "7ee082123f45cf10"}),
    "validate": (["validate", "--scenario", "fleet.json"],
                 {"validation.json": "1bc74e199bcc58b4"}),
}


class TestPinnedArtifacts:
    @pytest.mark.parametrize("key", sorted(PINNED_ARTIFACTS))
    def test_artifact_bytes_are_pinned(self, workspace, key):
        argv, expected = PINNED_ARTIFACTS[key]
        src = workspace["root"] / "src"
        if "trace.csv" in argv or "timeline.csv" in argv:
            run_cli("frequency", "--scenario", workspace["freq.json"], "--out", src)
            run_cli("blackstart", "--scenario", workspace["bs.json"], "--out", src)
        files = dict(workspace, **{name: src / name
                                   for name in ("trace.csv", "timeline.csv")})
        out = workspace["root"] / "out"
        assert run_cli(*[files.get(a, a) for a in argv], "--out", out) == EXIT_OK
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
                   for p in sorted(out.iterdir())}
        assert written == expected


# ---------------------------------------------------------------------------
# One schema per document: robustness, engine agreement, round trips
# ---------------------------------------------------------------------------

FAULT_DOC = {"element": {"kind": "line", "id": "L2"}, "impedance_pu": 0.0,
             "position": 0.5}


def short_frequency_doc():
    doc = frequency_doc()
    doc["horizon_s"] = 2.0      # the event is at 1 s: 201 samples
    return doc


def full_fleet_doc():
    """fleet_doc() with every defaulted key spelled out."""
    doc = fleet_doc()
    for unit in doc["units"]:
        unit.update(bus="", in_reference_incident=False)
    doc["droop"]["grid"]["f_n"] = 50.0
    return doc


BUNDLED = {"frequency": short_frequency_doc, "network": network_doc,
           "restoration": restoration_doc, "fleet": full_fleet_doc,
           "fault": lambda: json.loads(json.dumps(FAULT_DOC))}
# A settings document has no kind of its own: load_settings is its check.
DOCUMENTS = dict(BUNDLED, settings=lambda: dict(bm.TWO_FEEDER_SETTINGS))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12)


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


@st.composite
def damaged_docs(draw, kinds=tuple(BUNDLED)):
    """A bundled document with one to three nodes replaced or removed."""
    doc = DOCUMENTS[draw(st.sampled_from(kinds))]()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            return draw(json_values)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return doc


@st.composite
def perturbed_docs(draw, kinds):
    """A bundled document with one to three numbers changed, which keeps
    many of them valid."""
    doc = DOCUMENTS[draw(st.sampled_from(kinds))]()
    leaves = [p for p in _nodes(doc) if type(_get(doc, p)) is float]
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(leaves))
        old = _get(doc, path)
        _set(doc, path, draw(st.floats(-4, 4).map(lambda k: old * k)
                             | st.floats(allow_nan=False, allow_infinity=False)
                             | st.sampled_from([0.0, 1e-300, 1e300])))
    return doc


def _cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


class TestAnyDocument:
    @given(doc=json_values | damaged_docs())
    @settings(max_examples=300, deadline=None)
    def test_validate_lists_violations_and_never_raises(self, doc):
        violations = schemas.validate_document(doc)
        assert isinstance(violations, list)
        assert all(isinstance(v, str) for v in violations)

    @given(doc=json_values | damaged_docs())
    @settings(max_examples=25, deadline=None)
    def test_cli_validate_exits_0_or_1(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            code, out, err = _cli("--errors-json", "validate", "--scenario", path)
        assert code in (EXIT_OK, EXIT_VALIDATION)
        assert json.loads(out)["valid"] == (code == EXIT_OK)
        if code == EXIT_VALIDATION:
            assert json.loads(err)["error"] == "ScenarioValidationError"


ENGINE_KINDS = ("frequency", "restoration", "fleet")


def _reject_constant(name):
    raise AssertionError(f"{name} written into a JSON output")


@st.composite
def protection_docs(draw):
    """The two-feeder study's network, fault and settings documents, one
    to three of them damaged or perturbed."""
    kinds = ("network", "fault", "settings")
    changed = draw(st.sets(st.sampled_from(kinds), min_size=1))
    return tuple(draw(damaged_docs(kinds=(kind,)) | perturbed_docs((kind,)))
                 if kind in changed else DOCUMENTS[kind]() for kind in kinds)


# The engine's own checks of one document against another: a fault on an
# element the network lacks, settings without one of its breakers.
CROSS_DOCUMENT = ("fault.element_id: unknown ", "settings: missing breakers: ")


class TestValidateCleanMeansEngineAccepts:
    @given(doc=damaged_docs(kinds=ENGINE_KINDS) | perturbed_docs(ENGINE_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_engines_raise_no_input_error(self, doc):
        if schemas.validate_document(doc):
            return
        try:
            kind = schemas.detect_kind(doc)
            if kind == "frequency":
                scn = schemas.load_frequency_scenario(doc)
                if round(scn.horizon_s / scn.dt_s) <= 2000:
                    scn.simulate()
            elif kind == "restoration":
                run_restoration(schemas.load_restoration_scenario(doc), seed=1)
            else:
                with tempfile.TemporaryDirectory() as tmp:
                    path = Path(tmp) / "fleet.json"
                    path.write_text(json.dumps(doc))
                    code, _out, err = _cli("coordinate", "--scenario", path,
                                           "--out", Path(tmp) / "out")
                    assert code in (EXIT_OK, EXIT_RUNTIME), err
                    if code == EXIT_OK:   # NaN and Infinity are not JSON
                        for written in (Path(tmp) / "out").iterdir():
                            json.loads(written.read_text(),
                                       parse_constant=_reject_constant)
        except InvalidInputError as err:
            raise AssertionError(f"validate-clean document rejected: {err}")
        except GridResError:
            pass   # a domain outcome, such as an infeasible selection

    @given(docs=protection_docs())
    @settings(max_examples=100, deadline=None)
    def test_protection_runs_or_exits_2(self, docs):
        network, fault, trip = docs
        if schemas.validate_document(network) or schemas.validate_document(fault):
            return
        try:
            trip_settings = schemas.load_settings(trip)
        except ScenarioValidationError:
            return
        expected = (EXIT_OK, EXIT_RUNTIME)
        try:
            pt.simulate_protection(schemas.load_network(network), schemas.load_fault(fault),
                                   trip_settings)
        except InvalidInputError as err:
            if not str(err).startswith(CROSS_DOCUMENT):
                raise AssertionError(f"validate-clean documents rejected: {err}")
            expected = (EXIT_VALIDATION,)
        except GridResError:
            expected = (EXIT_RUNTIME,)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / name for name in ("net.json", "fault.json", "settings.json")]
            for path, doc in zip(paths, docs):
                path.write_text(json.dumps(doc))
            code, _out, err = _cli("protection", "--network", paths[0], "--fault", paths[1],
                                   "--settings", paths[2], "--out", Path(tmp) / "out")
            assert code in expected, err
            assert "Traceback" not in err
            if code == EXIT_OK:
                json.loads((Path(tmp) / "out" / "report.json").read_text(),
                           parse_constant=_reject_constant)


class TestDumpLoadRoundTrip:
    @pytest.mark.parametrize("kind", sorted(BUNDLED))
    def test_dump_of_load_is_identity(self, kind):
        doc = BUNDLED[kind]()
        loaded = {"frequency": schemas.load_frequency_scenario,
                  "network": schemas.load_network,
                  "restoration": schemas.load_restoration_scenario,
                  "fleet": schemas.load_fleet, "fault": schemas.load_fault}[kind](doc)
        dumped = dump(loaded)
        if kind != "fault":
            dumped = {"schema_version": 1, **dumped}
        assert dumped == doc

    def test_fault_kind_detected_and_validated(self):
        assert schemas.detect_kind(FAULT_DOC) == "fault"
        assert schemas.validate_document(FAULT_DOC) == []
        bad = dict(FAULT_DOC, element={"kind": "node", "id": "L2"})
        assert any("element.kind" in v for v in schemas.validate_document(bad))

    def test_null_fault_impedance_is_no_fault(self):
        fault = schemas.load_fault(dict(FAULT_DOC, impedance_pu=None))
        assert fault.impedance_pu == math.inf and not fault.is_fault
        assert dump(fault)["impedance_pu"] is None

    def test_grid_takes_the_fleet_nominal_frequency(self):
        doc = fleet_doc()
        doc["f_n"] = 60.0
        assert schemas.load_fleet(doc).grid.f_n == 60.0
        doc["droop"]["grid"]["f_n"] = 50.0
        assert schemas.load_fleet(doc).grid.f_n == 50.0


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Two units whose ratings sum to inf.
HUGE_UNITS = [{"id": f"u{i}", "p_rating": 1e308, "p_available": 0.3}
              for i in range(2)]

# One example per defect that crashed, or that validate accepted although
# an engine rejected it or it was wrong.
REGRESSIONS = [
    ("fleet", ("units",), [3], "units[0]: must be an object"),
    ("fleet", ("units",), {"u": 1}, "units: must be a list"),
    ("network", ("lines",), [3], "lines[0]: must be an object"),
    ("network", ("buses",), "xy", "buses: must be a list"),
    ("restoration", ("buses",), "xy", "buses: must be a list"),
    ("restoration", ("ders",), 5, "ders: must be a list"),
    ("network", ("ders",), 5, "ders: must be a list"),
    ("restoration", ("comm",), [None], "comm[0]: must be an object"),
    ("restoration", ("sync_policy",), 3, "sync_policy: must be an object"),
    ("frequency", ("horizon_s",), math.inf, "horizon_s"),
    ("frequency", ("horizon_s",), math.nan, "horizon_s"),
    ("frequency", ("dt_s",), 1e-9, "horizon_s"),   # 2e9 samples, never run
    ("fleet", ("inertia", "h_ag_tso_s"), 5.0, "inertia.h_ag_tso_s"),
    ("fleet", ("inertia", "h_ag_tso_s"), 1e6, "inertia.h_ag_tso_s"),
    ("fleet", ("inertia", "h_ag_tso_s"), -1.0, "inertia.h_ag_tso_s"),
    ("fleet", ("inertia", "h_ag_tso_s"), math.inf, "inertia.h_ag_tso_s"),
    ("fleet", ("inertia", "rocof_max_hz_per_s"), math.nan,
     "inertia.rocof_max_hz_per_s"),
    ("fleet", ("inertia", "p0_ss_pu"), math.nan, "inertia.p0_ss_pu"),
    ("fleet", ("total_fcr_pu",), math.inf, "total_fcr_pu"),
    ("fleet", ("units", 0, "fcr_share"), math.nan, "units[0].fcr_share"),
    ("fleet", ("units", 0, "fcr_share"), -0.1, "units[0].fcr_share"),
    ("fleet", ("units", 1, "id"), "pv_north", "duplicate id"),
    ("fleet", ("units", 1, "bus"), 3, "units[1].bus"),
    ("fleet", ("units", 1, "in_reference_incident"), 1,
     "units[1].in_reference_incident"),
    ("fleet", ("droop", "grid", "f_step"), 1e-9, "droop.grid.f_step"),
    ("fleet", ("schema_version",), True, "schema_version"),
    ("fleet", ("schema_version",), 1.0, "schema_version"),
    ("frequency", ("event", "delta_p_pu"), -1e300, "event.delta_p_pu"),
    ("frequency", ("event", "delta_p_pu"), 1.5, "event.delta_p_pu"),
    # An offered maximum h_ag_max_s that overflows to inf.
    ("fleet", ("inertia", "p0_irmax_pu"), 7.190772539449264e306,
     "inertia.p0_irmax_pu"),
    ("fleet", ("units",), HUGE_UNITS, "units: total p_rating must be finite"),
    # A fault document may leave schema_version out, but not give another.
    *(("fault", ("schema_version",), version, "schema_version: must be 1")
      for version in (2, True, 1.0, "1")),
]


class TestRegressions:
    @pytest.mark.parametrize("kind,path,value,expected", REGRESSIONS)
    @pytest.mark.parametrize("errors_json", [False, True])
    def test_defect_is_a_listed_violation(self, tmp_path, kind, path, value,
                                          expected, errors_json):
        doc = _set(BUNDLED[kind](), path, value)
        assert any(expected in v for v in schemas.validate_document(doc))
        scenario = tmp_path / "doc.json"
        scenario.write_text(json.dumps(doc))
        flags = ["--errors-json"] if errors_json else []
        code, _out, err = _cli(*flags, "validate", "--scenario", scenario)
        assert code == EXIT_VALIDATION
        assert expected in (json.loads(err)["message"] if errors_json else err)

    @pytest.mark.parametrize("path,value", [
        (("inertia", "p0_irmax_pu"), 7.190772539449264e306),
        (("units",), HUGE_UNITS),
    ])
    def test_coordinate_rejects_fleet_with_non_finite_totals(self, tmp_path,
                                                             path, value):
        scenario = tmp_path / "fleet.json"
        scenario.write_text(json.dumps(_set(fleet_doc(), path, value)))
        for flags in ([], ["--errors-json"]):
            code, _out, _err = _cli(*flags, "coordinate", "--scenario", scenario,
                                    "--out", tmp_path / "out")
            assert code == EXIT_VALIDATION
            assert not (tmp_path / "out").exists()

    def test_coordinate_exits_2_on_a_result_that_overflows(self, tmp_path):
        # Validate-clean, but power_i * f_n overflows in distribute_inertia,
        # which once wrote "pv_north": Infinity into inertia_assignment.json.
        doc = fleet_doc()
        doc["units"][0]["p_rating"] = 2.247116418577895e307
        assert schemas.validate_document(doc) == []
        scenario = tmp_path / "fleet.json"
        scenario.write_text(json.dumps(doc))
        for flags in ([], ["--errors-json"]):
            code, _out, err = _cli(*flags, "coordinate", "--scenario", scenario,
                                   "--out", tmp_path / "out")
            assert code == EXIT_RUNTIME
            assert "not finite" in err
            assert not (tmp_path / "out").exists()

    def test_metrics_exits_2_on_an_area_that_overflows(self, workspace):
        # A finite baseline of 1e308 over a 30 s trace once wrote
        # "degradation_area": Infinity into metrics.json. pytest turns a
        # RuntimeWarning into an error, so this also shows that no overflow
        # warning escapes.
        src = workspace["root"] / "src"
        run_cli("frequency", "--scenario", workspace["freq.json"], "--out", src)
        out = workspace["root"] / "o"
        code, _out, err = _cli("metrics", "--trace", src / "trace.csv",
                               "--baseline", "1e308", "--out", out)
        assert code == EXIT_RUNTIME
        assert "not finite" in err
        assert not out.exists()

    def test_metrics_csv_exits_2_on_an_area_that_overflows(self, workspace):
        # The same area once went to metrics.csv as "degradation_area,inf",
        # with numpy's overflow warning on stderr.
        src = workspace["root"] / "src"
        run_cli("frequency", "--scenario", workspace["freq.json"], "--out", src)
        out = workspace["root"] / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _out, err = _cli("metrics", "--trace", src / "trace.csv",
                                   "--baseline", "1e308", "--format", "csv",
                                   "--out", out)
        assert code == EXIT_RUNTIME
        assert "not finite" in err and "Warning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("errors_json", [False, True])
    def test_setting_beyond_the_float_range(self, workspace, errors_json):
        # A JSON integer that no float holds once passed the settings check
        # and crashed in float() with an OverflowError traceback.
        settings = workspace["root"] / "huge_settings.json"
        settings.write_text(json.dumps({**bm.TWO_FEEDER_SETTINGS, "A": 10**400}))
        out = workspace["root"] / "o"
        flags = ["--errors-json"] if errors_json else []
        code, _out, err = _cli(*flags, "protection", "--network", workspace["net.json"],
                               "--fault", workspace["fault.json"], "--settings", settings,
                               "--out", out)
        assert code == EXIT_VALIDATION
        assert "settings[A]" in err and "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("text", [
        b"\xff{}",
        b'{"A": 1' + b"0" * 4400 + b', "B": 3.8, "C": 8.0}',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not_utf8", "4401_digits", "nested_100000_deep"])
    @pytest.mark.parametrize("errors_json", [False, True])
    def test_json_the_decoder_rejects(self, workspace, text, errors_json):
        # Each once ended in a UnicodeDecodeError, ValueError or
        # RecursionError traceback rather than exit 1.
        settings = workspace["root"] / "undecodable.json"
        settings.write_bytes(text)
        out = workspace["root"] / "o"
        flags = ["--errors-json"] if errors_json else []
        code, _out, err = _cli(*flags, "protection", "--network", workspace["net.json"],
                               "--fault", workspace["fault.json"], "--settings", settings,
                               "--out", out)
        assert code == EXIT_VALIDATION
        assert "undecodable.json: not valid JSON" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        [], ["--p", "0.9", "--radius-km", "6", "--runs", "3"]],
        ids=["single_run", "monte_carlo"])
    def test_blackstart_with_a_subnormal_phase_threshold(self, workspace, flags):
        # Validate-clean, but no drawn phase shift falls below 1e-320 rad,
        # so a pair reached its 1,024th merge attempt, whose window
        # pi / 2**1024 ended in an OverflowError traceback.
        doc = json.loads(workspace["bs.json"].read_text())
        doc["sync_policy"]["max_phase_shift_rad"] = 1e-320
        assert schemas.validate_document(doc) == []
        scenario = workspace["root"] / "bs_tiny.json"
        scenario.write_text(json.dumps(doc))
        code, _out, err = _cli("blackstart", "--scenario", scenario, "--seed", "7",
                               *flags, "--out", workspace["root"] / "o")
        assert code == EXIT_OK and "Traceback" not in err

    def test_fault_document_that_is_a_list(self, workspace):
        fault = workspace["root"] / "fault_list.json"
        fault.write_text(json.dumps([FAULT_DOC]))
        for flags in ([], ["--errors-json"]):
            code, _out, err = _cli(*flags, "protection", "--network",
                                   workspace["net.json"], "--fault", fault,
                                   "--settings", workspace["settings.json"],
                                   "--out", workspace["root"] / "o")
            assert code == EXIT_VALIDATION
            assert "must be an object" in err

    def test_monte_carlo_runs_are_bounded(self):
        from gridres.blackstart import MAX_RUNS, monte_carlo
        with pytest.raises(InvalidInputError, match="runs"):
            monte_carlo(bm.benchmark_restoration_scenario(), 0.5, 2.0,
                        runs=MAX_RUNS + 1)

    def test_diverging_frequency_run_exits_2(self, workspace):
        doc = json.loads(workspace["freq.json"].read_text())
        doc["system"]["h_sys_s"] = 1e-300
        doc["droop_fleet"] = []
        scenario = workspace["root"] / "diverging.json"
        scenario.write_text(json.dumps(doc))
        assert schemas.validate_document(doc) == []
        code, _out, err = _cli("frequency", "--scenario", scenario,
                               "--out", workspace["root"] / "o")
        assert code == EXIT_RUNTIME
        assert "diverged" in err

    def test_simulation_sample_cap_rejects_without_running(self):
        from gridres.frequency import MAX_SAMPLES, simulate_disturbance
        dt = 1e-3
        with pytest.raises(InvalidInputError, match="samples"):
            simulate_disturbance(bm.benchmark_system(), bm.benchmark_event(),
                                 bm.benchmark_fcr(), bm.benchmark_secondary(),
                                 horizon_s=MAX_SAMPLES * dt, dt_s=dt)


class TestDirectConstruction:
    """Every rule the document path applies also holds for constructors."""

    @pytest.mark.parametrize("make", [
        lambda: SystemParameters(h_sys_s=-1),
        lambda: SystemParameters(f_n=math.nan),
        lambda: DerUnit(id="u", p_rating=1.0, p_available=0.5, bus=3),
        lambda: DerUnit(id="u", p_rating=1.0, p_available=0.5,
                        in_reference_incident=1),
        lambda: FleetUnit(id="u", p_rating=1.0, p_available=0.5, fcr_share=math.nan),
        lambda: CommNode("B0", has_battery="yes"),
        lambda: FaultScenario("node", "L1"),
        lambda: FaultScenario("line", "L1", position=math.nan),
        lambda: schemas.FrequencyScenario(
            system=bm.benchmark_system(), event=bm.benchmark_event(),
            fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
            horizon_s=math.inf),
        lambda: replace(schemas.load_fleet(fleet_doc()),
                        units=schemas.load_fleet(fleet_doc()).units * 2),
        lambda: replace(schemas.load_fleet(fleet_doc()), h_ag_tso_s=5.0),
        lambda: DisturbanceEvent(t_event_s=1.0, delta_p_pu=-1e300),
        lambda: InertiaPhase1(rocof_max_hz_per_s=math.nan, h_ag_max_s=5.0,
                              p0_ss_pu=0.3, p0_irmax_pu=0.5),
        lambda: InertiaPhase1(rocof_max_hz_per_s=1.0, h_ag_max_s=math.nan,
                              p0_ss_pu=0.3, p0_irmax_pu=0.5),
        lambda: InertiaPhase1(rocof_max_hz_per_s=1.0, h_ag_max_s=math.inf,
                              p0_ss_pu=0.3, p0_irmax_pu=0.5),
        lambda: Line("x", "a", "b", 10**400),
    ])
    def test_rejected(self, make):
        with pytest.raises(InvalidInputError):
            make()


# A trace whose cell 'x' sits in its first or its second data row, with
# that row's number counted from 1, as the cell-count errors and
# read_timeline_csv count it; the blank line is not counted.
UNREADABLE_TRACE_CELLS = [("t,f\n0,x\n0.5,50\n", 1), ("t,f\n0,50\n\n0.5,x\n", 2)]


class TestCsvReaders:
    def _trace(self, text):
        return schemas.read_trace_csv(io.StringIO(text))

    def test_missing_column(self):
        with pytest.raises(InvalidInputError, match="columns"):
            self._trace("t,g\n0,50\n0.01,50\n")

    def test_non_numeric_cell(self):
        with pytest.raises(InvalidInputError):
            self._trace("t,f,rocof\n0,50,0\n0.01,fast,0\n")

    def test_non_finite_cell(self):
        with pytest.raises(InvalidInputError, match="finite"):
            self._trace("t,f,rocof\n0,50,0\n0.01,nan,0\n")

    def test_non_uniform_steps(self):
        with pytest.raises(InvalidInputError, match="uniform"):
            self._trace("t,f,rocof\n0,50,0\n0.01,49.9,0\n5,49.8,0\n5.01,49.8,0\n")

    @pytest.mark.parametrize("text, message", [
        ("t,f\n0,50\n1e308,49.9\n1,49.8\n", "uniform"),
        ("t,f\n-1e308,50\n1e308,49.9\n", "uniform"),
        ("t,f\n0,1e308\n0.5,49.9\n", "finite rate"),
        ("t,f\n0,50\n5e-324,49.9\n", "finite rate"),
    ], ids=["step_overflows", "first_step_overflows", "rate_overflows", "subnormal_step"])
    def test_differences_past_the_float_range_are_invalid_input(self, text, message):
        # Tier-1 makes a numpy RuntimeWarning an error, so none may escape.
        with pytest.raises(InvalidInputError, match=message):
            self._trace(text)

    def test_writer_rounding_passes_the_uniform_check(self):
        # 9 significant digits at large |t| and an awkward step.
        t = 1e4 + np.arange(2001) * (1 / 3)
        trace = FrequencyTrace.from_frequencies(t, np.full(t.size, 50.0), 1 / 3)
        buf = io.StringIO()
        schemas.write_trace_csv(buf, trace)
        buf.seek(0)
        assert len(schemas.read_trace_csv(buf)) == t.size

    @pytest.mark.parametrize("text", [
        "t,stage,served_total,served_critical,service_class\n0,S2,0,0,grand\n",
        "t,stage,served_total\n0,S2,0\n",
        "t,stage,served_total,served_critical,service_class\n0,S2,x,0,impaired\n",
        "t,stage,served_total,served_critical,service_class\n0,S2\n",
    ])
    def test_malformed_timeline(self, text):
        with pytest.raises(InvalidInputError):
            schemas.read_timeline_csv(io.StringIO(text))

    @pytest.mark.parametrize("read, text, message", [
        (schemas.read_timeline_csv,
         "t,stage,served_total,served_critical,service_class\n", "timeline csv: no rows"),
        (schemas.read_timeline_csv,
         "t,stage,served_total,served_critical,service_class\nnan,S2,0,0,impaired\n",
         "^timeline csv: row 1, column 1: must be a finite number$"),
        (lambda fp: schemas.load_settings(json.load(fp)), "[1]",
         "settings: must map breaker ids to trip currents"),
        *((schemas.read_trace_csv, text, f"^trace csv: row {row}, column 2: 'x' is not a number$")
          for text, row in UNREADABLE_TRACE_CELLS),
    ], ids=["timeline_header_only", "timeline_nan", "settings_not_an_object",
            "trace_cell_in_first_row", "trace_cell_in_second_row"])
    def test_rejected_with_message(self, read, text, message):
        with pytest.raises(InvalidInputError, match=message):
            read(io.StringIO(text))

    @pytest.mark.parametrize("cell, value", [
        ("1_0", None), ("\uff11\uff10", None), ("0x1p3", None), ('"0.5"', 0.5), ('" 0.5 "', 0.5),
    ], ids=["underscore", "full_width_digits", "hex_float", "quoted", "quoted_with_padding"])
    @pytest.mark.parametrize("read, text", [
        (schemas.read_trace_csv, "t,f\n0,50\n{},50\n"),
        (schemas.read_timeline_csv, "t,stage,served_total,served_critical,service_class\n"
         "0,S2,0,0,unacceptable\n{},S3,5,1,impaired\n"),
    ], ids=["trace", "timeline"])
    def test_readers_take_the_same_number_cells(self, read, text, cell, value):
        # float() alone reads 1_0 and full-width digits as 10.0.
        kind = "trace" if read is schemas.read_trace_csv else "timeline"
        if value is not None:
            got = read(io.StringIO(text.format(cell)))
            assert (got.t[1] if kind == "trace" else got[1].t_s) == value
            return
        with pytest.raises(InvalidInputError,
                           match=f"^{kind} csv: row 2, column 1: '{cell}' is not a number$"):
            read(io.StringIO(text.format(cell)))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("row", [1, 3])
    @pytest.mark.parametrize("kind, lines, columns", [
        ("trace", ["t,f", "0,50", "0.5,49.9", "1,49.8", "1.5,49.9"], [1, 2]),
        ("timeline", ["t,stage,served_total,served_critical,service_class",
                      "0,S2,0,0,unacceptable", "30,S3,1,0.5,impaired", "60,S4,2,1,acceptable",
                      "90,S5,2,1,acceptable"], [1, 3, 4]),
    ], ids=["trace", "timeline"])
    def test_a_non_finite_cell_is_named_by_row_and_column(self, kind, lines, columns, row, cell):
        read = schemas.read_trace_csv if kind == "trace" else schemas.read_timeline_csv
        for column in columns:
            rows = [line.split(",") for line in lines]
            rows[row][column - 1] = cell
            rows[-1][columns[0] - 1] = "nan"    # a later bad cell is not the one named
            text = "".join(",".join(r) + "\n" for r in rows)
            with pytest.raises(InvalidInputError) as err:
                read(io.StringIO(text))
            assert str(err.value) == (f"{kind} csv: row {row}, column {column}: "
                                      "must be a finite number")

    @given(cell=st.sampled_from(["0.5", "2e1", "1_0", "\uff11\uff10", "0x1p3", "inf", "nan", ""])
           | st.text("abxyz!?+-._", min_size=200, max_size=200),
           pad=st.sampled_from(["", " ", "\t "]), quoted=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_trace_and_timeline_read_a_cell_alike(self, cell, pad, quoted):
        # The same cell in data row 2, column 1 of a trace and of a timeline.
        cell = f"{pad}{cell}{pad}"
        cell = f'"{cell}"' if quoted else cell
        texts = {"trace": f"t,f\n0,50\n{cell},50\n",
                 "timeline": "t,stage,served_total,served_critical,service_class\n"
                             f"0,S2,0,0,unacceptable\n{cell},S3,5,1,impaired\n"}
        outcomes = set()
        for kind, read in (("trace", schemas.read_trace_csv),
                           ("timeline", schemas.read_timeline_csv)):
            try:
                got = read(io.StringIO(texts[kind]))
            except InvalidInputError as err:
                message = str(err)
                if "finite" in message:   # inf and nan are numbers, but not finite ones
                    outcomes.add("not finite")
                else:
                    assert message.startswith(f"{kind} csv: row 2, column 1: ")
                    assert message.endswith(" is not a number")
                    outcomes.add("not a number")
            else:
                outcomes.add((got.t[1] if kind == "trace" else got[1].t_s).hex())
        assert len(outcomes) == 1, outcomes

    def test_a_repeated_column_name_reads_its_first_column(self):
        trace = schemas.read_trace_csv(io.StringIO("t,f,t\n0,50,x\n0.5,49,\n"))
        assert trace.t.tolist() == [0, 0.5]
        timeline = schemas.read_timeline_csv(io.StringIO(
            "t,stage,served_total,served_critical,service_class,stage\n"
            "0,S2,0,0,unacceptable,x\n60,S3,5,1,impaired,y\n"))
        assert [ev.stage for ev in timeline] == ["S2", "S3"]

    @pytest.mark.parametrize("stage", ["S2\rx", "S" * (csv.field_size_limit() + 1)],
                             ids=["bare_cr", "oversized_cell"])
    def test_timeline_csv_module_errors_are_invalid_input(self, stage):
        text = ("t,stage,served_total,served_critical,service_class\n"
                f"0,{stage},0,0,impaired\n")
        if len(stage) > csv.field_size_limit():   # past the csv module's limit, read whole
            assert schemas.read_timeline_csv(io.StringIO(text))[0].stage == stage
            return
        with pytest.raises(InvalidInputError, match="timeline csv"):
            schemas.read_timeline_csv(io.StringIO(text))

    @pytest.mark.parametrize("stage", ["S2,x", 'S2"x', "S2\rx", "S2\nx"],
                             ids=["comma", "quote", "cr", "lf"])
    def test_timeline_stage_must_not_need_quoting(self, stage):
        # The csv module reads a quoted cell back whole; the writers would
        # put it out unquoted and add a column or a row.
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC).writerows([
            ["t", "stage", "served_total", "served_critical", "service_class"],
            [0, stage, 0, 0, "unacceptable"]])
        buf.seek(0)
        with pytest.raises(InvalidInputError, match="stage"):
            schemas.read_timeline_csv(buf)

    def test_metrics_cli_exits_1_on_stage_with_comma(self, tmp_path):
        timeline = tmp_path / "timeline.csv"
        timeline.write_text("t,stage,served_total,served_critical,service_class\n"
                            '0,"S2,x",0,0,unacceptable\n'
                            "60,S3,5,1,impaired\n")
        code, _out, err = _cli("metrics", "--timeline", timeline,
                               "--total-load-mw", "10", "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and "S2,x" in err
        assert not (tmp_path / "o").exists()

    def test_oversized_trace_header_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="trace csv"):
            self._trace("t,f," + "x" * (csv.field_size_limit() + 1) + "\n0,50\n")

    def test_trace_rows_are_capped(self, monkeypatch):
        monkeypatch.setattr(fq, "MAX_SAMPLES", 5)
        rows = [f"{k / 100},50,0\n" for k in range(6)]
        assert len(self._trace("t,f,rocof\n" + "".join(rows[:5]))) == 5
        with pytest.raises(InvalidInputError, match="at most 5 rows"):
            self._trace("t,f,rocof\n" + "".join(rows))

    def test_blank_lines_never_hide_a_row_past_the_cap(self, monkeypatch):
        # Blank lines are skipped as rows but count toward the line cap: a
        # trace whose lines run past it is refused, never cut short.
        monkeypatch.setattr(fq, "MAX_SAMPLES", 5)
        rows = [f"{k / 100},50,0\n" for k in range(6)]
        assert len(self._trace("t,f,rocof\n\n" + "".join(rows[:5]))) == 5
        for text in ("\n\n" + "".join(rows), "".join(rows[:2]) + "\n\n" + "".join(rows[2:5])):
            with pytest.raises(InvalidInputError, match="at most 5 rows"):
                self._trace("t,f,rocof\n" + text)

    def test_short_trace_reserves_no_room_for_the_cap(self):
        tracemalloc.start()
        try:
            assert len(self._trace("t,f\n0,50\n0.5,50\n")) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_timeline_rows_are_capped(self, monkeypatch):
        monkeypatch.setattr(fq, "MAX_SAMPLES", 5)
        header = "t,stage,served_total,served_critical,service_class\n"
        rows = [f"{k},S2,0,0,unacceptable\n" for k in range(6)]
        read = schemas.read_timeline_csv
        assert len(read(io.StringIO(header + "".join(rows[:5])))) == 5
        with pytest.raises(InvalidInputError, match="at most 5 rows"):
            read(io.StringIO(header + "".join(rows)))

    def test_metrics_cli_exits_1_on_too_many_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fq, "MAX_SAMPLES", 5)
        trace = tmp_path / "trace.csv"
        trace.write_text("t,f\n" + "".join(f"{k},50\n" for k in range(6)))
        code, _out, err = _cli("metrics", "--trace", trace, "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and "at most 5 rows" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags,text", [
        (["--trace"], b"t,f\n0,50\n\xff,1\n"),
        (["--trace"], b"t,f\n" + b"".join(b"%d,50\n" % k for k in range(20_000))
         + b"\xff,1\n"),
        (["--total-load-mw", "10", "--timeline"],
         b"t,stage,served_total,served_critical,service_class\n"
         b"0,S2,0,0,unacceptable\n\xff,S3,5,1,impaired\n"),
    ], ids=["trace", "trace_past_the_first_chunk", "timeline"])
    def test_metrics_cli_exits_1_on_input_that_is_not_utf8(self, tmp_path, flags, text):
        src = tmp_path / "input.csv"
        src.write_bytes(text)
        code, _out, err = _cli("metrics", *flags, src, "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and "utf-8" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        b"t,stage,served_total,served_critical,service_class\n"
        + b"".join(b"%d,S2,0,0,unacceptable\n" % k for k in range(300))
        + b"\xff,S3,5,1,impaired\n",
        b"t,stage,served_total,served_critical,service_class\n"
        b"0,S2," + b"x" * 100_000 + b",0,impaired\n",
        b"t,stage,served_total,served_critical,service_class\n"
        b'0,"' + b"x" * 100_000 + b',y",0,0,unacceptable\n',
    ], ids=["byte_that_is_not_utf8", "long_cell_that_is_not_a_number",
            "long_stage_with_a_comma"])
    def test_metrics_cli_timeline_error_text_is_bounded(self, tmp_path, text):
        # The message must not echo the decoded chunk or a whole cell.
        src = tmp_path / "timeline.csv"
        src.write_bytes(text)
        code, _out, err = _cli("metrics", "--total-load-mw", "10", "--timeline", src,
                               "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and len(err.encode()) < 300
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    def test_metrics_cli_exits_1_on_bad_csv(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_text("t,f,rocof\n0,50,0\n0.01,49.9,0\n5,49.8,0\n5.01,49.8,0\n")
        code, _out, err = _cli("metrics", "--trace", trace, "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and "uniform" in err

    def test_metrics_cli_exits_1_on_a_short_timeline_row(self, tmp_path):
        # stage is the header's last column, so the short row lacks only it.
        timeline = tmp_path / "timeline.csv"
        timeline.write_text("t,served_total,served_critical,service_class,stage\n"
                            "30,2,1,acceptable\n")
        code, _out, err = _cli("metrics", "--timeline", timeline, "--total-load-mw", "2",
                               "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and "row 1 has fewer cells" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("t,f\n0,50,7,8\n0.5,50\n", "row 1 has more cells"),
        ("t,f\n0,50\n0.5,50,\n", "row 2 has more cells"),
        ("t,f,rocof\n0,50,0\n0.5,50\n", "row 2 has fewer cells"),
        # A long row and a short one hold as many commas as two whole rows.
        ("t,f,rocof\n0,50,0,0\n0.5,50\n1,50,0\n", "row 1 has more cells"),
        ("t,f,rocof\n\n0,50,0\n\n0.5,50,0,x\n", "row 2 has more cells"),
    ], ids=["long_first_row", "trailing_comma", "short_unread_cell",
            "long_and_short_rows", "long_row_after_empty_lines"])
    def test_trace_row_without_a_cell_per_column_is_invalid_input(self, text, message):
        with pytest.raises(InvalidInputError, match=f"trace csv: {message} than the header"):
            self._trace(text)

    @pytest.mark.parametrize("text", [
        "t,f,rocof\n0,50,0\n\n0.5,50,0\n\n", "t,f,rocof\r\n0,50,0\r\n0.5,50,0\r\n",
        "t,f\n0,50\n0.5,50"], ids=["empty_lines", "crlf", "no_final_line_break"])
    def test_trace_rows_with_a_cell_per_column_are_read(self, text):
        assert len(self._trace(text)) == 2

    @pytest.mark.parametrize("text, row", UNREADABLE_TRACE_CELLS, ids=["first_row", "second_row"])
    def test_metrics_cli_exits_1_on_an_unreadable_trace_cell(self, tmp_path, text, row):
        src = tmp_path / "trace.csv"
        src.write_text(text)
        code, _out, err = _cli("metrics", "--trace", src, "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and f"row {row}, column 2: 'x' is not a number" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, text, flags", [
        ("--trace", "t,f\n0,50,7,8\n0.5,50\n", []),
        ("--timeline", "t,stage,served_total,served_critical,service_class\n"
         "0,S2,0,0,unacceptable,7,8\n60,S3,2,1,acceptable\n", ["--total-load-mw", "2"]),
    ], ids=["trace", "timeline"])
    def test_metrics_cli_exits_1_on_a_long_row(self, tmp_path, flag, text, flags):
        src = tmp_path / "input.csv"
        src.write_text(text)
        code, _out, err = _cli("metrics", flag, src, *flags, "--out", tmp_path / "o")
        assert code == EXIT_VALIDATION and "row 1 has more cells than the header" in err
        assert "Traceback" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("missing", range(5))
    def test_timeline_row_missing_any_cell_is_invalid_input(self, missing):
        header = ["t", "stage", "served_total", "served_critical", "service_class"]
        header.append(header.pop(missing))
        row = {"t": "0", "stage": "S2", "served_total": "0", "served_critical": "0",
               "service_class": "unacceptable"}
        text = ",".join(header) + "\n" + ",".join(row[c] for c in header[:-1]) + "\n"
        with pytest.raises(InvalidInputError, match="fewer cells"):
            schemas.read_timeline_csv(io.StringIO(text))


# The columns each reader needs; the timeline's are listed with stage
# last, as another writer might order them.
METRICS_COLUMNS = {"trace": ("t", "f", "rocof"),
                   "timeline": ("t", "served_total", "served_critical", "service_class",
                                "stage")}
ODD_CELLS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e400", "", "x", "5e-324")


def _metrics_row(kind, k):
    """Row k of a well-formed trace or timeline, by column."""
    if kind == "trace":
        return {"t": f"{k * 0.5:g}", "f": f"{50 - 0.1 * (k % 3):g}", "rocof": "0"}
    served = min(k, 4)
    return {"t": str(30 * k), "stage": ("S2", "S3", "S4", "S5", "S5'")[min(k, 4)],
            "served_total": str(served), "served_critical": str(min(served, 2)),
            "service_class": ("unacceptable", "impaired", "acceptable")[min(k, 2)]}


@st.composite
def metrics_csvs(draw, kind):
    """A trace or timeline CSV whose columns may be reordered, one dropped
    or one added, with one row cut short or made long and with odd cells
    (non-finite, huge, empty, not numbers). Each damage is drawn for the
    whole file, so a file with just one of them is a common draw. Returns
    the text and the row shape drawn: whole, short or long."""
    columns = list(METRICS_COLUMNS[kind])
    if draw(st.booleans()):
        columns = list(draw(st.permutations(columns)))
    if draw(st.integers(0, 3)) == 0:
        del columns[draw(st.integers(0, len(columns) - 1))]
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), "extra")
    odd = draw(st.integers(0, 2)) == 0
    rows = []
    for k in range(draw(st.integers(1, 5))):
        row = dict(_metrics_row(kind, k), extra="1")
        rows.append([draw(st.sampled_from(ODD_CELLS)) if odd and draw(st.integers(0, 3)) == 0
                     else row[c] for c in columns])
    shape, k = draw(st.sampled_from(["whole", "short", "long"])), draw(st.integers(0, 4))
    if shape == "short":
        del rows[k % len(rows)][-draw(st.integers(1, 2)):]
    elif shape == "long":
        rows[k % len(rows)] += draw(st.lists(st.sampled_from(("1", "nan", "x")),
                                             min_size=1, max_size=2))
    return "".join(",".join(cells) + "\n" for cells in [columns, *rows]), shape


class TestMetricsCsvInputs:
    @pytest.mark.parametrize("kind", sorted(METRICS_COLUMNS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_metrics_exits_0_1_or_2_and_writes_all_or_nothing(self, kind, data):
        text, shape = data.draw(metrics_csvs(kind))
        total_load = data.draw(st.sampled_from(["2", "65", "1e308", "0"]))
        with tempfile.TemporaryDirectory() as tmp:
            src, out = Path(tmp) / f"{kind}.csv", Path(tmp) / "out"
            src.write_text(text)
            flags = ["--total-load-mw", total_load] if kind == "timeline" else []
            code, _out, err = _cli("metrics", f"--{kind}", src, *flags, "--out", out)
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME), err
            if shape == "long":
                assert code == EXIT_VALIDATION, err
            assert "Traceback" not in err
            if code != EXIT_OK:
                assert not out.exists() or not any(out.iterdir())


# Values the argv property gives a number option: non-finite, negative,
# zero, huge, fractional and not numbers at all.
ARGV_NUMBERS = ("nan", "inf", "-inf", "-3", "-1", "0", "1", "2", "0.5", "1e308", "1e400",
                "9" * 30, "1.5", "x", "")
# The document each path option of each command reads.
ARGV_DOCS = {("frequency", "--scenario"): "freq.json",
             ("coordinate", "--scenario"): "fleet.json",
             ("protection", "--network"): "net.json", ("protection", "--fault"): "fault.json",
             ("protection", "--settings"): "settings.json",
             ("blackstart", "--scenario"): "bs.json",
             ("metrics", "--trace"): "trace.csv", ("metrics", "--timeline"): "timeline.csv",
             ("validate", "--scenario"): "fleet.json"}


@pytest.fixture(scope="module")
def argv_docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    docs = {"freq.json": short_frequency_doc(), "fleet.json": fleet_doc(),
            "net.json": network_doc(), "fault.json": FAULT_DOC,
            "settings.json": bm.TWO_FEEDER_SETTINGS, "bs.json": restoration_doc()}
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    for name, writer, result in (
            ("trace.csv", schemas.write_trace_csv,
             schemas.load_frequency_scenario(short_frequency_doc()).simulate()),
            ("timeline.csv", schemas.write_timeline_csv,
             run_restoration(bm.benchmark_restoration_scenario(), seed=1))):
        with open(root / name, "w", encoding="utf-8") as fp:
            writer(fp, result)
    return root


@st.composite
def command_argvs(draw, command, root):
    """An argv for one subcommand, in any order: each option of its table
    left out or given a drawn value, a path mostly the document it reads,
    and sometimes a flag of another command, of the group or of none."""
    pairs = []
    for opt in COMMANDS[command][2]:
        if opt.flag == "--out" or draw(st.integers(0, 7)) < (1 if opt.required else 5):
            continue
        if opt.convert is Path:
            doc = ARGV_DOCS[command, opt.flag]
            value = draw(st.sampled_from([doc] * 4 + sorted(set(ARGV_DOCS.values()))
                                         + ["missing.json"]))
            value = str(root / value)
        elif isinstance(opt.convert, tuple):
            value = draw(st.sampled_from([*opt.convert, "xml", ""]))
        else:
            value = draw(st.sampled_from(ARGV_NUMBERS))
        pairs.append([opt.flag, value])
    if draw(st.integers(0, 3)) == 0:
        pairs.append([draw(st.sampled_from(["--bogus", "--errors-json", "--p", "--trace",
                                            "--seed", "--format", "--help", "-x"])),
                      draw(st.sampled_from(ARGV_NUMBERS))])
    return [command] + [token for pair in draw(st.permutations(pairs)) for token in pair]


class TestArgv:
    """One contract for every command line: a known exit code, no
    traceback, and nothing written unless the command succeeds."""

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_argv_exits_cleanly_and_writes_all_or_nothing(self, argv_docs, command, data):
        argv = data.draw(command_argvs(command, argv_docs))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            if data.draw(st.integers(0, 7)) or command == "validate":
                argv += ["--out", str(out)]
            code, _out, err = _cli(*argv)
            assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_RUNTIME, EXIT_USAGE), err
            assert "Traceback" not in err
            written = sorted(p.name for p in out.iterdir()) if out.exists() else []
            if code != EXIT_OK:
                # validate reports its violations in validation.json too.
                allowed = ["validation.json"] if (command, code) == ("validate",
                                                                     EXIT_VALIDATION) else []
                assert written in ([], allowed), (argv, err)

    @pytest.mark.parametrize("command", [None, *sorted(COMMANDS)])
    def test_help_names_every_option(self, command):
        code, out, err = _cli(*([command] if command else []), "--help")
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith(f"Usage: gridres {command or '[OPTIONS]'}")
        names = ([o.flag for o in COMMANDS[command][2]] if command
                 else ["--errors-json", *COMMANDS])
        assert all(name in out for name in [*names, "--help"])

    def test_import_leaves_click_out(self):
        probe = "import sys, gridres.cli; print(sorted({'click'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(Path(gridres.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout == "[]\n"
