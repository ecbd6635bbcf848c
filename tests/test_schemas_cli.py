"""Scenario schema and CLI behavior: validation, exit codes, determinism."""

import json
import math
from pathlib import Path

import pytest

from gridres import benchmarks as bm
from gridres import schemas
from gridres.cli import (DEFAULT_SEED, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE,
                         EXIT_VALIDATION, main)
from gridres.errors import ScenarioValidationError


def frequency_doc():
    scn = schemas.FrequencyScenario(
        system=bm.benchmark_system(), event=bm.benchmark_event(),
        fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
        droop_fleet=bm.benchmark_droop_fleet(), horizon_s=30.0, dt_s=0.01)
    return schemas.dump_frequency_scenario(scn)


def network_doc():
    return schemas.dump_network(bm.two_feeder_network(der_a_injection_pu=2.0))


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

    def test_unknown_subcommand_exits_64(self, capsys):
        assert run_cli("explode") == EXIT_USAGE
        assert "Usage" in capsys.readouterr().err

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
