"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Every tolerance is pinned here, not configurable.
"""

import contextlib
import io
import json
import random
import time

import numpy as np
import pytest

from gridres import benchmarks as bm
from gridres import schemas
from gridres.blackstart import monte_carlo, run_restoration
from gridres.cli import main as cli_main
from gridres.coordination import (DerUnit, FeasibilityViolationError, FrequencyGrid,
                                  check_reserve_rules, compute_droop_envelope,
                                  compute_h_ag_max, compute_p0_ir,
                                  distribute_droop, select_droop)
from gridres.frequency import (DisturbanceEvent, DroopCurve, FcrProduct,
                               SystemParameters, evaluate_droop,
                               fcr_ramp_output, simulate_disturbance,
                               trace_metrics)
from gridres.metrics import ServiceTrajectory, degradation_area
from gridres.protection import simulate_protection, solve_fault_currents

from test_protection import (assert_matches_oracle, issues_of, random_fault,
                             random_radial_network)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:>2} PASS  {description}")


def test_criterion_01_equation_roundtrip():
    with criterion(1, "inertia equations invert each other on 10,000 random "
                      "parameter sets (rel err < 1e-12, < 1 s)"):
        rng = random.Random(1)
        start = time.perf_counter()
        for _ in range(10_000):
            p0_ss = rng.uniform(0.0, 10.0)
            delta = rng.uniform(1e-9, 10.0)
            p0_irmax = p0_ss + delta
            f_n = rng.uniform(1.0, 400.0)
            rocof = rng.uniform(1e-3, 10.0)
            h = compute_h_ag_max(p0_irmax, p0_ss, f_n, rocof)
            back = compute_p0_ir(h, rocof, f_n, p0_ss)
            assert abs(back - p0_irmax) <= 1e-12 * abs(p0_irmax)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_02_hand_value():
    with criterion(2, "maximum inertia constant for a 0.2 pu headroom at "
                      "50 Hz and 1 Hz/s is exactly 5.0 s"):
        assert compute_h_ag_max(0.2, 0.0, 50.0, 1.0) == 5.0


def test_criterion_03_fcr_ramp_points():
    with criterion(3, "containment ramp delivers exactly 50% at 15 s and "
                      "100% at 30 s"):
        product = FcrProduct(capacity_mw=10.0)
        assert fcr_ramp_output(15.0, product) == 5.0
        assert fcr_ramp_output(30.0, product) == 10.0


def test_criterion_04_inertia_ordering():
    with criterion(4, "low-inertia benchmark run has strictly lower nadir "
                      "and strictly higher max |ROCOF| (< 5 s)"):
        start = time.perf_counter()
        results = {}
        for h in (2.0, 5.0):
            params = bm.benchmark_system(h_sys_s=h)
            trace = simulate_disturbance(
                params, bm.benchmark_event(), bm.benchmark_fcr(),
                bm.benchmark_secondary(), bm.benchmark_droop_fleet(),
                horizon_s=120.0, dt_s=0.01)
            results[h] = trace_metrics(trace, params)
        assert results[2.0].nadir_hz < results[5.0].nadir_hz
        assert results[2.0].max_abs_rocof_hz_per_s > \
            results[5.0].max_abs_rocof_hz_per_s
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f} s"


def test_criterion_05_initial_rocof_and_convergence():
    with criterion(5, "initial ROCOF matches the swing equation within "
                      "1e-6 Hz/s and the nadir moves < 1e-4 Hz when dt halves"):
        # Undamped system without reserves: the first step is exactly linear.
        params = SystemParameters(f_n=50.0, s_base_mva=100.0, h_sys_s=5.0,
                                  damping_pu_per_hz=0.0)
        event = DisturbanceEvent(t_event_s=1.0, delta_p_pu=-0.1)
        trace = simulate_disturbance(params, event, FcrProduct(0.0),
                                     bm.benchmark_secondary(), [],
                                     horizon_s=5.0, dt_s=0.01)
        i_event = int(round(event.t_event_s / trace.dt))
        expected = params.f_n * (event.delta_p_pu * params.s_base_mva) / \
            (2.0 * params.h_sys_s * params.s_base_mva)
        assert abs(trace.rocof[i_event] - expected) < 1e-6

        nadirs = {}
        for dt in (0.01, 0.005):
            bench = bm.benchmark_system()
            tr = simulate_disturbance(bench, bm.benchmark_event(),
                                      bm.benchmark_fcr(),
                                      bm.benchmark_secondary(),
                                      bm.benchmark_droop_fleet(),
                                      horizon_s=60.0, dt_s=dt)
            nadirs[dt] = trace_metrics(tr, bench).nadir_hz
        assert abs(nadirs[0.01] - nadirs[0.005]) < 1e-4


def test_criterion_06_droop_protocol():
    with criterion(6, "droop selection enforces the envelope and the "
                      "per-unit split re-aggregates within 1e-9 everywhere"):
        units = [DerUnit(id="pv_north", p_rating=0.40, p_available=0.30, bus="n1"),
                 DerUnit(id="pv_south", p_rating=0.35, p_available=0.20, bus="s1"),
                 DerUnit(id="wind_east", p_rating=0.50, p_available=0.35, bus="e1"),
                 DerUnit(id="bess_core", p_rating=0.25, p_available=0.05, bus="c1")]
        grid = FrequencyGrid(f_min=49.5, f_max=50.5, f_step=0.1, f_n=50.0)
        envelope = compute_droop_envelope(units, grid)
        total_rating = sum(u.p_rating for u in units)

        too_big = DroopCurve(f_n=50.0, dead_band_half_width=0.02,
                             p_nominal=0.5, p_max=total_rating + 0.5,
                             f_min=49.5, p_min=0.0, f_max=50.5)
        with pytest.raises(FeasibilityViolationError):
            select_droop(envelope, too_big)

        interior = DroopCurve(f_n=50.0, dead_band_half_width=0.02,
                              p_nominal=0.6, p_max=1.2, f_min=49.5,
                              p_min=0.1, f_max=50.5)
        accepted = select_droop(envelope, interior)
        split = distribute_droop(accepted, units, grid)
        for f in grid.frequencies():
            total = sum(evaluate_droop(curve, f) for curve in split.values())
            assert abs(total - evaluate_droop(accepted, f)) < 1e-9


def test_criterion_07_reserve_rules():
    with criterion(7, "one 6% contributor yields exactly one cap violation; "
                      "a 25 x 4% portfolio yields none"):
        shares = {"big": 0.06}
        shares.update({f"u{i}": 0.94 / 23 for i in range(23)})
        report = check_reserve_rules(shares, 1.0)
        assert len(report.violations) == 1
        assert report.violations[0].rule == "CapExceeded"
        assert report.violations[0].unit_id == "big"

        flat = check_reserve_rules({f"u{i}": 0.04 for i in range(25)}, 1.0)
        assert flat.compliant


def test_criterion_08_fault_solver_oracle():
    with criterion(8, "tree fault solver matches the dense nodal oracle on "
                      "100 random radial networks (rel err < 1e-9, < 10 s)"):
        rng = random.Random(2022)
        start = time.perf_counter()
        for _ in range(100):
            network = random_radial_network(rng, rng.randint(2, 6))
            fault = random_fault(rng, network)
            assert_matches_oracle(network, fault, tol=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f} s"


def test_criterion_09_misoperation_suite():
    with criterion(9, "two-feeder suite: clean trip, blinding (+ cleared "
                      "without DER), sympathetic trip, energized island"):
        fault = bm.two_feeder_fault()
        settings = bm.TWO_FEEDER_SETTINGS

        clean = simulate_protection(bm.two_feeder_network(), fault, settings)
        assert [ev.breaker_id for ev in clean.trips] == ["A"]
        assert clean.issues == ()

        blinded_net = bm.two_feeder_network(der_a_injection_pu=2.0)
        blinded = simulate_protection(blinded_net, fault, settings)
        assert blinded.trips == ()
        assert len(issues_of(blinded, "Blinding")) == 1
        no_der = solve_fault_currents(blinded_net, fault, grid_only=True)
        assert no_der.branch_currents["L1"] > settings["A"]

        sympathetic = simulate_protection(
            bm.two_feeder_network(der_b_injection_pu=4.5,
                                  source_available=False), fault, settings)
        assert {ev.breaker_id for ev in sympathetic.trips} == {"A", "B"}
        assert len(issues_of(sympathetic, "SympatheticTrip")) == 1

        energized = simulate_protection(
            bm.two_feeder_network(der_a_injection_pu=0.5), fault, settings)
        assert [ev.breaker_id for ev in energized.trips] == ["A"]
        assert len(issues_of(energized, "EnergizedAfterTrip")) == 1


def test_criterion_10_sync_gate_audit():
    with criterion(10, "1,000+ seeded merge attempts never merge with a "
                       "phase shift at or beyond 0.2 rad"):
        scenario = bm.benchmark_restoration_scenario()
        attempts = []
        seed = 0
        while len(attempts) < 1000 and seed < 500:
            timeline = run_restoration(scenario, seed=seed)
            attempts.extend(timeline.merge_attempts)
            seed += 1
        assert len(attempts) >= 1000, f"only {len(attempts)} attempts logged"
        accepted = [a for a in attempts if a.accepted]
        assert accepted
        assert all(a.phase_delta_rad < 0.2 for a in accepted)
        rejected = [a for a in attempts if not a.accepted]
        assert all(a.phase_delta_rad >= 0.2 or a.freq_delta_hz > 0.01
                   for a in rejected)


def test_criterion_11_blackstart_monte_carlo():
    with criterion(11, "restoration study: monotone in battery availability "
                       "and cell radius, compensation configs >= 50% median, "
                       "(0.9, 6 km) > 80% in every run (< 2 min)"):
        scenario = bm.benchmark_restoration_scenario()
        start = time.perf_counter()
        cells = {}
        for p in (0.1, 0.5, 0.9):
            for r in (2.0, 6.0, 10.0):
                cells[(p, r)] = monte_carlo(scenario, p, r, runs=200, seed=2022)

        for r in (2.0, 6.0, 10.0):
            means = [cells[(p, r)].mean for p in (0.1, 0.5, 0.9)]
            assert means == sorted(means), f"not monotone in p at r={r}"
        for p in (0.1, 0.5, 0.9):
            means = [cells[(p, r)].mean for r in (2.0, 6.0, 10.0)]
            assert means == sorted(means), f"not monotone in r at p={p}"

        compensation = [(0.9, 2.0), (0.5, 6.0), (0.1, 10.0)]
        for p, r in compensation:
            assert cells[(p, r)].median >= 0.50, \
                f"median at ({p}, {r}) = {cells[(p, r)].median:.3f}"
        for (pa, ra) in compensation:
            for (pb, rb) in compensation:
                gap = abs(cells[(pa, ra)].mean - cells[(pb, rb)].mean)
                assert gap <= 0.15, \
                    f"({pa},{ra}) vs ({pb},{rb}) means differ by {gap:.3f}"

        reliable = cells[(0.9, 6.0)].restored_fractions
        assert min(reliable) > 0.80

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f} s"


def test_criterion_12_degradation_metrics():
    with criterion(12, "degradation areas 0 / 5 / 5 on the fixtures and "
                       "pointwise dominance never increases the area "
                       "(1,000 random pairs)"):
        def trajectory(points):
            t, level = zip(*points)
            return ServiceTrajectory(
                t=np.array(t, dtype=float), level=np.array(level, dtype=float),
                code=np.zeros(len(points), dtype=np.int8), labels=("x",))

        constant = trajectory([(0, 1.0), (5, 1.0), (10, 1.0)])
        assert degradation_area(constant, 1.0) == 0.0
        rectangle = trajectory([(0, 0.5), (10, 0.5), (10 + 1e-9, 1.0), (20, 1.0)])
        assert degradation_area(rectangle, 1.0) == pytest.approx(5.0, abs=1e-6)
        triangle = trajectory([(0, 0.0), (10, 1.0)])
        assert degradation_area(triangle, 1.0) == pytest.approx(5.0)

        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 14))
            t = np.sort(rng.uniform(0.0, 50.0, size=n)) + np.arange(n) * 1e-6
            low = rng.uniform(0.0, 1.0, size=n)
            high = low + rng.uniform(0.0, 1.0, size=n) * (1.0 - low)
            area_low = degradation_area(
                trajectory(list(zip(t.tolist(), low.tolist()))), 1.0)
            area_high = degradation_area(
                trajectory(list(zip(t.tolist(), high.tolist()))), 1.0)
            assert area_high <= area_low + 1e-12


def test_criterion_13_cli_reproducibility(tmp_path):
    with criterion(13, "every CLI subcommand run twice with one seed "
                       "produces byte-identical outputs"):
        scn = schemas.FrequencyScenario(
            system=bm.benchmark_system(), event=bm.benchmark_event(),
            fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
            droop_fleet=bm.benchmark_droop_fleet(), horizon_s=20.0, dt_s=0.01)
        files = {
            "freq.json": schemas.dump_frequency_scenario(scn),
            "net.json": schemas.dump_network(
                bm.two_feeder_network(der_a_injection_pu=2.0)),
            "bs.json": schemas.dump_restoration_scenario(
                bm.benchmark_restoration_scenario()),
            "fault.json": {"element": {"kind": "line", "id": "L2"},
                           "impedance_pu": 0.0, "position": 0.5},
            "settings.json": bm.TWO_FEEDER_SETTINGS,
            "fleet.json": {
                "schema_version": 1, "f_n": 50.0,
                "units": [{"id": "a", "p_rating": 0.5, "p_available": 0.3,
                           "fcr_share": 0.02},
                          {"id": "b", "p_rating": 0.5, "p_available": 0.2,
                           "fcr_share": 0.03}],
                "inertia": {"rocof_max_hz_per_s": 1.0, "p0_ss_pu": 0.3,
                            "p0_irmax_pu": 0.5, "h_ag_tso_s": 4.0},
                "droop": {"grid": {"f_min": 49.5, "f_max": 50.5, "f_step": 0.1},
                          "candidate": {"f_n": 50.0,
                                        "dead_band_half_width": 0.02,
                                        "p_nominal": 0.5, "p_max": 0.9,
                                        "f_min": 49.5, "p_min": 0.1,
                                        "f_max": 50.5}},
                "total_fcr_pu": 1.0},
        }
        for name, doc in files.items():
            (tmp_path / name).write_text(json.dumps(doc))

        invocations = {
            "frequency": ["frequency", "--scenario", "freq.json",
                          "--out", "OUT", "--seed", "7"],
            "coordinate": ["coordinate", "--scenario", "fleet.json",
                           "--out", "OUT", "--seed", "7"],
            "protection": ["protection", "--network", "net.json",
                           "--fault", "fault.json", "--settings",
                           "settings.json", "--out", "OUT", "--seed", "7"],
            "blackstart": ["blackstart", "--scenario", "bs.json",
                           "--out", "OUT", "--seed", "7", "--p", "0.9",
                           "--radius-km", "2", "--runs", "20"],
            "metrics": None,          # needs the frequency trace first
            "validate": ["validate", "--scenario", "bs.json", "--out", "OUT"],
        }

        def execute(args, out_dir):
            argv = [str(tmp_path / a) if a.endswith(".json") else a
                    for a in args]
            argv = [str(out_dir) if a == "OUT" else a for a in argv]
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli_main(argv)
            assert code == 0, f"{args[0]} exited {code}"
            artifacts = {p.name: p.read_bytes()
                         for p in sorted(out_dir.iterdir())}
            artifacts["__stdout__"] = buffer.getvalue().encode()
            return artifacts

        for name, args in invocations.items():
            if name == "metrics":
                trace_dir = tmp_path / "metrics_src"
                execute(invocations["frequency"][:-2] + ["--seed", "7"],
                        trace_dir)
                args = ["metrics", "--trace", str(trace_dir / "trace.csv"),
                        "--out", "OUT"]
            first = execute(args, tmp_path / f"{name}_run1")
            second = execute(args, tmp_path / f"{name}_run2")
            assert first == second, f"{name} outputs differ between runs"
