"""Single command-line entry point for the toolkit.

Subcommands dispatch to the engines: frequency, coordinate, protection,
blackstart, metrics, plus validate for scenario files. All randomness
flows from one seed (--seed flag, GRIDRES_SEED environment variable, or
the fixed default), so identical invocations produce byte-identical
output files. A command writes all of its files or none of them.

Exit codes: 0 success, 1 scenario validation error, 2 simulation or I/O
error, 64 usage error.
"""

import io
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import blackstart as bs
from . import coordination as co
from . import frequency as fq
from . import metrics as mt
from . import protection as pt
from . import schemas
from .errors import GridResError, InvalidInputError, ScenarioValidationError, SimulationError
from .fields import dump

DEFAULT_SEED = 1234

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("GRIDRES_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise InvalidInputError(f"GRIDRES_SEED: not an integer: {env!r}") from err
    return DEFAULT_SEED


def _write(out_dir: Path, files: dict[str, str]) -> None:
    """Write all of a command's files or none: stage each, then rename all."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = {out_dir / name: out_dir / f"{name}.tmp{os.getpid()}" for name in files}
    renamed = []
    try:
        for path, text in zip(tmp.values(), files.values()):
            path.write_text(text)
        for target, path in tmp.items():
            os.replace(path, target)
            renamed.append(target)
    except BaseException:
        for path in [*tmp.values(), *renamed]:
            path.unlink(missing_ok=True)
        raise


def _format(payload: dict, fmt: str = "json") -> str:
    """A payload as JSON, or a flat one as key,value rows for --format csv.
    Either way a NaN or infinity ends the command before it writes."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:   # NaN and infinity are not JSON
        raise SimulationError(f"result is not finite: {err}") from err
    return text if fmt == "json" else "key,value\n" + "".join(
        f"{key},{payload[key]}\n" for key in sorted(payload))


def _csv(writer, *data) -> str:
    buf = io.StringIO()
    writer(buf, *data)
    return buf.getvalue()


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp)
    # Not UTF-8, not JSON, an integer past the digit limit, or nested too deep.
    except (ValueError, RecursionError) as err:
        raise ScenarioValidationError([f"{path}: not valid JSON: {err}"]) from err


def _given(*names: str) -> list[str]:
    """The flags, among the named parameters, that the command line set."""
    ctx = click.get_current_context()
    return [p.opts[0] for p in ctx.command.params if p.name in names
            and ctx.get_parameter_source(p.name) is not click.core.ParameterSource.DEFAULT]


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

_seed_option = click.option("--seed", type=int, default=None,
                            help="Random seed (overrides GRIDRES_SEED).")
# frequency, coordinate and protection are deterministic: there --seed is
# accepted for a uniform command line and GRIDRES_SEED is not read.
_noop_seed_option = click.option(
    "--seed", type=int, default=None,
    help="Accepted for a uniform command line; has no effect here.")
_out_option = click.option("--out", "out_dir", type=click.Path(path_type=Path),
                           required=True, help="Output directory.")
_format_option = click.option("--format", "fmt",
                              type=click.Choice(["json", "csv"]),
                              default="json", help="Report format.")


@click.group(name="gridres")
@click.option("--errors-json", is_flag=True,
              help="Emit errors as JSON on standard error.")
def cli(errors_json):
    """Grid resilience simulation toolkit."""
    # main() reads --errors-json from argv, so that errors raised before
    # or inside click are reported the same way.


@cli.command("frequency")
@click.option("--scenario", type=click.Path(path_type=Path), required=True)
@_out_option
@_noop_seed_option
@_format_option
def _cmd_frequency(scenario, out_dir, seed, fmt):
    """Simulate a frequency disturbance scenario."""
    freq = schemas.load_frequency_scenario(_load_json(scenario))
    trace = freq.simulate()
    summary = fq.trace_metrics(trace, freq.system)
    _write(out_dir, {"trace.csv": _csv(schemas.write_trace_csv, trace),
                     f"metrics.{fmt}": _format(asdict(summary), fmt)})


@cli.command("coordinate")
@click.option("--scenario", type=click.Path(path_type=Path), required=True,
              help="Fleet document with units and selections.")
@_out_option
@_noop_seed_option
def _cmd_coordinate(scenario, out_dir, seed):
    """Run the inertia and droop provision exchanges for a fleet."""
    case = schemas.load_fleet(_load_json(scenario))

    h_max = co.compute_h_ag_max(case.p0_irmax_pu, case.p0_ss_pu, case.f_n,
                                case.rocof_max_hz_per_s)
    phase1 = co.InertiaPhase1(rocof_max_hz_per_s=case.rocof_max_hz_per_s,
                              h_ag_max_s=h_max, p0_ss_pu=case.p0_ss_pu,
                              p0_irmax_pu=case.p0_irmax_pu)
    assignment = co.make_inertia_assignment(phase1, case.h_ag_tso_s,
                                            case.units, case.f_n)
    inertia_doc = {
        "h_ag_max_s": h_max,
        "h_ag_tso_s": assignment.h_ag_tso_s,
        "p0_ir_pu": co.compute_p0_ir(assignment.h_ag_tso_s,
                                     case.rocof_max_hz_per_s, case.f_n,
                                     case.p0_ss_pu),
        "per_unit_h_s": dict(sorted(assignment.per_unit_h_s.items())),
    }

    envelope = co.compute_droop_envelope(case.units, case.grid)
    selected = co.select_droop(envelope, case.candidate)
    per_unit = co.distribute_droop(selected, case.units, case.grid)
    droop_doc = {
        "selected": dump(selected),
        "per_unit": {uid: dump(curve) for uid, curve in sorted(per_unit.items())},
        "envelope_corners": {name: list(point) for name, point
                             in sorted(envelope.corners.items())},
    }

    report = co.check_reserve_rules(
        {u.id: u.fcr_share for u in case.units}, case.total_fcr_pu,
        [u.id for u in case.units if u.in_reference_incident])
    report_doc = {
        "compliant": report.compliant,
        "violations": [{"unit_id": v.unit_id, "rule": v.rule, "detail": v.detail}
                       for v in report.violations],
    }

    _write(out_dir, {"inertia_assignment.json": _format(inertia_doc),
                     "droop_assignment.json": _format(droop_doc),
                     "rule_report.json": _format(report_doc)})


@cli.command("protection")
@click.option("--network", type=click.Path(path_type=Path), required=True)
@click.option("--fault", type=click.Path(path_type=Path), required=True)
@click.option("--settings", type=click.Path(path_type=Path), required=True)
@_out_option
@_noop_seed_option
def _cmd_protection(network, fault, settings, out_dir, seed):
    """Simulate breaker reaction to a fault and screen misoperations."""
    report = pt.simulate_protection(
        schemas.load_network(_load_json(network)),
        schemas.load_fault(_load_json(fault)),
        schemas.load_settings(_load_json(settings)))
    payload = {
        "trips": [{"breaker": ev.breaker_id, "time_s": ev.time_s}
                  for ev in report.trips],
        "issues": [{"kind": i.kind, "elements": list(i.elements),
                    "explanation": i.explanation} for i in report.issues],
        "open_lines": list(report.open_lines),
    }
    _write(out_dir, {"report.json": _format(payload)})


@cli.command("blackstart")
@click.option("--scenario", type=click.Path(path_type=Path), required=True)
@_out_option
@_seed_option
@_format_option
@click.option("--p", "p_battery", type=float, default=None,
              help="Battery availability for Monte Carlo mode.")
@click.option("--radius-km", type=float, default=None,
              help="Comm cell radius for Monte Carlo mode.")
@click.option("--runs", type=int, default=None, help="Monte Carlo runs.")
def _cmd_blackstart(scenario, out_dir, seed, fmt, p_battery, radius_km, runs):
    """Run a restoration scenario, or a Monte Carlo study with --p and
    --radius-km (and --runs, default 1)."""
    seed = _resolve_seed(seed)
    restoration = schemas.load_restoration_scenario(_load_json(scenario))

    if p_battery is None and radius_km is None and runs is None:
        if _given("fmt"):
            raise InvalidInputError("--format applies to monte carlo mode only")
        _write(out_dir, {"timeline.csv": _csv(
            schemas.write_timeline_csv, bs.run_restoration(restoration, seed=seed))})
        return
    if p_battery is None or radius_km is None:
        raise InvalidInputError("monte carlo mode needs both --p and --radius-km")
    result = bs.monte_carlo(restoration, p_battery, radius_km,
                            runs=1 if runs is None else runs, seed=seed)
    summary = {
        "runs": len(result.restored_fractions),
        "p_battery": result.p_battery,
        "cell_radius_km": result.cell_radius_km,
        "seed": result.seed,
        "mean_restored_fraction": result.mean,
        "median_restored_fraction": result.median,
        "min_restored_fraction": min(result.restored_fractions),
        "max_restored_fraction": max(result.restored_fractions),
    }
    _write(out_dir, {"monte_carlo.csv": _csv(schemas.write_monte_carlo_csv, result),
                     f"summary.{fmt}": _format(summary, fmt)})


@cli.command("metrics")
@click.option("--trace", type=click.Path(path_type=Path), default=None,
              help="Frequency trace CSV input.")
@click.option("--timeline", type=click.Path(path_type=Path), default=None,
              help="Restoration timeline CSV input.")
@_out_option
@_format_option
@click.option("--baseline", type=float, default=1.0)
@click.option("--f-n", type=float, default=fq.SystemParameters.f_n)
@click.option("--band", "band_half_width_hz", type=float,
              default=fq.SystemParameters.band_half_width_hz)
@click.option("--floor-deviation", "floor_deviation_hz", type=float,
              default=mt.DEFAULT_FLOOR_DEVIATION_HZ)
@click.option("--total-load-mw", type=float, default=None)
@click.option("--challenge-t", type=float, default=None)
@click.option("--detection-t", type=float, default=None)
@click.option("--remediation-t", type=float, default=None)
@click.option("--recovery-t", type=float, default=None)
def _cmd_metrics(trace, timeline, out_dir, fmt, baseline, f_n,
                 band_half_width_hz, floor_deviation_hz, total_load_mw,
                 challenge_t, detection_t, remediation_t, recovery_t):
    """Compute resilience metrics from a trace or timeline CSV."""
    if (trace is None) == (timeline is None):
        raise InvalidInputError("metrics: pass exactly one of --trace/--timeline")
    marks = (challenge_t, detection_t, remediation_t, recovery_t)
    if sum(m is None for m in marks) not in (0, len(marks)):
        raise InvalidInputError("phase marks: pass all four or none")

    if trace is not None:
        if _given("total_load_mw"):
            raise InvalidInputError("metrics: --total-load-mw applies to --timeline only")
        with open(trace, encoding="utf-8") as fp:
            samples = schemas.read_trace_csv(fp)
        params = fq.SystemParameters(f_n=f_n, band_half_width_hz=band_half_width_hz)
        trajectory = mt.service_from_frequency(
            samples, params, floor_deviation_hz=floor_deviation_hz)
    else:
        if foreign := _given("f_n", "band_half_width_hz", "floor_deviation_hz"):
            raise InvalidInputError(f"metrics: {', '.join(foreign)} apply to --trace only")
        with open(timeline, encoding="utf-8") as fp:
            events = schemas.read_timeline_csv(fp)
        if total_load_mw is None:
            raise InvalidInputError("metrics: --timeline needs --total-load-mw")
        trajectory = mt.service_from_restoration(events, total_load_mw)

    t, level = trajectory.t, trajectory.level
    payload = {
        "degradation_area": mt.degradation_area(trajectory, baseline=baseline,
                                                clip=True),
        "min_level": float(level.min()),
        "final_level": float(level[-1]),
        "span_s": float(t[-1] - t[0]),
    }
    annotation = None
    if challenge_t is not None:
        annotation = mt.annotate_phases(trajectory, *marks)
        payload.update({
            "detection_latency_s": annotation.detection_latency_s,
            "activation_time_s": annotation.activation_time_s,
            "remediation_time_s": annotation.remediation_time_s,
            "recovery_time_s": annotation.recovery_time_s,
        })
    _write(out_dir, {f"metrics.{fmt}": _format(payload, fmt),
                     "service.csv": _csv(schemas.write_service_csv, trajectory,
                                         annotation)})


@cli.command("validate")
@click.option("--scenario", type=click.Path(path_type=Path), required=True)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), default=None)
def _cmd_validate(scenario, out_dir):
    """Check a scenario document against every type invariant."""
    violations = schemas.validate_document(_load_json(scenario))
    text = _format({"valid": not violations, "violations": violations})
    sys.stdout.write(text)
    if out_dir is not None:
        _write(out_dir, {"validation.json": text})
    if violations:
        raise ScenarioValidationError(violations)


def _emit_error(err: Exception, errors_json: bool) -> None:
    if errors_json:
        payload = {"error": type(err).__name__, "message": str(err)}
        if isinstance(err, ScenarioValidationError):
            payload["violations"] = err.violations
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"gridres: error: {err}\n")


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    errors_json = "--errors-json" in args
    try:
        cli.main(args=args, standalone_mode=False)
        return EXIT_OK
    except click.UsageError as err:
        message = err.format_message()
        hint = err.ctx.get_usage() if err.ctx is not None else cli.get_usage(
            click.Context(cli))
        sys.stderr.write(f"{hint}\ngridres: error: {message}\n")
        return EXIT_USAGE
    except InvalidInputError as err:    # and ScenarioValidationError
        _emit_error(err, errors_json)
        return EXIT_VALIDATION
    except (GridResError, OSError) as err:
        _emit_error(err, errors_json)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
