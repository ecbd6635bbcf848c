"""Single command-line entry point for the toolkit.

Subcommands dispatch to the engines: frequency, coordinate, protection,
blackstart, metrics, plus validate for scenario files. All randomness
flows from one seed (--seed flag, GRIDRES_SEED environment variable, or
the fixed default), so identical invocations produce byte-identical
output files. A command writes all of its files or none of them.

Exit codes: 0 success, 1 scenario validation error, 2 simulation or I/O
error, 64 usage error.
"""

import contextlib
import io
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict
from functools import partial
from pathlib import Path

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


def _cmd_frequency(given, scenario, out_dir, seed, fmt):
    freq = schemas.load_frequency_scenario(_load_json(scenario))
    trace = freq.simulate()
    summary = fq.trace_metrics(trace, freq.system)
    _write(out_dir, {"trace.csv": _csv(schemas.write_trace_csv, trace),
                     f"metrics.{fmt}": _format(asdict(summary), fmt)})


def _cmd_coordinate(given, scenario, out_dir, seed):
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


def _cmd_protection(given, network, fault, settings, out_dir, seed):
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


def _cmd_blackstart(given, scenario, out_dir, seed, fmt, p_battery, radius_km, runs):
    seed = _resolve_seed(seed)
    restoration = schemas.load_restoration_scenario(_load_json(scenario))

    if p_battery is None and radius_km is None and runs is None:
        if "--format" in given:
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


def _cmd_metrics(given, trace, timeline, out_dir, fmt, baseline, f_n,
                 band_half_width_hz, floor_deviation_hz, total_load_mw,
                 challenge_t, detection_t, remediation_t, recovery_t):
    if (trace is None) == (timeline is None):
        raise InvalidInputError("metrics: pass exactly one of --trace/--timeline")
    marks = (challenge_t, detection_t, remediation_t, recovery_t)
    if sum(m is None for m in marks) not in (0, len(marks)):
        raise InvalidInputError("phase marks: pass all four or none")

    if trace is not None:
        if "--total-load-mw" in given:
            raise InvalidInputError("metrics: --total-load-mw applies to --timeline only")
        with open(trace, encoding="utf-8") as fp:
            samples = schemas.read_trace_csv(fp)
        params = fq.SystemParameters(f_n=f_n, band_half_width_hz=band_half_width_hz)
        trajectory = mt.service_from_frequency(
            samples, params, floor_deviation_hz=floor_deviation_hz)
    else:
        if foreign := [f for f in ("--f-n", "--band", "--floor-deviation") if f in given]:
            raise InvalidInputError(f"metrics: {', '.join(foreign)} apply to --trace only")
        if total_load_mw is None:
            raise InvalidInputError("metrics: --timeline needs --total-load-mw")
        with open(timeline, encoding="utf-8") as fp:
            events = schemas.read_timeline_csv(fp)
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


def _cmd_validate(given, scenario, out_dir):
    violations = schemas.validate_document(_load_json(scenario))
    text = _format({"valid": not violations, "violations": violations})
    sys.stdout.write(text)
    if out_dir is not None:
        _write(out_dir, {"validation.json": text})
    if violations:
        raise ScenarioValidationError(violations)


# One row per option: flag, destination, converter (Path, int, float, a tuple
# of choices, or bool for a flag that takes no value), default, required, help.
_Opt = namedtuple("_Opt", "flag dest convert default required help", defaults=(None, False, ""))
_SCENARIO = _Opt("--scenario", "scenario", Path, required=True, help="Scenario document.")
_OUT = _Opt("--out", "out_dir", Path, required=True, help="Output directory.")
_FORMAT = _Opt("--format", "fmt", ("json", "csv"), "json", help="Report format: json or csv.")
# frequency, coordinate and protection are deterministic and read no seed.
_NOOP_SEED = _Opt("--seed", "seed", int,
                  help="Accepted for a uniform command line; has no effect here.")
_HELP = _Opt("--help", "help", bool, help="Show this message and exit.")

# Each subcommand's function, one-line doc and options. The function is
# called with the flags given, then with every option's value by destination.
COMMANDS = {
    "frequency": (_cmd_frequency, "Simulate a frequency disturbance scenario.",
                  [_SCENARIO, _OUT, _NOOP_SEED, _FORMAT]),
    "coordinate": (_cmd_coordinate, "Run the inertia and droop provision exchanges for a fleet.", [
        _SCENARIO._replace(help="Fleet document with units and selections."), _OUT, _NOOP_SEED]),
    "protection": (_cmd_protection,
                   "Simulate breaker reaction to a fault and screen misoperations.",
                   [*(_Opt(f"--{name}", name, Path, required=True)
                      for name in ("network", "fault", "settings")), _OUT, _NOOP_SEED]),
    "blackstart": (_cmd_blackstart, "Run a restoration scenario, or a Monte Carlo study "
                   "with --p and --radius-km (and --runs, default 1).", [
        _SCENARIO, _OUT, _NOOP_SEED._replace(help="Random seed (overrides GRIDRES_SEED)."),
        _Opt("--p", "p_battery", float, help="Battery availability for Monte Carlo mode."),
        _Opt("--radius-km", "radius_km", float, help="Comm cell radius for Monte Carlo mode."),
        _FORMAT, _Opt("--runs", "runs", int, help="Monte Carlo runs.")]),
    "metrics": (_cmd_metrics, "Compute resilience metrics from a trace or timeline CSV.", [
        _Opt("--trace", "trace", Path, help="Frequency trace CSV input."),
        _Opt("--timeline", "timeline", Path, help="Restoration timeline CSV input."),
        _OUT, _FORMAT, _Opt("--baseline", "baseline", float, 1.0),
        _Opt("--f-n", "f_n", float, fq.SystemParameters.f_n),
        _Opt("--band", "band_half_width_hz", float, fq.SystemParameters.band_half_width_hz),
        _Opt("--floor-deviation", "floor_deviation_hz", float, mt.DEFAULT_FLOOR_DEVIATION_HZ),
        *(_Opt(f"--{name}", name.replace("-", "_"), float) for name in (
            "total-load-mw", "challenge-t", "detection-t", "remediation-t", "recovery-t"))]),
    "validate": (_cmd_validate, "Check a scenario document against every type invariant.",
                 [_SCENARIO, _OUT._replace(required=False, help="Directory for validation.json.")]),
}
_GROUP = [_Opt("--errors-json", "errors_json", bool, help="Emit errors as JSON on standard error.")]
# The option rows of each command, and of the group under None, by flag.
_TABLES = {name: {o.flag: o for o in [*opts, _HELP]}
           for name, opts in [(None, _GROUP), *((c, e[2]) for c, e in COMMANDS.items())]}


class _UsageError(Exception):
    """A bad command line: args are the message and the command, or None."""


def _help(command: str | None) -> str:
    """The --help text of the group or a command; line 1 is its usage line."""
    usage = f"{command} [OPTIONS]" if command else "[OPTIONS] COMMAND [ARGS]..."
    doc = COMMANDS[command][1] if command else "Grid resilience simulation toolkit."
    sections = {"Options": [(o.flag, f"{o.help}  {'[required]' * o.required}".strip())
                            for o in _TABLES[command].values()]}
    if command is None:
        sections["Commands"] = [(name, entry[1]) for name, entry in COMMANDS.items()]
    width = max(len(name) for rows in sections.values() for name, _ in rows)
    return f"Usage: gridres {usage}\n\n  {doc}\n" + "".join(
        f"\n{title}:\n" + "".join(f"  {a:<{width}}  {b}".rstrip() + "\n" for a, b in rows)
        for title, rows in sections.items())


def _scan(tokens: list[str], command: str | None):
    """The raw value of each option given, and the tokens left over."""
    table, raw, extra, tokens = _TABLES[command], {}, [], iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token[:1] != "-" or token == "-":
            extra.append(token)
        elif flag not in table:
            raise _UsageError(f"No such option {flag!r}.", command)
        elif eq and table[flag].convert is bool:
            raise _UsageError(f"Option {flag!r} does not take a value.", command)
        elif eq or table[flag].convert is bool or (value := next(tokens, None)) is not None:
            raw[flag] = value     # taken verbatim; a repeated option keeps its last value
        else:
            raise _UsageError(f"Option {flag!r} requires an argument.", command)
    return raw, extra


def _convert(opt, value: str, command: str):
    choices = isinstance(opt.convert, tuple)
    with contextlib.suppress(ValueError):
        if not choices or value in opt.convert:
            return value if choices else opt.convert(value)
    reason = (f"one of {', '.join(map(repr, opt.convert))}" if choices
              else f"a valid {'integer' if opt.convert is int else 'float'}")
    raise _UsageError(f"Invalid value for {opt.flag!r}: {value!r} is not {reason}.", command)


def _parse(argv: list[str]):
    """argv as the call it asks for and its --errors-json flag, or _UsageError."""
    # The group takes only flags: its options end at the first other token.
    at = next((i for i, t in enumerate(argv) if t[:1] != "-" or t == "-"), len(argv))
    group, _ = _scan(argv[:at], None)
    if "--help" in group:
        return partial(sys.stdout.write, _help(None)), False
    command = argv[at] if at < len(argv) else None
    if command not in COMMANDS:
        raise _UsageError("Missing command." if command is None
                          else f"No such command {command!r}.", None)
    given, extra = _scan(argv[at + 1:], command)
    if "--help" in given:
        return partial(sys.stdout.write, _help(command)), False
    opts = COMMANDS[command][2]
    values = {o.dest: _convert(o, given[o.flag], command) if o.flag in given else o.default
              for o in opts}
    if missing := [o.flag for o in opts if o.required and o.flag not in given]:
        raise _UsageError(f"Missing option {missing[0]!r}.", command)
    if extra:
        raise _UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} "
                          f"({' '.join(extra)})", command)
    return partial(COMMANDS[command][0], frozenset(given), **values), "--errors-json" in group


def _emit_error(err: Exception, errors_json: bool) -> None:
    if errors_json:
        payload = {"error": type(err).__name__, "message": str(err)}
        if isinstance(err, ScenarioValidationError):
            payload["violations"] = err.violations
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"gridres: error: {err}\n")


def main(argv=None) -> int:
    errors_json = False
    try:
        run, errors_json = _parse(list(sys.argv[1:] if argv is None else argv))
        run()
        return EXIT_OK
    except _UsageError as err:
        message, command = err.args
        sys.stderr.write(f"{_help(command).splitlines()[0]}\ngridres: error: {message}\n")
        return EXIT_USAGE
    except InvalidInputError as err:    # and ScenarioValidationError
        _emit_error(err, errors_json)
        return EXIT_VALIDATION
    except (GridResError, OSError) as err:
        _emit_error(err, errors_json)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
