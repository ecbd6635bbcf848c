"""Spans around the public functions of each gridres layer.

The traced run rebinds the functions listed in WRAPPED on their modules
to timing wrappers. The engines call one another through module globals
(simulate_protection -> solve_fault_currents, RestorationState.comm_graph
-> comm_reachable, cli -> bs.monte_carlo), so nested calls get their own
spans without any change to the package. Spans stay in memory as
[name, start_ns, end_ns, parent, unit] and are written out when the run
ends. Their times are read from the run's work clock (calibrate.py), so
they leave out the host-speed reference samples; they are not scaled.
"""

import io
import os
import statistics
import time
from collections import defaultdict
from importlib import import_module

# (module, function, span name). Functions that share a span name are
# one layer operation: every loader is schemas.load, and so on.
WRAPPED = (
    [("frequency", f, f"frequency.{f}")
     for f in ("simulate_disturbance", "trace_metrics")]
    + [("metrics", f, f"metrics.{f}")
       for f in ("service_from_frequency", "service_from_restoration",
                 "degradation_area")]
    + [("schemas", f, "schemas.load")
       for f in ("load_frequency_scenario", "load_network", "load_fault",
                 "load_settings", "load_restoration_scenario", "load_fleet")]
    + [("schemas", f, "schemas.dump")
       for f in ("dump_frequency_scenario", "dump_network",
                 "dump_restoration_scenario")]
    + [("schemas", f, "schemas.csv_write")
       for f in ("write_trace_csv", "write_timeline_csv",
                 "write_monte_carlo_csv")]
    + [("schemas", f, "schemas.csv_read")
       for f in ("read_trace_csv", "read_timeline_csv")]
    + [("cli", "main", "cli.main")]
    + [("coordination", f, "coordination")
       for f in ("compute_h_ag_max", "compute_p0_ir",
                 "make_inertia_assignment", "distribute_inertia",
                 "compute_droop_envelope", "select_droop",
                 "distribute_droop", "check_reserve_rules")]
    + [("protection", f, f"protection.{f}")
       for f in ("build_fault_signature_map", "solve_fault_currents",
                 "simulate_protection", "detect_energized",
                 "centralized_locate_fault")]
    + [("blackstart", f, f"blackstart.{f}")
       for f in ("comm_reachable", "agent_round", "run_restoration",
                 "monte_carlo")]
)


def _text_size(fp) -> int:
    if isinstance(fp, io.StringIO):
        return len(fp.getvalue())
    return os.fstat(fp.fileno()).st_size


def _rk4_steps(args, kwargs, trace) -> int:
    """Integration steps: one per sample after the event instant."""
    event = args[1] if len(args) > 1 else kwargs["event"]
    if event.delta_p_pu == 0.0:
        return 0
    return int((trace.t > event.t_event_s).sum())


def _count(c, name, args, kwargs, result, before):
    """Work counters read at a span boundary."""
    if name == "frequency.simulate_disturbance":
        c["frequency.rk4_steps"] += _rk4_steps(args, kwargs, result)
    elif name in ("metrics.service_from_frequency",
                  "metrics.service_from_restoration"):
        c["metrics.samples"] += len(result)
    elif name == "metrics.degradation_area":
        c["metrics.samples"] += len(args[0])
    elif name == "schemas.csv_write":
        c["schemas.csv_bytes"] += _text_size(args[0]) - before
    elif name == "schemas.csv_read":
        c["schemas.csv_bytes"] += before
    elif name == "protection.simulate_protection":
        # One fixpoint round per distinct trip instant, plus the final
        # round that finds nothing armed.
        c["protection.breaker_iterations"] += \
            len({ev.time_s for ev in result.trips}) + 1
    elif name == "blackstart.run_restoration":
        c["blackstart.merge_attempts"] += len(result.merge_attempts)
        c["blackstart.merge_accepted"] += sum(
            1 for m in result.merge_attempts if m.accepted)


class Tracer:
    """In-memory span recorder plus the counters read at span boundaries."""

    def __init__(self, now=time.perf_counter):
        self.now = now    # seconds; the run's work clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.unit = None
        self.counters: dict[str, int] = defaultdict(int)
        self._originals = []

    def install(self):
        for module_name, func_name, span_name in WRAPPED:
            module = import_module(f"gridres.{module_name}")
            original = getattr(module, func_name)
            self._originals.append((module, func_name, original))
            setattr(module, func_name, self._wrap(span_name, original))

    def uninstall(self):
        for module, func_name, original in reversed(self._originals):
            setattr(module, func_name, original)
        self._originals.clear()

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        now = self.now
        sized = name in ("schemas.csv_write", "schemas.csv_read")

        def wrapper(*args, **kwargs):
            before = _text_size(args[0]) if sized else 0
            span = [name, int(now() * 1e9), 0,
                    stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = int(now() * 1e9)
                stack.pop()
            _count(counters, name, args, kwargs, result, before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def aggregate(spans, ranges, counters) -> dict[str, float]:
    """Per-layer metrics over the spans in the given index ranges.

    counters are the work counters those spans moved. Self time is a
    span's duration minus the time its child spans cover.
    """
    indices = [i for lo, hi in ranges for i in range(lo, hi)]
    child_ns = defaultdict(int)
    for i in indices:
        _name, start, end, parent, _unit = spans[i]
        if parent >= 0:
            child_ns[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    durations = defaultdict(list)
    for i in indices:
        name, start, end, _parent, _unit = spans[i]
        calls[name] += 1
        total_ns[name] += end - start
        durations[name].append(end - start)
        self_ns[name] += end - start - child_ns.get(i, 0)

    def self_s(name):
        return self_ns[name] / 1e9

    def p50(name, scale):
        return statistics.median(durations[name]) / scale \
            if durations[name] else 0.0

    steps = counters.get("frequency.rk4_steps", 0)
    merges = counters.get("blackstart.merge_attempts", 0)
    out = {
        "frequency.simulate_disturbance.calls": calls["frequency.simulate_disturbance"],
        "frequency.simulate_disturbance.self_s": self_s("frequency.simulate_disturbance"),
        "frequency.simulate_disturbance.p50_ms": p50("frequency.simulate_disturbance", 1e6),
        "frequency.rk4_steps": steps,
        "frequency.us_per_rk4_step":
            total_ns["frequency.simulate_disturbance"] / 1e3 / steps if steps else 0.0,
        "frequency.trace_metrics.self_s": self_s("frequency.trace_metrics"),
        "metrics.service_from_frequency.self_s": self_s("metrics.service_from_frequency"),
        "metrics.service_from_restoration.self_s": self_s("metrics.service_from_restoration"),
        "metrics.degradation_area.self_s": self_s("metrics.degradation_area"),
        "metrics.samples": counters.get("metrics.samples", 0),
        "schemas.load.self_s": self_s("schemas.load"),
        "schemas.load.calls": calls["schemas.load"],
        "schemas.dump.self_s": self_s("schemas.dump"),
        "schemas.csv_write.self_s": self_s("schemas.csv_write"),
        "schemas.csv_read.self_s": self_s("schemas.csv_read"),
        "schemas.csv_bytes": counters.get("schemas.csv_bytes", 0),
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_s("cli.main"),
        "coordination.calls": calls["coordination"],
        "coordination.self_s": self_s("coordination"),
        "protection.build_fault_signature_map.calls": calls["protection.build_fault_signature_map"],
        "protection.build_fault_signature_map.self_s": self_s("protection.build_fault_signature_map"),
        "protection.solve_fault_currents.calls": calls["protection.solve_fault_currents"],
        "protection.solve_fault_currents.self_s": self_s("protection.solve_fault_currents"),
        "protection.solve_fault_currents.p50_us": p50("protection.solve_fault_currents", 1e3),
        "protection.breaker_iterations": counters.get("protection.breaker_iterations", 0),
        "protection.simulate_protection.self_s": self_s("protection.simulate_protection"),
        "protection.detect_energized.self_s": self_s("protection.detect_energized"),
        "protection.centralized_locate_fault.self_s": self_s("protection.centralized_locate_fault"),
        "blackstart.comm_reachable.calls": calls["blackstart.comm_reachable"],
        "blackstart.comm_reachable.self_s": self_s("blackstart.comm_reachable"),
        "blackstart.agent_round.calls": calls["blackstart.agent_round"],
        "blackstart.agent_round.self_s": self_s("blackstart.agent_round"),
        "blackstart.run_restoration.calls": calls["blackstart.run_restoration"],
        "blackstart.run_restoration.self_s": self_s("blackstart.run_restoration"),
        "blackstart.merge_attempts": merges,
        "blackstart.merge_accept_ratio":
            counters.get("blackstart.merge_accepted", 0) / merges if merges else 0.0,
        "blackstart.monte_carlo.self_s": self_s("blackstart.monte_carlo"),
    }
    return out
