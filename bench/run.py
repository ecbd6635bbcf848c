"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It imports gridres from that checkout's
src/ directory, builds the workload's inputs from --seed, and measures
timed passes over them for about --seconds. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Details of every run go to bench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPS = 5
# Modules whose size is reported as loc.<module>.
LOC_MODULES = ("__init__", "benchmarks", "blackstart", "cli", "coordination",
               "errors", "frequency", "metrics", "protection", "schemas")
# Work counters that must repeat exactly for a given seed.
REPEAT_COUNTERS = ("frequency.rk4_steps", "protection.solve_fault_currents.calls",
                   "protection.breaker_iterations",
                   "blackstart.comm_reachable.calls", "blackstart.merge_attempts",
                   "cli.bytes_written")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def unit_of(metric: str) -> str:
    if metric.startswith("loc."):
        return "lines"
    if metric.endswith("_ratio"):
        return "ratio"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us"),
                         ("_mb", "MB"), ("us_per_rk4_step", "us")):
        if metric.endswith(suffix):
            return unit
    return "count"


def source_lines() -> dict[str, int]:
    """Non-blank source lines per module under src/gridres."""
    out = {}
    for path in sorted((SRC / "gridres").glob("*.py")):
        out[path.stem] = sum(1 for line in path.read_text().splitlines()
                             if line.strip())
    loc = {f"loc.{m}": out.get(m, 0) for m in LOC_MODULES}
    loc["loc.total"] = sum(out.values())
    return loc


def source_digest() -> str:
    """Hash of the package and of the benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gridres").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def quantile(values, q):
    """Linear-interpolated quantile, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def run_passes(workload, seconds, log, clock, tracer=None):
    """Run passes until another one would overrun the time budget.

    Without a tracer every pass is untraced. With one, untraced and
    traced passes alternate, starting untraced, and at least one of each
    runs. A traced pass keeps the index range of its spans and the work
    counters it moved.
    """
    from workloads import Pass
    start = time.perf_counter()
    passes = []
    longest = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        p = Pass(clock, tracer if traced else None)
        if traced:
            first, before = len(tracer.spans), dict(tracer.counters)
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.run_pass(p)
        finally:
            if traced:
                tracer.uninstall()
        p.finish()
        longest = max(longest, time.perf_counter() - t0)
        p.traced = traced
        if traced:
            p.span_range = (first, len(tracer.spans))
            p.counter_delta = {k: v - before.get(k, 0)
                               for k, v in tracer.counters.items()}
        passes.append(p)
        log(f"pass {len(passes)}{' (traced)' if traced else ''}: "
            f"{p.study_s:.3f} s ({p.raw_s:.3f} s raw), {len(p.latencies)} units, "
            f"{p.failed} failed")
        if len(passes) < (2 if tracer else 1):
            continue
        if time.perf_counter() - start + longest > seconds:
            return passes


def measure(cls, args, workdir, import_s, log):
    """Untraced run: the end-to-end metrics, host-scaled and raw."""
    from calibrate import HostClock
    clock = HostClock()
    spans = []                # work-clock (start, end) of every set-up
    with clock.running():
        for _ in range(SETUP_REPS):
            t0 = clock.now()
            workload = cls()
            workload.setup(args.seed, workdir)
            spans.append((t0, clock.now()))
        passes = run_passes(workload, args.seconds, log, clock)
    # The imports ran before the clock: scale them by the set-ups' speed.
    import_scale = clock.speed(spans[0][0], spans[-1][1])
    setup = [((t1 - t0) * clock.speed(t0, t1), t1 - t0) for t0, t1 in spans]

    def timings(scaled: bool):
        lat = sorted(x for p in passes
                     for x in (p.latencies if scaled else p.raw_latencies))
        return {
            "setup_s": import_s * (import_scale if scaled else 1.0)
            + statistics.median(s if scaled else r for s, r in setup),
            "study_s": statistics.median(p.study_s if scaled else p.raw_s
                                         for p in passes),
            "unit_p50_ms": quantile(lat, 0.5) * 1e3,
            "unit_p90_ms": quantile(lat, 0.9) * 1e3,
        }
    metrics = timings(scaled=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {"raw": timings(scaled=False),
             "samples": sum(len(p.latencies) for p in passes)}
    for name, value in extra["raw"].items():
        log(f"raw {name} = {value:.6g} {unit_of(name)} (not host-scaled)")
    log(f"{extra['samples']} unit latency samples over {len(passes)} passes")
    return passes, metrics, extra, []


def measure_traced(cls, args, workdir, log):
    """Traced run: per-layer metrics and the work-counter repeat checks."""
    import tracing
    from calibrate import HostClock
    clock = HostClock()
    tracer = tracing.Tracer(clock.now)
    with clock.running():
        tracer.install()
        try:
            workload = cls()
            workload.setup(args.seed, workdir)
        finally:
            tracer.uninstall()
        setup_range, setup_counters = (0, len(tracer.spans)), dict(tracer.counters)
        passes = run_passes(workload, args.seconds, log, clock, tracer)
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]

    # Per-layer metrics cover the traced set-up plus the first traced pass.
    first = traced[0]
    counters = {k: setup_counters.get(k, 0) + first.counter_delta.get(k, 0)
                for k in set(setup_counters) | set(first.counter_delta)}
    metrics = tracing.aggregate(tracer.spans, [setup_range, first.span_range],
                                counters)
    attempts = first.counters.get("protection.locate_attempts", 0)
    metrics["protection.locate_hit_ratio"] = \
        first.counters.get("protection.locate_hits", 0) / attempts if attempts else 0.0
    metrics["cli.bytes_written"] = first.counters.get("cli.bytes_written", 0)
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(p.study_s for p in traced)
        / statistics.median(p.study_s for p in untraced))
    metrics.update(source_lines())

    problems = []
    counts = []
    for p in traced:
        values = dict(p.counter_delta, **p.counters)
        for name, *_ in tracer.spans[p.span_range[0]:p.span_range[1]]:
            values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + 1
        counts.append({k: values.get(k, 0) for k in REPEAT_COUNTERS})
    if any(c != counts[0] for c in counts[1:]):
        problems.append(f"work counters differ between traced passes: {counts}")
    stored = RESULTS / f"{args.workload}-seed{args.seed}-counters.json"
    mine = {"source_sha256": source_digest(), "counters": counts[0]}
    if stored.exists():
        before = json.loads(stored.read_text())
        if before["source_sha256"] == mine["source_sha256"] and \
                before["counters"] != mine["counters"]:
            problems.append(f"work counters differ from the previous run with "
                            f"this seed: {before['counters']} vs {mine['counters']}")
    stored.write_text(json.dumps(mine, indent=1) + "\n")
    (RESULTS / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(
        {"fields": ["name", "start_ns", "end_ns", "parent", "unit"],
         "spans": tracer.spans}))
    for name in REPEAT_COUNTERS:
        log(f"counter {name} = {counts[0][name]}")
    return passes, metrics, {"counters": counts[0]}, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridres" / "__init__.py").is_file():
        print(f"bench: no gridres package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy
    import gridres
    import workloads
    if Path(gridres.__file__).resolve().parent != SRC / "gridres":
        print(f"bench: imported gridres from {gridres.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    def log(msg):
        print(f"[{args.workload}] {msg}", flush=True)

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "platform": platform.platform()}
    log(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
        f"nproc {machine['nproc']}, python {machine['python']}, "
        f"numpy {machine['numpy']}")
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    cls = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            passes, metrics, extra, problems = measure_traced(cls, args, workdir, log)
        else:
            passes, metrics, extra, problems = measure(cls, args, workdir,
                                                       import_s, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [msg for p in passes for msg in p.problems] + problems
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems
    log(f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "source_sha256": source_digest(),
              "loc": source_lines(),
              "passes": [{"study_s": p.study_s, "raw_s": p.raw_s,
                          "units": len(p.latencies), "traced": p.traced}
                         for p in passes],
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "problems": problems[:50],
              "metrics": metrics, **extra}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for msg in problems[:20]:
        log(f"problem: {msg}")
    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {unit_of(name)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
