"""The four benchmark workloads: inputs, timed units and output checks.

Each workload builds its inputs from the seed in setup(), exports them to
JSON and loads them back so the engines only see generated documents, and
warms up on inputs from a different seed. run_pass() then runs the fixed
batch of units through a Pass, which times each call and checks its
output afterwards, outside the timed region. The checks rely on physics
and on the documented behaviour of the public API, not on how the engines
compute their answers.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from gridres import benchmarks as bm
from gridres import blackstart as bs
from gridres import cli
from gridres import frequency as fq
from gridres import metrics as mt
from gridres import protection as pt
from gridres import schemas

import gen

KIRCHHOFF_TOL = 1e-9
LOCATE_TOL_PU = 1e-6


def warm_seed(seed: int) -> int:
    """Seed of the warm-up inputs, never equal to the timed pass's seed."""
    return seed + 1_000_003


def roundtrip(doc):
    """The document as the program would read it back from a JSON file."""
    return json.loads(json.dumps(doc))


class Pass:
    """One timed pass over a workload's batch of units.

    Only the calls are timed, on the work clock of the run's HostClock
    (see calibrate.py); each check runs right after its call, outside
    the timed region. A unit fails when it raises or when its check
    reports a problem. Problems on units fed valid inputs also make the
    run incorrect; units fed malformed inputs (expect_reject) only count
    as failed, since rejecting them cleanly is what is being measured
    there. Without a clock (warm-up) calls are timed on the wall clock.
    """

    def __init__(self, clock=None, tracer=None):
        self.clock = clock
        self.now = clock.now if clock else time.perf_counter
        self.tracer = tracer
        self.calls: list[tuple[float, float, bool]] = []   # (start, end, unit)
        self.n_units = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counters: dict[str, int] = {}

    def count(self, name: str, amount: int = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _timed(self, is_unit, fn, *args):
        if self.tracer:
            self.tracer.unit = self.n_units if is_unit else "step"
        self.n_units += is_unit
        t0 = self.now()
        try:
            return fn(*args)
        finally:
            self.calls.append((t0, self.now(), is_unit))

    def step(self, fn, *args):
        """A timed call that belongs to the study but is not a unit."""
        return self._timed(False, fn, *args)

    def unit(self, label, fn, *args, check, expect_reject=False):
        try:
            out = self._timed(True, fn, *args)
        except Exception as exc:  # a crash is a measured outcome here
            self.failed += 1
            if not expect_reject:
                self.problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        found = check(out)
        if found:
            self.failed += 1
            if not expect_reject:
                self.problems.extend(f"{label}: {p}" for p in found)
        return out

    def flag(self, problem: str):
        """A problem found by a check over several units."""
        self.problems.append(problem)
        self.failed += 1

    def finish(self):
        """Close the pass: raw and host-scaled study time and latencies."""
        scaled = [((t1 - t0) * self.clock.speed(t0, t1), t1 - t0, u)
                  for t0, t1, u in self.calls]
        self.raw_s = sum(raw for _, raw, _ in scaled)
        self.study_s = sum(s for s, _, _ in scaled)
        self.raw_latencies = [raw for _, raw, u in scaled if u]
        self.latencies = [s for s, _, u in scaled if u]


# ---------------------------------------------------------------------------
# freq_sweep
# ---------------------------------------------------------------------------

class FreqSweep:
    name = "freq_sweep"
    why = ("The RK4 loop and the per-sample Python loops of the metrics and "
           "CSV code do almost all the work; protection and blackstart stay "
           "idle, so integrator work shows here and only weakly elsewhere.")

    def setup(self, seed: int, workdir: Path):
        self.scenarios = self._scenarios(seed)
        warm = self._scenarios(warm_seed(seed))
        for scn in warm[:2]:
            Pass().unit("warm-up", self._unit, scn, check=self._check)

    @staticmethod
    def _scenarios(seed):
        out = []
        for country, size in gen.frequency_sweep(seed):
            scn = schemas.FrequencyScenario(**gen.frequency_case(country, size))
            out.append(schemas.load_frequency_scenario(
                roundtrip(schemas.dump_frequency_scenario(scn))))
        return out

    @staticmethod
    def _unit(scn):
        trace = scn.simulate()
        summary = fq.trace_metrics(trace, scn.system)
        service = mt.service_from_frequency(trace, scn.system)
        area = mt.degradation_area(service)
        buf = io.StringIO()
        schemas.write_trace_csv(buf, trace)
        buf.seek(0)
        back = schemas.read_trace_csv(buf)
        return scn, trace, summary, service, area, back

    @staticmethod
    def _check(out):
        scn, trace, summary, service, area, back = out
        f_n = scn.system.f_n
        found = []
        if not (np.isfinite(trace.f).all() and np.isfinite(trace.rocof).all()):
            found.append("trace not finite")
        if not trace.f.min() < f_n:
            found.append("nadir not below f_n")
        if summary.nadir_hz != float(trace.f.min()):
            found.append("trace_metrics nadir differs from the trace minimum")
        levels = service.level
        if len(service) != len(trace) or levels.min() < 0 or levels.max() > 1:
            found.append("service levels outside [0, 1] or wrong length")
        if not (math.isfinite(area) and area >= 0):
            found.append("degradation area negative or not finite")
        if len(back) != len(trace) or not np.allclose(back.f, trace.f,
                                                      rtol=1e-8, atol=0):
            found.append("trace CSV round trip changed the trace")
        return found

    def run_pass(self, p: Pass):
        for i, scn in enumerate(self.scenarios):
            p.unit(f"sweep[{i}]", self._unit, scn, check=self._check)


# ---------------------------------------------------------------------------
# feeder_protection
# ---------------------------------------------------------------------------

def kirchhoff_residual(network, fault, sol) -> float:
    """Largest current imbalance at any node of a source-fed fault solution.

    Injections come from the reported source, DER and fault currents;
    branch currents follow the documented convention (positive from
    from_bus to to_bus, a mid-line fault splitting the line into the
    line id and '<line>#far').
    """
    node = {b: 0.0 for b in network.buses}
    fault_node = ("fault",)
    node[fault_node] = 0.0
    der_bus = {d.id: d.bus for d in network.ders}
    for did, amount in sol.der_contributions_pu.items():
        node[der_bus[did]] += amount
    node[network.source.bus] += sol.i_grid_pu
    split = fault.element_kind == "line" and 1e-9 < fault.position < 1 - 1e-9
    if fault.element_kind == "bus":
        node[fault.element_id] -= sol.i_fault_pu
    elif not split:
        ln = network.line_by_id(fault.element_id)
        node[ln.from_bus if fault.position <= 1e-9 else ln.to_bus] -= sol.i_fault_pu
    else:
        node[fault_node] -= sol.i_fault_pu
    for ln in network.lines:
        if split and ln.id == fault.element_id:
            near = sol.branch_currents.get(ln.id, 0.0)
            far = sol.branch_currents.get(ln.id + "#far", 0.0)
            node[ln.from_bus] -= near
            node[fault_node] += near - far
            node[ln.to_bus] += far
        else:
            flow = sol.branch_currents.get(ln.id, 0.0)
            node[ln.from_bus] -= flow
            node[ln.to_bus] += flow
    return max(abs(v) for v in node.values())


class FeederProtection:
    name = "feeder_protection"
    why = ("The fault-signature map grows superlinearly with feeder size and "
           "every case re-solves one fixed topology; two sizes separate "
           "per-call overhead from growth with size.")
    SIZES = ((400, 210), (800, 120))   # (buses, fault cases per pass)

    def setup(self, seed: int, workdir: Path):
        self.feeders = [self._load(gen.feeder(n, seed), n_cases, seed)
                        for n, n_cases in self.SIZES]
        net, settings, cases = self._load(gen.feeder(120, warm_seed(seed)), 5,
                                          warm_seed(seed))
        fmap = pt.build_fault_signature_map(net, self.map_candidates(net))
        for case in cases:
            Pass().unit("warm-up", self._unit, net, settings, fmap, case,
                        check=lambda out: [])

    @staticmethod
    def map_candidates(net):
        """Every line (faulted mid-line) and every bus but the source's.

        The stream injects bus faults as well as line faults, so the map
        holds both; a line-only map could only ever place a bus fault on
        a line. Where two candidates give the same arrival vector (a
        fault at the first trunk bus and one on the source line), the
        locator refuses the case as ambiguous.
        """
        return ([("line", ln.id) for ln in net.lines]
                + [("bus", b) for b in net.buses if b != net.source.bus])

    @staticmethod
    def _load(fdr, n_cases, seed):
        net = schemas.load_network(roundtrip(schemas.dump_network(fdr.network)))
        settings = schemas.load_settings(roundtrip(fdr.settings))
        return net, settings, gen.fault_stream(fdr, n_cases, seed)

    @staticmethod
    def _unit(net, settings, fmap, case):
        fault, failed = case
        report = pt.simulate_protection(net, fault, settings)
        sol = pt.solve_fault_currents(net, fault)
        try:
            located = pt.centralized_locate_fault(
                sol.der_fault_arrivals_pu, fmap, LOCATE_TOL_PU, failed)
        except (pt.AmbiguousLocationError, pt.NoFaultDetectedError):
            located = None   # a refusal, not a failure
        return report, sol, located

    def _checker(self, net, case, p: Pass):
        fault, _failed = case

        def check(out):
            report, sol, located = out
            found = []
            residual = kirchhoff_residual(net, fault, sol)
            if not residual <= KIRCHHOFF_TOL:
                found.append(f"Kirchhoff residual {residual:.3g} pu")
            p.count("protection.locate_attempts")
            if located is not None:
                if located.location != (fault.element_kind, fault.element_id):
                    found.append(f"located {located.location}, injected "
                                 f"{(fault.element_kind, fault.element_id)}")
                else:
                    p.count("protection.locate_hits")
            times = [ev.time_s for ev in report.trips]
            line_of = {b.id: b.line for b in net.breakers}
            if times != sorted(times) or sorted(report.open_lines) != sorted(
                    line_of[ev.breaker_id] for ev in report.trips):
                found.append("trip sequence inconsistent with open lines")
            return found
        return check

    def run_pass(self, p: Pass):
        for net, settings, cases in self.feeders:
            fmap = p.step(pt.build_fault_signature_map, net,
                          self.map_candidates(net))
            n = len(net.buses)
            for i, case in enumerate(cases):
                p.unit(f"feeder{n}[{i}]", self._unit, net, settings, fmap,
                       case, check=self._checker(net, case, p))


# ---------------------------------------------------------------------------
# blackstart_mc
# ---------------------------------------------------------------------------

class BlackstartMC:
    name = "blackstart_mc"
    why = ("comm_reachable is an O(N^2) disk graph rebuilt every agent round; "
           "the 120-bus tiling makes it dominate more than on 30 buses, and "
           "small and large radii change rounds and merge retries.")
    P_BATTERY = (0.1, 0.5, 0.9)
    RADII_KM = (2.0, 6.0, 10.0)
    RUNS = 2
    MC_SEEDS = (10, 6)   # Monte Carlo seeds per cell: 30-bus, 120-bus

    def setup(self, seed: int, workdir: Path):
        self.seed = seed
        self.layouts = [self._load(gen.restoration_base(seed)),
                        self._load(gen.tiled_restoration(seed))]
        warm = self._load(gen.restoration_base(warm_seed(seed)))
        bs.monte_carlo(warm, 0.5, 6.0, runs=self.RUNS, seed=warm_seed(seed))

    @staticmethod
    def _load(scn):
        return schemas.load_restoration_scenario(
            roundtrip(schemas.dump_restoration_scenario(scn)))

    def _check(self, out):
        fr = out.restored_fractions
        if len(fr) != self.RUNS or not all(0.0 <= x <= 1.0 for x in fr):
            return ["restored fractions outside [0, 1] or wrong count"]
        return []

    def run_pass(self, p: Pass):
        means = {}
        for scn, n_seeds in zip(self.layouts, self.MC_SEEDS):
            n = len(scn.buses)
            for k in range(n_seeds):
                mc_seed = self.seed * 100 + k
                for r in self.RADII_KM:
                    for pb in self.P_BATTERY:
                        out = p.unit(f"mc{n}[p={pb},r={r},seed={mc_seed}]",
                                     bs.monte_carlo, scn, pb, r, self.RUNS,
                                     mc_seed, check=self._check)
                        if out is not None:
                            means[(n, mc_seed, r, pb)] = out.mean
        for (n, mc_seed, r, pb), mean in means.items():
            lower = [means.get((n, mc_seed, r, q)) for q in self.P_BATTERY
                     if q < pb]
            if any(m is not None and m > mean + 1e-12 for m in lower):
                p.flag(f"mc{n} seed {mc_seed} r={r}: mean not monotone in p")


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

TWO_FEEDER_CONFIGS = {       # the four configurations of the misoperation suite
    "clean": {},
    "blinded": {"der_a_injection_pu": 2.0},
    "sympathetic": {"der_b_injection_pu": 4.5, "source_available": False},
    "energized": {"der_a_injection_pu": 0.5},
}


def _tree_digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())} if directory.exists() else {}


class CliMix:
    name = "cli_mix"
    why = ("Schema load/validate, CSV and JSON writes and the click wiring do "
           "most of the work while the engines are light; malformed documents "
           "put the known validation crashes into failed_ratio.")
    # Unit counts, chosen so that the median latency falls inside the
    # block of fleet validations and the 90th percentile inside the block
    # of protection runs on the generated feeder, not between blocks.
    # Units that create files sit off the median: their latency follows
    # the host's file-system load, which the reference task does not see.
    N_FLEETS = 40              # all validated
    N_FLEETS_COORDINATED = 12
    N_FEEDER_FAULTS = 14
    MALFORMED_PER_FAMILY = 3
    N_FREQUENCY = 3

    def setup(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.pass_no = 0
        self.units = self._write_inputs(seed, workdir / "docs")
        warm_dir = workdir / "warm"
        for argv, _kind, _reject in self._write_inputs(
                warm_seed(seed), warm_dir / "docs")[:8]:
            Pass().unit("warm-up", self._call, argv, warm_dir / "out",
                        check=lambda out: [])
        shutil.rmtree(warm_dir)

    @staticmethod
    def _write_inputs(seed, docs: Path):
        """Write every input document; returns the unit list.

        Each unit is (argv with OUT standing for its output directory,
        subcommand, expect_reject).
        """
        docs.mkdir(parents=True, exist_ok=True)

        def put(name, doc):
            (docs / name).write_text(json.dumps(doc))
            return str(docs / name)

        scn = schemas.FrequencyScenario(
            system=bm.benchmark_system(), event=bm.benchmark_event(),
            fcr=bm.benchmark_fcr(), secondary=bm.benchmark_secondary(),
            droop_fleet=bm.benchmark_droop_fleet(), horizon_s=60.0, dt_s=0.01)
        freq = schemas.dump_frequency_scenario(scn)
        del freq["horizon_s"], freq["dt_s"]       # the default horizon

        def valid_docs(rng):
            config = TWO_FEEDER_CONFIGS[rng.choice(sorted(TWO_FEEDER_CONFIGS))]
            return {"frequency": roundtrip(freq),
                    "network": schemas.dump_network(
                        bm.two_feeder_network(**config)),
                    "restoration": schemas.dump_restoration_scenario(
                        bm.benchmark_restoration_scenario()),
                    "fleet": gen.fleet_doc(seed, rng.randrange(CliMix.N_FLEETS))}

        units = []
        validate, reject = [], []
        validate.append(put("frequency.json", freq))
        validate.append(put("restoration.json", schemas.dump_restoration_scenario(
            bm.benchmark_restoration_scenario())))
        fault = put("fault.json", {"element": {"kind": "line", "id": "L2"},
                                   "impedance_pu": 0.0, "position": 0.5})
        settings = put("settings.json", bm.TWO_FEEDER_SETTINGS)
        protection = []
        for name, kwargs in TWO_FEEDER_CONFIGS.items():
            net = put(f"net_{name}.json",
                      schemas.dump_network(bm.two_feeder_network(**kwargs)))
            validate.append(net)
            protection.append((net, fault, settings))
        fdr = gen.feeder(200, seed)
        gen_net = put("feeder.json", schemas.dump_network(fdr.network))
        gen_settings = put("feeder_settings.json", fdr.settings)
        validate.append(gen_net)
        for k, (f, _failed) in enumerate(
                gen.fault_stream(fdr, CliMix.N_FEEDER_FAULTS, seed)):
            doc = {"element": {"kind": f.element_kind, "id": f.element_id},
                   "impedance_pu": f.impedance_pu, "position": f.position}
            protection.append((gen_net, put(f"feeder_fault{k}.json", doc),
                               gen_settings))
        fleets = [put(f"fleet{k}.json", gen.fleet_doc(seed, k))
                  for k in range(CliMix.N_FLEETS)]
        validate.extend(fleets)
        for k, (family, doc) in enumerate(
                gen.malformed_docs(seed, CliMix.MALFORMED_PER_FAMILY,
                                    valid_docs)):
            if family == "nan_setting":
                units.append((["protection", "--network", protection[0][0],
                               "--fault", fault, "--settings",
                               put(f"bad{k}.json", doc), "--out", "OUT"],
                              "protection", True))
            else:
                reject.append(put(f"bad{k}_{family}.json", doc))

        trace = docs / "trace600.csv"
        trace.write_text(gen.synthetic_trace_csv(seed))
        timeline = docs / "timeline.csv"
        buf = io.StringIO()
        schemas.write_timeline_csv(buf, bs.run_restoration(
            bm.benchmark_restoration_scenario(), seed=seed))
        timeline.write_text(buf.getvalue())
        total_load = bm.benchmark_restoration_scenario().total_load_mw()

        units += [(["validate", "--scenario", d], "validate", False)
                  for d in validate]
        units += [(["validate", "--scenario", d], "validate", True)
                  for d in reject]
        units += [(["coordinate", "--scenario", d, "--out", "OUT"],
                   "coordinate", False)
                  for d in fleets[:CliMix.N_FLEETS_COORDINATED]]
        units += [(["protection", "--network", n, "--fault", f,
                    "--settings", s, "--out", "OUT"], "protection", False)
                  for n, f, s in protection]
        units.append((["blackstart", "--scenario", validate[1], "--out", "OUT",
                       "--seed", str(seed)], "blackstart", False))
        units.append((["metrics", "--trace", str(trace), "--out", "OUT"],
                      "metrics", False))
        units.append((["metrics", "--timeline", str(timeline),
                       "--total-load-mw", repr(total_load), "--out", "OUT"],
                      "metrics", False))
        units += [(["frequency", "--scenario", validate[0], "--out", "OUT"],
                   "frequency", False)] * CliMix.N_FREQUENCY
        return units

    @staticmethod
    def _call(argv, out_dir: Path):
        argv = [str(out_dir) if a == "OUT" else a for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), out_dir

    def run_pass(self, p: Pass):
        pass_dir = self.workdir / f"pass{self.pass_no}"
        first_of = {}
        for i, (argv, kind, reject) in enumerate(self.units):
            out_dir = pass_dir / f"u{i}"
            expected = cli.EXIT_VALIDATION if reject else cli.EXIT_OK

            def check(out, expected=expected, kind=kind):
                code, stdout, out_dir = out
                files = _tree_digest(out_dir)
                written = len(stdout.encode())
                if out_dir.exists():
                    written += sum(f.stat().st_size for f in out_dir.iterdir())
                p.count("cli.bytes_written", written)
                if code != expected:
                    return [f"exit code {code}, expected {expected}"]
                if expected == cli.EXIT_OK and kind != "validate" and not files:
                    return ["no output files"]
                return []
            out = p.unit(f"{kind}[{i}]", self._call, argv, out_dir,
                         check=check, expect_reject=reject)
            if out is not None and not reject:
                first_of.setdefault(kind, (argv, out))
        if self.pass_no == 0:
            # One untimed rerun per subcommand must be byte-identical.
            for kind, (argv, (code, stdout, out_dir)) in sorted(first_of.items()):
                again = self._call(argv, pass_dir / f"rerun_{kind}")
                if again[:2] != (code, stdout) or \
                        _tree_digest(again[2]) != _tree_digest(out_dir):
                    p.flag(f"{kind}: rerun is not byte-identical")
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.pass_no += 1


WORKLOADS = {w.name: w for w in (FreqSweep, FeederProtection, BlackstartMC,
                                 CliMix)}
