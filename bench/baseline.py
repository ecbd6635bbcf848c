"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs bench/run.py once per workload and seed, one process at a time, with
the run length from BENCHMARK.json, then one traced run per workload on
the first seed. For every end-to-end metric it reports the median, the
quartiles and the spread (third minus first quartile over the median),
which is what the benchmark's bounds are checked against. With --out the
summary, machine info and source line counts are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seeds = seed_list(args.seeds)
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"],
               "workloads": {}}
    for name in names:
        runs = [run_once(spec, name, seed, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        entry["failed_ratio"] = entry["failed"] / entry["attempted"]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = summarize(values)
            s["bound"] = metric["bound"]
            entry["end_to_end"][metric["name"]] = s
            print(f"{name:18s} {metric['name']:12s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.3f} (bound {metric['bound']})",
                  flush=True)
        traced = run_once(spec, name, seeds[0], 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][name] = entry
        print(f"{name:18s} correct {entry['correct']} failed_ratio "
              f"{entry['failed_ratio']:.4f}", flush=True)
    record = json.loads((BENCH / "results" / f"{names[0]}-seed{seeds[0]}-trace1.json")
                        .read_text())
    summary["machine"] = record["machine"]
    summary["source_sha256"] = record["source_sha256"]
    summary["loc"] = record["loc"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
