"""Record a point of the bench trajectory.

    python3 bench/record.py --label <label>

For every workload of BENCHMARK.json, runs ``bench/run.py`` once per seed of
two ten-seed sets (``SEED_SETS``), each in a fresh process, with the run
length from BENCHMARK.json, then once per ``TRACED_SEEDS`` with
``--trace 1``. Writes ``bench/results/BENCH_<label>.json`` with the host
(nproc, Python, CPU model, commit), every run's values, per set, workload
and metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the quartile spread as a share of the median next to the metric's bound,
and how far the second set's median lies from the first's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_SETS = (tuple(range(1, 11)), tuple(range(11, 21)))
TRACED_SEEDS = (1, 2)

sys.path.insert(0, str(BENCH))
from run import host  # noqa: E402


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                 "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / med if med else 0.0}
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def run_set(workload: str, seeds, seconds: int) -> list[dict]:
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds, 0))
        print(workload, seed, {k: round(v["value"], 4)
                               for k, v in runs[-1]["metrics"].items()},
              flush=True)
    return runs


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label,
              "host": dict(host(), cpu_model=cpu_model()),
              "run_seconds": seconds, "seed_sets": SEED_SETS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [run_set(workload, seeds, seconds) for seeds in SEED_SETS]
        traced = [run_once(workload, s, seconds, 1) for s in TRACED_SEEDS]
        summaries = [summarize(runs, bounds) for runs in sets]
        record["workloads"][workload] = {
            "end_to_end": summaries,
            "second_set_change": {
                name: e["median"] / summaries[0][name]["median"] - 1
                for name, e in summaries[1].items()},
            "runs": [{"seed": r["seed"], "correct": r["correct"],
                      "attempted": r["attempted"], "failed": r["failed"],
                      **{k: v["value"] for k, v in r["metrics"].items()}}
                     for runs in sets for r in runs],
            "traced_runs": [{"seed": r["seed"], "correct": r["correct"],
                             **{k: v["value"] for k, v in r["metrics"].items()}}
                            for r in traced],
        }
        change = record["workloads"][workload]["second_set_change"]
        for name, e in summaries[0].items():
            print(f"  {name:14s} median {e['median']:.6g} {e['unit']}  "
                  f"spreads {e['spread']:.4f} {summaries[1][name]['spread']:.4f}"
                  f"  second set {change[name]:+.4f}  bound {e.get('bound')}",
                  flush=True)
    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
