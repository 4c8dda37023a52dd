"""Layered benchmark for nlbox.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from the checkout's ``src`` tree (nlbox need not be
installed) in this process, single-threaded, as a closed loop with one
client: it cycles the workload's job list, in an order drawn from ``--seed``,
until ``--seconds`` have passed and the tail percentile has ten samples
beyond it, always finishing the current cycle. Every job's result is checked
against ``reference.json``. Human-readable lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import SPAWN_REFERENCE_S, Sampler, SpawnReference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
TRACE_DIR = ROOT / ".bench_build" / "traces"

SETUP_SAMPLES = 15
# stop starting cycles after this long, so a run (set-up plus one phase)
# ends well within 180 s
HARD_LIMIT_S = 60.0

# a fresh interpreter that imports nlbox and builds the listed strategies,
# their games and the listed extra games: the set-up a user pays before the
# first job
SETUP_CODE = """
import sys
import nlbox
for s in filter(None, sys.argv[1].split(",")):
    nlbox.get_game(nlbox.get_strategy(s).game_id)
for g in filter(None, sys.argv[2].split(",")):
    nlbox.get_game(g)
"""

END_TO_END_UNITS = {"points_per_s": "1/s", "job_p50_ms": "ms",
                    "job_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_ratio": "ratio"}


def clock_s() -> float:
    return time.perf_counter()


def spawn_wall_s(cmd: list) -> float:
    """Wall seconds of one child process run from the checkout root."""
    from workloads import run_child

    t0 = clock_s()
    code, _, _ = run_child(cmd, capture=False, limit_s=60)
    if code != 0:
        raise RuntimeError(f"{cmd[:3]} exited {code}")
    return clock_s() - t0


def setup_s(cmd: list, samples: int = SETUP_SAMPLES) -> float:
    """Median wall time of ``samples`` fresh set-up processes, normalised by
    bare interpreter starts interleaved with them (see hostspeed.py)."""
    spawn_wall_s(cmd)   # untimed: byte-compiles src and warms the page cache
    ref = SpawnReference(spawn_wall_s)
    walls = []
    for _ in range(samples):
        ref.after_job()
        walls.append(spawn_wall_s(cmd))
    return (statistics.median(walls) * SPAWN_REFERENCE_S
            / statistics.median(ref.costs))


def setup_command(w) -> list:
    if not w.in_process:
        return [sys.executable, "-c", "import nlbox.cli"]
    return [sys.executable, "-c", SETUP_CODE, ",".join(w.setup_strategies),
            ",".join(w.setup_games)]


class Phase:
    """Outcomes of consecutive cycles over one job list. Times are
    host-normalised (see hostspeed.py); ``cycle_s`` and ``samples_ms`` come
    from the untraced job runs, ``traced_cycle_s`` and ``cycle_aggs`` from
    the traced ones."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self.cycle_s: list[float] = []
        self.traced_cycle_s: list[float] = []
        self.cycle_aggs: list[dict] = []
        self.attempted = self.failed = self.probe_misses = 0
        self.exit_mismatches = 0
        self.points = 0
        self.busy_s = 0.0
        self.cli_overhead_ms: list[float] = []
        self.failures: list[str] = []
        self.scale = 1.0
        self.reference_s: list[float] = []


def run_phase(jobs, rng, reference, seconds, min_samples, in_process,
              cycles=None, tracer=None, traced_jobs=None) -> Phase:
    """Cycle ``jobs`` until ``seconds`` have passed and there are
    ``min_samples`` job times, or for ``cycles`` cycles. With a ``tracer``,
    every job runs twice in a row with the same seed, untraced and then
    traced from ``traced_jobs`` (the other way round on odd cycles), so the
    tracing overhead is measured on neighbouring runs."""
    from workloads import REQUIRED_REJECTION, CliRun, cli_report

    ph = Phase()
    traced_by_id = {job.id: job for job in traced_jobs or ()}
    # per job run: (job id, cycle, traced, start, end, traced counter
    # growth, CLI runtime_ms)
    timed = []
    n_cycles = 0
    ref = Sampler() if in_process else SpawnReference(spawn_wall_s)

    def run_one(job, seed, traced):
        raw = error = rec = restore = None
        if traced:
            ref.pause()
            if in_process:
                restore = tracer.install()
        t0 = clock_s()
        try:
            if not traced:
                raw = job.call(seed)
            else:
                with tracer.job_span(job.id) as rec:
                    raw = job.call(seed)
                    if isinstance(raw, CliRun) and raw.trace:
                        tracer.merge_child(raw.trace)
        except Exception as exc:   # a job that raises is a failed job
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock_s()
        if traced:
            if restore:
                restore()
            ref.resume()
        ref.after_job()
        ph.attempted += 1
        expected = REQUIRED_REJECTION if job.probe else reference.get(job.id)
        summary = runtime_ms = None
        if error is None:
            try:
                summary, points = job.summarize(raw)
                if not traced:
                    ph.points += points
            except Exception as exc:
                error = f"summary {type(exc).__name__}: {exc}"
        if summary != expected:
            if job.probe:
                ph.probe_misses += 1
            else:
                ph.failed += 1
                ph.failures.append(f"{job.id}: {error or summary}")
        if isinstance(raw, CliRun) and not traced:
            if expected and raw.exit != expected.get("exit"):
                ph.exit_mismatches += 1
            report = cli_report(raw.stdout)
            if isinstance(report, dict):
                runtime_ms = report.get("runtime_ms")
        timed.append((job.id, n_cycles, traced, t0, t1, rec and rec["agg"],
                      runtime_ms))

    start = clock_s()
    with ref:
        while True:
            order = rng.sample(jobs, len(jobs))
            seeds = [rng.randrange(2 ** 31) for _ in order]
            for job, seed in zip(order, seeds):
                if tracer is None:
                    run_one(job, seed, False)
                    continue
                pair = [(job, False), (traced_by_id[job.id], True)]
                for j, traced in (pair[::-1] if n_cycles % 2 else pair):
                    run_one(j, seed, traced)
            n_cycles += 1
            elapsed = clock_s() - start
            if cycles is not None:
                if n_cycles >= cycles:
                    break
            elif (elapsed >= seconds and n_cycles * len(jobs) >= min_samples) \
                    or elapsed >= HARD_LIMIT_S:
                break

    ph.cycle_s = [0.0] * n_cycles
    ph.traced_cycle_s = [0.0] * n_cycles
    ph.cycle_aggs = [{} for _ in range(n_cycles)]
    scale = ph.scale = ref.scale()
    ph.reference_s = ref.costs
    for job_id, cycle, traced, t0, t1, agg, runtime_ms in timed:
        dt = ref.busy(t0, t1) * scale
        if traced:
            ph.traced_cycle_s[cycle] += dt
            for k, (n, ns) in agg.items():
                c = ph.cycle_aggs[cycle].setdefault(k, [0, 0.0])
                c[0] += n
                c[1] += ns * scale
            continue
        ph.samples_ms.append(dt * 1e3)
        ph.cycle_s[cycle] += dt
        if runtime_ms is not None:
            ph.cli_overhead_ms.append(dt * 1e3 - runtime_ms * scale)
    ph.busy_s = sum(ph.cycle_s)
    if tracer is None:
        ph.traced_cycle_s = ph.cycle_aggs = []
    return ph


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(w, ph: Phase, setup_s: float) -> dict:
    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    return {
        "points_per_s": ph.points / ph.busy_s,
        "job_p50_ms": statistics.median(ph.samples_ms),
        "job_tail_ms": percentile(ph.samples_ms, w.tail_pct),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_ratio": (ph.attempted - ph.failed - ph.probe_misses) / ph.attempted,
    }


PER_LAYER_UNITS = {
    "engine.execute_calls": "count",
    "engine.sweep_execute_calls": "count",
    "engine.execute_us": "us",
    "engine.executor_self_s": "s",
    "engine.enumerate_seeds_s": "s",
    "strategies.program_calls": "count",
    "strategies.program_s": "s",
    "strategies.build_s": "s",
    "strategies.enumerate_quadruples_s": "s",
    "distbit.formula_build_s": "s",
    "games.build_s": "s",
    "games.is_winning_calls": "count",
    "games.is_winning_s": "s",
    "games.winning_outcomes_s": "s",
    "analysis.exact_distribution_s": "s",
    "analysis.verify_winning_s": "s",
    "analysis.no_signaling_check_s": "s",
    "analysis.uniformity_verdict_s": "s",
    "analysis.classical_value_s": "s",
    "analysis.impossibility_search_s": "s",
    "analysis.resource_count_s": "s",
    "analysis.self_s": "s",
    "analysis.points_per_execute": "ratio",
    "analysis.search_candidates_per_s": "1/s",
    "cli.import_ms": "ms",
    "cli.overhead_ms": "ms",
    "cli.interp_ms": "ms",
    "cli.exit_mismatch": "count",
    "trace.overhead_pct": "%",
}

# the layers below analysis whose time is not analysis self time
ANALYSIS_CHILDREN = ("engine.execute", "engine.enumerate_seeds",
                     "games.is_winning", "games.promised_inputs",
                     "games.winning_outcomes")


def per_cycle_counts(ph: Phase) -> dict:
    """Exact per-cycle call counts; every cycle does the same work, so they
    must agree between cycles."""
    counts = [{k: v[0] for k, v in agg.items()} for agg in ph.cycle_aggs]
    for c in counts[1:]:
        if c != counts[0]:
            raise RuntimeError("traced cycles made different call counts")
    return counts[0]


def per_layer(w, ph: Phase, build: dict) -> dict:
    n_cyc = len(ph.cycle_aggs)
    counts = per_cycle_counts(ph)
    ns: dict[str, float] = {}
    for agg in ph.cycle_aggs:
        for k, (_, t) in agg.items():
            ns[k] = ns.get(k, 0) + t / n_cyc
    # in-process workloads build once at set-up; CLI processes build per cycle
    for k, (_, t) in build.items():
        ns[k] = ns.get(k, 0) + t

    def s(name):
        return ns.get(name, 0) / 1e9

    def n(name):
        return counts.get(name, 0)

    execs = n("engine.execute")
    sweep_execs = execs - n("engine.resource_execute")
    search_s = s("analysis.classical_value") + s("analysis.impossibility_search")
    metrics = {
        "engine.execute_calls": execs,
        "engine.sweep_execute_calls": sweep_execs,
        "engine.execute_us": s("engine.execute") * 1e6 / execs if execs else 0.0,
        "engine.executor_self_s": s("engine.execute") - s("strategies.program"),
        "engine.enumerate_seeds_s": s("engine.enumerate_seeds"),
        "strategies.program_calls": n("strategies.program"),
        "strategies.program_s": s("strategies.program"),
        "strategies.build_s": s("strategies.get_strategy"),
        "strategies.enumerate_quadruples_s": s("strategies.enumerate_quadruples"),
        "distbit.formula_build_s": s("distbit.formula_build"),
        "games.build_s": s("games.get_game"),
        "games.is_winning_calls": n("games.is_winning"),
        "games.is_winning_s": s("games.is_winning"),
        "games.winning_outcomes_s": s("games.winning_outcomes"),
    }
    for entry in ("exact_distribution", "verify_winning", "no_signaling_check",
                  "uniformity_verdict", "classical_value",
                  "impossibility_search", "resource_count"):
        metrics[f"analysis.{entry}_s"] = s(f"analysis.{entry}")
    metrics["analysis.self_s"] = s("analysis.busy") - sum(
        s(c) for c in ANALYSIS_CHILDREN)
    metrics["analysis.points_per_execute"] = (
        n("analysis.sweep_points") / sweep_execs if sweep_execs else 0.0)
    metrics["analysis.search_candidates_per_s"] = (
        n("analysis.search_candidates") / search_s if search_s else 0.0)
    # mean import time of a cycle's CLI processes, median over cycles
    imports = [agg["cli.import"][1] / agg["cli.import"][0] / 1e6
               for agg in ph.cycle_aggs if "cli.import" in agg]
    metrics["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    metrics["cli.overhead_ms"] = (statistics.median(ph.cli_overhead_ms)
                                  if ph.cli_overhead_ms else 0.0)
    # the bare interpreter starts of the spawn reference, unnormalised: the
    # host's own cost, which no change to the repo can move
    metrics["cli.interp_ms"] = (statistics.median(ph.reference_s) * 1e3
                                if not w.in_process else 0.0)
    metrics["cli.exit_mismatch"] = ph.exit_mismatches // n_cyc
    # each cycle ran every job untraced and traced, next to each other
    metrics["trace.overhead_pct"] = 100 * (statistics.median(
        t / p for t, p in zip(ph.traced_cycle_s, ph.cycle_s)) - 1)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            reference: dict | None = None, cycles: int | None = None,
            setup: bool = True) -> dict:
    """One benchmark run. ``cycles`` fixes the number of cycles instead of
    the time budget (the self-tests use it); ``setup=False``
    skips the fresh-process set-up timing."""
    from workloads import WORKLOADS, build_jobs

    w = WORKLOADS[name]
    if reference is None:
        reference = json.loads(REFERENCE.read_text())[name]
    rng = random.Random(seed)
    out = {"workload": name, "seed": seed, "tail_pct": w.tail_pct}

    if not trace:
        set_up = setup_s(setup_command(w)) if setup else float("nan")
        jobs = build_jobs(name)
        ph = run_phase(jobs, rng, reference, seconds, w.min_samples,
                       w.in_process, cycles)
        out["metrics"] = end_to_end(w, ph, set_up)
    else:
        from tracer import Tracer

        tracer = Tracer()
        jobs = build_jobs(name)
        restore = tracer.install() if w.in_process else None
        try:
            traced_jobs = build_jobs(name, traced=True)
        finally:
            if restore:
                restore()
        build = tracer.since({})
        ph = run_phase(jobs, rng, reference, seconds, 1, w.in_process, cycles,
                       tracer, traced_jobs)
        build = {k: [n, t * ph.scale] for k, (n, t) in build.items()}
        out["metrics"] = per_layer(w, ph, build)
        out["trace_file"] = TRACE_DIR / f"{name}-seed{seed}.json"
        tracer.write(out["trace_file"])

    out["attempted"] = ph.attempted
    out["failed"] = ph.failed
    out["probe_misses"] = ph.probe_misses
    out["failures"] = ph.failures
    out["cycles"] = len(ph.cycle_s)
    out["samples"] = len(ph.samples_ms)
    out["correct"] = ph.failed == 0
    out["scale"] = ph.scale
    return out


def commit() -> str:
    """The checked-out commit, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown"


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlbox" / "__init__.py").is_file():
        print(f"error: no nlbox source tree at {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    # measure the serial engine path from the working tree, never an
    # installed nlbox
    os.environ.pop("NLB_MAX_THREADS", None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    import nlbox
    if Path(nlbox.__file__).resolve().parent != SRC / "nlbox":
        print(f"error: nlbox imported from {nlbox.__file__}", file=sys.stderr)
        return 2

    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {out['workload']}  seed {out['seed']}  "
          f"cycles {out['cycles']}  jobs {out['attempted']}  "
          + "  ".join(f"{k}={v}" for k, v in host().items()))
    print(f"times are host-normalised (bench/hostspeed.py): measured wall "
          f"times x {out['scale']:.4f}")
    for k, v in out["metrics"].items():
        note = ""
        if k == "job_tail_ms":
            note = f"  (p{out['tail_pct']} of {out['samples']} samples)"
        elif k == "job_p50_ms":
            note = f"  ({out['samples']} samples)"
        print(f"{k:38s} {v:14.6g} {units[k]}{note}")
    misses = out["failed"] + out["probe_misses"]
    print(f"{'fail_ratio':38s} {misses / out['attempted']:14.6g} ratio  "
          f"({misses} of {out['attempted']} jobs; {out['probe_misses']} "
          f"malformed-command probes, {out['failed']} failed)")
    for f in out["failures"][:20]:
        print(f"FAILED {f}")
    if args.trace:
        print(f"spans written to {out['trace_file'].relative_to(ROOT)}")
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in out["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
