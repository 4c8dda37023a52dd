"""The benchmark's four workloads and their jobs.

Each workload is a fixed list of jobs that a single closed-loop client
cycles through, one job at a time. A job is called with an rng seed drawn
from the workload seed and returns a raw result; ``summarize`` turns that
into the summary compared against the pinned reference, plus the number of
grid points the job decided:

- verify/dist jobs: one point per (input, seed);
- sampled jobs: one point per sampled (input, seed) pair;
- searches: candidate strategy x grid point, from the counts the report
  states (``classical_value`` states none, so its candidates are counted the
  way it enumerates them).

Games and strategies are resolved through the ``games``/``strategies``
module attributes, so a tracer that rebinds them sees every build.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# Behaviour the ROADMAP requires of a malformed command: an ``error:`` line,
# exit 1 and no traceback. At the commit that introduced the benchmark all
# three probes below miss it; they count against ok_ratio, not as failed jobs.
REQUIRED_REJECTION = {"exit": 1, "error_line": True, "traceback": False}


@dataclass
class Job:
    id: str
    call: Callable[[int], object]
    summarize: Callable[[object], tuple[dict, int]]
    probe: bool = False


@dataclass
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    tail_pct: int            # fixed percentile reported as job_tail_ms
    setup_strategies: tuple = ()   # built with their games at set-up
    setup_games: tuple = ()        # games the strategies do not bring
    in_process: bool = True

    @property
    def min_samples(self) -> int:
        """Samples needed for ten to lie beyond the tail percentile."""
        return -(-10 * 100 // (100 - self.tail_pct))


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def child_env() -> dict:
    """Environment for every spawned interpreter: the working tree's ``src``
    on the path and the serial engine path (no NLB_MAX_THREADS)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("NLB_MAX_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


# --- exact-sweep --------------------------------------------------------------

EXACT_SWEEP_STRATEGIES = (
    "multi-mermin-nlb:5", "multi-mermin-nlb:4", "dj-nlb:2", "ms-nlb",
    "ms-nlb-sim", "ms-comm-sim", "mermin-nlb-sim", "mermin-comm-sim",
    "chsh-nlb", "nlb-via-comm", "bmaj-nlb:2")


def _exact_sweep_jobs():
    from nlbox import analysis, games, strategies

    jobs = []
    for sid in EXACT_SWEEP_STRATEGIES:
        st = strategies.get_strategy(sid)
        gm = games.get_game(st.game_id)

        def dist(_seed, st=st, gm=gm):
            d = analysis.exact_distribution(st, gm)
            return d, analysis.uniformity_verdict(d, gm)

        def dist_summary(raw):
            d, uniform = raw
            return ({"digest": digest(d.to_json()), "uniform": uniform,
                     "seed_count": d.seed_count, "inputs": len(d.per_input)},
                    len(d.per_input) * d.seed_count)

        def verify(_seed, st=st, gm=gm):
            return (analysis.verify_winning(st, gm, analysis.Exhaustive()),
                    analysis.resource_count(st))

        def verify_summary(raw):
            r, (nlb, comm) = raw
            return ({"passed": r.passed, "checked": r.checked, "wins": r.wins,
                     "resources": [nlb, comm]}, r.checked)

        jobs.append(Job(f"dist {sid}", dist, dist_summary))
        jobs.append(Job(f"verify {sid}", verify, verify_summary))
        if not st.channels:
            grid = len(analysis.promised_inputs(gm)) * st.seed_count()

            def nosignal(_seed, st=st, gm=gm):
                return analysis.no_signaling_check(st, gm)

            jobs.append(Job(f"nosignal {sid}", nosignal,
                            lambda ok, grid=grid: ({"non_signaling": ok}, grid)))
    return jobs


# --- deep-sample --------------------------------------------------------------

DEEP_SAMPLE = (("bmaj-nlb:6", 16), ("bmaj-nlb:5", 48), ("bmaj-nlb:4", 256),
               ("dj-nlb:6", 128), ("dj-nlb:4", 512),
               ("multi-mermin-nlb:10", 512))


def _sampled_summary(r):
    # passed with wins == checked == k holds for any rng seed
    return {"passed": r.passed, "checked": r.checked, "wins": r.wins}, r.checked


def _deep_sample_jobs():
    from nlbox import analysis, games, strategies

    jobs = []
    for sid, k in DEEP_SAMPLE:
        st = strategies.get_strategy(sid)
        gm = games.get_game(st.game_id)

        def sample(seed, st=st, gm=gm, k=k):
            return analysis.verify_winning(st, gm, analysis.Sample(k, seed))

        jobs.append(Job(f"sample {sid} k={k}", sample, _sampled_summary))
    return jobs


# --- search -------------------------------------------------------------------

def _search_jobs():
    from nlbox import analysis, games, strategies
    from tracer import classical_candidates

    jobs = []
    for gid in ("magic-square", "multi-mermin:4"):
        gm = games.get_game(gid)
        points = classical_candidates(gm) * len(analysis.promised_inputs(gm))
        jobs.append(Job(
            f"value {gid}", lambda _s, gm=gm: analysis.classical_value(gm),
            lambda v, points=points: ({"value": [v.numerator, v.denominator]},
                                      points)))

    def search_summary(rep):
        out = rep.to_json()
        return ({"best": out["best"], "perfect": out["perfect"],
                 "candidates": out["candidates"], "grid_size": out["grid_size"],
                 "witness": digest(out["witness"])},
                rep.candidates * rep.grid_size)

    for gid, budget in (("multi-mermin:4", 1), ("multi-mermin:3", 1),
                        ("multi-mermin:5", 0)):
        gm = games.get_game(gid)
        jobs.append(Job(
            f"search {gid} budget={budget}",
            lambda _s, gm=gm, b=budget: analysis.impossibility_search(gm, budget=b),
            search_summary))

    # the search behind the quadruple family: every (row, column) matrix
    # pair, then every pair of off-corner-winning pairs
    n_pairs = sum(1 for a in strategies.all_alice_matrices()
                  for b in strategies.all_bob_matrices()
                  if strategies.pair_wins_off_corner(a, b))
    quad_points = (len(strategies.all_alice_matrices())
                   * len(strategies.all_bob_matrices()) + n_pairs ** 2)
    jobs.append(Job(
        "quadruples", lambda _s: strategies.enumerate_quadruples(),
        lambda qs: ({"count": len(qs), "digest": digest(repr(qs))}, quad_points)))
    return jobs


# --- cli-batch ----------------------------------------------------------------

# The README command list, then the three malformed commands of ROADMAP
# item 4. ``{rng}`` is replaced by an rng seed drawn from the workload seed.
CLI_COMMANDS = (
    "list",
    "verify --game magic-square --strategy ms-nlb --seeds exhaustive",
    "verify --game dj:2 --strategy dj-nlb:2 --seeds exhaustive",
    "verify --game multi-mermin:6 --strategy multi-mermin-nlb:6 --seeds sample:256 --rng-seed {rng}",
    "value --game magic-square",
    "dist --game mermin --strategy mermin-nlb-sim",
    "dist --game chsh --strategy nlb-via-comm",
    "search --game multi-mermin:4 --budget 1nlb",
    "search --game chsh --budget 0nlb",
    "resources --strategy dj-nlb:3",
    "verify --game chsh --strategy ms-nlb",
    "dist --game magic-square --strategy ms-nlb",
)
CLI_PROBES = (
    "verify --game chsh --strategy chsh-nlb --seeds sample:0 --rng-seed {rng}",
    "search --game multi-mermin:4 --pair 0,5",
    "search --game multi-mermin:4 --pair 1,1",
)

# Traced CLI processes run through this wrapper: it times ``import
# nlbox.cli``, installs the tracer, runs ``main`` and reports the tracer's
# counters and spans on the last stderr line.
TRACE_MARK = "benchtrace: "
CLI_TRACE_WRAPPER = f"""
import json, sys, time
t0 = time.perf_counter_ns()
import nlbox.cli
t1 = time.perf_counter_ns()
sys.path.insert(0, {str(BENCH)!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
tracer.totals["cli.import"] = [1, t1 - t0]
try:
    code = nlbox.cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    sys.stderr.write("\\n{TRACE_MARK}" + json.dumps(tracer.dump()) + "\\n")
sys.exit(code)
"""


@dataclass
class CliRun:
    exit: int
    stdout: str
    stderr: str
    trace: dict | None


def run_child(cmd: list, capture: bool = True, limit_s: float = 120):
    """Run ``cmd`` from the checkout root and wait for it. A watchdog kills
    it after ``limit_s``; ``subprocess.run(timeout=...)`` would instead poll
    the child every few tens of milliseconds and quantise its wall time."""
    pipe = subprocess.PIPE if capture else subprocess.DEVNULL
    p = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=pipe,
                         stderr=pipe, text=True)
    watchdog = threading.Timer(limit_s, p.kill)
    watchdog.start()
    try:
        out, err = p.communicate()
    finally:
        watchdog.cancel()
    return p.returncode, out, err


def run_cli(argv: list, traced: bool) -> CliRun:
    if traced:
        cmd = [sys.executable, "-c", CLI_TRACE_WRAPPER, *argv]
    else:
        cmd = [sys.executable, "-m", "nlbox.cli", *argv]
    code, stdout, stderr = run_child(cmd)
    trace = None
    if traced:
        head, sep, tail = stderr.rpartition("\n" + TRACE_MARK)
        if sep:
            line, _, rest = tail.partition("\n")
            trace = json.loads(line)
            stderr = head + rest
    return CliRun(code, stdout, stderr, trace)


def cli_report(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def cli_points(report, value_points: dict) -> int:
    if not isinstance(report, dict):
        return 0
    mode = report.get("mode", "")
    if mode == "exhaustive" or mode.startswith("sample:"):
        return report["checked"]
    if mode == "exact-dist":
        return report["seed_count"] * len(report["inputs"])
    if mode == "search":
        return report["candidates"] * report["grid_size"]
    if mode == "classical-value":
        return value_points[report["game"]]
    return 0


def _cli_summary(run: CliRun, value_points: dict):
    report = cli_report(run.stdout)
    if isinstance(report, dict):
        report.pop("runtime_ms", None)
        stdout = json.dumps(report, sort_keys=True)
    else:
        stdout = run.stdout
    return ({"exit": run.exit, "stdout": digest(stdout)},
            cli_points(report, value_points))


def _probe_summary(run: CliRun):
    lines = run.stderr.splitlines()
    return ({"exit": run.exit,
             "error_line": any(l.startswith("error:") for l in lines),
             "traceback": "Traceback" in run.stderr}, 0)


def _cli_jobs(traced: bool = False):
    from nlbox import analysis, games
    from tracer import classical_candidates

    gm = games.get_game("magic-square")
    value_points = {gm.name: classical_candidates(gm)
                    * len(analysis.promised_inputs(gm))}

    def make(cmd, probe):
        def call(seed):
            return run_cli(cmd.format(rng=seed).split(), traced)
        summarize = _probe_summary if probe else \
            (lambda run: _cli_summary(run, value_points))
        return Job(cmd, call, summarize, probe)

    return ([make(c, False) for c in CLI_COMMANDS]
            + [make(c, True) for c in CLI_PROBES])


# --- registry -----------------------------------------------------------------

WORKLOADS = {
    "exact-sweep": Workload(
        tail_pct=93,
        setup_strategies=EXACT_SWEEP_STRATEGIES),
    "deep-sample": Workload(
        tail_pct=80,
        setup_strategies=tuple(s for s, _ in DEEP_SAMPLE)),
    "search": Workload(
        tail_pct=95,
        setup_games=("magic-square", "multi-mermin:4", "multi-mermin:3",
                     "multi-mermin:5")),
    "cli-batch": Workload(
        tail_pct=75, in_process=False),
}


def build_jobs(name: str, traced: bool = False) -> list[Job]:
    """The workload's jobs, with its games and strategies built. ``traced``
    only matters for cli-batch, whose tracer lives in the child processes."""
    if name == "cli-batch":
        return _cli_jobs(traced)
    return {"exact-sweep": _exact_sweep_jobs, "deep-sample": _deep_sample_jobs,
            "search": _search_jobs}[name]()
