"""Outside-in layer tracing for the nlbox benchmark.

Nothing in ``src/`` changes. The tracer rebinds module attributes of the
imported nlbox modules and wraps built strategies:

- the names ``analysis`` imports from ``engine`` and ``games``
  (``execute``, ``enumerate_seeds``, ``is_winning``, ``promised_inputs``,
  ``winning_outcomes``) keep an aggregate call count and total time;
- every round function of a strategy built through ``get_strategy`` (or
  materialised by ``impossibility_search``) is wrapped through
  ``dataclasses.replace(strategy, programs=...)`` and counted the same way;
- jobs, ``get_game``/``get_strategy``, the formula and quadruple builders and
  the ``analysis`` entry points record spans with a name, start, end, parent
  and job id.

Per-run boundaries are too frequent for one span per call (a single
``multi-mermin-nlb:5`` verify makes 163,840 round calls), so they only feed
running counters; a job's aggregates are the counter differences across it.
Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from contextlib import contextmanager

clock = time.perf_counter_ns

# analysis entry points that get a span
ENTRY_POINTS = ("exact_distribution", "uniformity_verdict", "verify_winning",
                "no_signaling_check", "classical_value",
                "impossibility_search", "resource_count")
# names analysis imports from the layers below it: (attribute, counter name)
CHILD_CALLS = (("execute", "engine.execute"),
               ("is_winning", "games.is_winning"),
               ("promised_inputs", "games.promised_inputs"),
               ("winning_outcomes", "games.winning_outcomes"))


def classical_candidates(game) -> int:
    """Deterministic strategies ``classical_value`` enumerates for ``game``."""
    total = 1
    for outs, dom in zip(game.party_outputs, game.party_inputs):
        total *= len(outs) ** len(dom)
    return total


class Tracer:
    """Spans plus running ``[calls, ns]`` counters, keyed by layer name."""

    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, list[int]] = {}
        self.job = None
        self._open: list[int] = []
        self._analysis_depth = 0

    def counter(self, name: str) -> list[int]:
        return self.totals.setdefault(name, [0, 0])

    def snapshot(self) -> dict[str, tuple[int, int]]:
        return {k: (v[0], v[1]) for k, v in self.totals.items()}

    def since(self, snap: dict) -> dict[str, list[int]]:
        """Counter growth since ``snap``."""
        out = {}
        for k, (n, ns) in self.totals.items():
            n0, ns0 = snap.get(k, (0, 0))
            if n != n0 or ns != ns0:
                out[k] = [n - n0, ns - ns0]
        return out

    @contextmanager
    def span(self, name: str):
        is_analysis = name.startswith("analysis.")
        outermost = is_analysis and self._analysis_depth == 0
        if is_analysis:
            self._analysis_depth += 1
        rec = {"name": name, "start_ns": clock(), "end_ns": None,
               "parent": self._open[-1] if self._open else None,
               "job": self.job}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end_ns"] = clock()
            self._open.pop()
            dt = rec["end_ns"] - rec["start_ns"]
            c = self.counter(name)
            c[0] += 1
            c[1] += dt
            if is_analysis:
                self._analysis_depth -= 1
                if outermost:
                    busy = self.counter("analysis.busy")
                    busy[0] += 1
                    busy[1] += dt

    @contextmanager
    def job_span(self, job_id: str):
        """One job: a span whose record carries the job's counter growth."""
        self.job = job_id
        snap = self.snapshot()
        try:
            with self.span("job") as rec:
                yield rec
        finally:
            rec["agg"] = self.since(snap)
            self.job = None

    def merge_child(self, dump: dict):
        """Fold a child process's counters and spans into the open job."""
        for name, (n, ns) in dump["totals"].items():
            c = self.counter(name)
            c[0] += n
            c[1] += ns
        base = len(self.spans)
        parent = self._open[-1] if self._open else None
        for s in dump["spans"]:
            s = dict(s, job=self.job, process="child",
                     parent=parent if s["parent"] is None else s["parent"] + base)
            self.spans.append(s)

    # --- wrapping -----------------------------------------------------------

    def wrap_strategy(self, strategy):
        c = self.counter("strategies.program")

        def timed(fn):
            def round_fn(view):
                t0 = clock()
                action = fn(view)
                c[1] += clock() - t0
                c[0] += 1
                return action
            return round_fn

        programs = tuple(dataclasses.replace(p, rounds=tuple(timed(f) for f in p.rounds))
                         for p in strategy.programs)
        return dataclasses.replace(strategy, programs=programs)

    def _spanned(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            return after(result, *args) if after else result
        return wrapped

    def _counted(self, name, fn):
        c = self.counter(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            c[1] += clock() - t0
            c[0] += 1
            return result
        return wrapped

    def _counted_generator(self, name, fn):
        c = self.counter(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    c[1] += clock() - t0
                    c[0] += 1
                    return
                c[1] += clock() - t0
                yield item
        return wrapped

    def install(self):
        """Rebind the nlbox module attributes listed in the module docstring.
        Returns a function that restores the originals."""
        from nlbox import analysis, games, strategies

        saved = []

        def rebind(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        for attr, name in CHILD_CALLS:
            rebind(analysis, attr, self._counted(name, getattr(analysis, attr)))
        rebind(analysis, "enumerate_seeds",
               self._counted_generator("engine.enumerate_seeds",
                                       analysis.enumerate_seeds))

        points = self.counter("analysis.sweep_points")
        candidates = self.counter("analysis.search_candidates")
        executes = self.counter("engine.execute")
        dry_runs = self.counter("engine.resource_execute")

        def count_dist(dist, *args):
            points[0] += len(dist.per_input) * dist.seed_count
            return dist

        def count_verify(result, *args):
            points[0] += result.checked
            return result

        def count_classical(value, game, *args):
            candidates[0] += classical_candidates(game)
            return value

        def count_search(report, *args):
            candidates[0] += report.candidates
            return report

        after = {"exact_distribution": count_dist, "verify_winning": count_verify,
                 "classical_value": count_classical,
                 "impossibility_search": count_search}
        for attr in ENTRY_POINTS:
            fn = self._spanned(f"analysis.{attr}", getattr(analysis, attr),
                               after.get(attr))
            if attr == "resource_count":
                fn = self._dry_run_counter(fn, executes, dry_runs)
            rebind(analysis, attr, fn)

        real_from_tables = analysis.strategy_from_tables
        rebind(analysis, "strategy_from_tables",
               lambda *a, **k: self.wrap_strategy(real_from_tables(*a, **k)))

        real_get_strategy = strategies.get_strategy
        rebind(strategies, "get_strategy", self._spanned(
            "strategies.get_strategy", real_get_strategy,
            lambda s, *args: self.wrap_strategy(s)))
        rebind(games, "get_game", self._spanned("games.get_game", games.get_game))
        rebind(strategies, "enumerate_quadruples",
               self._spanned("strategies.enumerate_quadruples",
                             strategies.enumerate_quadruples))
        for attr in ("majority_formula", "flatten"):
            rebind(strategies, attr,
                   self._spanned("distbit.formula_build", getattr(strategies, attr)))

        def restore():
            for module, attr, old in reversed(saved):
                setattr(module, attr, old)
        return restore

    @staticmethod
    def _dry_run_counter(fn, executes, dry_runs):
        """Attribute the executes made by ``resource_count`` to its dry run,
        so the sweeps' own executes are the base of points per execute."""
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            before = executes[0]
            result = fn(*args, **kwargs)
            dry_runs[0] += executes[0] - before
            return result
        return wrapped

    def dump(self) -> dict:
        return {"totals": self.totals, "spans": self.spans}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.dump()))
