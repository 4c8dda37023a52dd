"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest bench/tests -q

They run whole cycles through the same code the benchmark runs, so they take
about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import CLI_COMMANDS, CLI_PROBES, WORKLOADS  # noqa: E402

EXACT_COUNTS = ("engine.execute_calls", "strategies.program_calls",
                "games.is_winning_calls")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_cycle_matches_reference(name):
    out = run.measure(name, seed=3, seconds=0, trace=False, cycles=1, setup=False)
    assert out["correct"] and out["failed"] == 0, out["failures"]
    probes = len(CLI_PROBES) if name == "cli-batch" else 0
    jobs = len(CLI_COMMANDS) + len(CLI_PROBES) if name == "cli-batch" else None
    # at this commit every malformed command misses the required rejection,
    # and nothing else fails
    assert out["probe_misses"] == probes
    if jobs is not None:
        assert out["attempted"] == jobs
    fail_ratio = Fraction(out["failed"] + out["probe_misses"], out["attempted"])
    assert fail_ratio == Fraction(probes, out["attempted"])
    assert out["metrics"]["ok_ratio"] == (out["attempted"] - probes) / out["attempted"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_repeat(name):
    a = run.measure(name, seed=5, seconds=0, trace=True, cycles=1, setup=False)
    b = run.measure(name, seed=5, seconds=0, trace=True, cycles=1, setup=False)
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == set(run.PER_LAYER_UNITS)
    for key in EXACT_COUNTS:
        assert a["metrics"][key] == b["metrics"][key], key
    if name == "search":
        # only the positive control's witness re-verify reaches the engine
        assert a["metrics"]["engine.execute_calls"] == 8
    if name in ("exact-sweep", "deep-sample"):
        assert a["metrics"]["analysis.points_per_execute"] == 1.0


def test_corrupted_reference_is_a_failure():
    reference = json.loads(run.REFERENCE.read_text())["search"]
    bad = copy.deepcopy(reference)
    bad["value magic-square"]["value"] = [7, 9]
    out = run.measure("search", seed=1, seconds=0, trace=False, reference=bad,
                      cycles=1, setup=False)
    assert not out["correct"]
    assert out["failed"] == 1
    assert out["failures"][0].startswith("value magic-square")
    assert out["metrics"]["ok_ratio"] == 5 / 6


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
    assert "no nlbox source tree" in p.stderr
