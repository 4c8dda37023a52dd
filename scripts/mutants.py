#!/usr/bin/env python3
"""The mutant catalogue: seeded faults that the test suite must catch.

Each entry is (file, old snippet, new snippet, killing tests). The script
copies the repository (without .git) into a temporary directory, replaces
the entry's old snippet by its new one there, and runs the named tests
with ``pytest -x``. A mutant is killed when they fail. An old snippet that
does not occur exactly once is stale: the code it names has changed, and
the entry must be re-pointed at the new code or retired. A run that
finds no named test, or fails for any other reason than a failing test,
is broken.

Run it from anywhere: python scripts/mutants.py (about 2 s per mutant).
It prints one line per mutant and exits 1 unless every mutant is killed.
Only the standard library and pytest are needed.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CATALOGUE = [
    # the chunk size is part of the sampled draw order
    ("src/nlbox/analysis.py",
     "SAMPLE_CHUNK = 1024",
     "SAMPLE_CHUNK = 1000",
     ["tests/test_analysis.py::test_a_losing_sample_over_three_chunks_names_its_counterexample"]),
    # the counterexample is the lowest losing point
    ("src/nlbox/engine.py",
     "return (mask & -mask).bit_length() - 1",
     "return mask.bit_length() - 1",
     ["tests/test_analysis.py::test_sampled_verify_matches_the_per_draw_loop"]),
    # an output bit that is 1 on the whole run
    ("src/nlbox/analysis.py",
     "bit = (1 if leaf else 0,)",
     "bit = (0,)",
     ["tests/test_lanes.py::test_lane_sweep_matches_scalar_oracle"]),
    # multi-mermin's parity column misses one free column
    ("src/nlbox/games.py",
     "Affine(n - 1, (tuple(range(n - 1)),))",
     "Affine(n - 1, (tuple(range(n - 2)),))",
     ["tests/test_lanes.py::test_every_decoded_draw_is_on_the_promise",
      "tests/test_games.py::test_multi_mermin_promise_sizes"]),
    # dj draws its flip sets for the draws whose coin is 0
    ("src/nlbox/games.py",
     "            if coin >> i & 1:",
     "            if not coin >> i & 1:",
     ["tests/test_games.py::test_dj_sampler_keeps_the_randrange_stream"]),
    # dj's in-line flip draw asks for one bit too few where t is a power of 2
    ("src/nlbox/games.py",
     "picks = [t.bit_length() for t in",
     "picks = [(t - 1).bit_length() for t in",
     ["tests/test_analysis.py::test_a_dj_chunk_draws_its_flip_sets_on_the_rng_sample_stream"]),
    # the one-pass box lanes of a drawn chunk go to a block that is not all of it
    ("src/nlbox/engine.py",
     "        if block == self.whole:",
     "        if self.whole and offset == 0:",
     ["tests/test_lanes.py::test_a_drawn_grid_seeds_each_block_as_on_block_cuts_it"]),
    # the port tables swap each box's port 0 and port 1
    ("src/nlbox/engine.py",
     "ports[x.port0_party][x.id] = (2 * k, 2 * k + 1)\n"
     "            ports[x.port1_party][x.id] = (2 * k + 1, 2 * k)",
     "ports[x.port0_party][x.id] = (2 * k + 1, 2 * k)\n"
     "            ports[x.port1_party][x.id] = (2 * k, 2 * k + 1)",
     ["tests/test_engine.py::test_a_firing_records_its_port_0_feed_first"]),
    # a promise on lanes accepts every draw
    ("src/nlbox/engine.py",
     "return value if type(value) is Lane else bool(value)",
     "return 1 if type(value) is Lane else bool(value)",
     ["tests/test_lanes.py::test_the_lane_promise_is_the_plain_promise_point_by_point"]),
    # sampled verify skips the promise of a run on input lanes
    ("src/nlbox/analysis.py",
     "on = _promised(game, grid, offset, block, x)",
     "on = block",
     ["tests/test_analysis.py::test_a_sampled_draw_off_a_replaced_promise_is_reported",
      "tests/test_analysis.py::test_verify_reports_a_misfit_after_the_sweep"]),
]


def run(path: str, old: str, new: str, tests: list) -> str:
    """'killed', 'survived', 'stale' or 'broken' for one mutant."""
    text = (ROOT / path).read_text()
    if text.count(old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        (copy / path).write_text(text.replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *tests], cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # pytest exits 1 when a test failed, and 4 or 5 when a named test is
    # not found or nothing ran: then the catalogue, not the mutant, is wrong
    return {0: "survived", 1: "killed"}.get(done.returncode, "broken")


def main() -> int:
    verdicts = []
    for path, old, new, tests in CATALOGUE:
        verdict = run(path, old, new, tests)
        verdicts.append(verdict)
        print(f"{verdict:8s} {path}: {old!r} -> {new!r}", flush=True)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(CATALOGUE)} mutants killed")
    return 0 if killed == len(CATALOGUE) else 1


if __name__ == "__main__":
    sys.exit(main())
