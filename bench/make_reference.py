"""Regenerate reference.json: the pinned result of every benchmark job.

    PYTHONPATH=src python3 bench/make_reference.py

Runs each job of every workload once, untraced, through the scalar engine
of the working tree and records its summary (distribution digest, verdicts,
checked/wins counts, search best/perfect, classical values, resource counts,
and for CLI commands the exit code and a digest of stdout without
``runtime_ms``). Sampled jobs record passed with wins == checked == k, which
holds for any rng seed. The malformed-command probes are not recorded: they
are checked against the behaviour the ROADMAP requires
(``workloads.REQUIRED_REJECTION``). Run it only when the program's intended
results change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, build_jobs  # noqa: E402


def main() -> int:
    reference = {}
    for name in WORKLOADS:
        entries = {}
        for job in build_jobs(name):
            if job.probe:
                continue
            summary, _ = job.summarize(job.call(0))
            if name == "deep-sample" and not (
                    summary["passed"] and summary["wins"] == summary["checked"]):
                raise RuntimeError(f"{job.id} lost a sampled run: {summary}")
            entries[job.id] = summary
        reference[name] = entries
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
