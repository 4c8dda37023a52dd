#!/usr/bin/env python3
"""Offline census of magic-square strategy quadruples.

Filters all 64^4 candidate (a0, a1, b0, b1) matrix tuples directly: both
(a0, b0) and (a1, b1) must answer correctly on every input except (3,3),
and the corners must be cross-coordinated. The count printed here (128) is
frozen into tests/test_strategies.py; the packaged enumerator builds the
family from the 64x64 pair space instead, so this is an independent route.

Run it from anywhere: python scripts/quadruple_census.py (about a second).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlbox.strategies import (REF_ALICE, all_alice_matrices, all_bob_matrices,
                              pair_wins_off_corner)


def main():
    alices = all_alice_matrices()
    bobs = all_bob_matrices()
    wins = {(a, b): pair_wins_off_corner(a, b) for a in alices for b in bobs}

    start = time.monotonic()
    count = 0
    with_ref = 0
    scanned = 0
    for a0 in alices:
        for b0 in bobs:
            first_ok = wins[(a0, b0)]
            for a1 in alices:
                for b1 in bobs:
                    scanned += 1
                    if (first_ok and wins[(a1, b1)]
                            and a0[2][2] == b1[2][2] and a1[2][2] == b0[2][2]):
                        count += 1
                        if a0 == REF_ALICE:
                            with_ref += 1
    elapsed = time.monotonic() - start
    print(f"candidates scanned: {scanned}")
    print(f"valid quadruples:   {count}")
    print(f"with the reference row matrix as a0: {with_ref}")
    print(f"elapsed: {elapsed:.1f} s")


if __name__ == "__main__":
    main()
