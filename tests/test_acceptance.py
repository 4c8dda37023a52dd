"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion. Every expected value is pinned exactly (rationals, never floats);
the three timed criteria assert their stated wall-clock bounds.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from nlbox.analysis import (CommunicationUsedError, Exhaustive, Sample,
                            classical_value, exact_distribution,
                            impossibility_search, no_signaling_check,
                            resource_count, verify_winning)
from distbit_oracle import (DistributedBit, and_count, dist_eval,
                            formula_eval, gadget_f)
from nlbox.distbit import And, Leaf, Not, disj
from nlbox.engine import execute, nlb_evaluate, sample_seed
from nlbox.games import bmaj, get_game, promised_inputs, winning_outcomes
from nlbox.strategies import get_strategy


def _announce(tag, message):
    print(f"\n[{tag}] PASS: {message}")


def _strategy_space(game):
    total = 1
    for i in range(game.n_parties):
        total *= len(game.party_outputs[i]) ** len(game.party_inputs[i])
    return total


def _timed(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def test_a01_chsh_classical_value():
    game = get_game("chsh")
    assert _strategy_space(game) == 16
    value, elapsed = _timed(lambda: classical_value(game))
    assert value == Fraction(3, 4)
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _announce("A-01", f"chsh classical value 3/4 over 16 strategies "
                      f"in {elapsed * 1e6:.0f} us")


def test_a02_magic_square_classical_value():
    game = get_game("magic-square")
    assert _strategy_space(game) == 64 * 64
    value, elapsed = _timed(lambda: classical_value(game), repeats=1)
    assert value == Fraction(8, 9)
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _announce("A-02", f"magic square classical value 8/9 over 64x64 pairs "
                      f"in {elapsed * 1000:.0f} ms")


def test_a03_ms_nlb_wins_with_one_box():
    result = verify_winning(get_strategy("ms-nlb"), get_game("magic-square"),
                            Exhaustive())
    assert result.passed and result.checked == 9 * 2
    assert resource_count(get_strategy("ms-nlb")) == (1, 0)
    _announce("A-03", "ms-nlb wins 9 inputs x 2 seeds with 1 NLB, 0 comm")


def test_a04_ms_nlb_sim_uniform_eighths():
    game = get_game("magic-square")
    dist = exact_distribution(get_strategy("ms-nlb-sim"), game)
    for x in promised_inputs(game):
        probs = dist.per_input[x]
        winners = winning_outcomes(game, x)      # independent oracle
        assert len(winners) == 8
        assert set(probs) == winners
        assert all(p == Fraction(1, 8) for p in probs.values())
    _announce("A-04", "ms-nlb-sim puts exactly 1/8 on each of 8 winning "
                      "outcomes for all 9 inputs")


def test_a05_mermin_box_strategies():
    game = get_game("mermin")
    result = verify_winning(get_strategy("mermin-nlb"), game, Exhaustive())
    assert result.passed and result.checked == 4 * 2
    assert resource_count(get_strategy("mermin-nlb")) == (1, 0)
    dist = exact_distribution(get_strategy("mermin-nlb-sim"), game)
    for x in promised_inputs(game):
        winners = winning_outcomes(game, x)
        assert len(winners) == 4
        assert dist.per_input[x] == {o: Fraction(1, 4) for o in winners}
    _announce("A-05", "mermin-nlb wins 4x2 with 1 NLB; sim is exactly "
                      "uniform at 1/4")


def test_a06_multi_mermin_family():
    for n in (3, 4):
        game = get_game(f"multi-mermin:{n}")
        strategy = get_strategy(f"multi-mermin-nlb:{n}")
        result = verify_winning(strategy, game, Exhaustive())
        assert result.passed
        assert result.checked == 2 ** (n - 1) * 2 ** math.comb(n, 2)
        assert resource_count(strategy) == (math.comb(n, 2), 0)
    rng = random.Random(61)
    for n in (5, 6):
        game = get_game(f"multi-mermin:{n}")
        strategy = get_strategy(f"multi-mermin-nlb:{n}")
        result = verify_winning(strategy, game, Sample(256, 1000 + n))
        assert result.passed and result.checked == 256
        assert resource_count(strategy) == (math.comb(n, 2), 0)
        # per-run consistency on a recorded sample: every firing respects
        # the box relation and relays the raw inputs
        for _ in range(8):
            x = game.sample_input(rng)
            _, transcript = execute(strategy, x, sample_seed(strategy, rng))
            assert transcript.nlb_uses == math.comb(n, 2)
            for f in transcript.firings:
                i, j = (int(v) for v in f.id.split(":")[1].split("-"))
                assert f.inputs == (x[i], x[j])
                assert f.outputs[0] ^ f.outputs[1] == (x[i] & x[j])
    _announce("A-06", "multi-mermin-nlb wins for n=3..6 with C(n,2) boxes "
                      "(exhaustive n<=4, sampled K=256 for n=5,6)")


def test_a07_single_box_impossibility_at_four_parties():
    game = get_game("multi-mermin:4")
    start = time.perf_counter()
    report = impossibility_search(game)
    elapsed = time.perf_counter() - start
    assert not report.perfect
    assert report.candidates == 6 * 65536
    assert report.best_fraction < 1
    assert elapsed < 30, f"took {elapsed:.1f} s"

    control = impossibility_search(get_game("multi-mermin:3"))
    assert control.perfect
    recheck = verify_winning(control.witness_strategy,
                             get_game("multi-mermin:3"), Exhaustive())
    assert recheck.passed
    _announce("A-07", f"no single-box strategy among 6x65,536 wins "
                      f"multi-mermin:4 (best {report.best_fraction}, "
                      f"{elapsed:.2f} s); n=3 control found a verified winner")


def test_a08_dj_protocols():
    result = verify_winning(get_strategy("dj-nlb:2"), get_game("dj:2"),
                            Exhaustive())
    assert result.passed and result.checked == 112 * 16
    for n in (3, 4):
        result = verify_winning(get_strategy(f"dj-nlb:{n}"),
                                get_game(f"dj:{n}"), Sample(1000, 9000 + n))
        assert result.passed and result.checked == 1000
    for n, count in ((2, 4), (3, 12), (4, 24)):
        assert count == 2 ** (n + 1) - 2 ** (n.bit_length())
        assert resource_count(get_strategy(f"dj-nlb:{n}")) == (count, 0)
    _announce("A-08", "dj-nlb wins: n=2 exhaustively (112x16), n=3,4 on "
                      "1000 sampled pairs each; box counts 4/12/24")


def test_a09_one_comm_bit_reproduces_the_box():
    game = get_game("chsh")
    via_comm = exact_distribution(get_strategy("nlb-via-comm"), game)
    reference = {}
    for x in promised_inputs(game):
        probs = {}
        for r in (0, 1):
            z0, z1 = nlb_evaluate(x[0], x[1], r)
            probs[((z0,), (z1,))] = Fraction(1, 2)
        reference[x] = probs
    assert via_comm.per_input == reference
    assert exact_distribution(get_strategy("chsh-nlb"), game).per_input == reference
    _announce("A-09", "nlb-via-comm joint distribution equals the box's on "
                      "all 4 inputs, exactly")


def test_a10_bmaj_protocols():
    rng = random.Random(4242)
    expected_counts = {}
    for n in (2, 3, 4, 5):
        c = math.comb(n, n // 2 + 1)
        expected_counts[n] = n * (n - 1) * ((n // 2) * c + c - 1)
    assert [expected_counts[n] for n in (2, 3, 4, 5)] == [2, 30, 132, 580]
    for n in (2, 3, 4, 5):
        strategy = get_strategy(f"bmaj-nlb:{n}")
        for x in itertools.product((0, 1), repeat=n):
            want = bmaj(x)
            for _ in range(16):
                out, transcript = execute(strategy, x, sample_seed(strategy, rng))
                parity = 0
                for part in out:
                    parity ^= part[0]
                assert parity == want, (n, x)
                assert transcript.nlb_uses == expected_counts[n]
    _announce("A-10", "bmaj-nlb parity equals the majority bit for all "
                      "inputs, 16 seedings each, n=2..5; box counts "
                      "2/30/132/580")


def test_a11_bmaj_classical_impossibility():
    assert classical_value(get_game("bmaj:2")) == Fraction(3, 4)
    v3 = classical_value(get_game("bmaj:3"))
    assert v3 < 1
    _announce("A-11", f"bmaj classical values: n=2 exactly 3/4, n=3 {v3} < 1")


NO_COMM_ENUMERABLE = [
    ("chsh-nlb", "chsh"),
    ("ms-nlb", "magic-square"),
    ("ms-nlb-sim", "magic-square"),
    ("mermin-nlb", "mermin"),
    ("mermin-nlb-sim", "mermin"),
    ("multi-mermin-nlb:3", "multi-mermin:3"),
    ("multi-mermin-nlb:4", "multi-mermin:4"),
    ("multi-mermin-nlb:5", "multi-mermin:5"),
    ("multi-mermin-nlb:6", "multi-mermin:6"),
    ("dj-nlb:2", "dj:2"),
    ("bmaj-nlb:2", "bmaj:2"),
]


def test_a12_no_signaling_everywhere():
    # every channel-free built-in whose seed space and promise enumerate;
    # dj-nlb:3+ (sampled promise) and bmaj-nlb:3+ (2^30+ seeds) fall outside
    for sid, gid in NO_COMM_ENUMERABLE:
        assert no_signaling_check(get_strategy(sid), get_game(gid)), sid
    with pytest.raises(CommunicationUsedError):
        no_signaling_check(get_strategy("mermin-comm"), get_game("mermin"))
    _announce("A-12", f"exact marginals are non-signaling for all "
                      f"{len(NO_COMM_ENUMERABLE)} channel-free enumerable "
                      f"strategies")


def test_a13_distbit_property_suite():
    pool = [
        And(Leaf(0), Leaf(1)),
        Not(And(Leaf(0), Leaf(1))),
        And(And(Leaf(0), Leaf(1)), Leaf(2)),
        And(Not(Leaf(0)), Leaf(1)),
        disj([Leaf(0), Leaf(1)]),
        disj([And(Leaf(0), Leaf(1)), Leaf(2)]),
    ]
    rng = random.Random(13131)
    failures = 0
    for _ in range(10_000):
        n = rng.randrange(2, 7)
        formula = pool[rng.randrange(len(pool))]
        leaves = [DistributedBit(tuple(rng.randrange(2) for _ in range(n)))
                  for _ in range(3)]
        seeds = [rng.randrange(2)
                 for _ in range(n * (n - 1) * and_count(formula))]
        got = dist_eval(formula, leaves, seeds).plaintext()
        want = formula_eval(formula, [leaf.plaintext() for leaf in leaves])
        if got != want:
            failures += 1
    assert failures == 0

    for a1, a2, b1, b2 in itertools.product((0, 1), repeat=4):
        for seeds in itertools.product((0, 1), repeat=2):
            a, b = gadget_f(a1, a2, b1, b2, seeds)
            assert a ^ b == (a1 ^ b1) & (a2 ^ b2)
    _announce("A-13", "share invariant holds on 10,000 randomized cases "
                      "(n=2..6); gadget contract exhaustive on 16 inputs x "
                      "4 seed pairs")
