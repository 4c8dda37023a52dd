import ast
import dataclasses
import gc
import itertools
import json
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nlbox import analysis, engine, search
from nlbox.analysis import (AnalysisError, CommunicationUsedError, Exhaustive,
                            Sample, SearchReport, SearchSpaceError,
                            classical_value, exact_distribution,
                            impossibility_search, no_signaling_check,
                            resource_count,
                            strategy_from_tables, uniformity_verdict,
                            verify_winning)
from nlbox.engine import (Action, EnumerationLimitError, NlbInstance, PartyProgram,
                          Strategy, equal_bits, execute)
from nlbox.games import (GameError, Parity, PromiseError, bmaj, get_game, indicators,
                         is_winning, own_bit, promised_inputs, select, winning_outcomes)
from nlbox.strategies import STRATEGY_FAMILIES, get_strategy
from test_lanes import (CHANNEL, CUSTOM, N_VARS, NO_COMM_ENUMERABLE, _evaluate,
                        drawn_inputs, drawn_points, expressions, row_index,
                        scalar_oracle)


# --- classical values (frozen from the brute-force oracle) --------------------

def test_classical_values():
    assert classical_value(get_game("chsh")) == Fraction(3, 4)
    assert classical_value(get_game("magic-square")) == Fraction(8, 9)
    assert classical_value(get_game("mermin")) == Fraction(3, 4)
    assert classical_value(get_game("bmaj:2")) == Fraction(3, 4)
    v = classical_value(get_game("bmaj:3"))
    assert v < 1 and v == Fraction(3, 4)


def test_classical_value_space_guard():
    with pytest.raises(SearchSpaceError):
        classical_value(get_game("magic-square"), max_candidates=100)
    with pytest.raises(SearchSpaceError):
        classical_value(get_game("dj:3"))


def test_dj2_has_no_parity_form_and_refuses():
    # 4^16 tables per party: counted from lengths, never listed
    with pytest.raises(SearchSpaceError, match="^dj:2 is not a parity game$"):
        classical_value(get_game("dj:2"), max_candidates=2 ** 80)


def test_limits_are_checked_before_the_promise(monkeypatch):
    def unreachable(game):
        raise AssertionError(f"the promise of {game.name} was built")

    monkeypatch.setattr(analysis, "promised_inputs", unreachable)
    with pytest.raises(SearchSpaceError,
                       match="^4096 deterministic strategies exceed the limit 100$"):
        classical_value(get_game("magic-square"), max_candidates=100)
    with pytest.raises(SearchSpaceError):
        impossibility_search(get_game("multi-mermin:4"), max_candidates=100)
    with pytest.raises(EnumerationLimitError):
        exact_distribution(get_strategy("bmaj-nlb:3"), get_game("bmaj:3"))
    with pytest.raises(EnumerationLimitError):
        verify_winning(get_strategy("bmaj-nlb:3"), get_game("bmaj:3"), Exhaustive())


def test_mixed_strategies_never_beat_deterministic_max():
    # convexity spot check: random mixtures over deterministic strategies
    game = get_game("chsh")
    promise = game.promise()
    tables = list(itertools.product(
        itertools.product((0, 1), repeat=2), repeat=2))
    rng = random.Random(123)
    for _ in range(50):
        weights = [rng.random() for _ in tables]
        total = sum(weights)
        success = sum(
            w / total * sum(
                1 for x in promise
                if (fa[x[0]] ^ fb[x[1]]) == (x[0] & x[1]))
            for w, (fa, fb) in zip(weights, tables)) / len(promise)
        assert success <= 3 / 4 + 1e-12


# --- exact distributions -------------------------------------------------------

def test_chsh_distribution_example():
    dist = exact_distribution(get_strategy("chsh-nlb"), get_game("chsh"))
    assert dist.per_input[(1, 1)] == {
        ((0,), (1,)): Fraction(1, 2), ((1,), (0,)): Fraction(1, 2)}
    assert dist.seed_count == 2


def test_distributions_sum_to_one_exactly():
    cases = [("chsh-nlb", "chsh"), ("ms-nlb-sim", "magic-square"),
             ("mermin-comm-sim", "mermin"), ("dj-nlb:2", "dj:2")]
    for sid, gid in cases:
        dist = exact_distribution(get_strategy(sid), get_game(gid))
        for probs in dist.per_input.values():
            assert sum(probs.values()) == 1
            assert all(isinstance(p, Fraction) for p in probs.values())


def test_distribution_losing_outcomes_have_zero_mass():
    game = get_game("magic-square")
    dist = exact_distribution(get_strategy("ms-nlb-sim"), game)
    for x, probs in dist.per_input.items():
        assert set(probs) <= winning_outcomes(game, x)


def test_ms_nlb_fixed_quadruple_two_outcomes():
    dist = exact_distribution(get_strategy("ms-nlb"), get_game("magic-square"))
    for probs in dist.per_input.values():
        assert len(probs) == 2
        assert all(p == Fraction(1, 2) for p in probs.values())


def test_distribution_seed_space_guard():
    with pytest.raises(EnumerationLimitError):
        exact_distribution(get_strategy("bmaj-nlb:3"), get_game("bmaj:3"))


# --- verification ---------------------------------------------------------------

def test_verify_reports_counterexample():
    # the pairwise-box protocol for 4 parties does not win biased majority
    result = verify_winning(get_strategy("multi-mermin-nlb:4"),
                            get_game("bmaj:4"), Exhaustive())
    assert not result.passed
    assert result.counterexample is not None
    assert result.wins < result.checked
    assert 0 < result.fraction < 1


def test_verify_sample_mode_reproducible():
    s = get_strategy("multi-mermin-nlb:5")
    g = get_game("multi-mermin:5")
    a = verify_winning(s, g, Sample(64, 42))
    b = verify_winning(s, g, Sample(64, 42))
    assert a == b and a.checked == 64 and a.passed


def test_verify_party_count_guard():
    with pytest.raises(AnalysisError):
        verify_winning(get_strategy("chsh-nlb"), get_game("mermin"), Exhaustive())


# --- exhaustive verification against the tally ------------------------------------

def oracle_tally_verify(strategy, game):
    """Exhaustive verify decided on exact_distribution's seed counts:
    is_winning once per distinct (input, outcome). The counterexample is
    the first losing seed, in enumerate_seeds' order, of the first input
    that has a losing outcome, found by scalar execute."""
    dist = exact_distribution(strategy, game)
    checked = wins = 0
    losing = None
    for x, probs in dist.per_input.items():
        for outcome, p in probs.items():
            count = int(p * dist.seed_count)
            checked += count
            if is_winning(game, x, outcome):
                wins += count
            elif losing is None:
                losing = x
    counterexample = None
    if losing is not None:
        for seed in engine.enumerate_seeds(strategy):
            outcome, _ = execute(strategy, losing, seed, record=False)
            if not is_winning(game, losing, outcome):
                counterexample = {"input": analysis._jsonable(losing),
                                  "seed": seed.to_json(),
                                  "outcome": [list(part) for part in outcome]}
                break
    return analysis.VerifyResult(counterexample is None, "exhaustive", checked, wins,
                                 counterexample)


def scalar_win(game):
    """The game with its win relation stated through sum and ==, which no
    lane allows: exhaustive verify calls it once per distinct outcome."""
    if game.name == "magic-square":
        def win(x, y):
            row, col = y
            if sum(row) % 2 != 0 or sum(col) % 2 != 1:
                return False
            return row[x[1] - 1] == col[x[0] - 1]
    elif game.parity is None:
        def win(x, y):
            return (y[0] == y[1]) == (x[0] == x[1])
    else:
        target, answer = game.parity

        def win(x, y):
            return sum(answer(r, x, out) for r, out in enumerate(y)) % 2 == target(x)
    return dataclasses.replace(game, win=win)


def oracle_uniformity(dist, game):
    """The uniformity verdict from winning_outcomes' sets of outcomes."""
    for x, probs in dist.per_input.items():
        winners = winning_outcomes(game, x)
        if set(probs) != winners or any(p != Fraction(1, len(winners))
                                         for p in probs.values()):
            return False
    return True


def random_tables(game, rng):
    """A deterministic strategy_from_tables strategy of the game with
    random tables, with a box between two random parties half of the time
    (never for magic square, whose parties' inputs are not bits)."""
    n = game.n_parties
    if game.name == "magic-square" or rng.random() < 0.5:
        return strategy_from_tables(game, None, None, [
            [rng.randrange(len(game.party_outputs[r])) for _ in game.party_inputs[r]]
            for r in range(n)])
    pairing = tuple(sorted(rng.sample(range(n), 2)))
    pair_tables = [([rng.randrange(2) for _ in range(2)],
                    [rng.randrange(2) for _ in range(4)]) for _ in range(2)]
    return strategy_from_tables(game, pairing, pair_tables,
                                [[rng.randrange(2) for _ in range(2)]
                                 for _ in range(n - 2)])


@pytest.mark.parametrize("sid,gid", NO_COMM_ENUMERABLE + CHANNEL + [
    ("multi-mermin-nlb:4", "bmaj:4"), ("multi-mermin-nlb:5", "bmaj:5"),
    ("mermin-nlb", "bmaj:3"), ("chsh-nlb", "bmaj:2")])
def test_exhaustive_verify_matches_the_tally(sid, gid):
    strategy, game = get_strategy(sid), get_game(gid)
    want = oracle_tally_verify(strategy, game)
    assert verify_winning(strategy, game, Exhaustive()) == want
    assert verify_winning(strategy, scalar_win(game), Exhaustive()) == want
    # the uniformity verdict on lanes over the outcome space, and on the
    # fallback, against the sets of winning outcomes
    dist = exact_distribution(strategy, game)
    verdict = oracle_uniformity(dist, game)
    assert uniformity_verdict(dist, game) is verdict
    assert uniformity_verdict(dist, scalar_win(game)) is verdict


def test_uniformity_verdict_compares_shares_by_value():
    # exact_distribution shares one Fraction per seed count; a distribution
    # built elsewhere may hold equal shares as distinct objects
    game = get_game("chsh")
    dist = exact_distribution(get_strategy("chsh-nlb"), game)
    copied = {x: {o: Fraction(p.numerator, p.denominator) for o, p in probs.items()}
              for x, probs in dist.per_input.items()}
    x = next(iter(copied))
    low, high = list(copied[x])
    for shares, verdict in (((Fraction(1, 2),) * 2, True),
                            ((Fraction(1, 4), Fraction(3, 4)), False),
                            ((Fraction(1, 4),) * 2, False),
                            # equal shares whose denominator is the outcome
                            # count but whose numerator is not 1
                            ((Fraction(3, 2),) * 2, False)):
        # Fraction() makes a new object each time
        copied[x] = {low: Fraction(shares[0]), high: Fraction(shares[1])}
        synthetic = analysis.ExactDistribution("synthetic", "chsh", 2, copied)
        assert uniformity_verdict(synthetic, game) is verdict, shares
        assert oracle_uniformity(synthetic, game) is verdict


@pytest.mark.parametrize("gid", ["chsh", "mermin", "multi-mermin:4", "multi-mermin:5",
                                 "bmaj:3", "magic-square"])
def test_exhaustive_verify_of_random_tables_matches_the_tally(gid):
    game = get_game(gid)
    rng = random.Random(gid)
    losing = 0
    for _ in range(12):
        strategy = random_tables(game, rng)
        want = oracle_tally_verify(strategy, game)
        losing += not want.passed
        assert verify_winning(strategy, game, Exhaustive()) == want
        assert verify_winning(strategy, scalar_win(game), Exhaustive()) == want
        dist = exact_distribution(strategy, game)
        assert no_signaling_check(strategy, game) is oracle_marginals_non_signaling(
            dist, game.n_parties) is True
        assert uniformity_verdict(dist, game) is oracle_uniformity(dist, game)
    assert losing >= 6


def test_verify_reports_a_misfit_after_the_sweep():
    # both seed policies decide their grids alike; 64 draws of chsh meet
    # every input, (1, 0) included
    for policy in (Exhaustive(), Sample(64, 1)):
        # a 3-bit outcome on a 1-bit game: the arity is checked once the grid
        # has run, so an error of the run itself comes first
        with pytest.raises(GameError, match="^outcome arity does not match chsh$"):
            verify_winning(get_strategy("ms-nlb"), get_game("chsh"), policy)
        with pytest.raises(engine.NonBitError):
            verify_winning(get_strategy("chsh-nlb"), get_game("magic-square"), policy)
        # a promise entry off the promise is reported as is_winning reports it
        game = dataclasses.replace(get_game("chsh"), on_promise=lambda x: x != (1, 0))
        with pytest.raises(PromiseError, match=r"^\(1, 0\) is outside"):
            verify_winning(get_strategy("chsh-nlb"), game, policy)
        # of several inputs off the promise, the grid's first one is reported
        game = dataclasses.replace(game, on_promise=lambda x: x == (0, 0))
        strategy = get_strategy("chsh-nlb")
        with pytest.raises(PromiseError) as want:
            if policy == Exhaustive():
                oracle_tally_verify(strategy, game)
            else:
                oracle_sampled_verify(strategy, game, policy.k, policy.rng_seed)
        with pytest.raises(PromiseError, match=f"^{re.escape(str(want.value))}$"):
            verify_winning(strategy, game, policy)


@pytest.mark.parametrize("sid", ["multi-mermin-nlb:5", "dj-nlb:2"])
def test_a_sampled_draw_off_a_replaced_promise_is_reported(sid):
    # as for chsh above: a copy whose on_promise refuses two drawn inputs
    # raises on lanes, is checked draw by draw, and the one drawn first is
    # reported, once the chunk has run
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    k, rng_seed = 300, 1
    draws = [x for x, _ in drawn_points(strategy, game, random.Random(rng_seed), k)]
    # inputs by first draw: refuse the last one and one from the middle
    seen = list(dict.fromkeys(draws))
    refused = {seen[-1], seen[len(seen) // 2]}
    first = seen[len(seen) // 2]
    assert draws.index(first) > 0
    off = dataclasses.replace(game, on_promise=lambda x: x not in refused
                              and game.on_promise(x))
    with pytest.raises(PromiseError, match=f"^{re.escape(str(first))} is outside"):
        verify_winning(strategy, off, Sample(k, rng_seed))
    with pytest.raises(PromiseError, match=f"^{re.escape(str(first))} is outside"):
        oracle_sampled_verify(strategy, off, k, rng_seed)
    assert verify_winning(strategy, game, Sample(k, rng_seed)).passed


# --- sampled verification against the per-draw loop ------------------------------

def oracle_sampled_verify(strategy, game, k, rng_seed):
    """Draw k points in chunks of analysis.SAMPLE_CHUNK, each chunk in
    drawn_points' order, with one scalar execute and one win check per
    draw, chunk after chunk; the first losing draw is the
    counterexample."""
    rng = random.Random(rng_seed)
    wins = 0
    counterexample = None
    for start in range(0, k, analysis.SAMPLE_CHUNK):
        m = min(analysis.SAMPLE_CHUNK, k - start)
        for x, seed in drawn_points(strategy, game, rng, m):
            outcome, _ = execute(strategy, x, seed, record=False)
            if is_winning(game, x, outcome):
                wins += 1
            elif counterexample is None:
                counterexample = {"input": analysis._jsonable(x),
                                  "seed": seed.to_json(),
                                  "outcome": [list(p) for p in outcome]}
    return analysis.VerifyResult(counterexample is None, f"sample:{k}", k, wins,
                                 counterexample)


SIZED = {"multi-mermin-nlb": (3, 4, 7), "dj-nlb": (1, 2, 3, 5), "bmaj-nlb": (2, 3, 5)}
OWN_GAME = [f"{base}:{n}" if wants_n else base
            for base, (_, wants_n) in STRATEGY_FAMILIES.items()
            for n in (SIZED[base] if wants_n else (None,))]
LOSING = [("bmaj-nlb:4", "multi-mermin:4"), ("multi-mermin-nlb:5", "bmaj:5")]
# split-then-arithmetic splits on a box, then runs one half point by point;
# split-loser loses inside a split; the ragged and bool shared domains are not
# bit-shaped, so each drawn shared index is a block of its own
SAMPLED_CUSTOM = [(sid, "chsh") for sid in ("split-then-arithmetic", "split-loser",
                                            "ragged-domain", "bool-domain")]


def _sampled_case(sid, gid):
    strategy = CUSTOM[sid]() if sid in CUSTOM else get_strategy(sid)
    return strategy, get_game(gid or strategy.game_id)


@pytest.mark.parametrize("sid,gid", [(sid, None) for sid in OWN_GAME] + LOSING
                         + SAMPLED_CUSTOM)
@pytest.mark.parametrize("chunk", [analysis.SAMPLE_CHUNK, 5])
def test_sampled_verify_matches_the_per_draw_loop(sid, gid, chunk, monkeypatch):
    # a chunk of 5 points puts most draws past the first chunk
    monkeypatch.setattr(analysis, "SAMPLE_CHUNK", chunk)
    strategy, game = _sampled_case(sid, gid)
    for rng_seed in range(20):
        k = 1 + 3 * (rng_seed % 7)
        assert (verify_winning(strategy, game, Sample(k, rng_seed))
                == oracle_sampled_verify(strategy, game, k, rng_seed)), rng_seed


@pytest.mark.parametrize("case", ["ms-nlb-sim", "tables", "multi-mermin-nlb:5"])
@pytest.mark.parametrize("chunk", [analysis.SAMPLE_CHUNK, 5])
def test_sampled_verify_of_a_scalar_relation_matches_the_per_draw_loop(case, chunk,
                                                                       monkeypatch):
    # the relation restated through sum and == raises LaneBranch on lanes:
    # ms-nlb-sim's pieces are whole runs of one magic-square input, and take
    # the per-outcome fallback; random tables on magic square lose inside a
    # whole-run piece; multi-mermin's bit-shaped inputs make each draw a
    # piece, losing on bmaj:5
    monkeypatch.setattr(analysis, "SAMPLE_CHUNK", chunk)
    if case == "tables":
        game = get_game("magic-square")
        rng = random.Random(case)
        pairings = [(random_tables(game, rng), game) for _ in range(3)]
    elif case == "ms-nlb-sim":
        pairings = [(get_strategy(case), get_game("magic-square"))]
    else:
        pairings = [(get_strategy(case), get_game("bmaj:5"))]
    losing = 0
    for strategy, game in pairings:
        for rng_seed in range(10):
            k = 1 + 9 * rng_seed
            want = oracle_sampled_verify(strategy, game, k, rng_seed)
            losing += not want.passed
            assert verify_winning(strategy, scalar_win(game), Sample(k, rng_seed)) == want
    assert (losing > 0) is (case != "ms-nlb-sim")


def test_sampled_verify_runs_the_win_relation_once_per_piece(monkeypatch):
    # magic square's inputs are not bits, so each run holds draws of one
    # input, is one piece whole, and is decided by one call of the win
    # relation, on its lanes
    strategy, game = get_strategy("ms-nlb-sim"), get_game("magic-square")
    k, rng_seed = 500, 3
    grid = engine.LaneGrid.drawn(strategy, game, random.Random(rng_seed), k)
    runs = list(analysis._runs(strategy, grid))
    assert [grid.windows(offset, block) for offset, block, _ in runs] == \
        [[(offset, block)] for offset, block, _ in runs]
    assert sum(block.bit_count() for _, block, _ in runs) == k
    assert len(runs) < k // 10
    monkeypatch.setattr(analysis, "is_winning", None)
    calls = []

    def relation(x, y):
        calls.append(x)
        return game.win(x, y)

    result = verify_winning(strategy, dataclasses.replace(game, win=relation),
                            Sample(k, rng_seed))
    assert result == oracle_sampled_verify(strategy, game, k, rng_seed)
    assert len(calls) == len(runs)


@pytest.mark.parametrize("sid,k", [("multi-mermin-nlb:5", 500), ("multi-mermin-nlb:10", 512)])
def test_sampled_verify_runs_the_win_relation_once_per_drawn_run(sid, k, monkeypatch):
    # multi-mermin's inputs are bits, so a drawn run spans many inputs and
    # is decided by one call of the win relation, on its input lanes
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    rng_seed = 3
    grid = engine.LaneGrid.drawn(strategy, game, random.Random(rng_seed), k)
    runs = list(analysis._runs(strategy, grid))
    assert sum(block.bit_count() for _, block, _ in runs) == k
    monkeypatch.setattr(analysis, "is_winning", None)
    calls = []

    def relation(x, y):
        calls.append(any(type(v) is engine.Lane for v in x))
        return game.win(x, y)

    result = verify_winning(strategy, dataclasses.replace(game, win=relation),
                            Sample(k, rng_seed))
    assert result == oracle_sampled_verify(strategy, game, k, rng_seed)
    assert calls == [True] * len(runs)
    assert len(runs) < k // 10


@pytest.mark.parametrize("sid,gid", LOSING + [("split-loser", "chsh")])
def test_sampled_losing_pairings_find_counterexamples(sid, gid):
    strategy, game = _sampled_case(sid, gid)
    results = [verify_winning(strategy, game, Sample(16, s)) for s in range(20)]
    assert sum(r.counterexample is not None for r in results) >= 10


def test_a_losing_sample_over_three_chunks_names_its_counterexample():
    # 2,100 draws are chunks of 1,024, 1,024 and 52: a change to the draw
    # order or to SAMPLE_CHUNK changes the wins, and the first chunk's order
    # the counterexample
    assert analysis.SAMPLE_CHUNK == 1024
    strategy, game = get_strategy("bmaj-nlb:4"), get_game("multi-mermin:4")
    result = verify_winning(strategy, game, Sample(2100, 7))
    bits = ("0100011011101101010100001010010001010111101010010111110110001001"
            "1001001010011011011010100000010110010100011111101101010010100111"
            "1010")
    assert result == analysis.VerifyResult(
        False, "sample:2100", 2100, 270,
        {"input": [0, 1, 1, 0], "seed": {"nlb_bits": [int(b) for b in bits],
                                         "shared_index": 0},
         "outcome": [[1], [0], [0], [1]]})
    assert result == oracle_sampled_verify(strategy, game, 2100, 7)


@pytest.mark.parametrize("sid", ["chsh-nlb", "bmaj-nlb:4", "ms-comm", "dj-nlb:2"])
def test_a_drawn_chunk_with_one_shared_value_draws_inputs_then_box_bits(sid):
    # the m inputs as their family draws them, then one getrandbits(m) per
    # box, and no shared index: the fill leaves rng where that leaves a twin
    strategy, game = _sampled_case(sid, None)
    m = 37
    rng, twin = random.Random(sid), random.Random(sid)
    grid = engine.LaneGrid.drawn(strategy, game, rng, m)
    assert list(grid.inputs) == drawn_inputs(game, twin, m)
    assert grid.nlb_masks == [twin.getrandbits(m) for _ in strategy.nlbs]
    assert rng.getrandbits(32) == twin.getrandbits(32)


@pytest.mark.parametrize("m", [1, 37, 300])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 10])
def test_a_dj_chunk_draws_its_flip_sets_on_the_rng_sample_stream(n, m):
    # sample_chunk draws each flip set in line; a twin that calls
    # rng.sample once per draw whose coin is 1 (drawn_inputs) gets the
    # same inputs and ends in step with it
    game = get_game(f"dj:{n}")
    for rng_seed in range(3):
        rng, twin = random.Random(rng_seed), random.Random(rng_seed)
        a, b = game.sample_chunk(rng, m)
        assert [(tuple(c >> i & 1 for c in a), tuple(c >> i & 1 for c in b))
                for i in range(m)] == drawn_inputs(game, twin, m)
        assert rng.getrandbits(64) == twin.getrandbits(64)


@pytest.mark.parametrize("sid", ["ms-nlb-sim", "mermin-nlb-sim", "ms-comm-sim",
                                 "ragged-domain"])
def test_a_drawn_chunk_draws_its_shared_indices_last(sid):
    strategy, game = _sampled_case(sid, None)
    n, m = len(strategy.shared_domain), 37
    rng, twin = random.Random(sid), random.Random(sid)
    grid = engine.LaneGrid.drawn(strategy, game, rng, m)
    assert list(grid.inputs) == drawn_inputs(game, twin, m)
    assert grid.nlb_masks == [twin.getrandbits(m) for _ in strategy.nlbs]
    assert n > 1 and grid.shared == [twin.randrange(n) for _ in range(m)]
    assert rng.getrandbits(32) == twin.getrandbits(32)


@pytest.mark.parametrize("sid", ["bmaj-nlb:4", "dj-nlb:4", "multi-mermin-nlb:10"])
def test_sampled_verify_of_a_deep_job_is_one_run(sid, monkeypatch):
    calls = []
    real = analysis.execute

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "execute", counting)
    strategy = get_strategy(sid)
    result = verify_winning(strategy, get_game(strategy.game_id), Sample(512, 3))
    assert (result.passed, result.checked, result.wins) == (True, 512, 512)
    assert len(calls) == 1 and calls[0].block == (1 << 512) - 1


def test_sampled_verify_memory_does_not_grow_with_k():
    strategy = get_strategy("multi-mermin-nlb:6")
    game = get_game(strategy.game_id)
    peaks = []
    for k in (analysis.SAMPLE_CHUNK, 8 * analysis.SAMPLE_CHUNK):
        gc.collect()   # empties the free lists, which tracemalloc counts
        tracemalloc.start()
        try:
            assert verify_winning(strategy, game, Sample(k, 1)).checked == k
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one chunk at a time: drawing all 8 chunks at once peaks about 7x higher
    assert peaks[1] < 1.1 * peaks[0]


# --- non-signaling ---------------------------------------------------------------

def test_no_signaling_builtins():
    assert no_signaling_check(get_strategy("chsh-nlb"), get_game("chsh"))
    assert no_signaling_check(get_strategy("ms-nlb-sim"), get_game("magic-square"))
    assert no_signaling_check(get_strategy("mermin-nlb"), get_game("mermin"))


def test_no_signaling_inapplicable_with_channels():
    with pytest.raises(CommunicationUsedError):
        no_signaling_check(get_strategy("mermin-comm"), get_game("mermin"))


def oracle_marginals_non_signaling(dist, n_parties):
    """The non-signaling check on Fraction marginals: each party's marginal,
    summed in rationals, compared across the inputs that agree on that
    party's coordinate."""
    inputs = list(dist.per_input)
    for party in range(n_parties):
        buckets: dict = {}
        for x in inputs:
            buckets.setdefault(x[party], []).append(dist.marginal(x, party))
        for margs in buckets.values():
            if any(m != margs[0] for m in margs[1:]):
                return False
    return True


def seed_count_marginals(dist, n_parties):
    """counts[r][i]: party r's marginal at the i-th input of dist, as seed
    counts."""
    total = dist.seed_count
    return [[{o: int(p * total) for o, p in dist.marginal(x, r).items()}
             for x in dist.per_input] for r in range(n_parties)]


def seed_count_columns(counts):
    """seed_count_marginals' counts as the columns that
    analysis.marginals_non_signaling compares: per party, one column per
    outcome, its seed count at each input."""
    return [[[marginal.get(o, 0) for marginal in marginals]
             for o in sorted(set().union(*marginals))] for marginals in counts]


@pytest.mark.parametrize("sid,gid", NO_COMM_ENUMERABLE)
def test_integer_marginals_match_the_fraction_oracle(sid, gid):
    # the check counts each party's own bits on lanes; the oracle sums the
    # joint distribution's fractions
    strategy, game = get_strategy(sid), get_game(gid)
    dist = exact_distribution(strategy, game)
    assert no_signaling_check(strategy, game) is True
    assert oracle_marginals_non_signaling(dist, game.n_parties) is True


@pytest.mark.parametrize("width", [1, 2])
def test_no_signaling_check_finds_a_program_that_leaks_an_input(width):
    # locality holds only for programs that keep to their views: party 1
    # reads party 0's input through a closure (party 0 runs first in each
    # round). Over two shared bits s it answers s0 & (s1 | x0): 1 on one
    # seed of four where x0 is 0, on two where x0 is 1, the same outputs
    # with other counts. A 2-bit output takes the split, a 1-bit one the
    # single count
    leak = {}

    def answer(view):
        if view.party == 0:
            leak["x0"] = view.own_input
            return engine.Action(output=(0,) * width)
        s0, s1 = view.shared
        return engine.Action(output=(s0 & (s1 | leak["x0"]),) + (0,) * (width - 1))

    prog = engine.PartyProgram((answer,))
    strategy = engine.Strategy(name="leak", n_parties=2, programs=(prog, prog),
                               shared_domain=engine.bit_domain(2), game_id="chsh")
    game = dataclasses.replace(get_game("chsh"), output_lengths=(width, width))
    assert no_signaling_check(strategy, game) is False
    assert oracle_marginals_non_signaling(exact_distribution(strategy, game), 2) is False


def test_no_signaling_check_counts_parities_of_several_bits():
    # party 1 answers (s, s ^ leak, 1) for a shared bit s, where leak says
    # whether party 0's input, read through a closure, is row 3. Each of its
    # bits has the same marginal on every input; only the XOR of its first
    # two bits, which is leak, signals
    leak = {}

    def answer(view):
        if view.party == 0:
            leak["x0"] = view.own_input
            return engine.Action(output=(0, 0, 0))
        (s,) = view.shared
        return engine.Action(output=(s, s ^ (leak["x0"] == 3), 1))

    prog = engine.PartyProgram((answer,))
    strategy = engine.Strategy(name="leak", n_parties=2, programs=(prog, prog),
                               shared_domain=engine.bit_domain(1),
                               game_id="magic-square")
    game = get_game("magic-square")
    dist = exact_distribution(strategy, game)

    def bit_marginal(x, bit):
        out = {}
        for own, p in dist.marginal(x, 1).items():
            out[own[bit]] = out.get(own[bit], 0) + p
        return sorted(out.items())

    for bit in range(3):
        assert all(bit_marginal(x, bit) == bit_marginal((1, 1), bit)
                   for x in dist.per_input)
    assert no_signaling_check(strategy, game) is False
    assert oracle_marginals_non_signaling(dist, 2) is False


@pytest.mark.parametrize("rule,signals", [
    (lambda s0, s1, x1, x0: (s0,) if x1 else (s0, s1), False),
    (lambda s0, s1, x1, x0: (s0,) if x0 else (s0, s1), True),
    (lambda s0, s1, x1, x0: (s0,) if s1 else (s0 ^ x0, 0), False),
    (lambda s0, s1, x1, x0: (s0,) if s1 else (0, s0) if x0 else (s0, 0), True),
    # the same parities, all 0, on one seed of four or on two
    (lambda s0, s1, x1, x0: (0,) if s1 & (s0 | 1 ^ x0) else (0, 0), True),
])
def test_no_signaling_check_counts_each_output_length_apart(rule, signals):
    # party 1's output length may depend on its seed and on its own input
    # (or, leaking, on party 0's); the marginal is over outputs of every
    # length
    leak = {}

    def answer(view):
        if view.party == 0:
            leak["x0"] = view.own_input
            return engine.Action(output=(0,))
        s0, s1 = view.shared
        return engine.Action(output=rule(s0, s1, view.own_input, leak["x0"]))

    prog = engine.PartyProgram((answer,))
    strategy = engine.Strategy(name="lengths", n_parties=2, programs=(prog, prog),
                               shared_domain=engine.bit_domain(2), game_id="chsh")
    game = get_game("chsh")
    assert no_signaling_check(strategy, game) is not signals
    assert oracle_marginals_non_signaling(exact_distribution(strategy, game), 2) \
        is not signals


@pytest.mark.parametrize("bits,limit,refused", [(21, None, True), (3, 7, False),
                                                (4, 7, True)])
def test_no_signaling_check_refuses_more_parities_than_outcomes(bits, limit, refused,
                                                                monkeypatch):
    # a party with k output bits has 2^k - 1 parities, held to
    # games.MAX_OUTCOMES
    if limit is not None:
        monkeypatch.setattr(analysis, "MAX_OUTCOMES", limit)

    def answer(view):
        return engine.Action(output=(0,) * bits)

    prog = engine.PartyProgram((answer,))
    strategy = engine.Strategy(name="wide", n_parties=2, programs=(prog, prog),
                               game_id="chsh")
    if refused:
        with pytest.raises(EnumerationLimitError,
                           match=f"^party 0 has {bits} output bits: "):
            no_signaling_check(strategy, get_game("chsh"))
    else:
        assert no_signaling_check(strategy, get_game("chsh")) is True


def _three_party(party2):
    """A mermin-promise distribution over 4 seeds: party 0 answers 0 with
    probability 3/4, party 1 always 0, party 2 as party2(x, answer of 0)."""
    per_input = {x: {((0,), (0,), (party2(x, 0),)): Fraction(3, 4),
                     ((1,), (0,), (party2(x, 1),)): Fraction(1, 4)}
                 for x in promised_inputs(get_game("mermin"))}
    return analysis.ExactDistribution("synthetic", "mermin", 4, per_input)


@pytest.mark.parametrize("party2,signals", [
    (lambda x, a: x[2] ^ a, False),     # depends on its own input only
    (lambda x, a: x[0], True),          # announces party 0's input
    (lambda x, a: a ^ (x[0] & x[1]), True),
])
def test_integer_marginals_find_one_signaling_party(party2, signals):
    dist = _three_party(party2)
    groups = analysis.input_groups(list(dist.per_input), 3)
    columns = seed_count_columns(seed_count_marginals(dist, 3))
    assert analysis.marginals_non_signaling(groups, columns) is not signals
    assert oracle_marginals_non_signaling(dist, 3) is not signals
    # parties 0 and 1 never signal: the check of them alone passes
    assert analysis.marginals_non_signaling(groups[:2], columns[:2]) is True


def test_marginal_logic_detects_signaling():
    # box-only strategies cannot signal structurally, so exercise the
    # marginal comparison on handmade seed counts: party 1 announces party
    # 0's input
    inputs = list(itertools.product((0, 1), repeat=2))
    groups = analysis.input_groups(inputs, 2)
    assert groups == [[[0, 1], [2, 3]], [[0, 2], [1, 3]]]

    def marginals_non_signaling(counts):
        return analysis.marginals_non_signaling(groups, seed_count_columns(counts))

    honest = [[{(0,): 1}] * 4, [{(0,): 1}] * 4]
    signaling = [[{(0,): 1}] * 4, [{(0,): 1}, {(0,): 1}, {(1,): 1}, {(1,): 1}]]
    assert marginals_non_signaling(honest)
    assert not marginals_non_signaling(signaling)
    # the same counts as distributions, for the fraction oracle
    for counts, verdict in ((honest, True), (signaling, False)):
        dist = analysis.ExactDistribution("synthetic", "chsh", 1, {
            x: {(*counts[0][i], *counts[1][i]): Fraction(1)}
            for i, x in enumerate(inputs)})
        assert oracle_marginals_non_signaling(dist, 2) is verdict
        assert seed_count_marginals(dist, 2) == counts
    # party 0's marginal may differ between its own inputs (it answers 1 on
    # one seed of two where its input is 0), not between inputs that agree
    # on its input
    uneven = [[{(0,): 1, (1,): 1}, {(0,): 1, (1,): 1}, {(0,): 2}, {(0,): 2}],
              [{(0,): 2}] * 4]
    assert marginals_non_signaling(uneven)
    uneven[0][1] = {(0,): 2}
    assert not marginals_non_signaling(uneven)


@pytest.mark.parametrize("sid,copies", [("ms-nlb-branching", None),
                                         ("row-index", 2), ("row-index", 9)])
def test_split_sweeps_match_the_scalar_oracle(sid, copies, monkeypatch):
    # runs that meet parts of inputs: ms-nlb-branching splits its group of
    # nine inputs into one block per input and each of those on its box (28
    # runs a sweep), and row-index's Choice grid splits each group of copies
    # inputs. The second sweep of each runs on the grid kept on the strategy
    strategy = row_index() if sid == "row-index" else CUSTOM[sid]()
    game = get_game("magic-square")
    if copies:
        monkeypatch.setattr(analysis, "SWEEP_WIDTH", copies * strategy.seed_count())
    per_input, *_ = scalar_oracle(strategy, game)
    oracle = analysis.ExactDistribution(strategy.name, game.name,
                                        strategy.seed_count(), per_input)
    signals = not oracle_marginals_non_signaling(oracle, 2)
    for _ in range(2):
        dist = exact_distribution(strategy, game)
        assert dist.per_input == per_input
        assert dist.to_json() == oracle.to_json()
        assert no_signaling_check(strategy, game) is not signals


@pytest.mark.parametrize("row,col", [(3, 3), (1, 3), (2, 1)])
def test_no_signaling_check_finds_a_leak_at_one_input_of_a_group(row, col):
    # party 1 answers (s, 0, leak) for a shared bit s, where leak says
    # whether the input is (row, col), party 0's row read through a closure:
    # party 1's marginal differs on one input of its column's group of
    # three, for (3, 3) and (1, 3) in its last group. Party 0 never signals
    leak = {}

    def answer(view):
        if view.party == 0:
            leak["x0"] = view.own_input
            return engine.Action(output=(0, 0, 0))
        (s,) = view.shared
        hit = int(leak["x0"] == row and view.own_input == col)
        return engine.Action(output=(s, 0, hit))

    prog = engine.PartyProgram((answer,))
    strategy = engine.Strategy(name="leak", n_parties=2, programs=(prog, prog),
                               shared_domain=engine.bit_domain(1),
                               game_id="magic-square")
    game = get_game("magic-square")
    dist = exact_distribution(strategy, game)
    inputs = list(dist.per_input)
    groups = analysis.input_groups(inputs, 2)
    assert groups[1][-1] == [inputs.index((r, 3)) for r in (1, 2, 3)]
    counts = seed_count_marginals(dist, 2)
    group = [counts[1][i] for i, x in enumerate(inputs) if x[1] == col]
    assert group.count(counts[1][inputs.index((row, col))]) == 1
    assert no_signaling_check(strategy, game) is False
    assert oracle_marginals_non_signaling(dist, 2) is False


# --- random whole programs against the scalar oracle -------------------------------

def _round(boxes, leak, picks, feeds, answer, own=lambda view: view.own_input):
    """One round of a drawn program. Its view bits are own(view), by default
    the party's input bit, its shared bit, the outputs of the boxes it has
    received (their ids in boxes) and, where leak is a dict, party 0's
    input, which party 0 leaks to the others; picks names the view bit that
    each of an expression's N_VARS variables stands for. feeds holds (box
    id, expression) pairs, and answer is None or (the variable an if reads,
    or None, then-expression, else-expression, then one expression per
    further output bit). ^ 0 turns a bool into the int bit that execute
    accepts."""
    def step(view):
        bits = [own(view), view.shared[0], *[view.nlb[b] for b in boxes]]
        if leak is not None:
            # party 0 moves first in every round
            if view.party == 0:
                leak["x0"] = view.own_input
            else:
                bits.append(leak["x0"])
        env = [bits[i] for i in picks]
        action = Action(nlb_inputs={b: _evaluate(e, env) ^ 0 for b, e in feeds} or None)
        if answer is not None:
            test, then, other, *rest = answer
            chosen = then if test is None or env[test] else other
            action.output = tuple([_evaluate(e, env) ^ 0 for e in (chosen, *rest)])
        return action
    return step


@st.composite
def random_programs(draw):
    """A valid strategy of 2 or 3 parties and 1 to 3 rounds, with up to 3
    boxes on drawn party pairs, each port fed once in a drawn round, and
    perhaps a leak of party 0's input; a game with its party count; and an
    input of its promise to drop from it, or None."""
    n, rounds = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    # (box, the round each of its ports is fed in)
    boxes = [(NlbInstance(f"b{k}", *draw(st.permutations(range(n)))[:2]),
              draw(st.tuples(st.integers(0, rounds - 1), st.integers(0, rounds - 1))))
             for k in range(draw(st.integers(0, 3)))]
    leak = {} if draw(st.booleans()) else None
    programs = []
    for r in range(n):
        steps = []
        for t in range(rounds):
            # a box fed at both ports before round t has delivered by then
            seen = [box.id for box, fed in boxes if r in (box.port0_party, box.port1_party)
                    and max(fed) < t]
            width = 2 + len(seen) + (leak is not None and r > 0)
            picks = draw(st.lists(st.integers(0, width - 1), min_size=N_VARS,
                                  max_size=N_VARS))
            feeds = [(box.id, draw(expressions)) for box, fed in boxes
                     for port, party in enumerate((box.port0_party, box.port1_party))
                     if party == r and fed[port] == t]
            answer = (draw(st.none() | st.integers(0, N_VARS - 1)), draw(expressions),
                      draw(expressions)) if t == rounds - 1 else None
            steps.append(_round(seen, leak, picks, feeds, answer))
        programs.append(PartyProgram(tuple(steps)))
    game = get_game("chsh" if n == 2 else draw(st.sampled_from(["mermin", "bmaj:3"])))
    drop = draw(st.none() | st.sampled_from(promised_inputs(game)))
    strategy = Strategy(name="drawn", n_parties=n, programs=tuple(programs),
                        nlbs=tuple(box for box, _ in boxes),
                        shared_domain=engine.bit_domain(1), game_id=game.name)
    return strategy, game, drop


def oracle_non_signaling(per_input, n_parties) -> bool:
    """Each party's fraction marginal is one per own input."""
    marginals = [{} for _ in range(n_parties)]
    for x, probs in per_input.items():
        for r, seen in enumerate(marginals):
            marginal = Counter()
            for outcome, p in probs.items():
                marginal[outcome[r]] += p
            seen.setdefault(x[r], set()).add(frozenset(marginal.items()))
    return all(len(m) == 1 for seen in marginals for m in seen.values())


def _result(call):
    """What call returns, or the type and text of the GameError it raises."""
    try:
        return call()
    except GameError as error:
        return type(error), str(error)


@settings(max_examples=240, derandomize=True, deadline=None)
@given(case=random_programs(), k=st.integers(1, 60))
def test_random_programs_match_the_scalar_oracle(case, k):
    strategy, game, drop = case
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    dist = exact_distribution(strategy, game)
    assert dist.per_input == per_input
    assert verify_winning(strategy, game, Exhaustive()) == analysis.VerifyResult(
        counterexample is None, "exhaustive", checked, wins, counterexample)
    assert no_signaling_check(strategy, game) is \
        oracle_non_signaling(per_input, strategy.n_parties)
    assert verify_winning(strategy, game, Sample(k, 7)) == \
        oracle_sampled_verify(strategy, game, k, 7)
    # an input off the promise is reported as is_winning reports it, whether
    # its runs span other inputs or not; a draw that misses it still passes
    if drop is not None:
        game = dataclasses.replace(game, on_promise=lambda x: x != drop)
        assert _result(lambda: verify_winning(strategy, game, Exhaustive())) == \
            _result(lambda: scalar_oracle(strategy, game))
        assert _result(lambda: verify_winning(strategy, game, Sample(k, 7))) == \
            _result(lambda: oracle_sampled_verify(strategy, game, k, 7))


# how a drawn magic-square program reads its input x as a view bit, given a
# value v of 1..3, a table t of three bits and a lane or bit z (its first box
# output, or its shared bit): its indicator bits, or select in bit algebra,
# which run on a Choice, or compare, index with x - 1 or branch, which split
# a block of several inputs into one block per input; some of them on z
MS_ALGEBRA = {
    "equal bit": lambda x, v, t, z: equal_bits(x, (1, 2, 3))[v - 1],
    "equal bit & z": lambda x, v, t, z: equal_bits(x, (3, 2, 1))[v - 1] & z,
    "select": lambda x, v, t, z: select(t, indicators(x)),
    "select z": lambda x, v, t, z: select((z, t[1], z ^ 1), indicators(x)),
}
MS_READS = dict(MS_ALGEBRA, **{
    "eq": lambda x, v, t, z: x == v,
    "eq & 1": lambda x, v, t, z: (x == v) & 1,
    "ne & z": lambda x, v, t, z: (x != v) & z,
    "index": lambda x, v, t, z: t[x - 1],
    "index ^ z": lambda x, v, t, z: t[x - 1] ^ z,
    "branch": lambda x, v, t, z: t[0] if x == v else t[1],
    "branch z": lambda x, v, t, z: z if x != v else t[2],
})


def _ms_read(kind, v, table, boxes):
    def own(view):
        z = view.nlb[boxes[0]] if boxes else view.shared[0]
        return MS_READS[kind](view.own_input, v, table, z)
    return own


@st.composite
def random_ms_programs(draw):
    """A valid magic-square strategy of 1 or 2 rounds, with up to 2 boxes,
    each port fed in a drawn round, and one shared bit. In every round the
    first view bit (see _round) is the party's input read one of the
    MS_READS ways, or for a party drawn to use bit algebra alone one of the
    MS_ALGEBRA ways; an answer is three bits."""
    rounds = draw(st.integers(1, 2))
    boxes = [(NlbInstance(f"b{k}", *draw(st.permutations(range(2)))),
              draw(st.tuples(st.integers(0, rounds - 1), st.integers(0, rounds - 1))))
             for k in range(draw(st.integers(0, 2)))]
    programs = []
    for r in range(2):
        steps = []
        reads = sorted(MS_ALGEBRA if draw(st.booleans()) else MS_READS)
        for t in range(rounds):
            seen = [box.id for box, fed in boxes if max(fed) < t]
            own = _ms_read(draw(st.sampled_from(reads)), draw(st.integers(1, 3)),
                           draw(st.tuples(*[st.integers(0, 1)] * 3)), seen)
            picks = draw(st.lists(st.integers(0, 1 + len(seen)), min_size=N_VARS,
                                  max_size=N_VARS))
            feeds = [(box.id, draw(expressions)) for box, fed in boxes
                     for port, party in enumerate((box.port0_party, box.port1_party))
                     if party == r and fed[port] == t]
            answer = (draw(st.none() | st.integers(0, N_VARS - 1)),
                      *[draw(expressions) for _ in range(4)]) if t == rounds - 1 else None
            steps.append(_round(seen, None, picks, feeds, answer, own))
        programs.append(PartyProgram(tuple(steps)))
    return Strategy(name="drawn-ms", n_parties=2, programs=tuple(programs),
                    nlbs=tuple(box for box, _ in boxes),
                    shared_domain=engine.bit_domain(1), game_id="magic-square")


@settings(max_examples=120, derandomize=True, deadline=None)
@given(strategy=random_ms_programs(), copies=st.sampled_from([None, 1, 2, 3, 4]),
       k=st.integers(1, 30))
def test_random_magic_square_programs_match_the_scalar_oracle(strategy, copies, k):
    # copies inputs to a group, or all nine (None): a grid of Choices, whose
    # blocks split into one block per input where a run needs a plain input.
    # Every input a run gets is a plain int or a Choice that differs on its
    # block, and the kept grid's layout is fixed: a second sweep makes as
    # many runs as the first
    game = get_game("magic-square")
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    runs, real, width = [], analysis.execute, analysis.SWEEP_WIDTH

    def counting(strategy, x, seed, record):
        for v in x:
            assert type(v) is int or type(v) is engine.Choice and len(v.masks) > 1 \
                and all(0 < m < v.full for m in v.masks.values())
        runs.append(seed)
        return real(strategy, x, seed, record)

    analysis.execute = counting
    if copies:
        analysis.SWEEP_WIDTH = copies * strategy.seed_count()
    try:
        for sweep in range(2):
            runs.clear()
            assert exact_distribution(strategy, game).per_input == per_input
            counts = runs[:] if sweep == 0 else counts
        assert len(runs) == len(counts)
        assert verify_winning(strategy, game, Exhaustive()) == analysis.VerifyResult(
            counterexample is None, "exhaustive", checked, wins, counterexample)
        assert no_signaling_check(strategy, game) is oracle_non_signaling(per_input, 2)
    finally:
        analysis.execute, analysis.SWEEP_WIDTH = real, width
    assert verify_winning(strategy, game, Sample(k, 7)) == \
        oracle_sampled_verify(strategy, game, k, 7)


# --- impossibility search --------------------------------------------------------

def test_search_positive_control_n3():
    report = impossibility_search(get_game("multi-mermin:3"), pair=(0, 1))
    assert report.perfect
    assert report.candidates == 16384
    assert report.witness is not None
    witness_check = verify_winning(report.witness_strategy,
                                   get_game("multi-mermin:3"), Exhaustive())
    assert witness_check.passed


def test_search_chsh_zero_budget():
    report = impossibility_search(get_game("chsh"), budget=0)
    assert not report.perfect
    assert report.best_fraction == Fraction(3, 4)
    assert report.candidates == 16


def test_search_zero_budget_witness():
    # no registered game is won without boxes; x0 XOR x1 is, by each party
    # answering its own input
    xor = _xor_game()
    report = impossibility_search(xor, budget=0)
    assert report.perfect and report.best_fraction == 1
    assert report.witness == {"pairing": None, "outputs": [[0, 1], [0, 1]]}
    assert json.loads(json.dumps(report.to_json()))["witness"] == report.witness
    assert report.witness_strategy.nlbs == ()
    assert verify_winning(report.witness_strategy, xor, Exhaustive()).passed


def test_search_grid_is_not_capped():
    # 32 promised inputs x 2 free-bit values: 64 grid points, past one
    # machine word; the candidate budget is the only limit
    report = impossibility_search(get_game("multi-mermin:6"), pair=(0, 1))
    assert report.grid_size == 64
    assert report.candidates == 64 ** 2 * 4 ** 4
    assert not report.perfect and report.best_fraction == Fraction(5, 8)


def test_search_magic_square_zero_budget():
    report = impossibility_search(get_game("magic-square"), budget=0)
    assert (report.candidates, report.grid_size) == (4096, 9)
    assert report.best_fraction == Fraction(8, 9)
    assert not report.perfect and report.witness is None


def test_search_dj1_zero_budget_witness():
    # each party answers the parity of its 2-bit string; the witness lists,
    # per party, an index into party_outputs for each input in party_inputs
    game = get_game("dj:1")
    report = impossibility_search(game, budget=0)
    assert report.perfect and report.candidates == 256 and report.grid_size == 12
    assert report.witness == {"pairing": None, "outputs": [[0, 1, 1, 0], [0, 1, 1, 0]]}
    assert verify_winning(report.witness_strategy, game, Exhaustive()).passed


def test_searches_never_call_the_win_relation():
    def refuse(x, y):
        raise AssertionError("win called")

    for gid in ("magic-square", "multi-mermin:4", "dj:1"):
        game = dataclasses.replace(get_game(gid), win=refuse)
        assert classical_value(game) == classical_value(get_game(gid))
    game = dataclasses.replace(get_game("multi-mermin:4"), win=refuse)
    assert not impossibility_search(game, budget=1).perfect


def test_search_rejects_unsuitable_games():
    with pytest.raises(SearchSpaceError):
        impossibility_search(get_game("magic-square"))
    with pytest.raises(SearchSpaceError):
        impossibility_search(get_game("chsh"), budget=2)


def test_search_report_json():
    report = impossibility_search(get_game("multi-mermin:3"), pair=(0, 1))
    blob = json.dumps(report.to_json(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["perfect"] is True
    assert parsed["best"] == {"num": 1, "den": 1}


def test_search_pair_needs_budget_one():
    with pytest.raises(AnalysisError, match="needs budget 1"):
        impossibility_search(get_game("chsh"), pair=(0, 1), budget=0)


def test_search_limit_message_states_count_and_limit():
    with pytest.raises(SearchSpaceError,
                       match="^49152 deterministic strategies exceed the limit 1000$"):
        impossibility_search(get_game("multi-mermin:3"), max_candidates=1000)
    with pytest.raises(SearchSpaceError,
                       match="^16 deterministic strategies exceed the limit 15$"):
        impossibility_search(get_game("chsh"), budget=0, max_candidates=15)
    # multi-mermin:4's six pairs, then one named pair
    with pytest.raises(SearchSpaceError,
                       match="^393216 deterministic strategies exceed the limit 1$"):
        impossibility_search(get_game("multi-mermin:4"), max_candidates=1)
    with pytest.raises(SearchSpaceError,
                       match="^65536 deterministic strategies exceed the limit 1$"):
        impossibility_search(get_game("multi-mermin:4"), pair=(1, 3), max_candidates=1)


def test_a_refused_search_lists_no_pairing():
    # multi-mermin:1000 has 499,500 party pairs: listing them before the
    # count was checked held a 32 MB peak
    game = get_game("multi-mermin:1000")
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceError,
                           match=r"^more than 2\*\*2026 deterministic strategies"):
            impossibility_search(game)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_refused_value_raises_equal_factors_at_once():
    # 300,000 parties of 4 tables each: multiplying the factors one by one
    # took 3 to 4 s
    game = get_game("multi-mermin:300000")
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError,
                       match=r"^2\*\*600000 deterministic strategies exceed"):
        classical_value(game)
    assert time.perf_counter() - start < 1.0


def _xor_game(base="chsh"):
    """base's promise with the target x0 ^ ... ^ x(n-1), which every party
    wins without boxes by answering its own input."""
    parity = lambda bits: sum(bits) % 2
    return dataclasses.replace(
        get_game(base), name="xor" if base == "chsh" else f"xor-{base}",
        win=lambda x, y: parity(b for b, in y) == parity(x),
        parity=Parity(parity, own_bit))


@pytest.mark.parametrize("game, budget", [(_xor_game(), 0),
                                          (get_game("multi-mermin:3"), 1)],
                         ids=["xor-0nlb", "multi-mermin:3-1nlb"])
def test_search_witness_is_reverified(game, budget, monkeypatch):
    verified = []
    real_verify = analysis.verify_winning

    def spy(strategy, g, policy, *args):
        verified.append((strategy.name, g.name, policy))
        return real_verify(strategy, g, policy, *args)

    monkeypatch.setattr(analysis, "verify_winning", spy)
    report = impossibility_search(game, budget=budget)
    assert report.perfect
    assert verified == [("search-witness", game.name, Exhaustive())]

    # a witness that loses somewhere is refused, not reported
    real_tables = analysis.strategy_from_tables

    def broken(g, pairing, pair_tables, other_tables):
        flipped = [tuple(1 - b for b in other_tables[0]), *other_tables[1:]]
        return real_tables(g, pairing, pair_tables, flipped)

    monkeypatch.setattr(analysis, "strategy_from_tables", broken)
    with pytest.raises(AnalysisError, match="failed re-verification"):
        impossibility_search(game, budget=budget)


# --- the search against a point-by-point brute force --------------------------------

FUNCS1 = list(itertools.product((0, 1), repeat=2))   # bit -> bit tables
FUNCS2 = list(itertools.product((0, 1), repeat=4))   # (bit, bit) -> bit


def oracle_search(game, pairings, budget):
    """Score every candidate point by point over the grid, with the first
    perfect candidate in product order as the witness."""
    n = game.n_parties
    promise = promised_inputs(game)
    targets = [game.parity.target(x) for x in promise]
    if budget == 0:
        best = -1
        found = None
        for combo in itertools.product(FUNCS1, repeat=n):
            w = 0
            for x, t in zip(promise, targets):
                par = 0
                for i in range(n):
                    par ^= combo[i][x[i]]
                if par == t:
                    w += 1
            best = max(best, w)
            if w == len(promise) and found is None:
                found = combo
        witness = found and {"pairing": None, "outputs": [list(f) for f in found]}
        return SearchReport(game.name, "0nlb", (), 4 ** n, len(promise), best,
                            found is not None, witness, None)

    grid = [(x, s, t) for x, t in zip(promise, targets) for s in (0, 1)]
    best = -1
    found = None
    for p, q in pairings:
        others = [r for r in range(n) if r not in (p, q)]
        others_masks = []
        for combo in itertools.product(FUNCS1, repeat=len(others)):
            mask = 0
            for gi, (x, _, _) in enumerate(grid):
                par = 0
                for oi, r in enumerate(others):
                    par ^= combo[oi][x[r]]
                mask |= par << gi
            others_masks.append((mask, combo))
        for gp, hp, gq, hq in itertools.product(FUNCS1, FUNCS2, FUNCS1, FUNCS2):
            cmask = 0
            for gi, (x, s, t) in enumerate(grid):
                zq = s ^ (gp[x[p]] & gq[x[q]])
                cmask |= (hp[2 * x[p] + s] ^ hq[2 * x[q] + zq] ^ t) << gi
            for omask, combo in others_masks:
                wins = len(grid) - (cmask ^ omask).bit_count()
                best = max(best, wins)
                if wins == len(grid) and found is None:
                    found = ((p, q), (gp, hp), (gq, hq), combo)
    witness = found and {"pairing": list(found[0]),
                         "box_inputs": [list(found[1][0]), list(found[2][0])],
                         "pair_outputs": [list(found[1][1]), list(found[2][1])],
                         "other_outputs": [list(f) for f in found[3]]}
    return SearchReport(game.name, "1nlb", tuple(pairings),
                        64 ** 2 * 4 ** (n - 2) * len(pairings), len(grid), best,
                        found is not None, witness, None)


def oracle_every_pairing(game) -> dict:
    """The oracle's budget-1 report per pairing, and under None the default
    search's: one oracle run over all pairings, which has the best of them
    and the witness of the first pairing that has one."""
    pairings = list(itertools.combinations(range(game.n_parties), 2))
    expected = {pair: oracle_search(game, [pair], 1) for pair in pairings}
    reports = list(expected.values())
    expected[None] = dataclasses.replace(
        reports[0], pairings=tuple(pairings),
        candidates=sum(r.candidates for r in reports),
        best_wins=max(r.best_wins for r in reports),
        perfect=any(r.perfect for r in reports),
        witness=next((r.witness for r in reports if r.perfect), None))
    return expected


ORACLE_CASES = [
    (gid, budget, None) for gid in ("chsh", "mermin", "multi-mermin:3", "multi-mermin:4",
                                    "bmaj:2", "bmaj:3", "bmaj:4", "xor")
    for budget in (0, 1)] + [("multi-mermin:5", 0, None), ("xor-bmaj:4", 0, None),
                             ("multi-mermin:5", 1, None), ("multi-mermin:6", 1, (0, 1))]


@pytest.mark.parametrize("gid, budget, only", ORACLE_CASES, ids=[
    f"{gid}-{budget}" + (f"-pair{only[0]},{only[1]}" if only else "")
    for gid, budget, only in ORACLE_CASES])
def test_search_matches_brute_force_oracle(gid, budget, only):
    # the xor games have perfect witnesses among several equal masks, so
    # they pin which candidate is first; with ``only``, the one pairing
    # searched is that pair
    game = _xor_game(gid[4:] or "chsh") if gid.startswith("xor") else get_game(gid)
    if budget == 0:
        expected = {None: oracle_search(game, None, 0)}
    elif only is not None:
        expected = {only: oracle_search(game, [only], 1)}
    else:
        expected = oracle_every_pairing(game)
    for pair, oracle in expected.items():
        report = impossibility_search(game, pair=pair, budget=budget)
        assert report.to_json() == oracle.to_json(), (gid, budget, pair)
        assert report.perfect == (report.witness_strategy is not None)


def _own_bit_game(name, target, keep=lambda x: True):
    """bmaj:3's inputs that keep accepts, won when the XOR of the three
    output bits equals target(x)."""
    promise = [x for x in promised_inputs(get_game("bmaj:3")) if keep(x)]
    return dataclasses.replace(
        get_game("bmaj:3"), name=name, promise=lambda: list(promise),
        on_promise=lambda x: x in promise,
        win=lambda x, y: sum(b for b, in y) % 2 == target(x),
        parity=Parity(target, own_bit))


@pytest.mark.parametrize("game", [
    # the best 1nlb strategy, 7/8 of the grid, has party 2 answer its input;
    # with party 2 answering a constant the best is 5/8
    _own_bit_game("and3-xor-x2", lambda x: (x[0] & x[1] & x[2]) ^ x[2]),
    # party 2's input is 0 on the whole promise, so its tables (0, 0) and
    # (0, 1) have one mask, as have (1, 0) and (1, 1): the witness names the
    # first of each
    _own_bit_game("xor-x2-is-0", lambda x: sum(x) % 2, keep=lambda x: x[2] == 0)],
    ids=lambda game: game.name)
def test_search_matches_the_oracle_on_own_bit_games(game):
    assert (impossibility_search(game, budget=0).to_json()
            == oracle_search(game, None, 0).to_json())
    for pair in itertools.combinations(range(3), 2):
        assert (impossibility_search(game, pair=pair).to_json()
                == oracle_search(game, [pair], 1).to_json()), pair


# --- pairing orbits -----------------------------------------------------------

PAIRINGS3 = [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("game", [
    _own_bit_game("and3-xor-x2", lambda x: (x[0] & x[1] & x[2]) ^ x[2]),
    _own_bit_game("xor-x2-is-0", lambda x: sum(x) % 2, keep=lambda x: x[2] == 0),
    _own_bit_game("bmaj3-without-110", bmaj, keep=lambda x: x != (1, 1, 0))],
    ids=lambda game: game.name)
def test_default_search_scores_orbit_representatives_only(game):
    # only (0 1) maps each of these games onto itself, so (1, 2) is in the
    # orbit of (0, 2) and is not scored; the default search still reports
    # what the oracle finds over every pairing
    inputs = promised_inputs(game)
    assert search.party_swaps(game, inputs) == [(0, 1)]
    assert search.pairing_orbits(game, inputs, PAIRINGS3) == [0, 1, 1]
    assert (impossibility_search(game).to_json()
            == oracle_every_pairing(game)[None].to_json())


def _answer_game(name, answer):
    """bmaj:3 with a constant target of 0 and the given parity answer."""
    return dataclasses.replace(
        _own_bit_game(name, lambda x: 0), parity=Parity(lambda x: 0, answer))


@pytest.mark.parametrize("game", [
    # the promise alone: no swap of parties keeps it without (1,0,0) and (1,1,0)
    _own_bit_game("no-100-110", lambda x: 0,
                  keep=lambda x: x not in ((1, 0, 0), (1, 1, 0))),
    # the target alone: x0 & ~x1 changes under every swap
    _own_bit_game("x0-not-x1", lambda x: x[0] & (1 ^ x[1])),
    # party_outputs alone: each party lists other outputs, and for (0 1)
    # those lists are all that tells the two parties apart
    dataclasses.replace(_own_bit_game("own-outputs", lambda x: 0),
                        party_outputs=(((0,), (1,)), ((0,),), ((1,),))),
    # the answers alone: party r's answer reads the next party's input
    _answer_game("next-input", lambda r, x, out: out[0] ^ x[(r + 1) % 3])],
    ids=lambda game: game.name)
def test_a_broken_symmetry_leaves_the_pairings_unmerged(game):
    inputs = promised_inputs(game)
    assert search.party_swaps(game, inputs) == []
    assert search.pairing_orbits(game, inputs, PAIRINGS3) == [0, 1, 2]


def test_symmetric_games_score_one_pairing():
    # counted through the parity form: the default multi-mermin:4 search
    # reads what the search of pairing (0, 1) alone reads, plus one read per
    # party, output and promised input for party_swaps; a second pairing
    # scored would read its pair's answers again
    def counted(gid, **kwargs):
        game = get_game(gid)
        target, answer = game.parity
        reads = []

        def read(r, x, out):
            reads.append(r)
            return answer(r, x, out)
        report = impossibility_search(
            dataclasses.replace(game, parity=Parity(target, read)), **kwargs)
        return report, len(reads)

    game = get_game("multi-mermin:4")
    assert search.pairing_orbits(game, promised_inputs(game),
                                 list(itertools.combinations(range(4), 2))) == [0] * 6
    report, reads = counted("multi-mermin:4")
    assert report.to_json() == impossibility_search(game).to_json()
    assert reads == counted("multi-mermin:4", pair=(0, 1))[1] + 4 * 2 * 8
    # multi-mermin:3 stops at its first pairing, so party_swaps never runs
    assert counted("multi-mermin:3")[1] == counted("multi-mermin:3", pair=(0, 1))[1]


@pytest.mark.parametrize("gid", ["chsh", "mermin", "multi-mermin:4",
                                 "multi-mermin:5", "bmaj:2", "bmaj:3", "bmaj:4"])
def test_budget_zero_best_is_the_classical_value(gid):
    # both report the best of the same budget-0 search; the independent
    # route is oracle_classical_value below
    game = get_game(gid)
    assert classical_value(game) == impossibility_search(game, budget=0).best_fraction


@pytest.mark.parametrize("n", range(3, 13))
def test_mermin_ghz_classical_value_has_its_closed_form(n):
    # the n-party Mermin-GHZ game is won classically with probability
    # 1/2 + 2^-ceil(n/2) (Brassard, Broadbent & Tapp, "Multi-party
    # pseudo-telepathy", 2003): a value from outside this code
    assert classical_value(get_game(f"multi-mermin:{n}")) \
        == Fraction(1, 2) + Fraction(1, 2 ** math.ceil(n / 2))


# --- the classical value against the generic win relation ----------------------

def oracle_classical_value(game):
    """Score every deterministic strategy on every promised input through
    game.win: one table of party_outputs per party, inputs weighted
    uniformly."""
    promise = promised_inputs(game)
    n = game.n_parties
    domains = game.party_inputs
    tables = [list(itertools.product(game.party_outputs[i], repeat=len(domains[i])))
              for i in range(n)]
    index = [{v: k for k, v in enumerate(d)} for d in domains]
    indexed = [tuple(index[i][x[i]] for i in range(n)) for x in promise]
    best = 0
    for combo in itertools.product(*tables):
        wins = sum(game.win(x, tuple(combo[i][xi[i]] for i in range(n)))
                   for x, xi in zip(promise, indexed))
        best = max(best, wins)
    return Fraction(best, len(promise))


@pytest.mark.parametrize("gid", [
    "chsh", "magic-square", "mermin", "multi-mermin:3", "multi-mermin:4",
    "multi-mermin:5", "bmaj:2", "bmaj:3", "bmaj:4", "dj:1", "xor", "xor-mermin",
    "xor-bmaj:4"])
def test_classical_value_matches_the_win_relation_oracle(gid):
    game = _xor_game(gid[4:] or "chsh") if gid.startswith("xor") else get_game(gid)
    assert classical_value(game) == oracle_classical_value(game)


# --- the set-up a sweep keeps ------------------------------------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_constant(file: str, name: str):
    """A literal constant of a benchmark file, read without importing it."""
    tree = ast.parse((BENCH / file).read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == name)


@pytest.mark.parametrize("sid", bench_constant("workloads.py", "EXACT_SWEEP_STRATEGIES"))
def test_a_second_sweep_makes_the_calls_the_tracer_counts(sid, monkeypatch):
    # the benchmark's --trace 1 counts calls of these names of analysis and
    # refuses cycles whose counts differ: the kept set-up must not skip one
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call
    for name, _ in bench_constant("tracer.py", "CHILD_CALLS"):
        monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))

    def twice(call):
        made = []
        for _ in range(2):
            counts.clear()
            call()
            made.append(dict(counts))
        return made
    sweeps = [exact_distribution, no_signaling_check,
              lambda st, gm: verify_winning(st, gm, Exhaustive())]
    if get_strategy(sid).channels:
        sweeps.remove(no_signaling_check)
    for sweep in sweeps:
        # each on a fresh pair, so that the first call builds the grid
        strategy = get_strategy(sid)
        game = get_game(strategy.game_id)
        first, second = twice(lambda: sweep(strategy, game))
        assert first == second and first["execute"] > 0
    # and the first verdict on a fresh game fills its table
    game = get_game(strategy.game_id)
    dist = exact_distribution(strategy, game)
    first, second = twice(lambda: uniformity_verdict(dist, game))
    assert first == second


def test_analyses_of_a_pair_build_one_grid_and_check_the_promise_once(monkeypatch):
    built = []
    periodic = engine.LaneGrid.periodic.__func__

    def counted_periodic(cls, *args):
        built.append(args)
        return periodic(cls, *args)
    monkeypatch.setattr(engine.LaneGrid, "periodic", classmethod(counted_periodic))
    checks = Counter()
    base = get_game("multi-mermin:4")

    def on_promise(x):
        checks[x] += 1
        return base.on_promise(x)
    game = dataclasses.replace(base, on_promise=on_promise)
    strategy = get_strategy("multi-mermin-nlb:4")
    inputs = promised_inputs(game)
    for _ in range(2):
        dist = exact_distribution(strategy, game)
        assert verify_winning(strategy, game, Exhaustive()).passed
        assert no_signaling_check(strategy, game)
    assert len(built) == 1
    assert checks == Counter(inputs)
    # the uniformity verdict checks each input's promise on its first call
    assert uniformity_verdict(dist, game) and uniformity_verdict(dist, game)
    assert checks == Counter(inputs * 2)


def test_a_replaced_win_relation_gets_its_own_verdicts():
    strategy, game = get_strategy("chsh-nlb"), get_game("chsh")
    # loses on input (1, 1) only, in bit algebra as the built-in relations
    lost = dataclasses.replace(game, win=lambda x, y: game.win(x, y) ^ (x[0] & x[1]))
    for g, wins in ((game, True), (lost, False), (game, True)):
        dist = exact_distribution(strategy, g)
        assert uniformity_verdict(dist, g) is wins
        result = verify_winning(strategy, g, Exhaustive())
        _, checked, won, counterexample = scalar_oracle(strategy, g)
        assert (result.passed, result.checked, result.wins, result.counterexample) \
            == (wins, checked, won, counterexample)
    assert counterexample is None
    assert verify_winning(strategy, lost, Exhaustive()).counterexample["input"] == [1, 1]


def test_a_changed_promise_gets_its_own_grid():
    strategy, game = get_strategy("multi-mermin-nlb:4"), get_game("multi-mermin:4")
    inputs = promised_inputs(game)
    drop = inputs[3]
    assert verify_winning(strategy, game, Exhaustive()).passed
    kept = analysis._grid(strategy, game, engine.DEFAULT_MAX_SEED_BITS)
    assert kept.promised == [True] * len(inputs)
    # right after it, a copy that lists the same inputs but puts one off its promise
    off = dataclasses.replace(game, on_promise=lambda x: x != drop)
    with pytest.raises(PromiseError, match=f"^{re.escape(str(drop))} is outside"):
        verify_winning(strategy, off, Exhaustive())
    assert analysis._grid(strategy, off, engine.DEFAULT_MAX_SEED_BITS).promised \
        == [x != drop for x in inputs]
    # a copy whose promise lists one input less
    fewer = dataclasses.replace(game, promise=lambda: [x for x in inputs if x != drop])
    result = verify_winning(strategy, fewer, Exhaustive())
    assert result.passed and result.checked == (len(inputs) - 1) * strategy.seed_count()
    grid = analysis._grid(strategy, fewer, engine.DEFAULT_MAX_SEED_BITS)
    assert grid is not kept and drop not in grid.inputs
    assert grid.promised == [True] * (len(inputs) - 1)
    assert list(exact_distribution(strategy, fewer).per_input) == grid.inputs
    # one game whose promise changes between sweeps
    listed = list(inputs)
    moving = dataclasses.replace(game, promise=lambda: list(listed))
    assert len(exact_distribution(strategy, moving).per_input) == len(inputs)
    listed.remove(drop)
    assert list(exact_distribution(strategy, moving).per_input) == listed
    assert verify_winning(strategy, game, Exhaustive()).passed


def test_uniformity_refuses_an_input_off_the_promise_on_every_call():
    strategy, game = get_strategy("chsh-nlb"), get_game("chsh")
    dist = exact_distribution(strategy, game)
    off = dataclasses.replace(game, on_promise=lambda x: x != (1, 0))
    for _ in range(2):
        with pytest.raises(PromiseError, match=r"^\(1, 0\) is outside"):
            uniformity_verdict(dist, off)
    assert uniformity_verdict(dist, game)


# --- resources and wiring ---------------------------------------------------------

def test_resource_count_examples():
    assert resource_count(get_strategy("multi-mermin-nlb:5")) == (10, 0)
    assert resource_count(get_strategy("dj-nlb:3")) == (12, 0)
    assert resource_count(get_strategy("ms-comm")) == (0, 1)


def test_resource_count_is_the_declaration(monkeypatch):
    calls = []
    real = engine.execute

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "execute", counting)
    monkeypatch.setattr(engine, "execute", counting)
    for base, (_, param) in STRATEGY_FAMILIES.items():
        strategy = get_strategy(base if param is None else f"{base}:3")
        assert resource_count(strategy) == (len(strategy.nlbs),
                                            len(strategy.channels))
    assert calls == []


def test_winning_wirings_leave_at_most_one_party_isolated():
    for sid in ["multi-mermin-nlb:3", "multi-mermin-nlb:4", "multi-mermin-nlb:5",
                "bmaj-nlb:2", "bmaj-nlb:3", "bmaj-nlb:4", "bmaj-nlb:5",
                "mermin-nlb"]:
        strategy = get_strategy(sid)
        ends = {p for x in strategy.nlbs for p in (x.port0_party, x.port1_party)}
        assert len(set(range(strategy.n_parties)) - ends) <= 1, sid


def test_malformed_requests_are_analysis_errors():
    for k in (0, -3):
        with pytest.raises(AnalysisError):
            Sample(k, 1)
    game = get_game("multi-mermin:4")
    for pair in ((0, 4), (-1, 2), (1, 1)):
        with pytest.raises(AnalysisError):
            impossibility_search(game, pair=pair)


# --- refusals that no other test reaches --------------------------------------

@pytest.mark.parametrize("analyse", [
    lambda game: exact_distribution(get_strategy("chsh-nlb"), game),
    lambda game: verify_winning(get_strategy("chsh-nlb"), game, Exhaustive()),
    lambda game: no_signaling_check(get_strategy("chsh-nlb"), game),
    classical_value,
    impossibility_search,
], ids=["exact_distribution", "verify_winning", "no_signaling_check",
        "classical_value", "impossibility_search"])
def test_a_promise_of_no_input_is_refused_by_name(analyse):
    game = dataclasses.replace(get_game("chsh"), promise=lambda: [],
                               on_promise=lambda x: False)
    with pytest.raises(GameError, match="^chsh promises no input$"):
        analyse(game)


def test_verify_refuses_an_unknown_seed_policy():
    with pytest.raises(AnalysisError, match="^unknown seed policy 'exhaustive'$"):
        verify_winning(get_strategy("chsh-nlb"), get_game("chsh"), "exhaustive")


@pytest.mark.parametrize("outcome", [((0,), (2,)), ((0, 0), (1,)), ((1,),)])
def test_uniformity_verdict_is_false_on_an_outcome_outside_the_space(outcome):
    game = get_game("chsh")
    dist = exact_distribution(get_strategy("chsh-nlb"), game)
    per_input = dict(dist.per_input)
    x = next(iter(per_input))
    per_input[x] = {**per_input[x], outcome: Fraction(0)}
    synthetic = analysis.ExactDistribution("synthetic", "chsh", 2, per_input)
    assert uniformity_verdict(dist, game) is True
    assert uniformity_verdict(synthetic, game) is False
