import dataclasses
import gc
import itertools
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from nlbox import analysis, engine
from nlbox.analysis import (AnalysisError, CommunicationUsedError, Exhaustive,
                            Sample, SearchReport, SearchSpaceError,
                            classical_value, exact_distribution,
                            impossibility_search, no_signaling_check,
                            resource_count,
                            strategy_from_tables, uniformity_verdict,
                            verify_winning)
from nlbox.engine import EnumerationLimitError, Seed, execute
from nlbox.games import (GameError, Parity, PromiseError, get_game, is_winning,
                         own_bit, promised_inputs, sample_promised_input,
                         winning_outcomes)
from nlbox.strategies import STRATEGY_FAMILIES, get_strategy
from test_lanes import CHANNEL, CUSTOM, NO_COMM_ENUMERABLE


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

def point_seed(strategy, s):
    """Seed s of enumerate_seeds' order."""
    return next(itertools.islice(engine.enumerate_seeds(strategy), s, None))


def oracle_tally_verify(strategy, game):
    """Exhaustive verify decided on the joint tally: is_winning once per
    distinct (input, outcome); the counterexample is the lowest seed of the
    first losing outcome, at the first input that has one."""
    checked = wins = 0
    counterexample = None
    for x, tally in analysis._tally(strategy, game, engine.DEFAULT_MAX_SEED_BITS):
        for outcome, (count, seed) in tally.items():
            checked += count
            if is_winning(game, x, outcome):
                wins += count
            elif counterexample is None:
                counterexample = {"input": analysis._jsonable(x),
                                  "seed": point_seed(strategy, seed).to_json(),
                                  "outcome": [list(p) for p in outcome]}
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


# --- sampled verification against the per-draw loop ------------------------------

def oracle_sampled_verify(strategy, game, k, rng_seed):
    """Draw input i, then seed i (one randrange(2) per box, then the shared
    index), for i = 0..k-1, with one scalar execute and one win check per
    draw; the first losing draw is the counterexample."""
    rng = random.Random(rng_seed)
    wins = 0
    counterexample = None
    for _ in range(k):
        x = sample_promised_input(game, rng)
        seed = Seed(tuple(rng.randrange(2) for _ in strategy.nlbs),
                    rng.randrange(len(strategy.shared_domain)))
        outcome, _ = execute(strategy, x, seed, record=False)
        if is_winning(game, x, outcome):
            wins += 1
        elif counterexample is None:
            counterexample = {"input": analysis._jsonable(x), "seed": seed.to_json(),
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
    # input and is decided by one call of the win relation, on its lanes
    strategy, game = get_strategy("ms-nlb-sim"), get_game("magic-square")
    k, rng_seed = 500, 3
    grid = engine.LaneGrid.drawn(strategy, lambda rng: sample_promised_input(game, rng),
                                 random.Random(rng_seed), k)
    pieces = list(analysis._pieces(strategy, grid))
    assert sum(block.bit_count() for _, _, block, _ in pieces) == k
    assert len(pieces) < k // 10
    monkeypatch.setattr(analysis, "is_winning", None)
    calls = []

    def relation(x, y):
        calls.append(x)
        return game.win(x, y)

    result = verify_winning(strategy, dataclasses.replace(game, win=relation),
                            Sample(k, rng_seed))
    assert result == oracle_sampled_verify(strategy, game, k, rng_seed)
    assert len(calls) == len(pieces)


@pytest.mark.parametrize("sid,gid", LOSING + [("split-loser", "chsh")])
def test_sampled_losing_pairings_find_counterexamples(sid, gid):
    strategy, game = _sampled_case(sid, gid)
    results = [verify_winning(strategy, game, Sample(16, s)) for s in range(20)]
    assert sum(r.counterexample is not None for r in results) >= 10


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
    counts, the form analysis.marginals_non_signaling compares."""
    total = dist.seed_count
    return [[{o: int(p * total) for o, p in dist.marginal(x, r).items()}
             for x in dist.per_input] for r in range(n_parties)]


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
    inputs, counts = list(dist.per_input), seed_count_marginals(dist, 3)
    assert analysis.marginals_non_signaling(inputs, counts) is not signals
    assert oracle_marginals_non_signaling(dist, 3) is not signals
    # parties 0 and 1 never signal: the check of them alone passes
    assert analysis.marginals_non_signaling(inputs, counts[:2]) is True


def test_marginal_logic_detects_signaling():
    # box-only strategies cannot signal structurally, so exercise the
    # marginal comparison on handmade seed counts: party 1 announces party
    # 0's input
    from nlbox.analysis import marginals_non_signaling
    inputs = list(itertools.product((0, 1), repeat=2))
    honest = [[{(0,): 1}] * 4, [{(0,): 1}] * 4]
    signaling = [[{(0,): 1}] * 4, [{(0,): 1}, {(0,): 1}, {(1,): 1}, {(1,): 1}]]
    assert marginals_non_signaling(inputs, honest)
    assert not marginals_non_signaling(inputs, signaling)
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
    assert marginals_non_signaling(inputs, uneven)
    uneven[0][1] = {(0,): 2}
    assert not marginals_non_signaling(inputs, uneven)


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
        pairings = list(itertools.combinations(range(game.n_parties), 2))
        expected = {pair: oracle_search(game, [pair], 1) for pair in pairings}
        # the default search is one oracle run over all pairings: the best
        # of them, and the witness of the first pairing that has one
        reports = list(expected.values())
        expected[None] = dataclasses.replace(
            reports[0], pairings=tuple(pairings),
            candidates=sum(r.candidates for r in reports),
            best_wins=max(r.best_wins for r in reports),
            perfect=any(r.perfect for r in reports),
            witness=next((r.witness for r in reports if r.perfect), None))
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
