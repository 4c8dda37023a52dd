import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlbox.engine import EnumerationLimitError
from nlbox.games import (GameError, PromiseError, bmaj, get_game, hamming,
                         is_winning, outcome_space, promised_inputs,
                         sample_promised_input, winning_outcomes)


def test_mermin_promise():
    assert promised_inputs(get_game("mermin")) == [
        (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_multi_mermin_promise_sizes():
    for n in (3, 4, 5, 6):
        inputs = promised_inputs(get_game(f"multi-mermin:{n}"))
        assert len(inputs) == 2 ** (n - 1)
        assert all(sum(x) % 2 == 0 for x in inputs)


def test_dj2_promise_against_direct_enumeration():
    inputs = promised_inputs(get_game("dj:2"))
    assert len(inputs) == 112
    # independent count: all 4-bit pairs at Hamming distance 0 or 2
    strings = list(itertools.product((0, 1), repeat=4))
    direct = {(a, b) for a in strings for b in strings
              if hamming(a, b) in (0, 2)}
    assert set(inputs) == direct


def test_dj_promise_symmetric():
    g = get_game("dj:2")
    for a, b in promised_inputs(g):
        assert g.on_promise((b, a))
    g3 = get_game("dj:3")
    rng = random.Random(5)
    for _ in range(100):
        a, b = sample_promised_input(g3, rng)
        assert g3.on_promise((b, a))


def test_dj3_promise_needs_sampling():
    g = get_game("dj:3")
    with pytest.raises(EnumerationLimitError):
        promised_inputs(g)
    rng = random.Random(99)
    draws = [sample_promised_input(g, rng) for _ in range(200)]
    classes = {hamming(a, b) for a, b in draws}
    assert all(g.on_promise(x) for x in draws)
    assert classes == {0, 4}, "both promise classes must be exercised"


def test_magic_square_examples():
    g = get_game("magic-square")
    assert is_winning(g, (1, 1), ((0, 1, 1), (0, 1, 0)))
    assert not is_winning(g, (3, 3), ((0, 1, 1), (1, 0, 0)))
    # invalid parities lose regardless of the intersection
    assert not is_winning(g, (1, 1), ((1, 1, 1), (0, 1, 0)))
    assert not is_winning(g, (1, 1), ((0, 1, 1), (0, 1, 1)))


def test_mermin_winning_examples():
    g = get_game("mermin")
    assert is_winning(g, (0, 0, 0), ((0,), (0,), (0,)))
    assert not is_winning(g, (1, 1, 0), ((0,), (0,), (0,)))
    with pytest.raises(PromiseError):
        is_winning(g, (1, 0, 0), ((0,), (0,), (0,)))
    with pytest.raises(GameError):
        is_winning(g, (0, 0, 0), ((0, 0), (0,), (0,)))


def test_winning_outcome_counts_input_independent():
    g = get_game("magic-square")
    for x in promised_inputs(g):
        assert len(winning_outcomes(g, x)) == 8
    g = get_game("mermin")
    for x in promised_inputs(g):
        assert len(winning_outcomes(g, x)) == 4
    for n in (3, 4, 5, 6):
        g = get_game(f"multi-mermin:{n}")
        for x in promised_inputs(g):
            assert len(winning_outcomes(g, x)) == 2 ** (n - 1)
    g = get_game("chsh")
    for x in promised_inputs(g):
        assert len(winning_outcomes(g, x)) == 2


@pytest.mark.parametrize("gid", ["chsh", "magic-square", "mermin", "multi-mermin:3",
                                 "multi-mermin:4", "multi-mermin:5", "dj:2",
                                 "bmaj:2", "bmaj:3", "bmaj:4"])
def test_winning_outcomes_filter_the_outcome_space(gid):
    g = get_game(gid)
    for x in promised_inputs(g):
        assert winning_outcomes(g, x) == \
            {o for o in outcome_space(g) if is_winning(g, x, o)}
    off_promise = {"magic-square": (0, 1), "dj:2": ((0,) * 4, (1,) * 4)}
    with pytest.raises(PromiseError):
        winning_outcomes(g, off_promise.get(gid, (2,) * g.n_parties))


def test_dj_winning_outcomes():
    g = get_game("dj:2")
    equal = (((0, 1, 1, 0),) * 2)
    assert len(winning_outcomes(g, equal)) == 4
    distant = ((0, 0, 0, 0), (1, 1, 0, 0))
    assert len(winning_outcomes(g, distant)) == 12


def test_bmaj_examples():
    assert bmaj((1, 1)) == 1
    assert bmaj((1, 1, 0)) == 1
    assert bmaj((1, 0, 0, 0)) == 0
    with pytest.raises(ValueError):
        bmaj((1,))


def test_bmaj_two_bits_is_and():
    for x in itertools.product((0, 1), repeat=2):
        assert bmaj(x) == (x[0] & x[1])


def test_bmaj_three_bits_matches_mermin_target_on_promise():
    mermin = get_game("mermin")
    for x in promised_inputs(mermin):
        assert bmaj(x) == mermin.parity_target(x)


@given(st.integers(2, 7), st.data())
def test_bmaj_is_strict_majority(n, data):
    x = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    assert bmaj(x) == (1 if 2 * sum(x) > n else 0)


def test_registry():
    assert get_game("multi-mermin:5").n_parties == 5
    assert get_game("bmaj:2").name == "bmaj:2"
    with pytest.raises(GameError):
        get_game("nope")
    with pytest.raises(GameError):
        get_game("chsh:3")
    with pytest.raises(GameError):
        get_game("multi-mermin")
    with pytest.raises(GameError):
        get_game("multi-mermin:2")
    with pytest.raises(GameError):
        get_game("dj:x")
