import itertools
import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlbox.engine import Choice, EnumerationLimitError, Lane, bit_mask, seed_lanes
from nlbox.games import (DJ_MAX_PROMISE, GameError, PromiseError, bmaj, get_game,
                         hamming, is_winning, outcome_index, outcome_lanes,
                         outcome_space, promised_inputs, winning_outcomes)


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
        a, b = g3.sample_input(rng)
        assert g3.on_promise((b, a))


def test_dj_lists_per_party_outputs_only_with_per_party_inputs():
    # dj:2 can be searched (and refused as no parity game); dj:n for n >= 3
    # has no per-party inputs, so its 2^n outputs would serve nothing
    assert get_game("dj:2").party_outputs == (
        tuple(itertools.product((0, 1), repeat=2)),) * 2
    for n in (4, 10):
        game = get_game(f"dj:{n}")
        assert game.party_inputs is None and game.party_outputs is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dj_promise_is_listed_within_its_cap(n):
    # 2^L (1 + C(L, L/2)) pairs for L = 2^n: each string with itself and
    # with every string at distance L/2
    g = get_game(f"dj:{n}")
    length = 2 ** n
    pairs = promised_inputs(g)
    assert len(pairs) == len(set(pairs)) == \
        2 ** length * (1 + math.comb(length, length // 2))
    assert all(g.on_promise(x) for x in pairs)
    assert g.party_inputs == (tuple(itertools.product((0, 1), repeat=length)),) * 2
    assert g.party_outputs == (tuple(itertools.product((0, 1), repeat=n)),) * 2
    assert len(pairs) <= DJ_MAX_PROMISE
    assert 2 ** 16 * (1 + math.comb(16, 8)) > DJ_MAX_PROMISE      # dj:4's


def test_dj4_promise_needs_sampling():
    g = get_game("dj:4")
    with pytest.raises(EnumerationLimitError, match=r"^dj:4 promise has 843513856 pairs"):
        promised_inputs(g)
    rng = random.Random(99)
    draws = [g.sample_input(rng) for _ in range(200)]
    classes = {hamming(a, b) for a, b in draws}
    assert all(g.on_promise(x) for x in draws)
    assert classes == {0, 8}, "both promise classes must be exercised"


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


# per family: a promised input, an outcome of the right arity, inputs off
# the promise, and outcomes of the wrong arity. An entry is a bit when it is
# `in (0, 1)`, so False, True and 1.0 are bits, and 2, -1 and None are not.
# None and 5, which are no sequences, are off every promise
ARITY_CASES = {
    "chsh": ((1, 0), ((0,), (1,)),
             [(0, 2), (0, -1), (None, 0), (0, 0, 0), (0,), (), None, 5],
             [((0,),), ((0,), (1,), (0,)), ((0, 1), (1,)), ((0,), ()), (),
              ((0, 0), 5)]),
    "magic-square": ((2, 3), ((0, 1, 1), (0, 0, 1)),
                     [(0, 1), (4, 1), (1, 2, 3), (1,), (None, 1), None, 5],
                     [((0, 1, 1),), ((0, 1), (0, 0, 1)), ((0, 1, 1), (0, 0, 1, 0))]),
    "mermin": ((1, 1, 0), ((0,), (1,), (1,)),
               [(1, 0, 0), (1, 1, 1), (2, 0, 0), (1, 1), (1, 1, 0, 0), None, 5],
               [((0,), (1,)), ((0,), (1,), (1, 0)), ((), (1,), (1,))]),
    "multi-mermin:4": ((1, 1, 1, 1), ((0,),) * 4,
                       [(1, 0, 0, 0), (2, 0, 0, 0), (-1, 1, 0, 0), (1, 1),
                        (0, 0, 0, 0, 0), None, 5],
                       [((0,),) * 3, ((0,),) * 5, ((0,), (0,), (0,), (0, 0))]),
    "dj:1": (((0, 1), (1, 1)), ((0,), (1,)),
             [(("a", "b"), ("a", "b")), ((2, 0), (2, 0)), ((0, -1), (1, -1)),
              ((0, 1), (2, 1)), ((0, 1), (1, 0)), None, 5, ((0, 1), 5), (5, (0, 1))],
             [((0,),), ((0, 1), (1,))]),
    "dj:2": (((0, 1, 1, 0), (1, 1, 0, 0)), ((0, 1), (1, 1)),
             [((0, 0, 0, 0), (1, 1, 1, 0)), ((0, 0, 0, 0), (1, 1, 1, 1)),
              ((0, 0, 0), (0, 0, 0)), ((0, 0, 0, 0),),
              ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
              ((2, 0, 0, 0), (2, 0, 0, 0)), ((None, 0, 0, 1), (None, 0, 1, 0)),
              ((0, 0, 1, 1), (0, 0, None, 0)), None, 5, ((0, 0, 0, 0), 5)],
             [((0, 1),), ((0, 1), (1,)), ((0, 1, 0), (1, 1))]),
    "bmaj:3": ((1, 0, 1), ((1,),) * 3,
               [(1, 0, 2), (1, None, 1), (1, 0), (1, 0, 1, 1), (0.5, 0, 1), None, 5],
               [((1,),) * 2, ((1,), (1,), (1, 1)), ((1,),) * 4]),
}


@pytest.mark.parametrize("gid", sorted(ARITY_CASES))
def test_is_winning_rejects_off_promise_inputs_and_wrong_arity(gid):
    g = get_game(gid)
    x, outcome, off_promise, wrong_arity = ARITY_CASES[gid]
    assert is_winning(g, x, outcome) in (True, False)
    for bad in off_promise:
        with pytest.raises(PromiseError):
            is_winning(g, bad, outcome)
    for bad in wrong_arity:
        with pytest.raises(GameError) as raised:
            is_winning(g, x, bad)
        assert type(raised.value) is GameError
    # the promise is checked before the arity
    with pytest.raises(PromiseError):
        is_winning(g, off_promise[0], wrong_arity[0])


@pytest.mark.parametrize("gid,x,outcome,message", [
    # a 2 in a one-bit game's output is no bit, whatever the relation makes of it
    ("chsh", (0, 0), ((2,), (0,)), "holds 2, which is not a bit"),
    ("chsh", (0, 0), ((0,), (1.5,)), "holds 1.5"),
    ("chsh", (0, 0), ((0,), (None,)), "holds None"),
    ("chsh", (0, 0), ((0,), (-1,)), "holds -1"),
    ("chsh", (0, 0), ((True,), (0,)), "holds True"),
    ("chsh", (0, 0), ((0,), (1.0,)), "holds 1.0"),
    ("chsh", (0, 0), ((0,), "1"), "holds '1'"),
    ("magic-square", (1, 2), ((0, 1, 1), (0, 2, 1)), "holds 2"),
    # a part with no length, or an outcome with none, is an arity mismatch
    ("chsh", (0, 0), ((0,), 5), "^outcome arity does not match chsh$"),
    ("chsh", (0, 0), 5, "^outcome arity does not match chsh$"),
    ("mermin", (1, 1, 0), ((0,), None, (1,)), "^outcome arity does not match mermin$"),
])
def test_is_winning_refuses_non_bit_outcomes(gid, x, outcome, message):
    with pytest.raises(GameError, match=message) as raised:
        is_winning(get_game(gid), x, outcome)
    assert type(raised.value) is GameError


def _aliased(x, alias):
    """x with each bit replaced by its alias, at any depth of tuples."""
    return tuple(_aliased(v, alias) for v in x) if type(x) is tuple else alias[x]


@pytest.mark.parametrize("gid", ["chsh", "mermin", "multi-mermin:4", "bmaj:3",
                                 "magic-square", "dj:1"])
def test_bools_and_float_bits_stay_on_the_promise(gid):
    # an input's aliases get its verdict on every outcome; magic square's
    # row and column are not bits, so its aliases are 2.0 and True (for 1)
    g = get_game(gid)
    x, _, _, _ = ARITY_CASES[gid]
    if gid == "magic-square":
        pairs = [((2.0, 3), (2, 3)), ((True, 3), (1, 3)), ((3, 1.0), (3, 1))]
    else:
        pairs = [(_aliased(x, alias), x)
                 for alias in ({0: False, 1: True}, {0: 0.0, 1: 1.0})]
    if gid == "dj:1":
        # a string given as a list is the same string given as a tuple
        pairs += [(((0, 1), [0, 1]), ((0, 1), (0, 1))), (([0, 1], (1, 1)), x)]
    for same, plain in pairs:
        assert g.on_promise(same)
        for outcome in outcome_space(g):
            assert is_winning(g, same, outcome) == is_winning(g, plain, outcome)
        assert winning_outcomes(g, same) == winning_outcomes(g, plain)


@pytest.mark.parametrize("gid,x,on", [
    ("multi-mermin:4", [1, 1, 0, 0], True), ("multi-mermin:4", [1, 0, 0, 0], False),
    ("bmaj:3", [1, 0, 1], True), ("bmaj:3", "101", False),
    ("dj:1", ([0, 1], [1, 1]), True), ("dj:1", ((0, 1), [0, 0]), True),
    ("dj:1", ("01", "11"), False), ("dj:1", ((0, 1), "01"), False),
    ("dj:2", ("0110", "1100"), False),
])
def test_promise_bits_come_in_tuples_or_lists(gid, x, on):
    # a list holds bits as a tuple does; a str never does, and is refused
    # without raising
    assert get_game(gid).on_promise(x) is on


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


@pytest.mark.parametrize("gid", ["chsh", "magic-square", "mermin", "multi-mermin:3",
                                 "multi-mermin:4", "multi-mermin:7", "dj:1", "dj:2",
                                 "dj:3", "dj:4", "bmaj:2", "bmaj:3", "bmaj:6"])
def test_win_on_outcome_lanes_matches_winning_outcomes(gid):
    # one call of the win relation on lanes over the whole outcome space:
    # bit k of its result says whether the k-th outcome wins
    g = get_game(gid)
    space = list(outcome_space(g))
    full = (1 << len(space)) - 1
    if gid in ("dj:3", "dj:4"):
        rng = random.Random(gid)
        inputs = [g.sample_input(rng) for _ in range(16)]
    else:
        inputs = promised_inputs(g)
    for x in inputs:
        won = g.win(x, outcome_lanes(g))
        assert type(won) is Lane and won.full == full
        assert {o for k, o in enumerate(space) if won.mask >> k & 1} == \
            winning_outcomes(g, x)
        assert type(is_winning(g, x, space[0])) is bool
    assert [outcome_index(g, o) for o in space] == list(range(len(space)))
    part = space[-1][0]
    assert outcome_index(g, space[-1][1:]) is None
    assert outcome_index(g, ((*part[:-1], 2), *space[-1][1:])) is None
    assert outcome_index(g, ((*part, 0), *space[-1][1:])) is None


def stated_win(gid, x, y):
    """The win relation as the games state it, through sum and ==, on
    plain bits, on the promise or off it: the XOR of the output bits equals
    floor(w/2) mod 2 of the input weight w (multi-mermin) or 2w > n (bmaj,
    chsh); for dj, the outputs are equal iff the inputs are."""
    if gid.startswith("dj"):
        return (x[0] == x[1]) == (y[0] == y[1])
    w, n = sum(x), len(x)
    target = w // 2 % 2 if "mermin" in gid else int(2 * w > n)
    return sum(b for (b,) in y) % 2 == target


@pytest.mark.parametrize("gid", [f"multi-mermin:{n}" for n in range(3, 13)]
                         + [f"bmaj:{n}" for n in range(2, 7)] + ["chsh", "dj:1", "dj:2"])
def test_win_on_input_lanes_matches_scalar_calls(gid):
    # every bit tuple of the input's shape, off the promise too, as one block:
    # bit k of each input lane is that input bit of the k-th tuple in
    # itertools.product order, with the first bit also held constant as an
    # int, as engine._on_block gives a bit that is the same on a block. Each
    # point is checked against stated_win, independent of the relation's code
    g = get_game(gid)
    length = 2 ** int(gid[3:]) if gid.startswith("dj") else None
    n_bits = 2 * length if length else g.n_parties
    rng = random.Random(gid)
    for first in (None, 0, 1):
        free = n_bits - (first is not None)
        leaves = ([] if first is None else [first]) + list(seed_lanes(free))
        points = [((first,) if first is not None else ()) + bits
                  for bits in itertools.product((0, 1), repeat=free)]
        full = (1 << len(points)) - 1

        def shaped(bits):
            return (tuple(bits[:length]), tuple(bits[length:])) if length else tuple(bits)

        masks = [[rng.getrandbits(len(points)) for _ in range(w)]
                 for w in g.output_lengths]
        lanes = tuple(tuple(Lane(m, full) for m in part) for part in masks)
        fixed = tuple(tuple(rng.randrange(2) for _ in range(w)) for w in g.output_lengths)
        won, won_fixed = g.win(shaped(leaves), lanes), g.win(shaped(leaves), fixed)
        # a lane, or the int 0 or 1 where the result is the same on every
        # point (a lane with an int operand collapses to the constant)
        assert type(won) is Lane and all(type(v) in (int, Lane) for v in (won, won_fixed))
        won, won_fixed = bit_mask(won, full), bit_mask(won_fixed, full)
        for k, bits in enumerate(points):
            y = tuple(tuple(m >> k & 1 for m in part) for part in masks)
            assert won >> k & 1 == stated_win(gid, shaped(bits), y), (k, bits, y)
            assert won_fixed >> k & 1 == stated_win(gid, shaped(bits), fixed), k


def test_magic_square_win_on_choice_inputs_matches_scalar_calls():
    # all 9 x 64 (input, outcome) pairs as one block, point 64 i + k being
    # input i under the k-th outcome: the input as two Choices (as
    # LaneGrid.periodic lays it out), the outcome as lanes; and the same
    # outcomes under the inputs of one row, whose row is the plain int
    g = get_game("magic-square")
    inputs, space = promised_inputs(g), list(outcome_space(g))
    for rows in ((1, 2, 3), (2,)):
        points = [(x, y) for x in inputs if x[0] in rows for y in space]
        full = (1 << len(points)) - 1

        def leaf(r):
            masks = {}
            for k, (x, _) in enumerate(points):
                masks[x[r]] = masks.get(x[r], 0) | 1 << k
            return Choice(masks, full) if len(masks) > 1 else x[r]

        lanes = iter(seed_lanes(6, len(points) // 64))
        y = tuple(tuple(next(lanes) for _ in range(3)) for _ in range(2))
        won = bit_mask(g.win((leaf(0), leaf(1)), y), full)
        # the rule stated on plain values: an even row and an odd column
        # that agree on the cell they share
        want = [sum(o[0]) % 2 == 0 and sum(o[1]) % 2 == 1 and o[0][x[1] - 1] == o[1][x[0] - 1]
                for x, o in points]
        assert want == [is_winning(g, x, o) for x, o in points]
        assert [won >> k & 1 for k in range(len(points))] == want


def test_outcome_lanes_keep_the_outcome_limit():
    with pytest.raises(EnumerationLimitError, match="multi-mermin:21 has 2097152"):
        outcome_lanes(get_game("multi-mermin:21"))


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
        assert bmaj(x) == mermin.parity.target(x)


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


PARITY_GAMES = ["chsh", "magic-square", "mermin", "multi-mermin:3",
                "multi-mermin:4", "multi-mermin:6", "bmaj:2", "bmaj:3", "bmaj:5",
                "dj:1"]


def test_which_games_have_a_parity_form():
    ids = ["chsh", "magic-square", "mermin", "multi-mermin:3", "multi-mermin:7",
           "bmaj:2", "bmaj:6", "dj:1", "dj:2", "dj:3"]
    assert [gid for gid in ids if get_game(gid).parity is None] == ["dj:2", "dj:3"]


@pytest.mark.parametrize("gid", PARITY_GAMES)
def test_win_is_the_parity_form(gid):
    # over the outputs a search enumerates: for magic square, party_outputs
    # holds only rows and columns of the right parity
    game = get_game(gid)
    target, answer = game.parity
    for x in promised_inputs(game):
        for y in itertools.product(*game.party_outputs):
            par = 0
            for r, out in enumerate(y):
                par ^= answer(r, x, out)
            assert game.win(x, y) == (par == target(x)), (x, y)


@pytest.mark.parametrize("family", ["multi-mermin", "bmaj"])
def test_samplers_draw_the_promise_entry_by_index(family):
    # one getrandbits(1) per free bit, n - 1 of them for multi-mermin (its
    # last bit is their parity) and n for bmaj; read first bit highest, they
    # are the index of the promise entry drawn
    for n in range(3, 11):
        game = get_game(f"{family}:{n}")
        inputs = promised_inputs(game)
        free = n - 1 if family == "multi-mermin" else n
        for seed in range(20):
            ours, listed = random.Random(seed), random.Random(seed)
            for _ in range(5):
                index = 0
                for _ in range(free):
                    index = index << 1 | listed.getrandbits(1)
                assert game.sample_input(ours) == inputs[index]
            assert ours.getrandbits(32) == listed.getrandbits(32)


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_dj_sampler_keeps_the_randrange_stream(n):
    # the one-point chunk: one getrandbits(1) per bit of the string a, then
    # one for the class coin, then, where it is 1, the flipped positions
    game, length = get_game(f"dj:{n}"), 2 ** n
    for seed in range(30):
        ours, theirs = random.Random(seed), random.Random(seed)
        a = tuple(theirs.getrandbits(1) for _ in range(length))
        if theirs.getrandbits(1):
            flips = set(theirs.sample(range(length), length // 2))
            want = (a, tuple(bit ^ (i in flips) for i, bit in enumerate(a)))
        else:
            want = (a, a)
        assert game.sample_input(ours) == want
        assert ours.getrandbits(32) == theirs.getrandbits(32)


def test_lazy_promise_is_a_fresh_list_each_call():
    for gid, size in (("bmaj:3", 8), ("dj:2", 112)):
        game = get_game(gid)
        first = promised_inputs(game)
        first.clear()
        assert len(promised_inputs(game)) == size


def test_large_games_build_no_promise_until_asked():
    for gid in ("multi-mermin:40", "bmaj:40"):
        start = time.perf_counter()
        game = get_game(gid)
        x = game.sample_input(random.Random(1))
        assert time.perf_counter() - start < 0.1, gid
        assert len(x) == 40 and game.on_promise(x)


def test_bmaj_builds_no_majority_formula():
    # the relation adds up the weight: no formula of C(n, n // 2 + 1) terms
    # is built with the game, or when its relation runs
    start = time.perf_counter()
    game = get_game("bmaj:99999")
    x = (1,) * 50000 + (0,) * 49999
    assert is_winning(game, x, ((0,),) * 99998 + ((1,),))
    assert not is_winning(game, x[1:] + (0,), ((0,),) * 99998 + ((1,),))
    assert time.perf_counter() - start < 1
