"""The lane (bit-sliced) sweep against the scalar engine.

The scalar oracle runs ``execute`` once per (input, seed) in
``enumerate_seeds`` order; every exhaustive result of ``analysis`` must
match it exactly, including the order in which outcomes first appear and
the seed of the first counterexample.
"""

import dataclasses
import itertools
import json
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nlbox import analysis
from nlbox.analysis import (Exhaustive, exact_distribution, impossibility_search,
                            strategy_from_tables, verify_winning)
from nlbox.engine import (Action, Channel, Choice, Lane, LaneBranch, LaneGrid, LaneSeed,
                          MalformedActionError, NlbInstance, NonBitError,
                          PartyProgram, Seed,
                          SharedDomain, Strategy, TRIVIAL_SHARED,
                          UnusedResourceError, _on_block, bit_domain, bit_mask,
                          enumerate_seeds, equal_bits, execute, seed_lanes)
from nlbox.games import get_game, indicators, is_winning, promised_inputs, select
from nlbox.strategies import REF_ALICE, REF_BOB0, REF_BOB1, REF_QUADRUPLE, get_strategy

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
CHANNEL = [
    ("ms-comm", "magic-square"),
    ("ms-comm-sim", "magic-square"),
    ("mermin-comm", "mermin"),
    ("mermin-comm-sim", "mermin"),
    ("nlb-via-comm", "chsh"),
]
# built-ins whose programs only use ^ & | on box outputs
BRANCH_FREE = ["chsh-nlb", "mermin-nlb", "mermin-nlb-sim", "multi-mermin-nlb:3",
               "multi-mermin-nlb:4", "multi-mermin-nlb:5", "multi-mermin-nlb:6",
               "dj-nlb:2", "bmaj-nlb:2"]
# the scalar oracle of this one costs ~10^6 executes; it is checked seed by
# seed on a sample instead
SAMPLED_ORACLE = {"multi-mermin-nlb:6"}


def seed_at(n_nlbs: int, index: int, shared_index: int) -> Seed:
    """The index-th seed of one shared index in enumerate_seeds' order."""
    return Seed(tuple((index >> (n_nlbs - 1 - j)) & 1 for j in range(n_nlbs)),
                shared_index)


def scalar_oracle(strategy, game):
    """(per_input, checked, wins, counterexample) from one execute per
    (input, seed)."""
    per_input = {}
    checked = wins = 0
    counterexample = None
    total = strategy.seed_count()
    for x in promised_inputs(game):
        counts = Counter()
        for seed in enumerate_seeds(strategy):
            outcome, _ = execute(strategy, x, seed, record=False)
            counts[outcome] += 1
            checked += 1
            if is_winning(game, x, outcome):
                wins += 1
            elif counterexample is None:
                counterexample = {"input": analysis._jsonable(x),
                                  "seed": seed.to_json(),
                                  "outcome": [list(p) for p in outcome]}
        per_input[x] = {o: Fraction(c, total) for o, c in counts.items()}
    return per_input, checked, wins, counterexample


def search_witness():
    return impossibility_search(get_game("multi-mermin:3")).witness_strategy


def losing_witness():
    """A search-witness-shaped strategy for multi-mermin:3 that loses on some
    seeds only, so the fallback has a counterexample to find."""
    game = get_game("multi-mermin:3")
    return strategy_from_tables(game, (1, 2), (((0, 1), (0, 1, 1, 0)),
                                               ((1, 1), (0, 0, 1, 1))),
                                ((1, 0),))


def late_branch():
    """Branches on the shared bit in every run, and on a box output only for
    shared value 1 and input bit 1, so blocks split at different depths."""
    boxes = (NlbInstance("a", 0, 1), NlbInstance("b", 0, 1))

    def feed(view):
        return Action(nlb_inputs={"a": view.own_input, "b": 1})

    def answer(view):
        z = view.nlb["a"] ^ view.nlb["b"]
        if view.shared[0] and view.own_input:
            z = 1 if view.nlb["a"] else 0
        return Action(output=(z,))

    prog = PartyProgram((feed, answer))
    return Strategy(name="late-branch", n_parties=2, programs=(prog, prog),
                    nlbs=boxes, shared_domain=bit_domain(1), game_id="chsh")


def _two_box_chsh(name, answer, shared_domain=TRIVIAL_SHARED):
    """Both parties feed their input into boxes a and b, then answer."""
    boxes = (NlbInstance("a", 0, 1), NlbInstance("b", 0, 1))

    def feed(view):
        return Action(nlb_inputs={"a": view.own_input, "b": view.own_input})

    prog = PartyProgram((feed, lambda view: Action(output=(answer(view),))))
    return Strategy(name=name, n_parties=2, programs=(prog, prog), nlbs=boxes,
                    shared_domain=shared_domain, game_id="chsh")


FLIP = (1, 0)


def table_index():
    """Looks its answer up in a table by box a's output: splits on the
    index. Within each half the index is a lane equal to box a's bit on
    every seed (a ^ b ^ b), which indexes like that bit."""
    return _two_box_chsh(
        "table-index",
        lambda v: FLIP[v.nlb["a"] ^ v.nlb["b"] ^ v.nlb["b"]] ^ v.nlb["b"] ^ 1)


def nested_branch():
    """Branches on box a, and within a's 1-half on box b: nested splits."""
    def answer(view):
        za, zb = view.nlb["a"], view.nlb["b"]
        if za:
            return 0 if zb else 1
        return zb ^ view.party
    return _two_box_chsh("nested-branch", answer)


def _shared_sum(values):
    # sum() is arithmetic, which no lane allows: only plain values run it
    return _two_box_chsh(
        "shared-sum", lambda v: v.nlb["a"] ^ (sum(v.shared) & v.party),
        SharedDomain("mixed", values))


def split_then_arithmetic():
    """Splits on box b, then adds box outputs in b's 1-half, which runs
    seed by seed after the 0-half ran on lanes: the sweep must put the
    half's seeds in order with the lane run's outcomes."""
    def answer(view):
        za, zb = view.nlb["a"], view.nlb["b"]
        if zb:
            return (za + zb + view.party) % 2
        return za ^ view.party
    return _two_box_chsh("split-then-arithmetic", answer)


def ragged_domain():
    """Shared values of different shapes: one block per shared index."""
    return _shared_sum(((0,), (1, 0), (1, 1, 1)))


def non_bit_domain():
    """Shared values holding a non-bit int: one block per shared index."""
    return _shared_sum(((0, 2), (1, 0), (1, 1)))


def bool_domain():
    """Shared values holding bools, which are not bits: one block per
    shared index."""
    return _shared_sum(((False, True), (True, True), (True, False)))


def split_loser():
    """Loses only where box a's free bit is 1 and box b's is 0, so the first
    counterexample is seed 2: the lowest seed of the block that splitting
    on box a leaves without seed 0."""
    def answer(view):
        za, zb = view.nlb["a"], view.nlb["b"]
        z = (zb if za else za) if view.party == 0 else za
        return z ^ view.shared[0]
    return _two_box_chsh("split-loser", answer, bit_domain(1))


def split_loser_late():
    """Splits on box b, whose 0-half runs first, and loses where the free
    bits of boxes a and b differ: seed 2 in the 0-half, then the lower seed
    1 in the 1-half. The counterexample is seed 1, which comes second."""
    return _two_box_chsh(
        "split-loser-late",
        lambda v: (1 if v.nlb["b"] else 0) if v.party == 0 else v.nlb["a"])


def input_branch():
    """Branches on its own input, a lane over the whole grid: the block
    splits by input, and each half runs on box lanes."""
    return _two_box_chsh(
        "input-branch",
        lambda v: v.nlb["a"] if v.own_input else v.nlb["a"] ^ v.nlb["b"] ^ v.nlb["b"])


def input_compare():
    """Compares its own input with ==, which no lane allows: the grid block
    reruns as one block per input, each still on box lanes."""
    return _two_box_chsh("input-compare",
                         lambda v: v.nlb["a"] ^ (1 if v.own_input == 1 else 0) ^ 1)


def later_input_loser():
    """Loses only on input (1, 0) under shared value 1: box b's outputs XOR
    to x0 & (1 - x1), and each party adds its b output where the shared bit
    is 1. The first counterexample is seed 4 of the grid block's third
    input."""
    boxes = (NlbInstance("a", 0, 1), NlbInstance("b", 0, 1))

    def feed(view):
        bit = view.own_input if view.party == 0 else 1 ^ view.own_input
        return Action(nlb_inputs={"a": view.own_input, "b": bit})

    def answer(view):
        return Action(output=(view.nlb["a"] ^ (view.nlb["b"] & view.shared[0]),))

    prog = PartyProgram((feed, answer))
    return Strategy(name="later-input-loser", n_parties=2, programs=(prog, prog),
                    nlbs=boxes, shared_domain=bit_domain(1), game_id="chsh")


def branching_ms(sid):
    """A copy of ms-nlb or ms-nlb-sim whose answers pick their matrix with a
    conditional expression on the box output (q.a1 if view.nlb["pick"] else
    q.a0), as those built-ins once did: every input's block splits once on
    the box, where the built-ins select bit by bit and never split."""
    def pick(view):
        return view.shared if sid == "ms-nlb-sim" else REF_QUADRUPLE

    def feed(view):
        return Action(nlb_inputs={"pick": 1 if view.own_input == 3 else 0})

    def alice_answer(view):
        q = pick(view)
        a = q.a1 if view.nlb["pick"] else q.a0
        return Action(output=a[view.own_input - 1])

    def bob_answer(view):
        q = pick(view)
        b = q.b1 if view.nlb["pick"] else q.b0
        return Action(output=tuple(b[i][view.own_input - 1] for i in range(3)))

    return dataclasses.replace(
        get_strategy(sid), name=f"{sid}-branching",
        programs=(PartyProgram((feed, alice_answer)), PartyProgram((feed, bob_answer))))


CASES = ([(sid, gid) for sid, gid in NO_COMM_ENUMERABLE + CHANNEL
          if sid not in SAMPLED_ORACLE]
         + [("multi-mermin-nlb:4", "bmaj:4"), ("search-witness", "multi-mermin:3"),
            ("losing-witness", "multi-mermin:3"), ("late-branch", "chsh"),
            ("table-index", "chsh"), ("nested-branch", "chsh"),
            ("split-then-arithmetic", "chsh"), ("ragged-domain", "chsh"),
            ("non-bit-domain", "chsh"), ("bool-domain", "chsh"),
            ("split-loser", "chsh"), ("split-loser-late", "chsh"),
            ("input-branch", "chsh"),
            ("input-compare", "chsh"), ("later-input-loser", "chsh"),
            ("ms-nlb-branching", "magic-square"),
            ("ms-nlb-sim-branching", "magic-square")])
CUSTOM = {"search-witness": search_witness, "losing-witness": losing_witness,
          "late-branch": late_branch, "table-index": table_index,
          "nested-branch": nested_branch,
          "split-then-arithmetic": split_then_arithmetic,
          "ragged-domain": ragged_domain, "non-bit-domain": non_bit_domain,
          "bool-domain": bool_domain, "split-loser": split_loser,
          "split-loser-late": split_loser_late,
          "input-branch": input_branch, "input-compare": input_compare,
          "later-input-loser": later_input_loser,
          "ms-nlb-branching": lambda: branching_ms("ms-nlb"),
          "ms-nlb-sim-branching": lambda: branching_ms("ms-nlb-sim")}


def build(sid):
    return CUSTOM[sid]() if sid in CUSTOM else get_strategy(sid)


@pytest.mark.parametrize("sid,gid", CASES)
def test_lane_sweep_matches_scalar_oracle(sid, gid):
    strategy, game = build(sid), get_game(gid)
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    dist = exact_distribution(strategy, game)
    assert dist.per_input == per_input
    result = verify_winning(strategy, game, Exhaustive())
    assert (result.checked, result.wins, result.counterexample) == \
        (checked, wins, counterexample)


def _raised(call):
    """The type and text of the exception call raises, or None."""
    try:
        call()
    except Exception as error:
        return type(error), str(error)


@pytest.mark.parametrize("sid,gid", [("chsh-nlb", "magic-square"),
                                     ("nlb-via-comm", "magic-square"),
                                     ("dj-nlb:1", "magic-square"),
                                     ("ms-nlb", "dj:1"), ("ms-comm-sim", "chsh"),
                                     ("ms-nlb-sim", "bmaj:2")])
def test_a_builtin_off_its_game_matches_the_scalar_oracle(sid, gid):
    # a Choice fed as a bit, iterated, or compared past 1, 2 and 3 narrows
    # its grid, so an error names the plain value of the first point that
    # raises it, and magic-square programs index a bit input as x - 1 does
    strategy, game = get_strategy(sid), get_game(gid)
    total, per_input = strategy.seed_count(), {}

    def tally():
        for x in promised_inputs(game):
            counts = Counter(execute(strategy, x, seed, record=False)[0]
                             for seed in enumerate_seeds(strategy))
            per_input[x] = {o: Fraction(n, total) for o, n in counts.items()}

    want = _raised(tally)
    assert _raised(lambda: exact_distribution(strategy, game)) == want
    if want is None:
        assert exact_distribution(strategy, game).per_input == per_input
        # the outcomes have the wrong arity for the game
        assert _raised(lambda: verify_winning(strategy, game, Exhaustive())) == \
            _raised(lambda: scalar_oracle(strategy, game))


def test_losing_cases_have_counterexamples():
    for sid, gid in (("multi-mermin-nlb:4", "bmaj:4"),
                     ("losing-witness", "multi-mermin:3"),
                     ("split-loser", "chsh")):
        result = verify_winning(build(sid), get_game(gid), Exhaustive())
        assert 0 < result.wins < result.checked
        assert result.counterexample is not None
    # free bits (a, b) = (1, 0) under shared value 0: seed 2, in the block
    # where box a's free bit is 1, whose lowest seed it is
    result = verify_winning(split_loser(), get_game("chsh"), Exhaustive())
    assert result.counterexample["seed"] == {"nlb_bits": [1, 0], "shared_index": 0}
    result = verify_winning(split_loser_late(), get_game("chsh"), Exhaustive())
    assert result.counterexample["seed"] == {"nlb_bits": [0, 1], "shared_index": 0}
    # all four chsh inputs are one block; the losing points are seeds 4 to 7
    # of its third input
    result = verify_winning(later_input_loser(), get_game("chsh"), Exhaustive())
    assert (result.checked, result.wins) == (32, 28)
    assert result.counterexample == {
        "input": [1, 0], "seed": {"nlb_bits": [0, 0], "shared_index": 1},
        "outcome": [[0], [1]]}


@pytest.mark.parametrize("sid", ["ragged-domain", "non-bit-domain", "bool-domain"])
def test_unshaped_domains_keep_one_block_per_shared_index(sid, execute_calls):
    strategy = build(sid)
    grid = LaneGrid.periodic(strategy, promised_inputs(get_game("chsh")),
                             analysis.SWEEP_WIDTH)
    blocks = [(offset, block) for offset, block, _, _ in grid.start]
    assert blocks == [(0, 0b1111), (4, 0b1111), (8, 0b1111)]
    exact_distribution(strategy, get_game("chsh"))
    first = execute_calls[:3]
    assert [(seed.offset, seed.block) for seed in first] == blocks
    assert [seed.shared for seed in first] == list(strategy.shared_domain.values)


MS_INPUTS = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]


def drawn_inputs(game, rng, m):
    """The m inputs of one sampled-verify chunk, as each family draws them,
    told by the game's name. chsh and bmaj:n: one getrandbits(m) per input
    bit, bit i for draw i; mermin and multi-mermin:n the same for their
    first n - 1 bits, the last being their parity. dj:n: one getrandbits(m)
    per bit of the string a, one for the class coins, then, draw by draw,
    one sample of half the positions for each draw whose coin is 1, which b
    flips. magic-square: one randrange(9) per draw, an index into its
    inputs."""
    base, _, param = game.name.partition(":")
    if base == "magic-square":
        return [MS_INPUTS[rng.randrange(9)] for _ in range(m)]
    if base == "dj":
        length = 2 ** int(param)
        columns = [rng.getrandbits(m) for _ in range(length)]
        coins = rng.getrandbits(m)
        inputs = []
        for i in range(m):
            a = tuple(column >> i & 1 for column in columns)
            flips = set(rng.sample(range(length), length // 2)) if coins >> i & 1 else ()
            inputs.append((a, tuple(bit ^ (j in flips) for j, bit in enumerate(a))))
        return inputs
    n = {"chsh": 2, "mermin": 3}.get(base) or int(param)
    parity = base in ("mermin", "multi-mermin")
    columns = [rng.getrandbits(m) for _ in range(n - parity)]
    inputs = [tuple(column >> i & 1 for column in columns) for i in range(m)]
    return [x + (sum(x) % 2,) for x in inputs] if parity else inputs


def drawn_points(strategy, game, rng, m):
    """The m draws of one sampled-verify chunk as (input, Seed): the m
    inputs (drawn_inputs), then one getrandbits(m) per box, whose bit i is
    draw i's free bit, then, where the shared domain has several values,
    one randrange over it per draw."""
    n_shared = len(strategy.shared_domain)
    inputs = drawn_inputs(game, rng, m)
    boxes = [rng.getrandbits(m) for _ in strategy.nlbs]
    shared = [rng.randrange(n_shared) if n_shared > 1 else 0 for _ in range(m)]
    return [(x, Seed(tuple([bits >> i & 1 for bits in boxes]), shared[i]))
            for i, x in enumerate(inputs)]


def at_point(value, i):
    """A lane-valued input or shared value at bit i of its block."""
    if isinstance(value, Lane):
        return value.mask >> i & 1
    if type(value) is Choice:
        (v,) = [v for v, mask in value.masks.items() if mask >> i & 1]
        return v
    if type(value) is tuple:
        return tuple(at_point(v, i) for v in value)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: at_point(getattr(value, f.name), i)
                                             for f in dataclasses.fields(value)})
    return value


FILL_CASES = [("chsh-nlb", "chsh"), ("mermin-nlb-sim", "mermin"),
              ("ms-nlb-sim", "magic-square"), ("dj-nlb:2", "dj:2"),
              ("ragged-domain", "chsh"), ("non-bit-domain", "chsh")]


@pytest.mark.parametrize("fill", ["periodic", "drawn"])
@pytest.mark.parametrize("sid,gid", FILL_CASES)
def test_grid_fills_match_their_definitions(sid, gid, fill):
    strategy, game = build(sid), get_game(gid)
    nb, size = len(strategy.nlbs), strategy.seed_count()
    if fill == "periodic":
        # three inputs to a group where inputs are bits: dj:2's 112 end
        # mid-group
        inputs = promised_inputs(game)
        grid = LaneGrid.periodic(strategy, inputs, 3 * size)
        points = [(inputs[k // size], seed_at(nb, k % (1 << nb), k % size >> nb))
                  for k in range(len(inputs) * size)]
    else:
        grid = LaneGrid.drawn(strategy, game, random.Random(sid), 40)
        points = drawn_points(strategy, game, random.Random(sid), 40)
    for k, point in enumerate(points):
        assert grid.run(k, 1) == point
    if grid.narrows:
        # a grid whose input holds a Choice: every group of its layout, then
        # one split narrows it to one input per group, whose first input's
        # block the split's group gives way to and start now holds; then
        # every group of the narrowed layout
        assert _check_groups(grid, points, strategy) == len(grid.inputs) // 3
        offset, block = grid.start[0][:2]
        cover = 0
        for start, part, _, _ in grid.split(offset, block, None):
            cover |= part << start
        assert (grid.width, grid.input_shape, grid.narrows) == (grid.size, None, False)
        assert cover == (1 << grid.size) - 1
        assert [run[:2] for run in grid.start] == [(0, (1 << grid.size) - 1)]
        assert _check_groups(grid, points, strategy) == len(grid.inputs)
    else:
        _check_groups(grid, points, strategy)


def _form(bit):
    """A free bit as its type and value, a lane by its mask and block."""
    return (Lane, bit.mask, bit.full) if type(bit) is Lane else (type(bit), bit)


@pytest.mark.parametrize("k", [1, 2, 3, 37])
@pytest.mark.parametrize("sid", ["chsh-nlb", "bmaj-nlb:4", "dj-nlb:2", "mermin-nlb-sim"])
def test_a_drawn_grid_seeds_each_block_as_on_block_cuts_it(sid, k):
    # the whole chunk's free bits are built in one pass when it is drawn,
    # while a split's blocks and single points cut them from the drawn
    # masks: box by box, every seed holds what _on_block gives, 0 or 1
    # where the box's lane is constant on the block (often, at k = 1 and 2)
    strategy = build(sid)
    game = get_game(strategy.game_id)
    whole = (1 << k) - 1
    for rng_seed in range(8):
        grid = LaneGrid.drawn(strategy, game, random.Random(rng_seed), k)
        blocks = [(0, whole)] + [(i, 1) for i in range(k)]
        # two splits in halves: alternate points, and the low half first
        for mask in (0x5555555555 & whole, (1 << k // 2) - 1) if k > 1 else ():
            runs = grid.split(0, whole, mask)
            assert len(runs) == 2
            blocks += [run[:2] for run in runs]
        for offset, block in blocks:
            seed = grid.seed(offset, block)
            assert list(map(_form, seed.nlb_bits)) == \
                [_form(_on_block(m >> offset, block)) for m in grid.nlb_masks]
            if block == 1:
                assert seed.nlb_bits == tuple(m >> offset & 1 for m in grid.nlb_masks)


def _check_groups(grid, points, strategy) -> int:
    """The start partition, in every group of grid's layout: each block's
    lanes hold its points, and the input windows cover it; on a grid that
    does not narrow, a split without a mask leaves one input per block.
    Returns the number of groups."""
    groups = range(0, len(points), grid.width)
    for base in groups:
        for offset, block, _, _ in grid.start:
            offset += base
            if offset >= len(points):
                continue
            block &= (1 << len(points) - offset) - 1
            if block == 1:
                continue        # run(k, 1), checked above
            x, seed = grid.run(offset, block)
            assert (seed.offset, seed.block) == (offset - base, block)
            for i in range(block.bit_length()):
                if block >> i & 1:
                    assert (at_point(x, i), [at_point(b, i) for b in seed.nlb_bits],
                            at_point(seed.shared, i)) == \
                        (points[offset + i][0], list(points[offset + i][1].nlb_bits),
                         strategy.shared_domain.values[points[offset + i][1].shared_index])
            # the block, and its first two inputs, through the input windows;
            # a block of inputs that are not bit-shaped holds one input value
            # (over several draws in the drawn fill) and is its own window
            for whole in (block, block & ((1 << 2 * grid.size - offset % grid.size) - 1)):
                if grid.input_shape is None:
                    assert grid.windows(offset, whole) == [(offset // grid.size, whole)]
                    assert {points[offset + i][0] for i in range(whole.bit_length())
                            if whole >> i & 1} == {grid.inputs[offset // grid.size]}
                    continue
                cover = 0
                for i, window in grid.windows(offset, whole):
                    # the window holds input i's points, in the block's coordinates
                    assert {s for s in range(window.bit_length()) if window >> s & 1} == \
                        {k - offset for k in range(i * grid.size, (i + 1) * grid.size)
                         if k >= offset}
                    assert cover & window == 0
                    cover |= whole & window
                assert cover == whole
            if grid.narrows:
                continue        # its first split narrows it (see the caller)
            cover = 0
            for start, part, x, seed in grid.split(offset, block, None):
                if grid.input_shape is None:
                    # that one input value's block runs point by point
                    assert (start, part, x, seed) == (offset, block, None, None)
                else:
                    assert (start + part.bit_length() - 1) // grid.size == start // grid.size
                cover |= part << start
            assert cover == block << offset
    return len(groups)


@pytest.mark.parametrize("sid", sorted(SAMPLED_ORACLE))
def test_lane_sweep_matches_scalar_seed_by_seed(sid):
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    nb = len(strategy.nlbs)
    rng = random.Random(sid)
    inputs = promised_inputs(game)
    size = strategy.seed_count()
    runs = list(analysis._runs(strategy, LaneGrid.periodic(strategy, inputs,
                                                           analysis.SWEEP_WIDTH)))
    # the runs' blocks partition the (input x seed) grid
    union = 0
    for offset, block, _ in runs:
        assert union & block << offset == 0
        union |= block << offset
    assert union == (1 << len(inputs) * size) - 1
    for k, x in enumerate(inputs):
        for s in range(len(strategy.shared_domain)):
            for i in rng.sample(range(1 << nb), 32):
                point = k * size + (s << nb | i)
                want, _ = execute(strategy, x, seed_at(nb, i, s), record=False)
                # each output bit read off its mask
                got = [tuple(tuple(m >> point - offset & 1 for m in part)
                             for part in parts)
                       for offset, block, parts in runs
                       if offset <= point and block >> point - offset & 1]
                assert got == [want]
    result = verify_winning(strategy, game, Exhaustive())
    assert result.passed and result.checked == len(inputs) << nb


@pytest.fixture
def execute_calls(monkeypatch):
    """Counts every call of the executor the sweep uses, raising or not."""
    calls = []
    real = analysis.execute

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "execute", counting)
    return calls


@pytest.mark.parametrize("sid", BRANCH_FREE)
def test_branch_free_builtins_take_the_lane_path(sid, execute_calls):
    # one run over the whole (input x seed) grid: the inputs are lanes too,
    # and so is mermin-nlb-sim's shared flip bit. multi-mermin-nlb:6 has
    # 2**15 seeds per input, more than SWEEP_WIDTH, so each of its 32 blocks
    # holds one input
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    exact_distribution(strategy, game)
    inputs = 1 if sid == "multi-mermin-nlb:6" else len(promised_inputs(game))
    assert len(execute_calls) == len(promised_inputs(game)) // inputs
    whole = (1 << inputs * strategy.seed_count()) - 1
    assert all(type(seed) is LaneSeed and (seed.offset, seed.block) == (0, whole)
               for seed in execute_calls)
    assert all(isinstance(seed.nlb_bits[0], Lane) for seed in execute_calls)


# (runs, lane runs) of a first sweep, then of a second sweep of the kept
# grid. Magic-square inputs are Choices on a fresh grid, so all nine inputs
# are one block: the branching copies of ms-nlb and ms-nlb-sim compare their
# input with == there, which a Choice refuses, and that narrows the grid to
# one input per block (LaneGrid.split),
# and then make one run on the first input's seeds and one run per half
# (ms-nlb's halves are single seeds) for every input; a second sweep starts
# from the narrowed grid. The search witness's inputs are bits, and its grid
# block holds all four: the block splits on each pair party's input (it
# indexes a table with it), 1 + 2 runs; each of the four one-input blocks then
# fails on arithmetic with its box output and runs seed by seed, 4 + 4 * 2
SPLIT_ONCE = {"ms-nlb-branching": ((1 + 1 + 9 * 2, 2), (1 + 9 * 2, 1)),
              "ms-nlb-sim-branching": ((1 + 1 + 9 * 2, 20), (1 + 9 * 2, 19)),
              "search-witness": ((1 + 2 + 4 + 4 * 2, 7), (1 + 2 + 4 + 4 * 2, 7))}


@pytest.mark.parametrize("sid,gid", [("ms-nlb-branching", "magic-square"),
                                     ("ms-nlb-sim-branching", "magic-square"),
                                     ("search-witness", "multi-mermin:3")])
def test_branching_programs_split_once(sid, gid, execute_calls):
    strategy, game = build(sid), get_game(gid)
    execute_calls.clear()      # building the search witness re-verifies it
    exact_distribution(strategy, game)
    (runs, lane_runs), (again, lane_again) = SPLIT_ONCE[sid]
    assert len(execute_calls) == runs
    assert type(execute_calls[0]) is LaneSeed
    assert (execute_calls[0].offset, execute_calls[0].block) == \
        (0, (1 << len(promised_inputs(game)) * strategy.seed_count()) - 1)
    assert sum(type(seed) is LaneSeed for seed in execute_calls) == lane_runs
    execute_calls.clear()
    exact_distribution(strategy, game)
    assert len(execute_calls) == again
    assert sum(type(seed) is LaneSeed for seed in execute_calls) == lane_again


def test_input_compare_reruns_the_grid_block_per_input(execute_calls):
    # == on the input lane raises LaneBranch without a mask: the grid block
    # reruns as one block per input, which compares plain ints and stays on
    # box lanes, instead of going point by point
    strategy = input_compare()
    exact_distribution(strategy, get_game("chsh"))
    assert [(seed.offset, seed.block) for seed in execute_calls] == \
        [(0, 0xffff), (0, 0xf), (4, 0xf), (8, 0xf), (12, 0xf)]
    assert all(isinstance(seed.nlb_bits[0], Lane) for seed in execute_calls)


WIDTH_CASES = [("dj-nlb:2", "dj:2"), ("multi-mermin-nlb:4", "bmaj:4"),
               ("mermin-nlb-sim", "mermin"), ("search-witness", "multi-mermin:3"),
               ("late-branch", "chsh"), ("split-loser", "chsh"),
               ("input-branch", "chsh"), ("input-compare", "chsh"),
               ("later-input-loser", "chsh")]


@pytest.mark.parametrize("sid,gid", WIDTH_CASES)
def test_results_do_not_depend_on_the_block_width(sid, gid, monkeypatch):
    # widths below one input's seeds give one input per block; three inputs
    # per block end the last block mid-promise, since no promise here is a
    # multiple of three, and later blocks start from a cut partition
    strategy, game = build(sid), get_game(gid)
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    size = strategy.seed_count()
    assert len(promised_inputs(game)) % 3
    for width in (max(1, size // 2), size, 3 * size):
        monkeypatch.setattr(analysis, "SWEEP_WIDTH", width)
        dist = exact_distribution(strategy, game)
        assert dist.per_input == per_input
        result = verify_winning(strategy, game, Exhaustive())
        assert (result.checked, result.wins, result.counterexample) == \
            (checked, wins, counterexample)


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_runs_table():
    """(strategy cell, seeds, inputs, runs, seed-by-seed runs) per row of
    README's "Runs per exact distribution" table."""
    text = README.read_text().split("Runs per exact distribution", 1)[1]
    rows = []
    for line in text.split("\n\n", 2)[1].splitlines()[2:]:
        cell, size, runs = (c.strip() for c in line.strip("|").split("|"))
        seeds, inputs = (int(v.replace(",", "")) for v in size.split(" x "))
        m = re.fullmatch(r"([\d,]+) \(([\d,]+)\)", runs)
        rows.append((cell, seeds, inputs, int(m[1].replace(",", "")),
                     int(m[2].replace(",", ""))))
    return rows


def readme_row_strategies(cell):
    """(strategy, game) per id a row names; "`g` search witness" is the
    witness impossibility_search finds for game g."""
    ids = re.findall(r"`([^`]+)`", cell)
    if cell.endswith("search witness"):
        game = get_game(ids[0])
        return [(impossibility_search(game).witness_strategy, game)]
    return [(s, get_game(s.game_id)) for s in map(get_strategy, ids)]


def test_readme_runs_table_has_rows():
    assert len(readme_runs_table()) >= 7


@pytest.mark.parametrize("row", readme_runs_table(), ids=lambda row: row[0])
def test_readme_runs_table_matches_counted_executes(row, execute_calls):
    cell, seeds, inputs, runs, scalar_runs = row
    for strategy, game in readme_row_strategies(cell):
        execute_calls.clear()      # building the search witness re-verifies it
        exact_distribution(strategy, game)
        assert (strategy.seed_count(), len(promised_inputs(game))) == (seeds, inputs)
        assert len(execute_calls) == runs
        assert seeds * inputs == scalar_runs


@pytest.mark.parametrize("sid,gid", [("split-then-arithmetic", "chsh"),
                                     ("ms-nlb", "magic-square"),
                                     ("ms-nlb-branching", "magic-square"),
                                     ("dj-nlb:2", "dj:2")])
def test_exhaustive_verify_runs_the_win_relation_once_per_piece(sid, gid, monkeypatch):
    # is_winning is for single outcomes: the sweep calls the game's win
    # relation once on each run that spans several inputs, on its input and
    # outcome lanes, and once on each piece of one input of the other runs;
    # where the relation does arithmetic on lanes, each piece falls back to
    # one call per distinct outcome. A first sweep narrows the branching
    # copy's grid, whose inputs are then not lane-shaped
    strategy, game = build(sid), get_game(gid)
    exact_distribution(strategy, game)
    grid = analysis._grid(strategy, game, analysis.DEFAULT_MAX_SEED_BITS)
    assert (grid.input_shape is None) is (sid == "ms-nlb-branching")
    # each run's pieces, its points at one input (LaneGrid.windows), with
    # the run's masks; a run of several pieces spans several inputs
    runs = [[(block & window, parts) for _, window in grid.windows(offset, block)
             if block & window]
            for offset, block, parts in analysis._runs(strategy, grid)]

    def laned(block, parts):
        return any(m & block not in (0, block) for part in parts for m in part)

    def has_lane(value):
        return type(value) in (Lane, Choice) or type(value) is tuple and any(map(has_lane, value))

    monkeypatch.setattr(analysis, "is_winning", None)
    calls = []

    def counted(win):
        def relation(x, y):
            calls.append((has_lane(x), has_lane(y)))
            return win(x, y)
        return dataclasses.replace(game, win=relation)

    result = verify_winning(strategy, counted(game.win), Exhaustive())
    assert result == verify_winning(strategy, game, Exhaustive())
    # one call per run over several inputs, with input lanes, and one per
    # piece of the other runs, with outcome lanes where the piece has any
    want = []
    for pieces in runs:
        if len(pieces) > 1:
            want.append((True, True))
        else:
            want += [(False, laned(block, parts)) for block, parts in pieces]
    assert sorted(calls) == sorted(want)
    # ms-nlb's nine inputs are one run, on Choice input lanes, and so are
    # dj-nlb:2's 112 inputs; the narrowed grid runs each input apart
    assert any(len(pieces) > 1 for pieces in runs) is (sid != "ms-nlb-branching")
    assert (len(calls) == 1) is (sid in ("ms-nlb", "dj-nlb:2"))

    # 0 + lane raises LaneBranch: a run over several inputs falls back to its
    # pieces, and each laned piece to its distinct outcomes
    calls.clear()
    assert verify_winning(strategy, counted(lambda x, y: 0 + game.win(x, y)),
                          Exhaustive()) == result
    want = [(True, True) for pieces in runs if len(pieces) > 1]
    for pieces in runs:
        for block, parts in pieces:
            if laned(block, parts):
                want += [(False, True)] + [(False, False)] * len(
                    analysis._split_outcome(block, parts))
            else:
                want.append((False, False))
    assert sorted(calls) == sorted(want)


def many_box_split_then_arithmetic(n_boxes):
    """split_then_arithmetic with n_boxes - 2 more boxes fed and left unread:
    b's 1-half, 2^(n_boxes - 1) seeds, runs seed by seed."""
    base = split_then_arithmetic()
    nlbs = base.nlbs + tuple(NlbInstance(f"z{k}", 0, 1) for k in range(n_boxes - 2))

    def feed(view):
        return Action(nlb_inputs={box.id: view.own_input for box in nlbs})

    prog = PartyProgram((feed, base.programs[0].rounds[1]))
    return dataclasses.replace(base, name="many-box-split", programs=(prog, prog),
                               nlbs=nlbs)


def test_fallback_half_keeps_no_per_seed_list():
    # 14 boxes: 8,192 scalar runs per input in b's 1-half. One input is
    # enough, since the sweep finishes an input before it starts the next;
    # a list of one entry per fallback seed, outcome tuples included, peaks
    # at about 5 MB here
    strategy = many_box_split_then_arithmetic(14)
    game = dataclasses.replace(get_game("chsh"), promise=lambda: [(1, 1)])
    tracemalloc.start()
    try:
        result = verify_winning(strategy, game, Exhaustive())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.checked == 1 << 14
    assert peak < 1 << 20


def test_late_branch_resumes_where_the_lanes_stopped(execute_calls, monkeypatch):
    # blocks of one input (8 seeds) each, so each input starts from the
    # partition the previous one ended with
    monkeypatch.setattr(analysis, "SWEEP_WIDTH", 8)
    strategy, game = late_branch(), get_game("chsh")
    exact_distribution(strategy, game)
    # (0,0): the whole space splits on the shared bit, 1 + 2 runs; (0,1):
    # the shared-1 half splits on box a, 2 + 2 runs; (1,0) and (1,1) start
    # from the three blocks (0,1) ended with
    assert len(execute_calls) == 3 + 4 + 3 + 3
    assert all(type(seed) is LaneSeed for seed in execute_calls)
    assert sorted((seed.offset, seed.block) for seed in execute_calls[-3:]) == \
        [(0, 0b1111), (4, 0b11), (6, 0b11)]


def test_lane_nested_in_an_output_is_rejected(execute_calls):
    # an output element is 0, 1 or a lane, on either path; the lane run
    # stops, so that the first point's own run names its plain value
    box = NlbInstance("box", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def answer(view):
        return Action(output=(view.nlb["box"], (view.nlb["box"],)))

    prog = PartyProgram((feed, answer))
    strategy = Strategy(name="nested", n_parties=2, programs=(prog, prog),
                        nlbs=(box,), game_id="chsh")
    for seed in enumerate_seeds(strategy):
        with pytest.raises(NonBitError):
            execute(strategy, (0, 0), seed)
    want = _raised(lambda: execute(strategy, (0, 0), Seed((0,))))
    assert want == (NonBitError, "party 0 output (0,), which is not a bit")
    execute_calls.clear()
    assert _raised(lambda: exact_distribution(strategy, get_game("chsh"))) == want
    assert isinstance(execute_calls[0].nlb_bits[0], Lane)
    assert execute_calls[-1] == Seed((0,), 0)


@pytest.mark.parametrize("container", ["dict", "set", "iter", "generator"])
def test_outputs_other_than_tuples_and_lists_are_rejected(container, execute_calls):
    # lanes inside an iterator reach the output check on the lane path; a
    # dict or set hashes its lanes, so those runs fall back seed by seed
    box = NlbInstance("box", 0, 1)
    wrap = {"dict": lambda z: {z: 1}, "set": lambda z: {z},
            "iter": lambda z: iter([z]), "generator": lambda z: (v for v in (z,))}

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def answer(view):
        return Action(output=wrap[container](view.nlb["box"]))

    prog = PartyProgram((feed, answer))
    strategy = Strategy(name="container", n_parties=2, programs=(prog, prog),
                        nlbs=(box,), game_id="chsh")
    with pytest.raises(NonBitError, match="not a tuple or list"):
        exact_distribution(strategy, get_game("chsh"))
    assert type(execute_calls[0]) is LaneSeed


def _chsh_nlb_with(feed=None, answer=None):
    """chsh-nlb with its feed or answer round replaced."""
    strategy = get_strategy("chsh-nlb")
    rounds = strategy.programs[0].rounds
    prog = PartyProgram((feed or rounds[0], answer or rounds[1]))
    return dataclasses.replace(strategy, programs=(prog, prog))


def test_an_int_method_on_a_lane_runs_input_by_input(execute_calls):
    # a lane refuses int's attributes as it refuses operators, so the run
    # over all four inputs stops and each input runs on its own, its input
    # a plain int as in the scalar engine
    strategy = _chsh_nlb_with(answer=lambda v: Action(
        output=(v.nlb["box"] ^ (v.own_input.bit_length() & 1),)))
    game = get_game("chsh")
    assert execute(strategy, (1, 1), Seed((0,)))[0] == ((1,), (0,))
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    execute_calls.clear()
    assert exact_distribution(strategy, game).per_input == per_input
    assert [(seed.offset, seed.block) for seed in execute_calls] == \
        [(0, 0xff), (0, 0b11), (2, 0b11), (4, 0b11), (6, 0b11)]
    assert verify_winning(strategy, game, Exhaustive()) == analysis.VerifyResult(
        counterexample is None, "exhaustive", checked, wins, counterexample)
    lane = Lane(0b10, 0b11)
    assert (lane.mask, lane.full) == (0b10, 0b11)
    for name in ("bit_length", "bit_count", "to_bytes", "real", "numerator"):
        with pytest.raises(LaneBranch, match=f"applied {name} to a lane") as stop:
            getattr(lane, name)
        assert stop.value.mask is None


@pytest.mark.parametrize("feed,answer,message", [
    (None, lambda v: Action(output=v.nlb["box"]),
     "party 0 output 0, which is not a tuple or list of bits"),
    (None, lambda v: Action(output=((v.nlb["box"],),)),
     "party 0 output (0,), which is not a bit"),
    (None, lambda v: Action(output=([{"z": v.nlb["box"]}],)),
     "party 0 output [{'z': 0}], which is not a bit"),
    (lambda v: Action(nlb_inputs={"box": (v.own_input,)}), None,
     "party 0 fed NLB 'box' (0,), which is not a bit")],
    ids=["lane-output", "nested-lane", "lane-in-a-dict", "fed-tuple"])
def test_a_lane_where_a_bit_goes_is_named_by_its_plain_value(feed, answer, message,
                                                              execute_calls):
    # the lane run stops, so the error is the first point's own, naming its
    # plain value as the scalar engine does
    _check_named_as_scalar(_chsh_nlb_with(feed, answer), message, execute_calls)


def test_a_dataclass_of_lanes_output_is_named_by_its_plain_value(execute_calls):
    # ms-nlb-sim's shared quadruples are dataclasses with a lane per leaf
    domain = get_strategy("ms-nlb-sim").shared_domain
    strategy = dataclasses.replace(
        _chsh_nlb_with(answer=lambda v: Action(output=(v.shared,))), shared_domain=domain)
    _check_named_as_scalar(
        strategy, f"party 0 output {domain.values[0]!r}, which is not a bit", execute_calls)


@pytest.mark.parametrize("feed,answer,message", [
    (None, lambda v: v.nlb["box"], "party 0 round 1 returned 0, not an Action"),
    (None, lambda v: Action(output=(v.nlb["box"],), sends=[v.nlb["box"]]),
     "party 0 sends [0] is not a dict"),
    (lambda v: Action(nlb_inputs=[v.own_input]), None,
     "party 0 nlb_inputs [0] is not a dict")],
    ids=["lane-round-result", "sends-list", "nlb-inputs-list"])
def test_a_malformed_action_on_lanes_is_named_by_its_plain_value(feed, answer, message,
                                                                 execute_calls):
    # as for a lane where a bit goes: the error is the first point's own
    _check_named_as_scalar(_chsh_nlb_with(feed, answer), message, execute_calls,
                           MalformedActionError)


def _check_named_as_scalar(strategy, message, execute_calls, error=NonBitError):
    """The scalar engine, exact_distribution and exhaustive verify on chsh
    all raise error(message), each sweep starting on lanes."""
    game, want = get_game("chsh"), (error, message)
    assert _raised(lambda: scalar_oracle(strategy, game)) == want
    execute_calls.clear()
    assert _raised(lambda: exact_distribution(strategy, game)) == want
    assert type(execute_calls[0]) is LaneSeed
    assert _raised(lambda: verify_winning(strategy, game, Exhaustive())) == want


def test_unused_resources_end_an_exhaustive_verify_on_lanes(execute_calls):
    # a box fed only by parties whose input is 1, which a run on (1, 1) alone
    # would count as used, and a channel that never carries a bit: the first
    # lane run that leaves either unused ends the verify
    boxes = (NlbInstance("box", 0, 1), NlbInstance("late", 0, 1))

    def feed(view):
        feeds = {"box": view.own_input}
        if view.own_input:
            feeds["late"] = 1
        return Action(nlb_inputs=feeds)

    def answer(view):
        return Action(output=(view.nlb["box"],))

    prog = PartyProgram((feed, answer))
    game = get_game("chsh")
    strategy = Strategy(name="late-box", n_parties=2, programs=(prog, prog),
                        nlbs=boxes, game_id="chsh")
    # the grid block splits on party 0's input, then its x0 = 0 half on
    # party 1's; the run on input (0, 0) is the first to finish
    with pytest.raises(UnusedResourceError, match="'late'"):
        verify_winning(strategy, game, Exhaustive())
    assert len(execute_calls) == 3 and isinstance(execute_calls[0].nlb_bits[0], Lane)
    assert [seed.block for seed in execute_calls] == [(1 << 16) - 1, 0xff, 0xf]

    execute_calls.clear()
    strategy = Strategy(name="mute", n_parties=2, programs=(prog, prog),
                        nlbs=boxes[:1], channels=(Channel("c", 0, 1),),
                        game_id="chsh")
    with pytest.raises(UnusedResourceError, match="'c'"):
        verify_winning(strategy, game, Exhaustive())
    assert len(execute_calls) == 3 and isinstance(execute_calls[0].nlb_bits[0], Lane)


def test_lanes_kept_in_a_memo_match_the_scalar_oracle(execute_calls):
    # a three-round relay that carries a running box-output parity in its
    # memo, so lanes cross rounds inside memos rather than view.nlb
    boxes = (NlbInstance("a", 0, 1), NlbInstance("b", 1, 0))

    def feed(view):
        return Action(nlb_inputs={"a": view.own_input}, memo=view.own_input)

    def relay(view):
        acc = view.memo & view.nlb["a"]
        return Action(nlb_inputs={"b": acc ^ view.own_input},
                      memo=(acc, view.nlb["a"]))

    def answer(view):
        acc, za = view.memo
        return Action(output=(acc ^ za ^ view.nlb["b"],))

    prog = PartyProgram((feed, relay, answer))
    strategy = Strategy(name="memo-relay", n_parties=2, programs=(prog, prog),
                        nlbs=boxes, game_id="chsh")
    game = get_game("chsh")
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    execute_calls.clear()
    dist = exact_distribution(strategy, game)
    assert len(execute_calls) == 1     # the inputs are lanes too
    assert dist.per_input == per_input
    result = verify_winning(strategy, game, Exhaustive())
    assert (result.checked, result.wins, result.counterexample) == \
        (checked, wins, counterexample)


def test_a_party_without_output_bits_is_cut_with_the_others():
    # all four chsh inputs are one block, cut per input; party 1 outputs ()
    def answer(view):
        return Action(output=(view.nlb["a"],) if view.party == 0 else ())

    prog = PartyProgram((lambda v: Action(nlb_inputs={"a": v.own_input}), answer))
    strategy = Strategy(name="no-bits", n_parties=2, programs=(prog, prog),
                        nlbs=(NlbInstance("a", 0, 1),), game_id="chsh")
    game = get_game("chsh")
    half = Fraction(1, 2)
    assert exact_distribution(strategy, game).per_input == {
        x: {((0,), ()): half, ((1,), ()): half} for x in promised_inputs(game)}
    assert analysis.no_signaling_check(strategy, game)


def test_seven_party_sweep_is_exact_and_non_signaling():
    # 2^21 seeds x 64 inputs: out of reach seed by seed, seconds on lanes
    strategy, game = get_strategy("multi-mermin-nlb:7"), get_game("multi-mermin:7")
    dist = exact_distribution(strategy, game)
    assert analysis.no_signaling_check(strategy, game)
    assert analysis.uniformity_verdict(dist, game)


def test_channel_only_strategies_run_on_shared_lanes(execute_calls):
    # no box to slice, but the 128 matrix triples are one lane-valued block,
    # and the nine inputs, as Choices, put the whole grid in one run
    strategy = get_strategy("ms-comm-sim")
    exact_distribution(strategy, get_game("magic-square"))
    assert len(execute_calls) == 1
    assert all(type(seed) is LaneSeed and seed.nlb_bits == () for seed in execute_calls)
    assert execute_calls[0].block == (1 << 9 * strategy.seed_count()) - 1
    alice, bob0, bob1 = execute_calls[0].shared
    assert any(type(v) is Lane for row in alice for v in row)


def _counting_grid(size, copies):
    """A periodic grid of ten bit-shaped inputs, size seeds each (no box,
    size bit-shaped shared values), copies inputs to a group."""
    values = tuple(tuple(v >> j & 1 for j in range(8)) for v in range(size))
    prog = PartyProgram((lambda v: Action(output=(0,)),))
    strategy = Strategy(name=f"count-{size}", n_parties=2, programs=(prog, prog),
                        shared_domain=SharedDomain("count", values), game_id="chsh")
    inputs = [tuple(v >> j & 1 for j in range(4)) for v in range(10)]
    return LaneGrid.periodic(strategy, inputs, copies * size)


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16, 24, 32, 64, 128])
def test_count_by_input_matches_the_cut_masks(size):
    # each window's counts against the window masks (LaneGrid.windows) and
    # int.bit_count: blocks that start mid-input, blocks that leave whole
    # inputs empty (no entry), and one-point blocks with plain bits
    grid = _counting_grid(size, 5)
    assert grid.input_shape is not None
    rng = random.Random(size)
    total = len(grid.inputs) * size
    for _ in range(40):
        offset = rng.randrange(total)
        span = min(total - offset, grid.width - offset % grid.width)
        block = rng.getrandbits(span) | 1
        if span > 2 * size and rng.random() < 0.5:
            # clear a whole input inside the block
            cut = (rng.randrange(1, span // size) * size - offset % size) % span
            block &= ~(((1 << size) - 1) << cut) | 1
        masks = [rng.getrandbits(span) & block for _ in range(rng.randrange(4))]
        got = grid.count_by_input(offset, block, masks)
        want = [(i, (block & window).bit_count(), [(m & window).bit_count() for m in masks])
                for i, window in grid.windows(offset, block) if block & window]
        assert [(i, n, list(counts)) for i, n, counts in got] == want
        assert all(n for _, n, _ in got)
        assert sum(n for _, n, _ in got) == block.bit_count()
        assert {i for i, _, _ in got} == {
            (offset + s) // size for s in range(span) if block >> s & 1}
    assert grid.count_by_input(3, 1, [0, 1, 1]) == [(3 // size, 1, [0, 1, 1])]


def test_count_by_input_keeps_a_block_of_one_input_value_whole():
    # a narrowed magic-square grid's inputs are not bit-shaped: a block holds
    # one input
    strategy, game = get_strategy("ms-nlb-sim"), get_game("magic-square")
    grid = LaneGrid.periodic(strategy, promised_inputs(game), analysis.SWEEP_WIDTH)
    grid.split(*grid.start[0][:2], None)
    assert grid.input_shape is None
    block = (1 << 256) - 1
    assert grid.count_by_input(512, block, [block, 0b1011 << 200]) == \
        [(2, 256, [256, 3])]


def _shared_read_chsh(name, values, read):
    """later_input_loser's boxes under a shared domain of values, party 1
    adding read(shared) to its box b output."""
    boxes = (NlbInstance("a", 0, 1), NlbInstance("b", 0, 1))

    def feed(view):
        bit = view.own_input if view.party == 0 else 1 ^ view.own_input
        return Action(nlb_inputs={"a": view.own_input, "b": bit})

    def answer(view):
        return Action(output=(view.nlb["a"] ^ (view.nlb["b"] & read(view.shared)),))

    prog = PartyProgram((feed, answer))
    return Strategy(name=name, n_parties=2, programs=(prog, prog), nlbs=boxes,
                    shared_domain=SharedDomain(name, values), game_id="chsh")


def test_constant_non_bit_leaves_keep_the_grid_on_lanes(execute_calls):
    # (None, "tag", 2, bits): the first three leaves are one value of one
    # type in every domain value, so they are kept as constants and the
    # whole grid is one run, as under the bare bit domain
    bits = bit_domain(2).values
    plain = _shared_read_chsh("bits", bits, lambda shared: shared[0] ^ shared[1])
    tagged = _shared_read_chsh("tagged", tuple((None, "tag", 2, b) for b in bits),
                               lambda shared: shared[3][0] ^ shared[3][1])
    game = get_game("chsh")
    want = exact_distribution(plain, game)
    for strategy in (plain, tagged):
        execute_calls.clear()
        assert exact_distribution(strategy, game).per_input == want.per_input
        assert len(execute_calls) == 1 and type(execute_calls[0]) is LaneSeed
    none, tag, two, _ = execute_calls[0].shared
    assert (none, tag, two) == (None, "tag", 2)
    assert verify_winning(tagged, game, Exhaustive()) == \
        verify_winning(plain, game, Exhaustive())
    assert analysis.no_signaling_check(tagged, game) == \
        analysis.no_signaling_check(plain, game)
    # a non-bit leaf that differs between values leaves one block per
    # (input, shared index)
    mixed = _shared_read_chsh("mixed", tuple((i, b) for i, b in enumerate(bits)),
                              lambda shared: shared[1][0] ^ shared[1][1])
    execute_calls.clear()
    assert exact_distribution(mixed, game).per_input == want.per_input
    assert len(execute_calls) == len(bits) * len(promised_inputs(game))


def _shape_leaves(shape):
    """The leaves of a _columns shape: "bit", or (None, value) for a constant."""
    if shape == "bit" or shape[0] is None:
        return [shape]
    return [leaf for part in shape[1] for leaf in _shape_leaves(part)]


@pytest.mark.parametrize("sid,bits", [("ms-nlb-sim", 36), ("ms-comm-sim", 27)])
def test_magic_square_domains_are_bit_columns(sid, bits):
    # the quadruple dataclasses and matrix triples hold bits only, so no
    # leaf of theirs is kept as a constant: every leaf is a lane column
    strategy = get_strategy(sid)
    grid = LaneGrid.periodic(strategy, promised_inputs(get_game("magic-square")),
                             analysis.SWEEP_WIDTH)
    assert _shape_leaves(grid.shared_shape) == ["bit"] * bits
    assert len(grid.shared_masks) == bits


# --- the Lane value -----------------------------------------------------------

@pytest.mark.parametrize("nb", range(1, 7))
def test_seed_lanes_follow_enumeration_order(nb):
    lanes = seed_lanes(nb)
    order = list(itertools.product((0, 1), repeat=nb))
    for i, bits in enumerate(order):
        assert tuple(lane.mask >> i & 1 for lane in lanes) == bits
        assert seed_at(nb, i, 3).nlb_bits == bits
    assert all(lane.full == (1 << (1 << nb)) - 1 for lane in lanes)


def _lane_bit(v, i):
    return v.mask >> i & 1 if isinstance(v, Lane) else v


def _evaluate(expr, env):
    kind = expr[0]
    if kind == "var":
        return env[expr[1]]
    if kind == "const":
        return expr[1]
    a, b = _evaluate(expr[1], env), _evaluate(expr[2], env)
    return a ^ b if kind == "^" else a & b if kind == "&" else a | b


N_VARS = 4
expressions = st.recursive(
    st.one_of(st.tuples(st.just("var"), st.integers(0, N_VARS - 1)),
              st.tuples(st.just("const"), st.sampled_from([0, 1, True, False]))),
    lambda sub: st.tuples(st.sampled_from("^&|"), sub, sub),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(expr=expressions, width=st.integers(1, 5), data=st.data())
def test_lane_expressions_match_scalar_values(expr, width, data):
    seeds = 1 << width
    full = (1 << seeds) - 1
    masks = data.draw(st.lists(st.integers(0, full), min_size=N_VARS,
                               max_size=N_VARS))
    got = _evaluate(expr, [Lane(m, full) for m in masks])
    for i in range(seeds):
        want = _evaluate(expr, [m >> i & 1 for m in masks])
        assert _lane_bit(got, i) == want


ILLEGAL = [
    ("bool", lambda v: bool(v)),
    ("if", lambda v: 1 if v else 0),
    ("==", lambda v: v == 1),
    ("!=", lambda v: v != 0),
    ("<", lambda v: v < 1),
    ("+", lambda v: v + 1),
    ("radd", lambda v: 1 + v),
    ("sum", lambda v: sum([v, v])),
    ("-", lambda v: v - 1),
    ("*", lambda v: 2 * v),
    ("~", lambda v: ~v),
    ("<<", lambda v: v << 1),
    ("index", lambda v: (0, 1)[v]),
    ("int", lambda v: int(v)),
    ("hash", lambda v: {v: 1}),
    ("in", lambda v: v in (0, 1)),
    ("format", lambda v: f"{v}"),
    ("str", lambda v: str(v)),
    ("xor 2", lambda v: v ^ 2),
    ("and -1", lambda v: v & -1),
    ("ror 3", lambda v: 3 | v),
    ("xor float", lambda v: v ^ 1.0),
    ("xor None", lambda v: v ^ None),
]


@pytest.mark.parametrize("name,use", ILLEGAL, ids=[n for n, _ in ILLEGAL])
def test_non_bit_uses_raise_lane_branch(name, use):
    lane = seed_lanes(2)[0]
    with pytest.raises(LaneBranch):
        use(lane)


def test_branching_on_a_lane_reads_it_where_it_is_constant():
    full = 0b1111
    table = (10, 20)
    for mask, bit in ((0, 0), (full, 1)):
        lane = Lane(mask, full)
        assert bool(lane) is bool(bit) and (1 if lane else 0) == bit
        assert table[lane] == table[bit] and lane.__index__() == bit
    mixed = Lane(0b0110, full)
    for use in (bool, lambda v: table[v]):
        with pytest.raises(LaneBranch) as branch:
            use(mixed)
        assert branch.value.mask == 0b0110
    for use in (int, hash, lambda v: v + 0, lambda v: v == 1):
        with pytest.raises(LaneBranch) as branch:
            use(Lane(full, full))
        assert branch.value.mask is None


@given(k=st.integers(-(1 << 70), 1 << 70).filter(lambda k: k not in (0, 1)))
def test_non_bit_int_operands_raise_lane_branch(k):
    lane = seed_lanes(1)[0]
    for op in (lambda a, b: a ^ b, lambda a, b: a & b, lambda a, b: a | b):
        with pytest.raises(LaneBranch):
            op(lane, k)
        with pytest.raises(LaneBranch):
            op(k, lane)


@pytest.mark.parametrize("const", [0, 1, False, True])
def test_int_operands_give_the_lane_itself_or_a_constant(const):
    # ^ 0, & 1 and | 0 give the lane itself; & 0 and | 1 give the int the
    # result is; only ^ 1 makes a new lane. Either side, bools as their ints
    full = 0b1111
    lane = Lane(0b0110, full)
    for op, name in ((lambda a, b: a ^ b, "^"), (lambda a, b: a & b, "&"),
                     (lambda a, b: a | b, "|")):
        for got in (op(lane, const), op(const, lane)):
            want = [op(lane.mask >> i & 1, int(const)) for i in range(4)]
            assert [_lane_bit(got, i) for i in range(4)] == want
            if (name, const) in (("^", 0), ("&", 1), ("|", 0)):
                assert got is lane
            elif name == "^":
                assert type(got) is Lane and got.mask == 0b1001 and got.full == full
            else:
                assert type(got) is int and got == (name == "|")


def magic_square_choices():
    """The nine magic-square inputs over their 2-seed block each, as
    LaneGrid.periodic lays out ms-nlb: (x, points) with x a pair of Choices
    and points[k] the plain input at bit k."""
    strategy, game = get_strategy("ms-nlb"), get_game("magic-square")
    inputs = promised_inputs(game)
    grid = LaneGrid.periodic(strategy, inputs, analysis.SWEEP_WIDTH)
    (offset, block, x, seed), = grid.start
    assert type(seed) is LaneSeed and block == (1 << 18) - 1
    return x, [inputs[k // 2] for k in range(18)]


def test_equal_bits_read_a_choice_as_each_point_compares():
    # the lane of the points that take each value, or 0 where none does; a
    # plain value gives ints, and a Choice that takes a value outside the
    # ones asked for raises LaneBranch without a mask
    x, points = magic_square_choices()
    assert all(type(v) is Choice for v in x)
    for r in range(2):
        bits = equal_bits(x[r], (3, 1, 2, 4))
        for got, v in zip(bits, (3, 1, 2, 4)):
            want = [int(p[r] == v) for p in points]
            if v in (1, 2, 3):
                assert type(got) is Lane and got.full == (1 << 18) - 1
                assert [got.mask >> k & 1 for k in range(18)] == want
            else:
                assert got == 0 and type(got) is int and want == [0] * 18
        for v in (-1, 0, 1, 3, 5):
            assert equal_bits(v, (1, 2, 3)) == tuple(int(v == k) for k in (1, 2, 3))
        for values in ((1, 2), (3,), ()):
            with pytest.raises(LaneBranch) as branch:
                equal_bits(x[r], values)
            assert branch.value.mask is None


def test_a_compared_choice_output_is_refused_as_its_bool(execute_calls):
    # x == 3 on a Choice raises LaneBranch: the lane run stops, the grid
    # narrows, and the first input's run raises NonBitError as the scalar
    # run does, naming the bool
    prog = PartyProgram((lambda v: Action(output=(v.own_input == 3, 0, 0)),))
    strategy = Strategy(name="bool-out", n_parties=2, programs=(prog, prog),
                        game_id="magic-square")
    want = _raised(lambda: execute(strategy, (1, 1), Seed(())))
    assert want == (NonBitError, "party 0 output False, which is not a bit")
    assert _raised(lambda: exact_distribution(strategy, get_game("magic-square"))) == want
    assert [seed.block if type(seed) is LaneSeed else seed for seed in execute_calls] == \
        [(1 << 9) - 1, Seed(())]


CHOICE_ILLEGAL = ILLEGAL + [
    ("== float", lambda v: v == 3.0),
    ("== bool", lambda v: v == True),  # noqa: E712
    ("!= None", lambda v: v != None),  # noqa: E711
    ("== itself", lambda v: v == v),
    ("xor 1", lambda v: v ^ 1),
    ("and 1", lambda v: v & 1),
    ("ror 0", lambda v: 0 | v),
    ("- 1", lambda v: v - 1),
    ("range", lambda v: range(v)),
    ("len", len),
    ("iter", iter),
    ("[0]", lambda v: v[0]),
    ("contains", lambda v: 1 in v),
    ("method", lambda v: v.bit_length()),
]


@pytest.mark.parametrize("name,use", CHOICE_ILLEGAL, ids=[n for n, _ in CHOICE_ILLEGAL])
def test_other_uses_of_a_choice_raise_lane_branch(name, use):
    x, _ = magic_square_choices()
    with pytest.raises(LaneBranch) as branch:
        use(x[0])
    assert branch.value.mask is None


def test_every_refused_dunder_of_a_choice_raises_lane_branch():
    x, _ = magic_square_choices()
    refused = [name for name, attr in vars(Choice).items()
               if getattr(attr, "__name__", None) == name and name not in (
                   "__init__", "__repr__") and name.startswith("__")]
    assert {"__eq__", "__ne__", "__hash__", "__bool__", "__index__", "__xor__",
            "__rand__", "__sub__", "__int__", "__lt__", "__str__",
            "__format__"} <= set(refused)
    for name in refused:
        with pytest.raises(LaneBranch) as branch:
            getattr(x[0], name)(1)
        assert branch.value.mask is None, name


def test_a_block_of_one_input_value_gives_the_plain_int():
    # three inputs to a group: group 0 is row 1 under columns 1, 2 and 3, so
    # the row is the int 1 on that group and a Choice of 1, 2, 3 on none;
    # within one input both are plain ints
    strategy, game = get_strategy("ms-nlb"), get_game("magic-square")
    grid = LaneGrid.periodic(strategy, promised_inputs(game), 3 * 2)
    assert grid.narrows and grid.width == 6
    row, column = grid.input(0, 0b111111)
    assert row == 1 and type(row) is int
    assert type(column) is Choice and sorted(column.masks) == [1, 2, 3]
    row, column = grid.input(10, 0b11)
    assert (row, column) == (2, 3) and type(row) is int and type(column) is int
    # points 9 and 10: inputs (2, 2) and (2, 3)
    row, column = grid.input(9, 0b11)
    assert row == 2 and type(column) is Choice and column.masks == {2: 0b01, 3: 0b10}


def _choice_grid(n_values):
    """A periodic grid of chsh-shaped two-party inputs (v, 1) for n_values
    values v from 2 on, under chsh-nlb's two seeds."""
    inputs = [(v, 1) for v in range(2, 2 + n_values)]
    return LaneGrid.periodic(get_strategy("chsh-nlb"), inputs, analysis.SWEEP_WIDTH)


def lanes_of(points):
    """Plain inputs of one bit shape as one input of lanes over them, leaf
    by leaf: bit i of each lane is that bit of points[i]."""
    full = (1 << len(points)) - 1
    if type(points[0]) is tuple:
        return tuple(lanes_of([x[j] for x in points]) for j in range(len(points[0])))
    return Lane(sum(bit << i for i, bit in enumerate(points)), full)


def stated_promise(game):
    """The promise of a chsh, bmaj, mermin, multi-mermin or dj game, stated
    apart from games: every n-bit tuple, the even ones, or two 2^n-bit
    strings at distance 0 or 2^(n-1)."""
    base, _, param = game.name.partition(":")
    if base == "dj":
        length = 2 ** int(param)
        return lambda x: all(len(s) == length for s in x) and \
            sum(u != v for u, v in zip(*x)) in (0, length // 2)
    n = {"chsh": 2, "mermin": 3}.get(base) or int(param)
    even = base in ("mermin", "multi-mermin")
    return lambda x: len(x) == n and not (even and sum(x) % 2)


PROMISE_FAMILIES = ["chsh", "bmaj:4", "mermin", "multi-mermin:5", "dj:2", "dj:4"]


@pytest.mark.parametrize("gid", PROMISE_FAMILIES)
def test_the_lane_promise_is_the_plain_promise_point_by_point(gid):
    # three chunks of drawn inputs, a third of their draws with one bit
    # flipped, so that some leave the promise: one call of on_promise on
    # their lanes gives, at each draw, the plain call's verdict
    game, rng = get_game(gid), random.Random(gid)
    stated = stated_promise(game)
    off = 0
    for m in (1, 37, 300):
        points = []
        for x in drawn_inputs(game, rng, m):
            if rng.randrange(3) == 0:
                flat = list(itertools.chain(*x)) if gid.startswith("dj") else list(x)
                flat[rng.randrange(len(flat))] ^= 1
                half = len(flat) // 2
                x = (tuple(flat[:half]), tuple(flat[half:])) if gid.startswith("dj") \
                    else tuple(flat)
            points.append(x)
        on = bit_mask(game.on_promise(lanes_of(points)), (1 << m) - 1)
        plain = [game.on_promise(x) for x in points]
        assert [on >> i & 1 for i in range(m)] == list(map(int, plain))
        assert plain == [stated(x) for x in points]
        off += plain.count(False)
    assert (off > 0) is not gid.startswith(("chsh", "bmaj"))


@pytest.mark.parametrize("gid", ["bmaj:3", "multi-mermin:4", "dj:2", "dj:4"])
def test_every_decoded_draw_is_on_the_promise(gid):
    # the drawn fill's inputs, decoded draw by draw, over fixed seeds:
    # bmaj:3 and multi-mermin:4 draw every promised input, dj both classes
    game = get_game(gid)
    strategy = get_strategy(gid.replace(":", "-nlb:"))
    stated = stated_promise(game)
    drawn = []
    for seed in range(3):
        grid = LaneGrid.drawn(strategy, game, random.Random(seed), 64)
        drawn += list(grid.inputs)
    assert len(drawn) == 192
    assert all(game.on_promise(x) and stated(x) for x in drawn)
    if gid.startswith("dj"):
        assert {sum(u != v for u, v in zip(*x)) for x in drawn} == {0, len(drawn[0][0]) // 2}
    else:
        assert set(drawn) == set(promised_inputs(game))


def test_a_leaf_past_the_choice_bound_keeps_one_input_per_group():
    from nlbox.engine import MAX_CHOICES
    grid = _choice_grid(MAX_CHOICES)
    assert grid.narrows and grid.width == 2 * MAX_CHOICES
    assert type(grid.start[0][2][0]) is Choice
    grid = _choice_grid(MAX_CHOICES + 1)
    assert (grid.narrows, grid.input_shape, grid.width) == (False, None, 2)
    assert [run[:2] for run in grid.start] == [(0, 0b11)]
    # the drawn fill keeps such inputs as they were
    strategy, game = get_strategy("ms-nlb"), get_game("magic-square")
    grid = LaneGrid.drawn(strategy, game, random.Random(1), 40)
    assert grid.input_shape is None and not grid.narrows


def _old_ms_comm_programs(pick):
    """strategies._ms_comm_programs before its inputs could be Choices: it
    compares, and indexes with x - 1."""
    def alice_round(view):
        a, _, _ = pick(view)
        flag = 1 if view.own_input == 3 else 0
        return Action(sends={"row-is-3": flag}, output=a[view.own_input - 1])

    def bob_answer(view):
        _, b0, b1 = pick(view)
        m = b1 if view.received["row-is-3"] else b0
        c = view.own_input - 1
        return Action(output=tuple(m[i][c] for i in range(3)))

    return (PartyProgram((alice_round,)),
            PartyProgram((lambda view: Action(), bob_answer)))


def _old_ms_nlb_programs(pick):
    """strategies._ms_nlb_programs before its inputs could be Choices."""
    def feed(view):
        flag = 1 if view.own_input == 3 else 0
        return Action(nlb_inputs={"pick": flag})

    def alice_answer(view):
        q, p, r = pick(view), view.nlb["pick"], view.own_input - 1
        return Action(output=tuple([u ^ (p & (u ^ w))
                                    for u, w in zip(q.a0[r], q.a1[r])]))

    def bob_answer(view):
        q, p, c = pick(view), view.nlb["pick"], view.own_input - 1
        return Action(output=tuple([u[c] ^ (p & (u[c] ^ w[c]))
                                    for u, w in zip(q.b0, q.b1)]))

    return (PartyProgram((feed, alice_answer)), PartyProgram((feed, bob_answer)))


@pytest.mark.parametrize("sid", ["ms-nlb", "ms-nlb-sim", "ms-comm", "ms-comm-sim"])
def test_magic_square_programs_match_their_indexing_copies(sid):
    # the bit-algebra selection gives byte for byte what indexing gave; the
    # copies narrow their grid on its first run
    strategy, game = get_strategy(sid), get_game("magic-square")
    old = _old_ms_nlb_programs if "nlb" in sid else _old_ms_comm_programs
    if sid.endswith("-sim"):
        programs = old(lambda view: view.shared)
    elif sid == "ms-nlb":
        programs = old(lambda view: REF_QUADRUPLE)
    else:
        programs = old(lambda view: (REF_ALICE, REF_BOB0, REF_BOB1))
    copy = dataclasses.replace(strategy, programs=programs)
    assert json.dumps(exact_distribution(copy, game).to_json()) == \
        json.dumps(exact_distribution(strategy, game).to_json())
    assert verify_winning(copy, game, Exhaustive()) == \
        verify_winning(strategy, game, Exhaustive())
    assert copy._grid[1].input_shape is None and strategy._grid[1].narrows


def row_index():
    """Magic-square play on one box whose row player indexes a table with
    x - 1, while the column player selects in bit algebra: on groups of
    two inputs (rows 1 1, 1 2, 2 2, 3 3, 3) the row is a Choice first in
    the second group."""
    box = NlbInstance("box", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": indicators(view.own_input)[1]})

    def alice(view):
        bit = (0, 1, 1)[view.own_input - 1] ^ view.nlb["box"]
        return Action(output=(bit, bit, 0))

    def bob(view):
        bit = select((1, 0, view.nlb["box"]), indicators(view.own_input))
        return Action(output=(bit, 1, 0))

    return Strategy(name="row-index", n_parties=2,
                    programs=(PartyProgram((feed, alice)), PartyProgram((feed, bob))),
                    nlbs=(box,), game_id="magic-square")


@pytest.mark.parametrize("copies,runs", [(2, (1 + 1 + 7, 9)), (3, (3, 3)),
                                         (9, (1 + 9, 9))])
def test_a_grid_narrows_at_the_group_that_first_splits(copies, runs, execute_calls,
                                                        monkeypatch):
    # two inputs to a group: the first group runs whole, the second fails and
    # gives way to its first input, and the seven inputs from there run one
    # by one; a second sweep starts from the narrowed grid's first input.
    # Three inputs to a group hold one row each, so no run fails; nine fail
    # on the first run
    strategy, game = row_index(), get_game("magic-square")
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    monkeypatch.setattr(analysis, "SWEEP_WIDTH", copies * strategy.seed_count())
    counts = []
    for _ in range(2):
        execute_calls.clear()
        assert exact_distribution(strategy, game).per_input == per_input
        counts.append(len(execute_calls))
    assert tuple(counts) == runs
    result = verify_winning(strategy, game, Exhaustive())
    assert (result.checked, result.wins, result.counterexample) == \
        (checked, wins, counterexample)


def test_a_split_of_one_input_narrows_and_splits_by_its_mask():
    # four inputs to a group: the last group is input (3, 3) alone, whose
    # split narrows the grid and then halves the block by its mask
    strategy, game = get_strategy("ms-nlb"), get_game("magic-square")
    grid = LaneGrid.periodic(strategy, promised_inputs(game), 4 * 2)
    assert grid.narrows and grid.width == 8
    runs = grid.split(16, 0b11, 0b01)
    assert [run[:3] for run in runs] == [(16, 1, (3, 3)), (17, 1, (3, 3))]
    assert (grid.narrows, grid.width, grid.input_shape) == (False, 2, None)
    assert [run[:3] for run in grid.start] == [(0, 0b11, (1, 1))]
    # a fresh grid: a group of four gives way to its first input's block
    grid = LaneGrid.periodic(strategy, promised_inputs(game), 4 * 2)
    (offset, block, x, seed), = grid.split(8, 0xff, None)
    assert (offset, block, x, seed.block) == (8, 0b11, (2, 2), 0b11)


@pytest.mark.parametrize("sid", ["ms-nlb", "ms-nlb-sim", "ms-comm-sim"])
def test_magic_square_sweeps_are_one_run_each(sid, execute_calls):
    # all nine inputs are Choices in one block, which no magic-square
    # program splits: one execute per distribution, verify and
    # non-signaling check, and one call of the win relation per verify
    strategy, game = get_strategy(sid), get_game("magic-square")
    sweeps = [lambda: exact_distribution(strategy, game),
              lambda: verify_winning(strategy, game, Exhaustive())]
    if not strategy.channels:
        sweeps.append(lambda: analysis.no_signaling_check(strategy, game))
    for sweep in sweeps:
        execute_calls.clear()
        sweep()
        assert len(execute_calls) == 1
        assert execute_calls[0].block == (1 << 9 * strategy.seed_count()) - 1
    calls = []

    def relation(x, y):
        calls.append(x)
        return game.win(x, y)

    assert verify_winning(strategy, dataclasses.replace(game, win=relation),
                          Exhaustive()).passed
    assert len(calls) == 1 and all(type(v) is Choice for v in calls[0])
