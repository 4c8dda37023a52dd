"""The lane (bit-sliced) sweep against the scalar engine.

The scalar oracle runs ``execute`` once per (input, seed) in
``enumerate_seeds`` order; every exhaustive result of ``analysis`` must
match it exactly, including the order in which outcomes first appear and
the seed of the first counterexample.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nlbox import analysis
from nlbox.analysis import (Exhaustive, exact_distribution, impossibility_search,
                            strategy_from_tables, verify_winning)
from nlbox.engine import (DEFAULT_MAX_SEED_BITS, Action, Channel, Lane, LaneBranch,
                          LaneSeed, NlbInstance, NonBitError, PartyProgram,
                          SharedDomain, Strategy, TRIVIAL_SHARED,
                          UnusedResourceError, bit_domain, enumerate_seeds,
                          execute, seed_at, seed_lanes, seed_space)
from nlbox.games import get_game, is_winning, promised_inputs
from nlbox.strategies import get_strategy

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


CASES = ([(sid, gid) for sid, gid in NO_COMM_ENUMERABLE + CHANNEL
          if sid not in SAMPLED_ORACLE]
         + [("multi-mermin-nlb:4", "bmaj:4"), ("search-witness", "multi-mermin:3"),
            ("losing-witness", "multi-mermin:3"), ("late-branch", "chsh"),
            ("table-index", "chsh"), ("nested-branch", "chsh"),
            ("split-then-arithmetic", "chsh"), ("ragged-domain", "chsh"),
            ("non-bit-domain", "chsh"), ("bool-domain", "chsh"),
            ("split-loser", "chsh")])
CUSTOM = {"search-witness": search_witness, "losing-witness": losing_witness,
          "late-branch": late_branch, "table-index": table_index,
          "nested-branch": nested_branch,
          "split-then-arithmetic": split_then_arithmetic,
          "ragged-domain": ragged_domain, "non-bit-domain": non_bit_domain,
          "bool-domain": bool_domain, "split-loser": split_loser}


def build(sid):
    return CUSTOM[sid]() if sid in CUSTOM else get_strategy(sid)


@pytest.mark.parametrize("sid,gid", CASES)
def test_lane_sweep_matches_scalar_oracle(sid, gid):
    strategy, game = build(sid), get_game(gid)
    per_input, checked, wins, counterexample = scalar_oracle(strategy, game)
    dist = exact_distribution(strategy, game)
    assert dist.per_input == per_input
    for x in per_input:
        assert list(dist.per_input[x]) == list(per_input[x])
    result = verify_winning(strategy, game, Exhaustive())
    assert (result.checked, result.wins, result.counterexample) == \
        (checked, wins, counterexample)


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


@pytest.mark.parametrize("sid", ["ragged-domain", "non-bit-domain", "bool-domain"])
def test_unshaped_domains_keep_one_block_per_shared_index(sid, execute_calls):
    strategy = build(sid)
    blocks = [(offset, block) for offset, block, _ in seed_space(strategy).start]
    assert blocks == [(0, 0b1111), (4, 0b1111), (8, 0b1111)]
    exact_distribution(strategy, get_game("chsh"))
    first = execute_calls[:3]
    assert [(seed.offset, seed.block) for seed in first] == blocks
    assert [seed.shared for seed in first] == list(strategy.shared_domain.values)


@pytest.mark.parametrize("sid", sorted(SAMPLED_ORACLE))
def test_lane_sweep_matches_scalar_seed_by_seed(sid):
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    nb = len(strategy.nlbs)
    rng = random.Random(sid)
    inputs = promised_inputs(game)
    groups = {}
    sweep = analysis._sweep(strategy, inputs, DEFAULT_MAX_SEED_BITS)
    for x, outcome, offset, mask in sweep:
        groups.setdefault(x, []).append((outcome, mask << offset))
    assert list(groups) == inputs
    full = (1 << strategy.seed_count()) - 1
    for x, parts in groups.items():
        masks = [m for _, m in parts]
        assert sum(m.bit_count() for m in masks) == full.bit_count()
        union = 0
        for m in masks:
            assert union & m == 0
            union |= m
        assert union == full
        for s in range(len(strategy.shared_domain)):
            for i in rng.sample(range(1 << nb), 32):
                want, _ = execute(strategy, x, seed_at(nb, i, s), record=False)
                got = [o for o, m in parts if m >> (s << nb | i) & 1]
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
    # one run per input: mermin-nlb-sim's shared flip bit is a lane too
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    exact_distribution(strategy, game)
    assert len(execute_calls) == len(promised_inputs(game))
    whole = (1 << strategy.seed_count()) - 1
    assert all(type(seed) is LaneSeed and (seed.offset, seed.block) == (0, whole)
               for seed in execute_calls)
    assert all(isinstance(seed.nlb_bits[0], Lane) for seed in execute_calls)


# one run on the whole space, then one run per half (ms-nlb's halves are
# single seeds) for every input; the search witness does arithmetic with its
# box output, so its first run falls back to one scalar run per seed
SPLIT_ONCE = {"ms-nlb": 1 + 9 * 2, "ms-nlb-sim": 1 + 9 * 2, "search-witness": 1 + 4 * 2}


@pytest.mark.parametrize("sid,gid", [("ms-nlb", "magic-square"),
                                     ("ms-nlb-sim", "magic-square"),
                                     ("search-witness", "multi-mermin:3")])
def test_branching_programs_split_once(sid, gid, execute_calls):
    strategy, game = build(sid), get_game(gid)
    execute_calls.clear()      # building the search witness re-verifies it
    exact_distribution(strategy, game)
    assert len(execute_calls) == SPLIT_ONCE[sid]
    assert type(execute_calls[0]) is LaneSeed
    assert (execute_calls[0].offset, execute_calls[0].block) == \
        (0, (1 << strategy.seed_count()) - 1)
    lane_runs = sum(type(seed) is LaneSeed for seed in execute_calls)
    assert lane_runs == (19 if sid == "ms-nlb-sim" else 1)


def test_late_branch_resumes_where_the_lanes_stopped(execute_calls):
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
    # an output element is 0, 1 or a lane, on either path
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
    execute_calls.clear()
    with pytest.raises(NonBitError):
        exact_distribution(strategy, get_game("chsh"))
    assert len(execute_calls) == 1 and isinstance(execute_calls[0].nlb_bits[0], Lane)


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
    with pytest.raises(UnusedResourceError, match="'late'"):
        verify_winning(strategy, game, Exhaustive())
    assert len(execute_calls) == 1 and isinstance(execute_calls[0].nlb_bits[0], Lane)

    execute_calls.clear()
    strategy = Strategy(name="mute", n_parties=2, programs=(prog, prog),
                        nlbs=boxes[:1], channels=(Channel("c", 0, 1),),
                        game_id="chsh")
    with pytest.raises(UnusedResourceError, match="'c'"):
        verify_winning(strategy, game, Exhaustive())
    assert len(execute_calls) == 1 and isinstance(execute_calls[0].nlb_bits[0], Lane)


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
    assert len(execute_calls) == len(per_input)
    assert dist.per_input == per_input
    for x in per_input:
        assert list(dist.per_input[x]) == list(per_input[x])
    result = verify_winning(strategy, game, Exhaustive())
    assert (result.checked, result.wins, result.counterexample) == \
        (checked, wins, counterexample)


def test_seven_party_sweep_is_exact_and_non_signaling():
    # 2^21 seeds x 64 inputs: out of reach seed by seed, seconds on lanes
    strategy, game = get_strategy("multi-mermin-nlb:7"), get_game("multi-mermin:7")
    dist = exact_distribution(strategy, game)
    assert analysis.marginals_non_signaling(dist, 7)
    assert analysis.uniformity_verdict(dist, game)


def test_channel_only_strategies_run_on_shared_lanes(execute_calls):
    # no box to slice, but the 128 matrix triples are one lane-valued block
    strategy = get_strategy("ms-comm-sim")
    exact_distribution(strategy, get_game("magic-square"))
    assert len(execute_calls) == 9
    assert all(type(seed) is LaneSeed and seed.nlb_bits == () for seed in execute_calls)
    alice, bob0, bob1 = execute_calls[0].shared
    assert any(type(v) is Lane for row in alice for v in row)


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
