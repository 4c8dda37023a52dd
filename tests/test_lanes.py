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
                          NlbInstance, NonBitError, PartyProgram, Strategy,
                          UnusedResourceError, bit_domain, enumerate_seeds,
                          execute, seed_at, seed_lanes)
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
    """Branches on a box output only for shared value 1 and input bit 1, so
    the lane sweep decides some points before it falls back mid-grid."""
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


CASES = ([(sid, gid) for sid, gid in NO_COMM_ENUMERABLE + CHANNEL
          if sid not in SAMPLED_ORACLE]
         + [("multi-mermin-nlb:4", "bmaj:4"), ("search-witness", "multi-mermin:3"),
            ("losing-witness", "multi-mermin:3"), ("late-branch", "chsh")])
CUSTOM = {"search-witness": search_witness, "losing-witness": losing_witness,
          "late-branch": late_branch}


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
                     ("losing-witness", "multi-mermin:3")):
        result = verify_winning(build(sid), get_game(gid), Exhaustive())
        assert 0 < result.wins < result.checked
        assert result.counterexample is not None


@pytest.mark.parametrize("sid", sorted(SAMPLED_ORACLE))
def test_lane_sweep_matches_scalar_seed_by_seed(sid):
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    nb = len(strategy.nlbs)
    rng = random.Random(sid)
    inputs = promised_inputs(game)
    groups = {}
    sweep = analysis._sweep(strategy, inputs, DEFAULT_MAX_SEED_BITS)
    for x, s, outcome, mask in sweep:
        groups.setdefault((x, s), []).append((outcome, mask))
    assert len(groups) == len(inputs) * len(strategy.shared_domain)
    full = (1 << (1 << nb)) - 1
    for (x, s), parts in groups.items():
        masks = [m for _, m in parts]
        assert sum(m.bit_count() for m in masks) == full.bit_count()
        union = 0
        for m in masks:
            assert union & m == 0
            union |= m
        assert union == full
        for i in rng.sample(range(1 << nb), 32):
            want, _ = execute(strategy, x, seed_at(nb, i, s), record=False)
            got = [o for o, m in parts if m >> i & 1]
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
    strategy = get_strategy(sid)
    game = get_game(strategy.game_id)
    exact_distribution(strategy, game)
    points = len(promised_inputs(game)) * len(strategy.shared_domain)
    assert len(execute_calls) == points
    assert all(isinstance(seed.nlb_bits[0], Lane) for seed in execute_calls)


@pytest.mark.parametrize("sid,gid", [("ms-nlb", "magic-square"),
                                     ("ms-nlb-sim", "magic-square"),
                                     ("search-witness", "multi-mermin:3")])
def test_branching_programs_fall_back_after_one_lane_run(sid, gid, execute_calls):
    strategy, game = build(sid), get_game(gid)
    execute_calls.clear()      # building the search witness re-verifies it
    exact_distribution(strategy, game)
    grid = len(promised_inputs(game)) * strategy.seed_count()
    assert len(execute_calls) == 1 + grid
    assert isinstance(execute_calls[0].nlb_bits[0], Lane)


def test_late_branch_resumes_where_the_lanes_stopped(execute_calls):
    strategy, game = late_branch(), get_game("chsh")
    exact_distribution(strategy, game)
    lane_runs = [s for s in execute_calls if isinstance(s.nlb_bits[0], Lane)]
    # (0,0) under both shared values and (0,1) under shared value 0 finish on
    # lanes; (0,1) under shared value 1 raises
    assert len(lane_runs) == 4
    scalar_points = len(execute_calls) - len(lane_runs)
    assert scalar_points == (1 + 2 * 2) * 4


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


def test_channel_only_strategies_never_build_lanes(execute_calls):
    strategy = get_strategy("ms-comm-sim")
    exact_distribution(strategy, get_game("magic-square"))
    assert len(execute_calls) == 9 * strategy.seed_count()


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


@given(k=st.integers(-(1 << 70), 1 << 70).filter(lambda k: k not in (0, 1)))
def test_non_bit_int_operands_raise_lane_branch(k):
    lane = seed_lanes(1)[0]
    for op in (lambda a, b: a ^ b, lambda a, b: a & b, lambda a, b: a | b):
        with pytest.raises(LaneBranch):
            op(lane, k)
        with pytest.raises(LaneBranch):
            op(k, lane)
