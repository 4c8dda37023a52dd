import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nlbox import analysis
from nlbox.analysis import exact_distribution
from nlbox.engine import (Action, Channel, DeadlockError, EnumerationLimitError,
                          Lane, LaneSeed, MalformedActionError, MissingOutputError,
                          NlbInstance, NonBitError, PartyProgram, ProtocolError,
                          ResourceReuseError, Seed, Strategy,
                          UndeclaredResourceError, UnusedResourceError,
                          SharedDomain, count_text, enumerate_seeds,
                          execute, lowest_bit, nlb_evaluate,
                          require_enumerable, sample_seed, seed_lanes)
from nlbox.games import get_game
from nlbox.strategies import get_strategy


def test_nlb_evaluate_examples():
    assert nlb_evaluate(1, 1, 0) == (0, 1)
    assert nlb_evaluate(0, 1, 1) == (1, 1)
    assert nlb_evaluate(1, 1, 1) == (1, 0)


def test_nlb_evaluate_contract_exhaustive():
    for a, b, r in itertools.product((0, 1), repeat=3):
        z0, z1 = nlb_evaluate(a, b, r)
        assert z0 ^ z1 == (a & b)
    # each side's marginal is uniform over the free bit
    for a, b in itertools.product((0, 1), repeat=2):
        assert {nlb_evaluate(a, b, r)[0] for r in (0, 1)} == {0, 1}
        assert {nlb_evaluate(a, b, r)[1] for r in (0, 1)} == {0, 1}


def _output_own_input():
    def fn(view):
        return Action(output=(view.own_input,))
    return PartyProgram((fn,))


def test_empty_resource_strategy():
    s = Strategy(name="echo", n_parties=2,
                 programs=(_output_own_input(), _output_own_input()))
    out, transcript = execute(s, (1, 0), Seed(()))
    assert out == ((1,), (0,))
    assert transcript.nlb_uses == 0 and transcript.comm_bits == 0
    assert list(enumerate_seeds(s)) == [Seed(())]


def test_execute_deterministic():
    for sid, x in [("chsh-nlb", (1, 0)), ("mermin-nlb-sim", (0, 1, 1))]:
        s = get_strategy(sid)
        for seed in enumerate_seeds(s):
            runs = [execute(s, x, seed) for _ in range(3)]
            assert all(r == runs[0] for r in runs)


def test_chsh_relay_example():
    s = get_strategy("chsh-nlb")
    out, transcript = execute(s, (1, 1), Seed((0,)))
    assert out == ((0,), (1,))
    assert transcript.nlb_uses == 1
    assert transcript.firings[0].inputs == (1, 1)


def test_firings_match_nlb_evaluate():
    # the engine's inlined firing rule stays pinned to nlb_evaluate
    s = get_strategy("multi-mermin-nlb:4")
    by_id = {x.id: k for k, x in enumerate(s.nlbs)}
    for x in [(0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)]:
        for seed in itertools.islice(enumerate_seeds(s), 0, 64, 7):
            _, transcript = execute(s, x, seed)
            for f in transcript.firings:
                assert f.outputs == nlb_evaluate(*f.inputs, seed.nlb_bits[by_id[f.id]])


def test_a_firing_records_its_port_0_feed_first():
    # port 0 at party 1: the firing's inputs are (party 1's feed, party 0's
    # feed), party 1 gets the free bit and party 0 the other output
    box = NlbInstance("box", 1, 0)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def answer(view):
        return Action(output=(view.nlb["box"],))
    prog = PartyProgram((feed, answer))
    s = Strategy(name="crossed", n_parties=2, programs=(prog, prog), nlbs=(box,))
    for x in itertools.product((0, 1), repeat=2):
        for r in (0, 1):
            out, transcript = execute(s, x, Seed((r,)))
            assert transcript.firings[0].inputs == (x[1], x[0])
            assert out == ((r ^ (x[0] & x[1]),), (r,))


def test_undeclared_nlb_rejected():
    def fn(view):
        return Action(nlb_inputs={"ghost": 0}, output=(0,))
    s = Strategy(name="bad", n_parties=2,
                 programs=(PartyProgram((fn,)), _output_own_input()))
    with pytest.raises(UndeclaredResourceError):
        execute(s, (0, 0), Seed(()))


def test_foreign_port_rejected():
    box = NlbInstance("box", 0, 1)

    def intruder(view):
        return Action(nlb_inputs={"box": 0}, output=(0,))
    s = Strategy(name="bad", n_parties=3,
                 programs=(_output_own_input(), _output_own_input(),
                           PartyProgram((intruder,))),
                 nlbs=(box,))
    with pytest.raises(UndeclaredResourceError):
        execute(s, (0, 0, 0), Seed((0,)))


def test_nlb_reuse_rejected():
    box = NlbInstance("box", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def feed_again(view):
        return Action(nlb_inputs={"box": 1}, output=(0,))
    s = Strategy(name="bad", n_parties=2,
                 programs=(PartyProgram((feed, feed_again)),
                           PartyProgram((feed, lambda v: Action(output=(0,))))),
                 nlbs=(box,))
    with pytest.raises(ResourceReuseError):
        execute(s, (0, 0), Seed((0,)))


def test_half_fed_nlb_deadlocks():
    box = NlbInstance("box", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input}, output=(0,))
    s = Strategy(name="bad", n_parties=2,
                 programs=(PartyProgram((feed,)), _output_own_input()),
                 nlbs=(box,))
    with pytest.raises(DeadlockError):
        execute(s, (0, 0), Seed((0,)))


# --- refusals: type, message and precedence --------------------------------------

X = "own input"     # a feed of the party's input bit: a lane in a run on lanes


def _feeding(rounds0, rounds1, rounds2=({},)):
    """A mermin strategy whose party i feeds, round by round, the dicts of
    roundsi (X standing for its input bit) and outputs 0 in its last round.
    Boxes 'a' and 'b' are both wired between parties 0 and 1."""
    def program(rounds):
        def feed(feeds, last):
            def fn(view):
                return Action(nlb_inputs={nid: view.own_input if v is X else v
                                          for nid, v in feeds.items()},
                              output=(0,) if last else None)
            return fn
        return PartyProgram(tuple(feed(f, k == len(rounds) - 1)
                                  for k, f in enumerate(rounds)))
    return Strategy(name="refusals", n_parties=3,
                    programs=tuple(map(program, (rounds0, rounds1, rounds2))),
                    nlbs=(NlbInstance("a", 0, 1), NlbInstance("b", 0, 1)),
                    game_id="mermin")


BOTH = {"a": X, "b": X}
UNDECLARED = (UndeclaredResourceError, "party 2 fed undeclared NLB 'ghost'")
NO_PORT = (UndeclaredResourceError, "party 2 holds no port of NLB 'b'")


@pytest.mark.parametrize("rounds,want", [
    (([BOTH], [BOTH], [{"ghost": 0}]), UNDECLARED),
    (([BOTH], [BOTH], [{"b": X}]), NO_PORT),
    (([BOTH], [BOTH], [{"b": 2}]),
     (NonBitError, "party 2 fed NLB 'b' 2, which is not a bit")),
    (([BOTH, {"a": 1}], [BOTH]), (ResourceReuseError, "NLB 'a' fed more than once")),
    (([BOTH], [BOTH, {"b": X}]), (ResourceReuseError, "NLB 'b' fed more than once")),
    (([{"a": X}, BOTH], [BOTH]), (ResourceReuseError, "NLB 'a' fed more than once")),
    (([BOTH], [{"a": X}]), (DeadlockError, "NLB 'b' fed on one port only")),
    # precedence: an undeclared box before a non-bit, a non-bit before the
    # port check and before a second feed, feeds in dict order, parties in
    # order, and every refusal during the run before a half-fed box
    (([BOTH], [BOTH], [{"ghost": 2}]), UNDECLARED),
    (([BOTH, {"a": 2}], [BOTH]),
     (NonBitError, "party 0 fed NLB 'a' 2, which is not a bit")),
    (([BOTH], [BOTH], [{"b": X, "ghost": 0}]), NO_PORT),
    (([BOTH], [BOTH], [{"ghost": 0, "b": X}]), UNDECLARED),
    (([BOTH], [{**BOTH, "ghost": 0}], [{"b": X}]),
     (UndeclaredResourceError, "party 1 fed undeclared NLB 'ghost'")),
    (([BOTH], [{"a": X}], [{}, {"b": X}]), NO_PORT),
], ids=["undeclared", "no-port", "non-bit-no-port", "port0-twice", "port1-twice",
        "fed-again-later", "half-fed", "undeclared-non-bit", "non-bit-twice",
        "dict-order-port", "dict-order-undeclared", "party-order",
        "no-port-before-half-fed"])
def test_refusals_keep_their_type_message_and_precedence(rounds, want, monkeypatch):
    # the scalar engine on mermin's first point, and exact_distribution,
    # which starts on lanes (each input bit, fed as X, a lane)
    strategy, game = _feeding(*rounds), get_game("mermin")
    with pytest.raises(ProtocolError) as raised:
        execute(strategy, (0, 0, 0), Seed((0, 0)))
    assert (type(raised.value), str(raised.value)) == want
    seeds = []
    real = analysis.execute
    monkeypatch.setattr(analysis, "execute",
                        lambda s, x, seed, **kw: seeds.append(seed) or real(s, x, seed, **kw))
    with pytest.raises(ProtocolError) as raised:
        exact_distribution(strategy, game)
    assert (type(raised.value), str(raised.value)) == want
    assert type(seeds[0]) is LaneSeed


def test_unused_declared_resources_rejected():
    # every declared box fires and every declared channel carries a bit in
    # every run; the declaration is the resource count
    assert issubclass(UnusedResourceError, ProtocolError)
    box, spare = NlbInstance("box", 0, 1), NlbInstance("spare", 1, 0)
    chan = Channel("c", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def answer(view):
        return Action(output=(view.nlb["box"],))
    prog = PartyProgram((feed, answer))
    for nlbs, channels, unused in [((box, spare), (), "NLB 'spare'"),
                                   ((box,), (chan,), "channel 'c'")]:
        s = Strategy(name="idle", n_parties=2, programs=(prog, prog),
                     nlbs=nlbs, channels=channels)
        for seed in enumerate_seeds(s):
            for record in (True, False):
                with pytest.raises(UnusedResourceError, match=unused):
                    execute(s, (1, 1), seed, record=record)

    # a resource used on some inputs only is caught on the others
    def feed_if_one(view):
        return Action(nlb_inputs={"box": 1} if view.own_input else None)

    def answer_zero(view):
        return Action(output=(0,))
    prog = PartyProgram((feed_if_one, answer_zero))
    s = Strategy(name="sometimes", n_parties=2, programs=(prog, prog), nlbs=(box,))
    execute(s, (1, 1), Seed((0,)))
    with pytest.raises(UnusedResourceError):
        execute(s, (0, 0), Seed((0,)))


def test_missing_output_rejected():
    s = Strategy(name="bad", n_parties=1,
                 programs=(PartyProgram((lambda v: Action(),)),))
    with pytest.raises(MissingOutputError):
        execute(s, (0,), Seed(()))


def test_channel_discipline():
    chan = Channel("c", 0, 1)

    def send_twice(view):
        return Action(sends={"c": 1})

    def done(view):
        return Action(output=(0,))
    s = Strategy(name="bad", n_parties=2,
                 programs=(PartyProgram((send_twice, send_twice, done)),
                           PartyProgram((done,))),
                 channels=(chan,))
    with pytest.raises(ResourceReuseError):
        execute(s, (0, 0), Seed(()))

    def wrong_src(view):
        return Action(sends={"c": 1}, output=(0,))
    s = Strategy(name="bad2", n_parties=2,
                 programs=(PartyProgram((done,)), PartyProgram((wrong_src,))),
                 channels=(chan,))
    with pytest.raises(UndeclaredResourceError):
        execute(s, (0, 0), Seed(()))


def test_same_round_nlb_output_not_visible():
    # bulk-synchronous rounds: a box fed this round resolves only after it
    box = NlbInstance("box", 0, 1)

    def greedy(view):
        return Action(nlb_inputs={"box": 0}, output=(view.nlb["box"],))
    s = Strategy(name="bad", n_parties=2,
                 programs=(PartyProgram((greedy,)), PartyProgram((greedy,))),
                 nlbs=(box,))
    with pytest.raises(KeyError):
        execute(s, (0, 0), Seed((0,)))


def test_strategy_validation():
    with pytest.raises(ValueError):
        NlbInstance("box", 1, 1)
    with pytest.raises(ValueError):
        Channel("c", 2, 2)
    with pytest.raises(ValueError):
        Strategy(name="bad", n_parties=2, programs=(_output_own_input(),))
    with pytest.raises(ValueError):
        Strategy(name="bad", n_parties=2,
                 programs=(_output_own_input(), _output_own_input()),
                 nlbs=(NlbInstance("x", 0, 1), NlbInstance("x", 1, 0)))


def test_enumerate_seeds_counts():
    from nlbox.strategies import enumerate_quadruples
    assert len(list(enumerate_seeds(get_strategy("chsh-nlb")))) == 2
    assert len(list(enumerate_seeds(get_strategy("multi-mermin-nlb:4")))) == 64
    sim = get_strategy("ms-nlb-sim")
    assert len(list(enumerate_seeds(sim))) == 2 * len(enumerate_quadruples()) == 256


def test_enumerate_seeds_unique_and_limited():
    s = get_strategy("multi-mermin-nlb:4")
    seeds = list(enumerate_seeds(s))
    assert len(set(seeds)) == len(seeds) == s.seed_count()
    with pytest.raises(EnumerationLimitError):
        list(enumerate_seeds(s, max_seed_bits=5))


def test_seed_limit_compares_bit_lengths():
    # 2^6 seeds fit 6 bits; 3 seeds need 2 bits; a huge limit is checked
    # without building 2**max_seed_bits
    s = get_strategy("multi-mermin-nlb:4")
    require_enumerable(s, 6)
    with pytest.raises(EnumerationLimitError, match=r"limit 2\*\*5\)"):
        require_enumerable(s, 5)
    prog = PartyProgram((lambda view: Action(output=(view.shared,)),))
    three = Strategy(name="three", n_parties=1, programs=(prog,),
                     shared_domain=SharedDomain("three", (0, 1, 2)))
    require_enumerable(three, 2)
    with pytest.raises(EnumerationLimitError):
        require_enumerable(three, 1)
    require_enumerable(s, 10 ** 12)
    with pytest.raises(EnumerationLimitError):
        require_enumerable(s, -1)


def test_seed_json_roundtrip():
    seed = Seed((0, 1, 1), 3)
    assert Seed.from_json(seed.to_json()) == seed


@pytest.mark.parametrize("x,seed,message", [
    ((0, 1), Seed((0,), 0), "^expected 3 inputs, got 2$"),
    ((0, 1, 1), Seed((0, 1), 0), "^seed has wrong number of NLB bits$"),
    ((0, 1, 1), Seed((), 0), "^seed has wrong number of NLB bits$"),
    # the free bit is fed to the box, not output by a party
    ((0, 1, 1), Seed((2,), 0), r"^Seed\(.*\) has free bit 2, which is not a bit$"),
    ((0, 1, 1), Seed((True,), 0), "has free bit True"),
    ((0, 1, 1), Seed((1.0,), 0), "has free bit 1.0"),
    ((0, 1, 1), Seed((None,), 0), "has free bit None"),
    # Python's negative indexing would run -1 as shared index 1
    ((0, 1, 1), Seed((0,), -1), r"has shared index -1, not one of range\(2\)$"),
    ((0, 1, 1), Seed((0,), 2), r"has shared index 2, not one of range\(2\)$"),
    ((0, 1, 1), Seed((0,), True), "has shared index True"),
    ((0, 1, 1), Seed((0,), 1.0), "has shared index 1.0"),
])
def test_execute_refuses_malformed_arguments(x, seed, message):
    strategy = get_strategy("mermin-nlb-sim")
    with pytest.raises(ValueError, match=message) as raised:
        execute(strategy, x, seed)
    assert type(raised.value) is ValueError
    # the same seed with its fields in range runs
    execute(strategy, (0, 1, 1), Seed((1,), 1))


def test_transcript_json_shape():
    s = get_strategy("ms-comm")
    _, transcript = execute(s, (3, 2), Seed(()))
    blob = transcript.to_json()
    assert blob["channel_sends"] == [
        {"id": "row-is-3", "round": 0, "from": 0, "to": 1, "bit": 1}]
    assert blob["nlb_firings"] == []
    assert len(blob["outputs"]) == 2


@given(st.integers(0, 1), st.integers(0, 1))
def test_sampled_seed_is_valid(a, b):
    import random
    s = get_strategy("mermin-nlb-sim")
    rng = random.Random(a * 2 + b)
    seed = sample_seed(s, rng)
    assert len(seed.nlb_bits) == 1
    assert 0 <= seed.shared_index < len(s.shared_domain)


@pytest.mark.parametrize("sid", ["mermin-nlb-sim", "multi-mermin-nlb:5"])
def test_sampled_seed_is_the_randrange_stream(sid):
    # the one-point chunk of sampled verify: one getrandbits(1) per box in
    # declaration order, then the shared index, one randrange over the
    # domain where it has several values
    strategy = get_strategy(sid)
    n = len(strategy.shared_domain)
    for seed in range(20):
        ours, theirs = random.Random(seed), random.Random(seed)
        bits = tuple(theirs.getrandbits(1) for _ in strategy.nlbs)
        shared = theirs.randrange(n) if n > 1 else 0
        assert sample_seed(strategy, ours) == Seed(bits, shared)
        assert ours.getrandbits(32) == theirs.getrandbits(32)


def _components(strategy):
    parent = list(range(strategy.n_parties))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent[find(a)] = find(b)

    for x in strategy.nlbs:
        union(x.port0_party, x.port1_party)
    for c in strategy.channels:
        union(c.src, c.dst)
    return [find(i) for i in range(strategy.n_parties)]


def _assert_structural_locality(strategy, domains):
    comps = _components(strategy)
    n = strategy.n_parties
    for base in itertools.product(*domains):
        for seed in enumerate_seeds(strategy):
            ref, _ = execute(strategy, base, seed, record=False)
            for j in range(n):
                for alt in domains[j]:
                    if alt == base[j]:
                        continue
                    mutated = base[:j] + (alt,) + base[j + 1:]
                    out, _ = execute(strategy, mutated, seed, record=False)
                    for i in range(n):
                        if comps[i] != comps[j]:
                            assert out[i] == ref[i], (
                                f"party {i} saw party {j}'s input change")


def test_structural_locality_builtins():
    bits = ((0, 1),) * 3
    _assert_structural_locality(get_strategy("mermin-nlb"), bits)
    _assert_structural_locality(get_strategy("mermin-nlb-sim"), bits)
    _assert_structural_locality(get_strategy("mermin-comm"), bits)


def test_structural_locality_disconnected_pairs():
    box = NlbInstance("box", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def answer(view):
        return Action(output=(view.nlb["box"],))
    lonely = PartyProgram((lambda v: Action(output=(v.own_input,)),))
    s = Strategy(name="toy", n_parties=4,
                 programs=(PartyProgram((feed, answer)),
                           PartyProgram((feed, answer)), lonely, lonely),
                 nlbs=(box,))
    _assert_structural_locality(s, ((0, 1),) * 4)


# --- round memos -----------------------------------------------------------------

def _memo_probe(log, n_rounds):
    """Two parties that log the memo each round sees and leave a memo naming
    the party and round; party 1 ends one round earlier."""
    def make(party):
        def rnd(k):
            def fn(view):
                log.append((party, k, view.memo))
                if k == n_rounds[party] - 1:
                    return Action(output=(0,), memo=("last", party))
                return Action(memo=(party, k))
            return fn
        return PartyProgram(tuple(rnd(k) for k in range(n_rounds[party])))
    return Strategy(name="memo-probe", n_parties=2, programs=(make(0), make(1)))


def test_memo_starts_empty_and_carries_the_previous_action():
    log = []
    s = _memo_probe(log, (4, 3))
    for _ in range(2):   # a second run starts from empty memos again
        log.clear()
        execute(s, (0, 0), Seed(()))
        for party, k, memo in log:
            assert memo == (None if k == 0 else (party, k - 1))
        assert sorted((p, k) for p, k, _ in log) == \
            [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)]


def test_memo_stays_with_its_party_and_out_of_the_transcript():
    box = NlbInstance("box", 0, 1)
    chan = Channel("c", 0, 1)

    def program(memo_of):
        def feed(view):
            return Action(nlb_inputs={"box": view.own_input},
                          sends={"c": view.own_input} if view.party == 0 else None,
                          memo=memo_of(view))

        def answer(view):
            assert view.memo == memo_of(view)
            return Action(output=(view.nlb["box"],), memo=memo_of(view))
        return PartyProgram((feed, answer))

    def build(memo_of):
        prog = program(memo_of)
        return Strategy(name="memo", n_parties=2, programs=(prog, prog),
                        nlbs=(box,), channels=(chan,))

    with_memo = build(lambda view: {"secret of": view.party})
    without = build(lambda view: None)
    for x in itertools.product((0, 1), repeat=2):
        for seed in enumerate_seeds(with_memo):
            assert execute(with_memo, x, seed) == execute(without, x, seed)


# --- non-bit values --------------------------------------------------------------

def _one_box(feed_bit, output, send_bit=None):
    box = NlbInstance("box", 0, 1)
    chan = Channel("c", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": feed_bit},
                      sends=None if send_bit is None or view.party
                      else {"c": send_bit})

    def answer(view):
        return Action(output=output)
    prog = PartyProgram((feed, answer))
    return Strategy(name="one-box", n_parties=2, programs=(prog, prog),
                    nlbs=(box,), channels=(chan,))


def test_non_bit_feed_and_output_rejected():
    # fed 2 and output (7,): once recorded as inputs=(0, 0) and ((7,), (7,))
    assert issubclass(NonBitError, ProtocolError)
    cases = [(2, (7,), None), (2, (0,), None), (1, (7,), None),
             (-1, (0,), None), (True, (0,), None), (None, (0,), None),
             (1, (0, 2), None), (1, (0.0,), None), (1, (False,), None),
             (1, 7, None), (1, ((0, 3),), None), (1, (0,), 2), (1, (0,), True)]
    for feed_bit, output, send_bit in cases:
        s = _one_box(feed_bit, output, send_bit)
        for seed in enumerate_seeds(s):
            with pytest.raises(NonBitError):
                execute(s, (0, 0), seed)
            with pytest.raises(NonBitError):
                execute(s, (0, 0), seed, record=False)


NON_SEQUENCE_OUTPUTS = [lambda: {1: "x", 0: "y"}, lambda: {1, 0},
                        lambda: iter([1]), lambda: (b for b in (1,))]


def test_outputs_other_than_tuples_and_lists_rejected():
    # once taken for the dict's keys, the set's items and the iterators' items
    for make in NON_SEQUENCE_OUTPUTS:
        s = _one_box(1, make(), send_bit=0)
        with pytest.raises(NonBitError, match="not a tuple or list"):
            execute(s, (0, 0), Seed((0,)))
    out, _ = execute(_one_box(1, [1, 0], send_bit=0), (0, 0), Seed((0,)))
    assert out == ((1, 0), (1, 0))


def test_bits_and_lanes_pass_unchanged():
    s = _one_box(1, (1, 0, 1), send_bit=0)
    out, transcript = execute(s, (0, 0), Seed((1,)))
    assert out == ((1, 0, 1), (1, 0, 1))
    assert transcript.firings[0].inputs == (1, 1)
    assert transcript.sends[0].bit == 0
    # box outputs are lanes on the lane path, and may be fed, sent and output
    box, relay = NlbInstance("box", 0, 1), NlbInstance("relay", 0, 1)
    chan = Channel("c", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def relay_feed(view):
        return Action(nlb_inputs={"relay": view.nlb["box"]},
                      sends={"c": view.nlb["box"]} if view.party == 0 else None)

    def answer(view):
        return Action(output=(view.nlb["relay"], view.nlb["box"]))
    prog = PartyProgram((feed, relay_feed, answer))
    s = Strategy(name="relay", n_parties=2, programs=(prog, prog),
                 nlbs=(box, relay), channels=(chan,))
    lanes = seed_lanes(2)
    out, transcript = execute(s, (1, 1), LaneSeed(lanes, None, 0, 0b1111))
    assert all(type(v) is Lane for part in out for v in part)
    assert type(transcript.sends[0].bit) is Lane
    for i, seed in enumerate(enumerate_seeds(s)):
        scalar, _ = execute(s, (1, 1), seed)
        assert scalar == tuple(tuple(v.mask >> i & 1 for v in part) for part in out)
    # a scalar Seed holds bits only: lanes come in a LaneSeed
    with pytest.raises(ValueError, match=r"^Seed\(.*\) has free bit Lane\("):
        execute(s, (1, 1), Seed(lanes))


def test_malformed_actions_rejected():
    # once a bare AttributeError each, except the empty tuple of feeds, which
    # was taken for no feeds
    box, chan = NlbInstance("box", 0, 1), Channel("c", 0, 1)
    for fn in (lambda v: None, lambda v: {"output": (0,)},
               lambda v: Action(nlb_inputs=[("box", 1)]),
               lambda v: Action(sends=[("c", 1)], output=(0,)),
               lambda v: Action(nlb_inputs=(), output=(0,))):
        s = Strategy(name="malformed", n_parties=2,
                     programs=(PartyProgram((fn,)), _output_own_input()),
                     nlbs=(box,), channels=(chan,))
        with pytest.raises(MalformedActionError):
            execute(s, (0, 0), Seed((0,)))
    s = Strategy(name="malformed", n_parties=1,
                 programs=(PartyProgram((lambda v: None,)),))
    with pytest.raises(MalformedActionError):
        execute(s, (0,), Seed(()))


VALUES = st.sampled_from([0, 1, 2, -1, True, False, None, 0.0, "1", (0,), (1, 2)])


def _resource_requests(ids):
    pairs = st.tuples(st.sampled_from(ids), VALUES)
    return (st.none() | st.dictionaries(st.sampled_from(ids), VALUES, max_size=2)
            | st.lists(pairs, max_size=2) | VALUES)


OUTPUTS = (st.none() | st.tuples() | st.tuples(VALUES) | st.tuples(VALUES, VALUES)
           | VALUES | st.lists(VALUES, max_size=2)
           | st.sampled_from(NON_SEQUENCE_OUTPUTS).map(lambda make: make()))
ACTIONS = st.builds(Action, nlb_inputs=_resource_requests(["box", "ghost"]),
                    sends=_resource_requests(["c", "ghost"]), output=OUTPUTS,
                    memo=VALUES)
ROUND_RESULTS = ACTIONS | VALUES | st.fixed_dictionaries({"output": OUTPUTS})


@given(st.lists(ROUND_RESULTS, min_size=1, max_size=3),
       st.lists(ROUND_RESULTS, min_size=1, max_size=3), st.integers(0, 1))
# a run that is clean but for a dict output, which was taken for its keys
@example([Action(nlb_inputs={"box": 1}, sends={"c": 0}, output={1: "x"})],
         [Action(nlb_inputs={"box": 0}, output=(0,))], 0)
def test_malformed_actions_end_in_protocol_errors(actions0, actions1, r):
    # undeclared ids, party 1 sending on party 0's channel, double feeds,
    # non-bits, missing outputs, unused resources, non-Action round results
    # and non-dict feeds and sends, in every mix
    def program(actions):
        return PartyProgram(tuple((lambda view, a=a: a) for a in actions))
    s = Strategy(name="malformed", n_parties=2,
                 programs=(program(actions0), program(actions1)),
                 nlbs=(NlbInstance("box", 0, 1),), channels=(Channel("c", 0, 1),))
    try:
        out, transcript = execute(s, (0, 1), Seed((r,)))
    except ProtocolError:
        return
    assert all(type(v) is int and v in (0, 1) for part in out for v in part)
    # each party's output came from its first Action with one, a tuple or list
    for actions in (actions0, actions1):
        output = next(a.output for a in actions if a.output is not None)
        assert type(output) in (tuple, list)
    assert len(transcript.firings) == len(transcript.sends) == 1
    for f in transcript.firings:
        assert all(type(v) is int and v in (0, 1) for v in f.inputs + f.outputs)
    assert all(type(c.bit) is int and c.bit in (0, 1) for c in transcript.sends)


@pytest.mark.parametrize("low", [0, 5, 63, 64, 65, 511, 512, 1000, 4095, 4096,
                                 16900, 1 << 21])
def test_lowest_bit_past_the_first_word(low):
    for high in (0, 1, 64, 1 << 21):
        mask = 1 << low | 1 << (low + high)
        assert lowest_bit(mask) == low == (mask & -mask).bit_length() - 1


def test_counts_past_64_bits_are_named_as_powers_of_two():
    assert count_text(16) == "16"
    assert count_text((1 << 64) - 1) == str((1 << 64) - 1)
    assert count_text(1 << 64) == "2**64"
    assert count_text(3 << 100) == "more than 2**101"
    # past the 4,300 digits Python converts to a string
    assert count_text(1 << 20000) == "2**20000"
