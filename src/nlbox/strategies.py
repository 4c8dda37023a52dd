"""Constructors for the built-in strategies, one per registry id.

Registry ids: ``chsh-nlb``, ``ms-comm``, ``ms-comm-sim``, ``ms-nlb``,
``ms-nlb-sim``, ``mermin-comm``, ``mermin-comm-sim``, ``mermin-nlb``,
``mermin-nlb-sim``, ``multi-mermin-nlb:<n>``, ``dj-nlb:<n>``,
``bmaj-nlb:<n>``, ``nlb-via-comm``.

Every constructor returns an immutable Strategy runnable by the engine; the
"-sim" variants additionally declare the shared-randomness domain that makes
their exact outcome distribution uniform over the winning outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .distbit import cross_pairs, flatten, majority_formula
from .engine import (Action, Channel, NlbInstance, PartyProgram, SharedDomain,
                     Strategy, TRIVIAL_SHARED, bit_domain, equal_bits)
from .games import DJ_MAX_N, EVEN_TRIPLES, ODD_TRIPLES, indicators, resolve_id, select


class StrategyError(Exception):
    pass


# --- magic square matrices ---------------------------------------------------

def all_alice_matrices():
    """The 64 row player's matrices: every row an even-parity triple."""
    return list(itertools.product(EVEN_TRIPLES, repeat=3))


def all_bob_matrices():
    """The 64 column player's matrices: every column an odd-parity triple."""
    return [tuple(zip(*cols)) for cols in itertools.product(ODD_TRIPLES, repeat=3)]


_ALICE_MATRICES = {m: m for m in all_alice_matrices()}
_BOB_MATRICES = {m: m for m in all_bob_matrices()}


def _valid(m, matrices: dict) -> bool:
    """m is a key of matrices, which map each matrix to itself. True and 1.0
    equal 1, so the entries' types are checked unless m is the key itself."""
    try:
        own = matrices.get(m)
    except TypeError:   # unhashable, so not a tuple of bit tuples
        return False
    return own is not None and (own is m or all(type(v) is int for row in m for v in row))


def alice_valid(m) -> bool:
    """Row player's matrices: three rows of bits, each of even parity."""
    return _valid(m, _ALICE_MATRICES)


def bob_valid(m) -> bool:
    """Column player's matrices: three columns of bits, each of odd parity."""
    return _valid(m, _BOB_MATRICES)


def _off_corner(m) -> tuple:
    """A matrix's cells but the bottom-right corner, row by row."""
    return (*m[0], *m[1], *m[2][:2])


def pair_wins_off_corner(a, b) -> bool:
    """True when the (row, column) pair answers correctly on every input
    except possibly (3,3): the matrices agree on all cells but the corner."""
    return _off_corner(a) == _off_corner(b)


# A known-good pair agreeing off the corner, plus the matching column matrix
# whose bottom row equals the row player's (so the column player can switch
# to it for every "row is 3" input).
REF_ALICE = ((0, 1, 1), (1, 1, 0), (0, 1, 1))
REF_BOB0 = ((0, 1, 1), (1, 1, 0), (0, 1, 0))
REF_BOB1 = ((0, 1, 1), (1, 1, 1), (0, 1, 1))


@dataclass(frozen=True)
class MagicSquareQuadruple:
    """Matrices (a0, b0) and (a1, b1) each winning every input but (3,3),
    with a0/b1 and a1/b0 sharing their bottom-right corner entry, so the
    mismatched pairings still agree on input (3,3)."""

    a0: tuple
    a1: tuple
    b0: tuple
    b1: tuple

    def __post_init__(self):
        for m in (self.a0, self.a1):
            if not alice_valid(m):
                raise StrategyError("row matrix must have even-parity rows")
        for m in (self.b0, self.b1):
            if not bob_valid(m):
                raise StrategyError("column matrix must have odd-parity columns")
        if not pair_wins_off_corner(self.a0, self.b0):
            raise StrategyError("(a0, b0) must win every input but (3,3)")
        if not pair_wins_off_corner(self.a1, self.b1):
            raise StrategyError("(a1, b1) must win every input but (3,3)")
        if self.a0[2][2] != self.b1[2][2] or self.a1[2][2] != self.b0[2][2]:
            raise StrategyError("corner entries must be cross-coordinated")


# ms-nlb's quadruple: the first of enumerate_quadruples() with a0 == REF_ALICE
REF_QUADRUPLE = MagicSquareQuadruple(
    a0=REF_ALICE, a1=((0, 0, 0), (0, 0, 0), (1, 1, 0)),
    b0=REF_BOB0, b1=((0, 0, 0), (0, 0, 0), (1, 1, 1)))


def enumerate_quadruples() -> tuple[MagicSquareQuadruple, ...]:
    """Every quadruple satisfying the invariants, filtered from the 64x64
    matrix space, in a fixed lexicographic order."""
    # a pair wins off the corner iff its matrices share those eight cells
    bobs = {}
    for b in _BOB_MATRICES:
        bobs.setdefault(_off_corner(b), []).append(b)
    pairs = [(a, b) for a in _ALICE_MATRICES for b in bobs.get(_off_corner(a), ())]
    quads = []
    for a0, b0 in pairs:
        for a1, b1 in pairs:
            if a0[2][2] == b1[2][2] and a1[2][2] == b0[2][2]:
                quads.append(MagicSquareQuadruple(a0, a1, b0, b1))
    return tuple(quads)


def comm_strategy_pairs() -> tuple:
    """All (alice, bob0, bob1) triples usable by the one-bit protocol:
    (alice, bob0) wins off the corner and bob1's bottom row equals alice's,
    so switching on the "row input is 3" flag wins everywhere."""
    # bob0 shares alice's eight off-corner cells, bob1 her bottom row; each
    # group keeps the column matrices' order
    by_cells, by_bottom = {}, {}
    for b in all_bob_matrices():
        by_cells.setdefault(_off_corner(b), []).append(b)
        by_bottom.setdefault(b[2], []).append(b)
    return tuple((a, b0, b1) for a in all_alice_matrices()
                 for b0 in by_cells.get(_off_corner(a), ())
                 for b1 in by_bottom.get(a[2], ()))


# --- bipartite strategies ----------------------------------------------------

def chsh_nlb() -> Strategy:
    """Both parties relay their input bit into one shared NLB and answer with
    its output; the outputs XOR to the AND of the inputs for every seed."""
    box = NlbInstance("box", 0, 1)

    def feed(view):
        return Action(nlb_inputs={"box": view.own_input})

    def answer(view):
        return Action(output=(view.nlb["box"],))

    prog = PartyProgram((feed, answer))
    return Strategy(name="chsh-nlb", n_parties=2, programs=(prog, prog),
                    nlbs=(box,), game_id="chsh")


def _check_comm_pairs(s0, s1):
    a, b0 = s0
    a1, b1 = s1
    if a != a1:
        raise StrategyError("the row player's matrix must be shared by both pairs")
    if not alice_valid(a):
        raise StrategyError("row matrix must have even-parity rows")
    if not (bob_valid(b0) and bob_valid(b1)):
        raise StrategyError("column matrices must have odd-parity columns")
    if not pair_wins_off_corner(a, b0):
        raise StrategyError("pair 0 must win every input except (3,3)")
    # the switch depends on the row input alone, so pair 1 must win every
    # input whose row is 3, i.e. bob1's bottom row equals the row matrix's
    if any(a[2][j] != b1[2][j] for j in range(3)):
        raise StrategyError("pair 1 must win every input with row input 3")
    return a, b0, b1


def _switched(pairs, s, hot) -> tuple:
    """Per (zeros, ones) pair of triples, the entry at the input whose
    indicators are hot (games.select), u from zeros and w from ones, switched
    by the bit s as u ^ (s & (u ^ w)): bit algebra throughout, so a run on
    input, box or shared lanes never branches."""
    out = []
    for zeros, ones in pairs:
        u = select(zeros, hot)
        out.append(u ^ (s & (u ^ select(ones, hot))))
    return tuple(out)


def _ms_comm_programs(pick):
    """pick(view) -> (alice, bob0, bob1) matrices for this run. The row
    player sends (input == 3) & 1 (engine.equal_bits), and the column
    player switches from bob0 to bob1 on the bit it receives (see
    _switched)."""

    def alice_round(view):
        a, _, _ = pick(view)
        hot = indicators(view.own_input)
        return Action(sends={"row-is-3": equal_bits(view.own_input, (1, 2, 3))[2]},
                      output=tuple([select(column, hot) for column in zip(*a)]))

    def bob_wait(view):
        return Action()

    def bob_answer(view):
        _, b0, b1 = pick(view)
        return Action(output=_switched(zip(b0, b1), view.received["row-is-3"],
                                       indicators(view.own_input)))

    return (PartyProgram((alice_round,)), PartyProgram((bob_wait, bob_answer)))


def magic_square_comm(s0=None, s1=None) -> Strategy:
    """Row player announces whether her input is 3 (one bit); the column
    player answers from matrix b0 or b1 accordingly. Wins all 9 inputs."""
    if s0 is None:
        s0 = (REF_ALICE, REF_BOB0)
    if s1 is None:
        s1 = (s0[0], REF_BOB1)
    a, b0, b1 = _check_comm_pairs(s0, s1)
    fixed = (a, b0, b1)
    programs = _ms_comm_programs(lambda view: fixed)
    return Strategy(name="ms-comm", n_parties=2, programs=programs,
                    channels=(Channel("row-is-3", 0, 1),), game_id="magic-square")


def magic_square_comm_sim() -> Strategy:
    """The one-bit protocol with the matrix triple drawn uniformly from the
    whole family, which makes the outcome distribution uniform over the 8
    winning outcomes of each input."""
    dom = SharedDomain("ms-comm-pairs", comm_strategy_pairs())
    programs = _ms_comm_programs(lambda view: view.shared)
    return Strategy(name="ms-comm-sim", n_parties=2, programs=programs,
                    channels=(Channel("row-is-3", 0, 1),), shared_domain=dom,
                    game_id="magic-square")


def _ms_nlb_programs(pick):
    """pick(view) -> MagicSquareQuadruple for this run. Both parties feed
    (input == 3) & 1 (engine.equal_bits), and the box output p switches
    each answer bit from the 0-matrix to the 1-matrix (see _switched)."""

    def feed(view):
        return Action(nlb_inputs={"pick": equal_bits(view.own_input, (1, 2, 3))[2]})

    def alice_answer(view):
        q = pick(view)
        return Action(output=_switched(zip(zip(*q.a0), zip(*q.a1)), view.nlb["pick"],
                                       indicators(view.own_input)))

    def bob_answer(view):
        q = pick(view)
        return Action(output=_switched(zip(q.b0, q.b1), view.nlb["pick"],
                                       indicators(view.own_input)))

    return (PartyProgram((feed, alice_answer)), PartyProgram((feed, bob_answer)))


def magic_square_nlb(quadruple: MagicSquareQuadruple | None = None) -> Strategy:
    """Both parties feed "my input is 3" into one NLB and play the matrix the
    output selects. The outputs match unless both inputs are 3, where the
    mismatched pairs still agree on the corner; wins all 9 inputs, 1 NLB."""
    q = quadruple if quadruple is not None else REF_QUADRUPLE
    programs = _ms_nlb_programs(lambda view: q)
    return Strategy(name="ms-nlb", n_parties=2, programs=programs,
                    nlbs=(NlbInstance("pick", 0, 1),), game_id="magic-square")


def magic_square_nlb_sim() -> Strategy:
    """Single-NLB magic square play with the quadruple drawn uniformly from
    the full family; exactly uniform over the 8 winning outcomes per input."""
    dom = SharedDomain("ms-quadruples", enumerate_quadruples())
    programs = _ms_nlb_programs(lambda view: view.shared)
    return Strategy(name="ms-nlb-sim", n_parties=2, programs=programs,
                    nlbs=(NlbInstance("pick", 0, 1),), shared_domain=dom,
                    game_id="magic-square")


# --- Mermin-GHZ strategies ---------------------------------------------------

def _mermin_comm_strategy(name, shared_domain, constants):
    """constants(view) -> (b, c): the pre-agreed output bits of parties 1, 2."""

    def alice_wait(view):
        return Action()

    def alice_answer(view):
        b, c = constants(view)
        y = view.own_input | view.received["x-bob"]
        return Action(output=(b ^ c ^ y,))

    def bob_round(view):
        b, _ = constants(view)
        return Action(sends={"x-bob": view.own_input}, output=(b,))

    def charlie_round(view):
        _, c = constants(view)
        return Action(output=(c,))

    return Strategy(
        name=name, n_parties=3,
        programs=(PartyProgram((alice_wait, alice_answer)),
                  PartyProgram((bob_round,)), PartyProgram((charlie_round,))),
        channels=(Channel("x-bob", 1, 0),), shared_domain=shared_domain,
        game_id="mermin")


def mermin_comm() -> Strategy:
    """Parties 1 and 2 answer fixed bits; party 1 sends its input to party 0,
    who answers the OR of the two inputs (XOR the fixed bits)."""
    return _mermin_comm_strategy("mermin-comm", TRIVIAL_SHARED, lambda v: (0, 0))


def mermin_comm_sim() -> Strategy:
    """Same protocol with the two fixed bits drawn uniformly at random,
    spreading the outcome uniformly over the 4 winning outcomes."""
    return _mermin_comm_strategy("mermin-comm-sim", bit_domain(2, "fixed-bits"),
                                 lambda v: v.shared)


def _mermin_nlb_strategy(name, shared_domain, flip):
    """flip(view) -> bit; parties 1 and 2 both XOR it into their answers."""

    def feed(view):
        return Action(nlb_inputs={"or-box": view.own_input ^ 1})

    def alice_answer(view):
        return Action(output=(view.nlb["or-box"],))

    def bob_answer(view):
        return Action(output=(view.nlb["or-box"] ^ flip(view),))

    def charlie_round(view):
        return Action(output=(1 ^ flip(view),))

    return Strategy(
        name=name, n_parties=3,
        programs=(PartyProgram((feed, alice_answer)),
                  PartyProgram((feed, bob_answer)),
                  PartyProgram((charlie_round,))),
        nlbs=(NlbInstance("or-box", 0, 1),), shared_domain=shared_domain,
        game_id="mermin")


def mermin_nlb() -> Strategy:
    """Parties 0 and 1 feed their negated inputs into one NLB, so their
    answers XOR to NOT(x0 OR x1); party 2 answers 1. On the even-sum promise
    the total parity is exactly the required value, for both seeds."""
    return _mermin_nlb_strategy("mermin-nlb", TRIVIAL_SHARED, lambda v: 0)


def mermin_nlb_sim() -> Strategy:
    """Adds one shared random bit telling parties 1 and 2 whether to flip
    both their answers; with the NLB's free bit this spans the 4 winning
    outcomes uniformly."""
    return _mermin_nlb_strategy("mermin-nlb-sim", bit_domain(1, "flip"),
                                lambda v: v.shared[0])


# multi-mermin-nlb:<n> declares C(n, 2) boxes, 780 at the cap: only sampled
# verify reaches past n = 7, and the seed count 2**C(n, 2) that `resources`
# prints has 235 digits at the cap (Python prints at most 4,300)
MULTI_MERMIN_MAX_N = 40


def multi_mermin_pairwise(n: int) -> Strategy:
    """Every pair of parties shares one NLB; each party feeds its input bit
    to all its boxes and answers the parity of the bits it receives."""
    if n < 3:
        raise StrategyError("multi-mermin-nlb needs n >= 3")
    if n > MULTI_MERMIN_MAX_N:
        raise StrategyError(f"multi-mermin-nlb limited to n <= {MULTI_MERMIN_MAX_N}")
    nlbs = tuple(NlbInstance(f"pair:{i}-{j}", i, j)
                 for i, j in itertools.combinations(range(n), 2))
    my_ids = [[x.id for x in nlbs if p in (x.port0_party, x.port1_party)]
              for p in range(n)]

    def make_program(p):
        ids = tuple(my_ids[p])

        def feed(view):
            return Action(nlb_inputs={i: view.own_input for i in ids})

        def answer(view):
            par = 0
            for i in ids:
                par ^= view.nlb[i]
            return Action(output=(par,))

        return PartyProgram((feed, answer))

    return Strategy(name=f"multi-mermin-nlb:{n}", n_parties=n,
                    programs=tuple(make_program(p) for p in range(n)),
                    nlbs=nlbs, game_id=f"multi-mermin:{n}")


# --- distributed Deutsch-Jozsa -----------------------------------------------

def dj_nlb(n: int) -> Strategy:
    """Halving protocol for 2^n-bit inputs: party 0 flips her string, then the
    two run rounds of parallel two-NLB gadgets that map position pairs
    (2j, 2j+1) to one bit whose cross-XOR is (a_2j XOR b_2j) AND
    (a_2j+1 XOR b_2j+1). Each round halves the strings and preserves whether
    they differ everywhere or agree somewhere. After n - floor(lg n) rounds
    the strings are padded to length n with diametric constants (party 0
    appends 1s, party 1 appends 0s) and party 0 flips her result.
    Uses 2^(n+1) - 2^(floor(lg n)+1) NLBs."""
    if n < 1:
        raise StrategyError("dj-nlb needs n >= 1")
    if n > DJ_MAX_N:
        raise StrategyError(f"dj-nlb limited to n <= {DJ_MAX_N}")
    length = 2 ** n
    n_rounds = n - (n.bit_length() - 1)
    final_len = 2 ** (n.bit_length() - 1)

    rounds = []          # per round: the (a, b) box ids of each gadget
    size = length
    for t in range(n_rounds):
        rounds.append(tuple((f"r{t}g{j}a", f"r{t}g{j}b") for j in range(size // 2)))
        size //= 2
    nlbs = tuple(NlbInstance(nid, 0, 1)
                 for gadgets in rounds for pair in gadgets for nid in pair)

    def make_program(party):
        def string_at(view, t):
            # the string fed in round t: the input, or round t-1's string
            # (the memo) halved with round t-1's box outputs
            if t == 0:
                if party == 0:
                    return tuple(b ^ 1 for b in view.own_input)
                return tuple(view.own_input)
            s = view.memo
            nlb = view.nlb
            return tuple((s[2 * j] & s[2 * j + 1]) ^ nlb[a] ^ nlb[b]
                         for j, (a, b) in enumerate(rounds[t - 1]))

        def submit_round(t):
            gadgets = rounds[t]
            first = 0 if party == 0 else 1   # party 1 feeds the pair crosswise

            def fn(view):
                s = string_at(view, t)
                feeds = {}
                for j, (a, b) in enumerate(gadgets):
                    feeds[a] = s[2 * j + first]
                    feeds[b] = s[2 * j + 1 - first]
                return Action(nlb_inputs=feeds, memo=s)
            return fn

        def final(view):
            s = string_at(view, n_rounds)
            if party == 0:
                padded = s + (1,) * (n - final_len)
                return Action(output=tuple(b ^ 1 for b in padded))
            return Action(output=s + (0,) * (n - final_len))

        return PartyProgram(tuple(submit_round(t) for t in range(n_rounds)) + (final,))

    return Strategy(name=f"dj-nlb:{n}", n_parties=2,
                    programs=(make_program(0), make_program(1)),
                    nlbs=nlbs, game_id=f"dj:{n}")


# --- biased majority ---------------------------------------------------------

BMAJ_MAX_N = 6


def bmaj_nlb(n: int) -> Strategy:
    """Evaluates the biased majority as a NOT/AND formula over XOR-shared
    bits, one engine round per AND gate. Gate k consumes one NLB per ordered
    party pair: party i feeds its left-operand share, party j its
    right-operand share, and each party's new share is its local conjunction
    XOR everything it received. The total output parity equals the majority
    bit for every seed. Each party carries its open gate shares from round
    to round in its memo, so a round costs the same at every gate."""
    if n < 2:
        raise StrategyError("bmaj-nlb needs n >= 2")
    if n > BMAJ_MAX_N:
        raise StrategyError(f"bmaj-nlb limited to n <= {BMAJ_MAX_N}")
    flat = flatten(majority_formula(n))
    gates = [node for node in flat if node[0] == "and"]
    n_gates = len(gates)
    pairs = cross_pairs(n)

    box_ids = [[f"g{k}:{i}-{j}" for (i, j) in pairs] for k in range(n_gates)]
    nlbs = tuple(NlbInstance(nid, i, j)
                 for ids in box_ids for nid, (i, j) in zip(ids, pairs))

    def operand(pos, party):
        # (source, flip): the party's share of flat node pos is flip XOR
        # source, which is "gate" (the top of the memo stack), "input" (its
        # own input bit) or "zero"; only party 0 applies NOTs
        node = flat[pos]
        if node[0] == "not":
            source, flip = operand(node[1], party)
            return source, flip ^ (1 if party == 0 else 0)
        if node[0] == "and":
            return "gate", 0
        return ("input" if node[1] == party else "zero"), 0

    def take(view, stack, source, flip):
        if source == "gate":
            return stack[-1] ^ flip, stack[:-1]
        if source == "input":
            return view.own_input ^ flip, stack
        return flip, stack

    def make_program(party):
        # per gate: (box id, feeds the left operand) for each of the gate's
        # boxes with a port at this party, in cross_pairs order
        plans = [tuple((nid, i == party)
                       for nid, (i, j) in zip(ids, pairs) if party in (i, j))
                 for ids in box_ids]

        def closed(view, k):
            # The memo is a stack of the shares of gates whose parent gate
            # has not run yet (post-order keeps them in stack order); on top
            # sits gate k-1's local conjunction, which its box outputs close.
            if k == 0:
                return ()
            stack = view.memo
            share = stack[-1]
            for nid, _ in plans[k - 1]:
                share ^= view.nlb[nid]
            return stack[:-1] + (share,)

        def gate_round(k):
            _, l, r, _ = gates[k]
            left_op, right_op = operand(l, party), operand(r, party)
            plan = plans[k]

            def fn(view):
                stack = closed(view, k)
                # post-order: the right operand's gate closed last, so it
                # is on top of the left one's
                right, stack = take(view, stack, *right_op)
                left, stack = take(view, stack, *left_op)
                feeds = {nid: left if is_left else right for nid, is_left in plan}
                return Action(nlb_inputs=feeds, memo=stack + (left & right,))
            return fn

        root_op = operand(len(flat) - 1, party)

        def final(view):
            share, _ = take(view, closed(view, n_gates), *root_op)
            return Action(output=(share,))

        return PartyProgram(tuple(gate_round(k) for k in range(n_gates)) + (final,))

    return Strategy(name=f"bmaj-nlb:{n}", n_parties=n,
                    programs=tuple(make_program(p) for p in range(n)),
                    nlbs=nlbs, game_id=f"bmaj:{n}")


# --- NLB from one bit of communication ----------------------------------------

def nlb_via_comm() -> Strategy:
    """Replaces one NLB by one shared random bit r and one communication bit:
    party 0 reveals her input and answers r; party 1 answers
    r XOR (a AND b). The joint output distribution over r equals the NLB's
    for every input pair."""
    dom = bit_domain(1, "free-bit")

    def alice(view):
        return Action(sends={"reveal": view.own_input}, output=(view.shared[0],))

    def bob_wait(view):
        return Action()

    def bob_answer(view):
        r = view.shared[0]
        return Action(output=(r ^ (view.received["reveal"] & view.own_input),))

    return Strategy(name="nlb-via-comm", n_parties=2,
                    programs=(PartyProgram((alice,)),
                              PartyProgram((bob_wait, bob_answer))),
                    channels=(Channel("reveal", 0, 1),), shared_domain=dom,
                    game_id="chsh")


# --- registry ----------------------------------------------------------------

STRATEGY_FAMILIES = {
    "chsh-nlb": (chsh_nlb, None),
    "ms-comm": (magic_square_comm, None),
    "ms-comm-sim": (magic_square_comm_sim, None),
    "ms-nlb": (magic_square_nlb, None),
    "ms-nlb-sim": (magic_square_nlb_sim, None),
    "mermin-comm": (mermin_comm, None),
    "mermin-comm-sim": (mermin_comm_sim, None),
    "mermin-nlb": (mermin_nlb, None),
    "mermin-nlb-sim": (mermin_nlb_sim, None),
    "multi-mermin-nlb": (multi_mermin_pairwise, "n"),
    "dj-nlb": (dj_nlb, "n"),
    "bmaj-nlb": (bmaj_nlb, "n"),
    "nlb-via-comm": (nlb_via_comm, None),
}


def get_strategy(strategy_id: str) -> Strategy:
    """Resolve a registry id like ``ms-nlb`` or ``dj-nlb:3``."""
    return resolve_id(STRATEGY_FAMILIES, strategy_id, "strategy", StrategyError)
