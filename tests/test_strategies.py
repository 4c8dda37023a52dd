import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nlbox.analysis import (Exhaustive, Sample, exact_distribution,
                            resource_count, uniformity_verdict, verify_winning)
from distbit_oracle import dist_eval, dist_init
from nlbox.distbit import majority_formula
from nlbox.engine import Seed, enumerate_seeds, execute, nlb_evaluate, sample_seed
from nlbox.games import bmaj, get_game, hamming, is_winning, promised_inputs
from nlbox.strategies import (MagicSquareQuadruple, REF_ALICE, REF_BOB0,
                              REF_BOB1, REF_QUADRUPLE, StrategyError,
                              all_alice_matrices, all_bob_matrices, alice_valid,
                              bob_valid, comm_strategy_pairs,
                              enumerate_quadruples, get_strategy,
                              magic_square_comm, magic_square_nlb,
                              pair_wins_off_corner)

# offline 64^4 census (scripts/quadruple_census.py) frozen here
QUADRUPLE_FAMILY_SIZE = 128
COMM_FAMILY_SIZE = 128


# --- the registry, exhaustively winning --------------------------------------

EXHAUSTIVE_CASES = [
    ("chsh-nlb", "chsh"),
    ("ms-comm", "magic-square"),
    ("ms-comm-sim", "magic-square"),
    ("ms-nlb", "magic-square"),
    ("ms-nlb-sim", "magic-square"),
    ("mermin-comm", "mermin"),
    ("mermin-comm-sim", "mermin"),
    ("mermin-nlb", "mermin"),
    ("mermin-nlb-sim", "mermin"),
    ("multi-mermin-nlb:3", "multi-mermin:3"),
    ("multi-mermin-nlb:4", "multi-mermin:4"),
    ("dj-nlb:1", "dj:1"),
    ("dj-nlb:2", "dj:2"),
    ("bmaj-nlb:2", "bmaj:2"),
]

SAMPLED_CASES = [
    ("multi-mermin-nlb:5", "multi-mermin:5", 128),
    ("multi-mermin-nlb:6", "multi-mermin:6", 128),
    ("dj-nlb:3", "dj:3", 300),
    ("dj-nlb:4", "dj:4", 300),
    ("bmaj-nlb:3", "bmaj:3", 64),
    ("bmaj-nlb:4", "bmaj:4", 32),
    ("bmaj-nlb:5", "bmaj:5", 16),
]


@pytest.mark.parametrize("sid,gid", EXHAUSTIVE_CASES)
def test_wins_exhaustively(sid, gid):
    result = verify_winning(get_strategy(sid), get_game(gid), Exhaustive())
    assert result.passed, result.counterexample


@pytest.mark.parametrize("sid,gid,k", SAMPLED_CASES)
def test_wins_sampled(sid, gid, k):
    result = verify_winning(get_strategy(sid), get_game(gid), Sample(k, 20240817))
    assert result.passed, result.counterexample


def test_registry_errors():
    with pytest.raises(StrategyError):
        get_strategy("nope")
    with pytest.raises(StrategyError):
        get_strategy("chsh-nlb:2")
    with pytest.raises(StrategyError):
        get_strategy("dj-nlb")
    with pytest.raises(StrategyError):
        get_strategy("multi-mermin-nlb:2")


# --- resource accounting vs closed forms --------------------------------------

def bmaj_gates(n):
    c = math.comb(n, n // 2 + 1)
    return (n // 2) * c + c - 1


CLOSED_FORMS = [
    ("chsh-nlb", (1, 0)),
    ("ms-comm", (0, 1)),
    ("ms-comm-sim", (0, 1)),
    ("ms-nlb", (1, 0)),
    ("ms-nlb-sim", (1, 0)),
    ("mermin-comm", (0, 1)),
    ("mermin-comm-sim", (0, 1)),
    ("mermin-nlb", (1, 0)),
    ("mermin-nlb-sim", (1, 0)),
    ("nlb-via-comm", (0, 1)),
] + [
    (f"multi-mermin-nlb:{n}", (math.comb(n, 2), 0)) for n in (3, 4, 5, 6)
] + [
    (f"dj-nlb:{n}", (2 ** (n + 1) - 2 ** (n.bit_length()), 0)) for n in (1, 2, 3, 4)
] + [
    (f"bmaj-nlb:{n}", (n * (n - 1) * bmaj_gates(n), 0)) for n in (2, 3, 4, 5)
]


@pytest.mark.parametrize("sid,expected", CLOSED_FORMS)
def test_resource_counts(sid, expected):
    assert resource_count(get_strategy(sid)) == expected


def test_transcript_counts_input_independent():
    rng = random.Random(51)
    for sid, gid in EXHAUSTIVE_CASES + [(s, g) for s, g, _ in SAMPLED_CASES[:4]]:
        strategy = get_strategy(sid)
        game = get_game(gid)
        nlb, comm = resource_count(strategy)
        for _ in range(3):
            x = game.sample_input(rng)
            _, transcript = execute(strategy, x, sample_seed(strategy, rng))
            assert (transcript.nlb_uses, transcript.comm_bits) == (nlb, comm)


# --- chsh ---------------------------------------------------------------------

def test_chsh_equal_inputs_equal_outputs():
    s = get_strategy("chsh-nlb")
    for seed in enumerate_seeds(s):
        out, _ = execute(s, (0, 0), seed)
        assert out[0] == out[1]


# --- magic square -------------------------------------------------------------

def test_matrix_spaces():
    alices = all_alice_matrices()
    bobs = all_bob_matrices()
    assert len(alices) == 64 and len(bobs) == 64
    assert all(alice_valid(m) for m in alices)
    assert all(bob_valid(m) for m in bobs)
    assert alice_valid(REF_ALICE) and bob_valid(REF_BOB0) and bob_valid(REF_BOB1)


def test_matrix_checks_refuse_non_bits():
    # each of these has the parities the checks once summed, with a 2 or a 3
    # in place of a bit
    assert not alice_valid(((2, 0, 0), (0, 0, 0), (0, 0, 0)))
    assert not bob_valid(((1, 1, 1), (0, 0, 0), (2, 0, 0)))
    assert not alice_valid(((0, 1, 1), (1, 1, 0), (0, 1, 3)))
    assert not bob_valid(((0, 0, 0), (0, 0, 0), (1, 1, 3)))
    # and of shape: a list, too few rows, a row too long
    assert not alice_valid([list(row) for row in REF_ALICE])
    assert not alice_valid(REF_ALICE[:2]) and not bob_valid(REF_BOB0[:2])
    assert not alice_valid(((0, 1, 1, 0), (1, 1, 0), (0, 1, 1)))
    # a quadruple like REF_QUADRUPLE but with corner 3 in a0 and b1
    q = REF_QUADRUPLE
    with pytest.raises(StrategyError, match="even-parity rows"):
        MagicSquareQuadruple(((0, 1, 1), (1, 1, 0), (0, 1, 3)), q.a1, q.b0,
                             ((0, 0, 0), (0, 0, 0), (1, 1, 3)))
    # the reference protocol with a 2 in the first row of a and b0
    a = ((2, 1, 1), *REF_ALICE[1:])
    with pytest.raises(StrategyError, match="even-parity rows"):
        magic_square_comm((a, ((2, 1, 1), *REF_BOB0[1:])), (a, REF_BOB1))


@pytest.mark.parametrize("one,zero", [(True, False), (1.0, 0.0)])
def test_matrix_checks_refuse_bools_and_floats(one, zero):
    # each matrix equals a valid one, since True == 1.0 == 1 and
    # False == 0.0 == 0, but holds an entry that is not an int
    # None is no matrix's key, though a lookup of it finds None
    assert not alice_valid(None) and not bob_valid(None)
    q = REF_QUADRUPLE
    row_matrices = [((zero, one, 1), *REF_ALICE[1:]),       # in the first row
                    tuple((r[0], one, r[2]) for r in REF_ALICE)]    # in a column
    column_matrices = [((zero, one, 1), *REF_BOB0[1:]),
                       tuple((r[0], one, r[2]) for r in REF_BOB0)]
    for a in row_matrices:
        assert a == REF_ALICE and not alice_valid(a) and not bob_valid(a)
        with pytest.raises(StrategyError, match="even-parity rows"):
            MagicSquareQuadruple(a, q.a1, q.b0, q.b1)
        with pytest.raises(StrategyError, match="even-parity rows"):
            magic_square_comm((a, REF_BOB0), (a, REF_BOB1))
    for b in column_matrices:
        assert b == REF_BOB0 and not bob_valid(b)
        with pytest.raises(StrategyError, match="odd-parity columns"):
            MagicSquareQuadruple(q.a0, q.a1, b, q.b1)
        with pytest.raises(StrategyError, match="odd-parity columns"):
            magic_square_comm((REF_ALICE, b), (REF_ALICE, REF_BOB1))


def test_quadruple_family_against_oracles():
    quads = enumerate_quadruples()
    assert len(quads) == QUADRUPLE_FAMILY_SIZE
    # second route: matrices with column parities (1,1,0) pair uniquely with
    # their corner-flip, and quadruples are ordered pairs of such matrices
    # with opposite corners
    def col_parities(m):
        return tuple(sum(m[i][j] for i in range(3)) % 2 for j in range(3))
    pairable = [m for m in all_alice_matrices() if col_parities(m) == (1, 1, 0)]
    assert len(pairable) == 16
    corner0 = sum(1 for m in pairable if m[2][2] == 0)
    assert 2 * corner0 * (16 - corner0) == QUADRUPLE_FAMILY_SIZE


def test_census_script_prints_the_frozen_counts():
    script = Path(__file__).resolve().parents[1] / "scripts" / "quadruple_census.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, check=True).stdout
    assert f"valid quadruples:   {QUADRUPLE_FAMILY_SIZE}\n" in out
    assert "with the reference row matrix as a0: 8\n" in out


def test_ref_quadruple_is_the_first_with_the_reference_row_matrix():
    quads = enumerate_quadruples()
    assert REF_QUADRUPLE == next(q for q in quads if q.a0 == REF_ALICE)
    assert sum(q.a0 == REF_ALICE for q in quads) == 8


def test_quadruple_members_well_formed():
    quads = enumerate_quadruples()
    assert any(q.a0 == REF_ALICE for q in quads)
    for q in quads:
        assert pair_wins_off_corner(q.a0, q.b0)
        assert pair_wins_off_corner(q.a1, q.b1)
        # the crossed pairings still agree on the corner cell
        assert q.a0[2][2] == q.b1[2][2]
        assert q.a1[2][2] == q.b0[2][2]


def test_invalid_quadruple_rejected():
    with pytest.raises(StrategyError):
        MagicSquareQuadruple(REF_ALICE, REF_ALICE, REF_BOB0, REF_BOB0)
    with pytest.raises(StrategyError):
        MagicSquareQuadruple(REF_ALICE, REF_ALICE, REF_BOB0, REF_BOB1)



def test_a_quadruple_whose_first_pair_loses_off_the_corner_is_rejected():
    # a0 and a1 swapped: every matrix is valid, and (a0, b0) disagree off
    # the corner
    q = REF_QUADRUPLE
    assert not pair_wins_off_corner(q.a1, q.b0)
    with pytest.raises(StrategyError,
                       match=r"^\(a0, b0\) must win every input but \(3,3\)$"):
        MagicSquareQuadruple(q.a1, q.a0, q.b0, q.b1)

def test_ms_nlb_seed_cases_at_double_three():
    s = get_strategy("ms-nlb")
    q = REF_QUADRUPLE
    out0, t0 = execute(s, (3, 3), Seed((0,)))
    assert t0.firings[0].inputs == (1, 1) and t0.firings[0].outputs == (0, 1)
    assert out0 == (q.a0[2], tuple(q.b1[i][2] for i in range(3)))
    out1, t1 = execute(s, (3, 3), Seed((1,)))
    assert t1.firings[0].outputs == (1, 0)
    assert out1 == (q.a1[2], tuple(q.b0[i][2] for i in range(3)))
    g = get_game("magic-square")
    assert is_winning(g, (3, 3), out0) and is_winning(g, (3, 3), out1)


def test_ms_nlb_matched_pair_off_double_three():
    s = get_strategy("ms-nlb")
    q = REF_QUADRUPLE
    out, t = execute(s, (1, 2), Seed((0,)))
    assert t.firings[0].outputs == (0, 0)
    assert out == (q.a0[0], tuple(q.b0[i][1] for i in range(3)))


def test_ms_comm_derived_example():
    out, transcript = execute(get_strategy("ms-comm"), (3, 2), Seed(()))
    assert out == ((0, 1, 1), (1, 1, 1))
    assert transcript.sends[0].bit == 1
    assert is_winning(get_game("magic-square"), (3, 2), out)


def test_ms_comm_preconditions():
    other_alice = next(m for m in all_alice_matrices() if m != REF_ALICE)
    with pytest.raises(StrategyError):
        magic_square_comm((REF_ALICE, REF_BOB0), (other_alice, REF_BOB1))
    # s0 must win everywhere off the corner
    with pytest.raises(StrategyError):
        magic_square_comm((REF_ALICE, REF_BOB1), (REF_ALICE, REF_BOB1))
    # s1 must win the whole bottom row, not only (3,3)
    bad_b1 = ((0, 1, 0), (0, 1, 0), (1, 1, 1))
    assert bob_valid(bad_b1) and bad_b1[2][2] == REF_ALICE[2][2]
    with pytest.raises(StrategyError):
        magic_square_comm((REF_ALICE, REF_BOB0), (REF_ALICE, bad_b1))


def test_comm_family_size():
    assert len(comm_strategy_pairs()) == COMM_FAMILY_SIZE


def test_comm_strategy_pairs_match_their_definition():
    # every (row, column, column) triple filtered cell by cell, in product
    # order: the same triples in the same order as the grouped lookup
    bobs = all_bob_matrices()
    brute = tuple((a, b0, b1) for a in all_alice_matrices() for b0 in bobs
                  if pair_wins_off_corner(a, b0)
                  for b1 in bobs if all(a[2][j] == b1[2][j] for j in range(3)))
    assert comm_strategy_pairs() == brute


def test_ms_nlb_sim_alice_marginal_uniform_over_rows():
    dist = exact_distribution(get_strategy("ms-nlb-sim"), get_game("magic-square"))
    marg = dist.marginal((1, 1), 0)
    even_rows = [r for r in itertools.product((0, 1), repeat=3) if sum(r) % 2 == 0]
    assert marg == {tuple(r): Fraction(1, 4) for r in even_rows}


def test_custom_quadruple_strategy_wins():
    quads = enumerate_quadruples()
    g = get_game("magic-square")
    for q in (quads[17], quads[101]):
        result = verify_winning(magic_square_nlb(q), g, Exhaustive())
        assert result.passed


# --- Mermin-GHZ ---------------------------------------------------------------

def test_mermin_comm_proof_example():
    out, transcript = execute(get_strategy("mermin-comm"), (1, 1, 0), Seed(()))
    assert out == ((1,), (0,), (0,))
    assert transcript.comm_bits == 1


def test_mermin_nlb_negates_inputs():
    s = get_strategy("mermin-nlb")
    for seed in enumerate_seeds(s):
        _, transcript = execute(s, (1, 1, 0), seed)
        assert transcript.firings[0].inputs == (0, 0)
        parity = 0
        for part in transcript.outputs:
            parity ^= part[0]
        assert parity == 1
        _, transcript = execute(s, (0, 0, 0), seed)
        assert transcript.firings[0].inputs == (1, 1)


def test_sim_distributions_uniform():
    for sid, gid in [("mermin-comm-sim", "mermin"), ("mermin-nlb-sim", "mermin"),
                     ("ms-comm-sim", "magic-square"), ("ms-nlb-sim", "magic-square")]:
        game = get_game(gid)
        dist = exact_distribution(get_strategy(sid), game)
        assert uniformity_verdict(dist, game), sid


def test_multi_mermin_distribution_uniform_small_n():
    # uniformity over winning outcomes holds exactly for the pairwise-box
    # strategy as well; checked for n where the seed grid stays small
    for n in (3, 4, 5):
        game = get_game(f"multi-mermin:{n}")
        dist = exact_distribution(get_strategy(f"multi-mermin-nlb:{n}"), game)
        assert uniformity_verdict(dist, game), n


def test_multi_mermin_weight_cases():
    s = get_strategy("multi-mermin-nlb:4")
    for seed in enumerate_seeds(s):
        for x, want in [((1, 1, 0, 0), 1), ((1, 1, 1, 1), 0), ((0, 0, 0, 0), 0)]:
            out, transcript = execute(s, x, seed, record=False)
            parity = 0
            for part in out:
                parity ^= part[0]
            assert parity == want
    _, transcript = execute(s, (1, 1, 0, 0), Seed((0,) * 6))
    assert transcript.nlb_uses == 6


# --- distributed Deutsch-Jozsa --------------------------------------------------

def test_dj_equal_strings_example():
    s = get_strategy("dj-nlb:2")
    x = ((0, 1, 1, 0), (0, 1, 1, 0))
    for seed in enumerate_seeds(s):
        out, _ = execute(s, x, seed, record=False)
        assert out[0] == out[1]


def test_dj_distant_strings_differ():
    s = get_strategy("dj-nlb:2")
    g = get_game("dj:2")
    for x in promised_inputs(g):
        if x[0] == x[1]:
            continue
        for seed in enumerate_seeds(s):
            out, _ = execute(s, x, seed, record=False)
            assert out[0] != out[1]


def _dj_stage_strings(n, x, transcript):
    """Reconstruct both parties' intermediate strings from the transcript."""
    za = {f.id: f.outputs[0] for f in transcript.firings}
    zb = {f.id: f.outputs[1] for f in transcript.firings}
    a = tuple(1 ^ bit for bit in x[0])
    b = tuple(x[1])
    stages = [(a, b)]
    for t in range(n - (n.bit_length() - 1)):
        a = tuple((a[2 * j] & a[2 * j + 1]) ^ za[f"r{t}g{j}a"] ^ za[f"r{t}g{j}b"]
                  for j in range(len(a) // 2))
        b = tuple((b[2 * j] & b[2 * j + 1]) ^ zb[f"r{t}g{j}a"] ^ zb[f"r{t}g{j}b"]
                  for j in range(len(b) // 2))
        stages.append((a, b))
    return stages


def _assert_dj_round_invariant(n, x, transcript):
    diametric = x[0] == x[1]
    for a, b in _dj_stage_strings(n, x, transcript):
        if diametric:
            assert hamming(a, b) == len(a)
        else:
            assert hamming(a, b) < len(a)


def test_dj_round_invariant_n2_full_grid():
    s = get_strategy("dj-nlb:2")
    for x in promised_inputs(get_game("dj:2")):
        for seed in enumerate_seeds(s):
            _, transcript = execute(s, x, seed)
            _assert_dj_round_invariant(2, x, transcript)


def test_dj_round_invariant_n3_all_pairs():
    s = get_strategy("dj-nlb:3")
    rng = random.Random(77)
    strings = list(itertools.product((0, 1), repeat=8))
    zero = Seed((0,) * len(s.nlbs))
    for a in strings:
        for b in strings:
            if hamming(a, b) not in (0, 4):
                continue
            x = (a, b)
            for seed in (zero, sample_seed(s, rng)):
                _, transcript = execute(s, x, seed)
                _assert_dj_round_invariant(3, x, transcript)


# --- biased majority -----------------------------------------------------------

def test_bmaj_nlb_two_parties_is_and():
    s = get_strategy("bmaj-nlb:2")
    for x in itertools.product((0, 1), repeat=2):
        for seed in enumerate_seeds(s):
            out, transcript = execute(s, x, seed)
            assert out[0][0] ^ out[1][0] == (x[0] & x[1])
            assert transcript.nlb_uses == 2


def test_bmaj_nlb_three_parties_cases():
    s = get_strategy("bmaj-nlb:3")
    rng = random.Random(9)
    for x, want in [((1, 1, 0), 1), ((0, 0, 0), 0), ((1, 0, 0), 0), ((1, 1, 1), 1)]:
        for _ in range(4):
            out, transcript = execute(s, x, sample_seed(s, rng))
            parity = 0
            for part in out:
                parity ^= part[0]
            assert parity == want
            assert transcript.nlb_uses == 30


def test_bmaj_nlb_shares_match_dist_eval():
    # each party's output is its share of the formula under the same free
    # bits: box k*n(n-1)+m is the m-th cross pair of AND gate k
    for n in range(2, 7):
        s = get_strategy(f"bmaj-nlb:{n}")
        formula = majority_formula(n)
        rng = random.Random(n)
        for _ in range(8):
            x = tuple(rng.randrange(2) for _ in range(n))
            seed = sample_seed(s, rng)
            out, _ = execute(s, x, seed, record=False)
            want = dist_eval(formula, [dist_init(i, b, n) for i, b in enumerate(x)],
                             seed.nlb_bits)
            assert tuple(part[0] for part in out) == want.shares
            assert want.plaintext() == bmaj(x)


def test_bmaj_nlb_limit():
    with pytest.raises(StrategyError):
        get_strategy("bmaj-nlb:7")
    with pytest.raises(StrategyError):
        get_strategy("bmaj-nlb:1")


# --- NLB from one bit of communication ------------------------------------------

def test_nlb_via_comm_matches_box_exactly():
    game = get_game("chsh")
    via_comm = exact_distribution(get_strategy("nlb-via-comm"), game)
    box = exact_distribution(get_strategy("chsh-nlb"), game)
    reference = {}
    for x in promised_inputs(game):
        probs = {}
        for r in (0, 1):
            z0, z1 = nlb_evaluate(x[0], x[1], r)
            outcome = ((z0,), (z1,))
            probs[outcome] = probs.get(outcome, Fraction(0)) + Fraction(1, 2)
        reference[x] = probs
    assert via_comm.per_input == reference
    assert box.per_input == reference


def test_nlb_via_comm_shapes():
    s = get_strategy("nlb-via-comm")
    out, transcript = execute(s, (1, 1), Seed((), 0))
    assert out[0] != out[1]
    assert transcript.comm_bits == 1 and transcript.nlb_uses == 0
    out, _ = execute(s, (0, 1), Seed((), 1))
    assert out[0] == out[1]
