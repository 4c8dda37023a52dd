import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distbit_oracle import (Const, DistributedBit, and_count, dist_and,
                            dist_eval, dist_init, dist_not, formula_eval,
                            gadget_f)
from nlbox.distbit import (And, FormulaError, Leaf, Not, conj, disj, flatten,
                           majority_formula)


def test_gadget_examples():
    assert gadget_f(1, 1, 0, 0, (0, 0)) == (1, 0)
    for seeds in itertools.product((0, 1), repeat=2):
        a, b = gadget_f(0, 0, 0, 0, seeds)
        assert a ^ b == 0
        a, b = gadget_f(1, 0, 0, 0, (1, 1))
        assert a ^ b == 0


def test_gadget_contract_exhaustive():
    for a1, a2, b1, b2 in itertools.product((0, 1), repeat=4):
        for seeds in itertools.product((0, 1), repeat=2):
            a, b = gadget_f(a1, a2, b1, b2, seeds)
            assert a ^ b == (a1 ^ b1) & (a2 ^ b2)


def test_gadget_seed_count():
    with pytest.raises(ValueError):
        gadget_f(0, 0, 0, 0, (0,))


def test_dist_init():
    assert dist_init(0, 1, 3).shares == (1, 0, 0)
    assert dist_init(2, 0, 3).shares == (0, 0, 0)
    assert dist_init(1, 1, 2).shares == (0, 1)
    with pytest.raises(ValueError):
        dist_init(3, 1, 3)


def test_dist_not():
    x = DistributedBit((1, 0, 0))
    assert dist_not(x).shares == (0, 0, 0)
    assert dist_not(DistributedBit((0, 0))).shares == (1, 0)
    assert dist_not(dist_not(x)) == x
    assert dist_not(x).plaintext() == 1 ^ x.plaintext()


def test_dist_and_plaintext_table():
    rng = random.Random(3)
    for va, vb in itertools.product((0, 1), repeat=2):
        x = dist_init(0, va, 2)
        y = dist_init(1, vb, 2)
        seeds = [rng.randrange(2) for _ in range(2)]
        assert dist_and(x, y, seeds).plaintext() == (va & vb)


def test_dist_and_absorbing_zero():
    rng = random.Random(4)
    for _ in range(20):
        x = DistributedBit(tuple(rng.randrange(2) for _ in range(3)))
        if x.plaintext() == 1:
            x = dist_not(x)
        y = DistributedBit(tuple(rng.randrange(2) for _ in range(3)))
        seeds = [rng.randrange(2) for _ in range(6)]
        assert dist_and(x, y, seeds).plaintext() == 0


def test_dist_and_seed_count():
    x = dist_init(0, 1, 4)
    with pytest.raises(ValueError):
        dist_and(x, x, [0] * 11)
    assert dist_and(x, x, [0] * 12).plaintext() == 1


def test_dist_eval_nand():
    formula = Not(And(Leaf(0), Leaf(1)))
    leaves = [dist_init(0, 1, 2), dist_init(1, 1, 2)]
    out = dist_eval(formula, leaves, [0, 1])
    assert out.plaintext() == 0
    for va, vb in itertools.product((0, 1), repeat=2):
        leaves = [dist_init(0, va, 2), dist_init(1, vb, 2)]
        assert dist_eval(formula, leaves, [1, 0]).plaintext() == 1 ^ (va & vb)


def test_dist_eval_single_leaf():
    x = dist_init(1, 1, 3)
    assert dist_eval(Leaf(0), [x], []) == x


def test_dist_eval_seed_arity():
    formula = And(Leaf(0), Leaf(1))
    leaves = [dist_init(0, 1, 3), dist_init(1, 1, 3)]
    with pytest.raises(ValueError):
        dist_eval(formula, leaves, [0] * 5)
    with pytest.raises(FormulaError):
        dist_eval(And(Leaf(0), Leaf(2)), leaves, [0] * 6)


def test_majority_formula_and_counts():
    for n in range(2, 9):
        c = math.comb(n, n // 2 + 1)
        assert and_count(majority_formula(n)) == (n // 2) * c + c - 1
    assert and_count(majority_formula(3)) == 5


def test_majority_formula_matches_bmaj():
    from nlbox.games import bmaj
    for n in range(2, 8):
        f = majority_formula(n)
        for x in itertools.product((0, 1), repeat=n):
            assert formula_eval(f, x) == bmaj(x)


def test_bmaj_formula_distributed_instance():
    f = majority_formula(3)
    rng = random.Random(12)
    seeds = [rng.randrange(2) for _ in range(6 * 5)]
    leaves = [dist_init(i, b, 3) for i, b in enumerate((1, 1, 0))]
    assert dist_eval(f, leaves, seeds).plaintext() == 1
    leaves = [dist_init(i, 0, 3) for i in range(3)]
    assert dist_eval(f, leaves, seeds).plaintext() == 0


def test_flatten_ordinals_are_postorder():
    f = And(And(Leaf(0), Leaf(1)), Not(And(Leaf(2), Leaf(0))))
    flat = flatten(f)
    ordinals = [node[3] for node in flat if node[0] == "and"]
    assert ordinals == [0, 1, 2]
    assert flat[-1][0] == "and" and flat[-1][3] == 2


def test_disj_uses_de_morgan_only():
    f = disj([Leaf(0), Leaf(1), Leaf(2)])
    assert and_count(f) == 2
    for x in itertools.product((0, 1), repeat=3):
        assert formula_eval(f, x) == (x[0] | x[1] | x[2])


# --- share invariant ---------------------------------------------------------

def _random_shares(rng, n, value=None):
    shares = [rng.randrange(2) for _ in range(n)]
    if value is not None:
        current = 0
        for s in shares:
            current ^= s
        shares[0] ^= current ^ value
    return DistributedBit(tuple(shares))


formulas = st.recursive(
    st.sampled_from([Leaf(0), Leaf(1), Leaf(2), Const(0), Const(1)]),
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda t: And(*t))),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(formulas, st.integers(2, 6), st.randoms(use_true_random=False))
def test_share_invariant_random(formula, n, rng):
    leaves = [_random_shares(rng, n) for _ in range(3)]
    seeds = [rng.randrange(2) for _ in range(n * (n - 1) * and_count(formula))]
    out = dist_eval(formula, leaves, seeds)
    expected = formula_eval(formula, [leaf.plaintext() for leaf in leaves])
    assert out.plaintext() == expected


def test_share_invariant_exhaustive_small():
    # n=2, one AND gate: every share assignment x every seed assignment
    f = And(Leaf(0), Leaf(1))
    for xs in itertools.product((0, 1), repeat=2):
        for ys in itertools.product((0, 1), repeat=2):
            x, y = DistributedBit(xs), DistributedBit(ys)
            for seeds in itertools.product((0, 1), repeat=2):
                got = dist_and(x, y, seeds).plaintext()
                assert got == (x.plaintext() & y.plaintext())
    # n=3, two AND gates: every plaintext x every seed assignment
    f = And(And(Leaf(0), Leaf(1)), Leaf(2))
    for values in itertools.product((0, 1), repeat=3):
        leaves = [dist_init(i, v, 3) for i, v in enumerate(values)]
        for seeds in itertools.product((0, 1), repeat=12):
            got = dist_eval(f, leaves, seeds).plaintext()
            assert got == (values[0] & values[1] & values[2])


def test_plaintext_seed_independent_shares_vary():
    f = And(Leaf(0), Leaf(1))
    leaves = [dist_init(0, 1, 3), dist_init(1, 1, 3)]
    rng = random.Random(8)
    seen = set()
    for _ in range(16):
        seeds = [rng.randrange(2) for _ in range(6)]
        out = dist_eval(f, leaves, seeds)
        assert out.plaintext() == 1
        seen.add(out.shares)
    assert len(seen) > 1, "individual shares must vary with the free bits"


@pytest.mark.parametrize("build, message", [
    (lambda: majority_formula(1), "majority_formula needs n >= 2"),
    (lambda: conj([]), "empty conjunction"),
    (lambda: disj([]), "empty disjunction"),
    (lambda: flatten(And(Leaf(0), 1)), "not a formula node: 1"),
    # the oracle's constants are no node of the formulas bmaj-nlb runs
    (lambda: flatten(Not(Const(1))), r"not a formula node: Const\(value=1\)"),
], ids=["majority-of-one", "empty-conj", "empty-disj", "flatten-non-node",
        "flatten-const"])
def test_formula_refusals(build, message):
    with pytest.raises(FormulaError, match=f"^{message}$"):
        build()
