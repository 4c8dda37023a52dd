"""The pure reference evaluator for XOR-shared distributed bits, the
oracle the tests hold ``bmaj-nlb`` and the formula helpers of
``nlbox.distbit`` against.

A distributed bit is held as one share per party whose XOR is the plaintext.
Initialisation and negation are local; the AND of two distributed bits costs
n(n-1) NLB firings, one per ordered cross-term x_i AND y_j (i != j) in the
expansion of (XOR_i x_i) AND (XOR_j y_j). Whole NOT/AND formula trees are
then evaluated gate by gate with explicitly supplied free bits, and checked
against plain Boolean evaluation (``formula_eval``).
"""

from __future__ import annotations

from dataclasses import dataclass

from nlbox.distbit import And, FormulaError, Leaf, Not, cross_pairs
from nlbox.engine import nlb_evaluate


@dataclass(frozen=True)
class DistributedBit:
    shares: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.shares)

    def plaintext(self) -> int:
        """XOR of all shares. Oracle-side reveal for tests and verifiers;
        party programs only ever see their own share."""
        v = 0
        for s in self.shares:
            v ^= s
        return v


# --- formulas ---------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: int


def and_count(formula) -> int:
    if isinstance(formula, (Leaf, Const)):
        return 0
    if isinstance(formula, Not):
        return and_count(formula.child)
    if isinstance(formula, And):
        return 1 + and_count(formula.left) + and_count(formula.right)
    raise FormulaError(f"not a formula node: {formula!r}")


def leaf_count(formula) -> int:
    if isinstance(formula, Leaf):
        return formula.index + 1
    if isinstance(formula, Const):
        return 0
    if isinstance(formula, Not):
        return leaf_count(formula.child)
    if isinstance(formula, And):
        return max(leaf_count(formula.left), leaf_count(formula.right))
    raise FormulaError(f"not a formula node: {formula!r}")


def formula_eval(formula, values) -> int:
    """Plain Boolean evaluation; the independent oracle for dist_eval."""
    if isinstance(formula, Leaf):
        return values[formula.index] & 1
    if isinstance(formula, Const):
        return formula.value & 1
    if isinstance(formula, Not):
        return 1 ^ formula_eval(formula.child, values)
    if isinstance(formula, And):
        return formula_eval(formula.left, values) & formula_eval(formula.right, values)
    raise FormulaError(f"not a formula node: {formula!r}")


# --- distributed operations -------------------------------------------------

def gadget_f(a1: int, a2: int, b1: int, b2: int, seeds) -> tuple[int, int]:
    """Two-party distributed computation of (a1 XOR b1) AND (a2 XOR b2).

    Expanding gives a1a2 XOR b1b2 XOR a1b2 XOR a2b1: the first two terms are
    local and each cross term costs one NLB, so exactly two free bits are
    consumed. Returns (a, b) with a XOR b equal to the target for every seed.
    """
    if len(seeds) != 2:
        raise ValueError("gadget_f consumes exactly 2 free bits")
    za1, zb1 = nlb_evaluate(a1, b2, seeds[0])
    za2, zb2 = nlb_evaluate(a2, b1, seeds[1])
    a = (a1 & a2) ^ za1 ^ za2
    b = (b1 & b2) ^ zb1 ^ zb2
    return a, b


def dist_init(owner: int, value: int, n: int) -> DistributedBit:
    """Initialise a distributed bit from one party's local bit: the owner's
    share is the value, everyone else holds 0."""
    if not 0 <= owner < n:
        raise ValueError("owner out of range")
    return DistributedBit(tuple(value & 1 if i == owner else 0 for i in range(n)))


def dist_not(x: DistributedBit) -> DistributedBit:
    """Negate by flipping party 0's share (any single party would do)."""
    return DistributedBit((x.shares[0] ^ 1,) + x.shares[1:])


def dist_and(x: DistributedBit, y: DistributedBit, seeds) -> DistributedBit:
    """Distributed AND: each party keeps its local conjunction x_i AND y_i and
    XORs in its outputs from one NLB per ordered cross pair (i, j), where
    party i feeds its x-share and party j its y-share."""
    n = x.n
    if y.n != n:
        raise ValueError("operands must share the same party count")
    if len(seeds) != n * (n - 1):
        raise ValueError(f"dist_and over {n} parties consumes {n * (n - 1)} free bits")
    acc = [x.shares[i] & y.shares[i] for i in range(n)]
    for (i, j), r in zip(cross_pairs(n), seeds):
        zi, zj = nlb_evaluate(x.shares[i], y.shares[j], r)
        acc[i] ^= zi
        acc[j] ^= zj
    return DistributedBit(tuple(acc))


def dist_eval(formula, leaves, seeds) -> DistributedBit:
    """Evaluate a NOT/AND formula on distributed leaves, consuming n(n-1)
    free bits per AND gate in post-order gate order."""
    leaves = list(leaves)
    if not leaves:
        raise FormulaError("at least one leaf required")
    n = leaves[0].n
    if any(leaf.n != n for leaf in leaves):
        raise ValueError("leaves must share the same party count")
    if leaf_count(formula) > len(leaves):
        raise FormulaError("formula references a missing leaf")
    per_gate = n * (n - 1)
    need = per_gate * and_count(formula)
    if len(seeds) != need:
        raise ValueError(f"formula needs {need} free bits, got {len(seeds)}")

    pos = 0

    def walk(f) -> DistributedBit:
        nonlocal pos
        if isinstance(f, Leaf):
            return leaves[f.index]
        if isinstance(f, Const):
            return dist_init(0, f.value, n)
        if isinstance(f, Not):
            return dist_not(walk(f.child))
        if isinstance(f, And):
            left = walk(f.left)
            right = walk(f.right)
            chunk = seeds[pos:pos + per_gate]
            pos += per_gate
            return dist_and(left, right, chunk)
        raise FormulaError(f"not a formula node: {f!r}")

    return walk(formula)
