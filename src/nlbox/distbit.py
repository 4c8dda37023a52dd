"""NOT/AND formulas for the distributed AND of XOR-shared bits.

A distributed bit is held as one share per party whose XOR is the plaintext.
Negation is local; the AND of two distributed bits costs n(n-1) NLB firings,
one per ordered cross-term x_i AND y_j (i != j) in the expansion of
(XOR_i x_i) AND (XOR_j y_j). ORs are rewritten through De Morgan at
construction time so the binary-AND count is the single cost metric.

``strategies.bmaj_nlb`` wires these formulas, gate by gate, into the round
executor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class FormulaError(Exception):
    pass


# --- formulas ---------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


def conj(terms):
    """Left-folded AND of one or more formulas."""
    terms = list(terms)
    if not terms:
        raise FormulaError("empty conjunction")
    acc = terms[0]
    for t in terms[1:]:
        acc = And(acc, t)
    return acc


def disj(terms):
    """Left-folded OR, rewritten via De Morgan so only NOT/AND remain."""
    terms = list(terms)
    if not terms:
        raise FormulaError("empty disjunction")
    acc = terms[0]
    for t in terms[1:]:
        acc = Not(And(Not(acc), Not(t)))
    return acc


def flatten(formula) -> list[tuple]:
    """Post-order flat form: entries are ('leaf', v), ('not', child_pos)
    or ('and', left_pos, right_pos, and_ordinal).
    The and_ordinal numbers AND gates in evaluation order."""
    nodes: list[tuple] = []
    counter = itertools.count()

    def walk(f) -> int:
        if isinstance(f, Leaf):
            nodes.append(("leaf", f.index))
        elif isinstance(f, Not):
            c = walk(f.child)
            nodes.append(("not", c))
        elif isinstance(f, And):
            l = walk(f.left)
            r = walk(f.right)
            nodes.append(("and", l, r, next(counter)))
        else:
            raise FormulaError(f"not a formula node: {f!r}")
        return len(nodes) - 1

    walk(formula)
    return nodes


def majority_formula(n: int):
    """Biased majority over n bits as a NOT/AND tree: the OR over all
    (floor(n/2)+1)-subsets, in lexicographic subset order, of the left-folded
    AND of the subset's leaves. AND-gate count:
    floor(n/2) * C(n, floor(n/2)+1) + C(n, floor(n/2)+1) - 1."""
    if n < 2:
        raise FormulaError("majority_formula needs n >= 2")
    k = n // 2 + 1
    terms = [conj(Leaf(i) for i in subset)
             for subset in itertools.combinations(range(n), k)]
    return disj(terms)


def cross_pairs(n: int):
    """The n(n-1) ordered party pairs, in the fixed (i, j) lexicographic
    order in which bmaj-nlb declares each AND gate's boxes."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


