"""The scoring core of deterministic-strategy searches over parity games.

A strategy is scored on the grid of (promised input, free-bit value s), s
ranging over 2^budget, through masks: ints with one bit per grid point. A
few masks are read off the promise; every other one is bit algebra on them.
Each distinct pair mask is scored against each distinct mask of the other
parties once, every mask standing for its first strategy in product order.
Of the pairings that the game's party symmetries map onto each other, only
the first is scored.
"""

from __future__ import annotations

import functools
import itertools
import operator


def party_swaps(game, inputs: list) -> list:
    """The transpositions (i, j), i < j, of parties that map the parity game
    onto itself, given its promise as inputs. Each is checked on the game's
    own data: parties i and j have the same party_inputs and party_outputs;
    swapping coordinates i and j maps the promise onto itself and keeps
    target(x); and answer(τr, τx, o) == answer(r, x, o) for every party r,
    promised x and output o the search reads of r, which are those of
    party_outputs[r] and the bits (0,) and (1,) that a pair party answers.
    Each answer is read once per output and input, as a tuple in promise
    order, so a check permutes tuples."""
    n = game.n_parties
    target, answer = game.parity
    pos = {x: k for k, x in enumerate(inputs)}
    targets = tuple(map(target, inputs))
    answers = [[tuple([answer(r, x, o) for x in inputs])
                for o in dict.fromkeys((*game.party_outputs[r], (0,), (1,)))]
               for r in range(n)]
    swaps = []
    for i, j in itertools.combinations(range(n), 2):
        if (game.party_inputs[i] != game.party_inputs[j]
                or game.party_outputs[i] != game.party_outputs[j]):
            continue
        order = list(range(n))
        order[i], order[j] = j, i
        # τ moves promised input k to promised input perm[k]
        perm = [pos.get(x, -1) for x in map(operator.itemgetter(*order), inputs)]
        if sorted(perm) != list(range(len(inputs))):
            continue

        def moved(t: tuple) -> tuple:
            return tuple(map(t.__getitem__, perm))
        if moved(targets) == targets and all(
                moved(a) == b for r in range(n)
                for a, b in zip(answers[order[r]], answers[r])):
            swaps.append((i, j))
    return swaps


def pairing_orbits(game, inputs: list, pairings: list) -> list:
    """Per pairing, the index of the first pairing of its orbit: the
    connected components of the pairings (union-find) when each of
    party_swaps' τ joins (p, q) with (τp, τq)."""
    index = {pairing: k for k, pairing in enumerate(pairings)}
    root = list(range(len(pairings)))

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for i, j in party_swaps(game, inputs):
        tau = {i: j, j: i}
        for k, (p, q) in enumerate(pairings):
            image = index.get(tuple(sorted((tau.get(p, p), tau.get(q, q)))))
            if image is not None:
                a, b = find(k), find(image)
                root[max(a, b)] = min(a, b)
    return [find(k) for k in range(len(pairings))]


def score_strategies(game, inputs: list, pairings: list, budget: int):
    """Score every deterministic strategy of a parity game, given its
    promise as inputs. At budget 1 the pair of each pairing shares a box;
    every party outside the pairing has one index into party_outputs[r] per
    input, in party_inputs[r] order. The game and budget are the ones
    analysis checked. Returns (grid size, best wins, the first perfect
    (pairing, pair tables, other tables) in product order or None).

    Only the first pairing of each orbit under party_swaps is scored. A τ
    maps each candidate of pairing (p, q) onto one of (τp, τq), and each
    grid point (x, s) onto (τx, s); where τ reverses the port order, onto
    (τx, s ^ gp(x_p) & gq(x_q)), the box output the other port reads. That
    map is a bijection on each input's two s-points, so every point keeps
    its answer and both pairings have the same best. A later pairing of an
    orbit holds no perfect candidate either, since its first pairing came
    earlier and had none. The orbits are built once the first pairing has
    been scored without a perfect candidate."""
    n = game.n_parties
    outputs, domains = game.party_outputs, game.party_inputs
    grid_size = len(inputs) << budget
    target, answer = game.parity
    digits = ("0" * (1 << budget), "1" * (1 << budget))

    def mask(bit) -> int:
        """The grid mask with the points of the i-th promised input x set,
        for every s, iff bit(x) is 1."""
        return int("".join([digits[bit(x)] for x in reversed(inputs)]), 2)

    @functools.cache
    def own_masks(r) -> dict:
        """{mask: first table in product order} over party r's tables. A
        table's mask XORs, per input v, the points with that input where the
        table's output answers 1."""
        answers = [mask(lambda x, out=out: answer(r, x, out)) for out in outputs[r]]
        rows = [[a & mask(lambda x, v=v: x[r] == v) for a in answers] for v in domains[r]]
        tables = itertools.product(range(len(outputs[r])), repeat=len(domains[r]))
        own = {}
        for m, table in zip(map(functools.reduce, itertools.repeat(operator.xor),
                                itertools.product(*rows), itertools.repeat(0)), tables):
            own.setdefault(m, table)
        return own

    target_mask = mask(target)
    full = (1 << grid_size) - 1
    s_mask = int("10" * len(inputs), 2)
    funcs1 = list(itertools.product((0, 1), repeat=2))   # bit -> bit tables
    funcs2 = list(itertools.product((0, 1), repeat=4))   # (bit, bit) -> bit

    def funcs2_masks(lo, hi) -> list:
        """The points where h(2 * hi + lo) is 1, hi and lo given as masks,
        per h in funcs2: an h's mask is the union of the regions it maps to 1."""
        r0, r1, r2, r3 = full ^ (hi | lo), lo & ~hi, hi & ~lo, hi & lo
        return [a | b | c | d for a in (0, r0) for b in (0, r1)
                for c in (0, r2) for d in (0, r3)]

    def pair_masks(p, q):
        """The mask of target ^ the pair's answers per (gp, hp, gq, hq), as an
        iterator in product order; p's box port reads s, q's reads
        s ^ (gp(x_p) & gq(x_q)). A party's answer to a bit b is a0 where b
        is 0 and a1 where it is 1."""
        xp, xq = mask(lambda x: x[p]), mask(lambda x: x[q])
        a0p, a1p = (mask(lambda x, b=b: answer(p, x, (b,))) for b in (0, 1))
        a0q, a1q = (mask(lambda x, b=b: answer(q, x, (b,))) for b in (0, 1))
        # per g in funcs1, the points where g(x_p) is 1, then where g(x_q) is
        gps, gqs = ((0, x, full ^ x, full) for x in (xp, xq))
        heads = [target_mask ^ a0p ^ ((a0p ^ a1p) & h) for h in funcs2_masks(s_mask, xp)]
        tails = [[a0q ^ ((a0q ^ a1q) & h) for gq in gqs
                  for h in funcs2_masks(s_mask ^ (gp & gq), xq)] for gp in gps]
        return itertools.chain.from_iterable(
            map(operator.xor, itertools.repeat(head, 64), tail)
            for tail in tails for head in heads)

    best = -1
    for k, pairing in enumerate(pairings):
        if k == 1:
            first = pairing_orbits(game, inputs, pairings)
        if k and first[k] != k:
            continue    # it scores as its orbit's first pairing did
        # each distinct answer mask of the other parties with its first
        # combination in product order, which extends the first prefix that
        # has the prefix's mask
        others = {0: ()}
        for r in range(n):
            if r not in (pairing or ()):
                folded = {}
                for m, combo in others.items():
                    for own, table in own_masks(r).items():
                        folded.setdefault(m ^ own, combo + (table,))
                others = folded
        distinct = dict.fromkeys([target_mask] if pairing is None
                                 else pair_masks(*pairing))
        hit = next((m for m in distinct if m in others), None)
        if hit is not None:
            pair_tables = None
            if pairing is not None:
                # the first candidate with that mask; the layout is rebuilt
                # once, since a search stops at its first perfect candidate
                i = list(pair_masks(*pairing)).index(hit)
                pair_tables = ((funcs1[i >> 10], funcs2[i >> 6 & 15]),
                               (funcs1[i >> 4 & 3], funcs2[i & 15]))
            return grid_size, grid_size, (pairing, pair_tables, others[hit])
        # every (candidate, combination) mask pair once, the smaller set outside
        outer, inner = sorted((distinct, others), key=len)
        best = max(best, grid_size - min(min(map(int.bit_count, map(m.__xor__, inner)))
                                         for m in outer))
    return grid_size, best, None
