"""Exact distribution computation, classical-value brute force, impossibility
searches, non-signaling checks, and resource accounting.

All probabilities and game values are exact rationals computed by full
enumeration; no floating point enters any probability computation. Searches
over strategies are restricted to deterministic ones, which is without loss
of generality for probability-1 questions (every support point of a winning
randomized strategy must itself win) and for maxima (a mixture's success is
a convex combination of deterministic successes).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .engine import (Lane, LaneBranch, NlbInstance, PartyProgram, Action, Seed,
                     Strategy, DEFAULT_MAX_SEED_BITS, enumerate_seeds, execute,
                     require_enumerable, sample_seed, seed_at, seed_lanes)
from .games import (Game, is_winning, promised_inputs, sample_promised_input,
                    winning_outcomes)

DEFAULT_MAX_SEARCH = 2 ** 28


class AnalysisError(Exception):
    pass


class CommunicationUsedError(AnalysisError):
    """The requested check only applies to communication-free strategies."""


class SearchSpaceError(AnalysisError):
    pass


# --- seed policies -----------------------------------------------------------

@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sample:
    k: int
    rng_seed: int

    def __post_init__(self):
        if self.k < 1:
            raise AnalysisError(f"sample count must be at least 1, got {self.k}")


# --- the exhaustive sweep ----------------------------------------------------

def _split_outcome(outcome, full: int):
    """Split the seeds of one lane run by the outcome each seed produced.

    Returns (outcome of bits, seed mask) pairs with non-empty, disjoint
    masks, ordered by each mask's lowest seed: the order in which a
    seed-by-seed sweep first meets the outcomes."""
    groups = [((), full)]
    for v in (v for part in outcome for v in part):
        if type(v) is Lane:
            ones, zeros = v.mask, v.mask ^ full
            groups = [(bits + (b,), m) for bits, mask in groups
                      for b, m in ((0, mask & zeros), (1, mask & ones)) if m]
        else:
            groups = [(bits + (v,), mask) for bits, mask in groups]
    groups.sort(key=lambda g: g[1] & -g[1])
    ends = list(itertools.accumulate(len(part) for part in outcome))
    return [(tuple(bits[end - len(part):end] for part, end in zip(outcome, ends)),
             mask) for bits, mask in groups]


def _lane_sweep(strategy: Strategy, inputs):
    """One execute per (input, shared index) with every NLB free bit a lane
    over all 2**#NLBs seeds. Returns the (input position, shared index) of
    the first run that raised LaneBranch, or None when every run finished."""
    lanes = seed_lanes(len(strategy.nlbs))
    full = lanes[0].full
    for xi, x in enumerate(inputs):
        for s in range(len(strategy.shared_domain)):
            try:
                outcome, _ = execute(strategy, x, Seed(lanes, s), record=False)
                groups = _split_outcome(outcome, full)
            except LaneBranch:
                return xi, s
            for split, mask in groups:
                yield x, s, split, mask
    return None


def _sweep(strategy: Strategy, inputs, max_seed_bits: int):
    """The exhaustive (input x seed) grid, grouped by outcome.

    Yields (x, shared_index, outcome, seed_mask), where bit i of seed_mask
    stands for the i-th seed of shared_index in enumerate_seeds' order, in
    the order a seed-by-seed sweep meets them. Runs on lanes while the
    strategy's programs allow it; from the first LaneBranch on, and for
    strategies without NLBs, it executes seed by seed with one-bit masks."""
    require_enumerable(strategy, max_seed_bits)
    stop = (yield from _lane_sweep(strategy, inputs)) if strategy.nlbs else (0, 0)
    if stop is None:
        return
    x0, s0 = stop
    block = (1 << len(strategy.nlbs)) - 1
    for xi in range(x0, len(inputs)):
        x = inputs[xi]
        for k, seed in enumerate(enumerate_seeds(strategy, max_seed_bits)):
            if xi > x0 or seed.shared_index >= s0:
                outcome, _ = execute(strategy, x, seed, record=False)
                yield x, seed.shared_index, outcome, 1 << (k & block)


# --- exact distributions -----------------------------------------------------

@dataclass
class ExactDistribution:
    """Per promised input, the exact outcome probabilities of a strategy,
    with common denominator equal to the seed-space cardinality."""

    strategy: str
    game: str
    seed_count: int
    per_input: dict

    def probabilities(self, input_tuple) -> dict:
        return self.per_input[input_tuple]

    def marginal(self, input_tuple, party: int) -> dict:
        out: dict = {}
        for outcome, p in self.per_input[input_tuple].items():
            key = outcome[party]
            out[key] = out.get(key, Fraction(0)) + p
        return out

    def to_json(self) -> dict:
        inputs = []
        for x, probs in self.per_input.items():
            outcomes = [{"outcome": [list(part) for part in o],
                         "num": p.numerator, "den": p.denominator}
                        for o, p in sorted(probs.items())]
            inputs.append({"input": _jsonable(x), "outcomes": outcomes})
        return {"strategy": self.strategy, "game": self.game,
                "seed_count": self.seed_count, "inputs": inputs}


def _jsonable(x):
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def exact_distribution(strategy: Strategy, game: Game,
                       max_seed_bits: int = DEFAULT_MAX_SEED_BITS) -> ExactDistribution:
    """Full seed enumeration for every promised input."""
    if strategy.n_parties != game.n_parties:
        raise AnalysisError(f"{strategy.name} has wrong party count for {game.name}")
    inputs = promised_inputs(game)
    counts = {x: {} for x in inputs}
    for x, _, outcome, mask in _sweep(strategy, inputs, max_seed_bits):
        c = counts[x]
        c[outcome] = c.get(outcome, 0) + mask.bit_count()
    total = strategy.seed_count()
    per_input = {x: {o: Fraction(n, total) for o, n in c.items()}
                 for x, c in counts.items()}
    return ExactDistribution(strategy.name, game.name, total, per_input)


def uniformity_verdict(dist: ExactDistribution, game: Game) -> bool:
    """True iff, for every promised input, the distribution is exactly
    uniform over that input's winning outcomes and zero elsewhere."""
    for x, probs in dist.per_input.items():
        winners = winning_outcomes(game, x)
        if set(probs) != winners:
            return False
        share = Fraction(1, len(winners))
        if any(p != share for p in probs.values()):
            return False
    return True


# --- winning verification ----------------------------------------------------

@dataclass
class VerifyResult:
    passed: bool
    mode: str
    checked: int
    wins: int
    counterexample: dict | None

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.wins, self.checked)


def verify_winning(strategy: Strategy, game: Game, policy,
                   max_seed_bits: int = DEFAULT_MAX_SEED_BITS) -> VerifyResult:
    """Check the win relation on every (input, seed) of the policy's grid.

    Exhaustive mode sweeps the full promise x seed grid, deciding each
    distinct outcome once; the counterexample is the first losing point in
    enumerate_seeds' order. Sampled mode draws (input, seed) pairs from the
    given rng seed; each run is still an exact deterministic execution."""
    if strategy.n_parties != game.n_parties:
        raise AnalysisError(f"{strategy.name} has wrong party count for {game.name}")
    checked = wins = 0
    counterexample = None

    def record(x, make_seed, outcome, won, weight=1):
        nonlocal checked, wins, counterexample
        checked += weight
        if won:
            wins += weight
        elif counterexample is None:
            counterexample = {"input": _jsonable(x), "seed": make_seed().to_json(),
                              "outcome": [list(p) for p in outcome]}

    if isinstance(policy, Exhaustive):
        nb = len(strategy.nlbs)
        for x, s, outcome, mask in _sweep(strategy, promised_inputs(game),
                                          max_seed_bits):
            record(x, lambda: seed_at(nb, (mask & -mask).bit_length() - 1, s),
                   outcome, is_winning(game, x, outcome), mask.bit_count())
        mode = "exhaustive"
    elif isinstance(policy, Sample):
        rng = random.Random(policy.rng_seed)
        for _ in range(policy.k):
            x = sample_promised_input(game, rng)
            seed = sample_seed(strategy, rng)
            outcome, _ = execute(strategy, x, seed, record=False)
            record(x, lambda: seed, outcome, is_winning(game, x, outcome))
        mode = f"sample:{policy.k}"
    else:
        raise AnalysisError(f"unknown seed policy {policy!r}")
    return VerifyResult(counterexample is None, mode, checked, wins, counterexample)


# --- non-signaling -----------------------------------------------------------

def marginals_non_signaling(dist: ExactDistribution, n_parties: int) -> bool:
    """True iff each party's marginal is identical across all inputs that
    agree on that party's coordinate."""
    inputs = list(dist.per_input)
    for party in range(n_parties):
        buckets: dict = {}
        for x in inputs:
            buckets.setdefault(x[party], []).append(dist.marginal(x, party))
        for margs in buckets.values():
            if any(m != margs[0] for m in margs[1:]):
                return False
    return True


def no_signaling_check(strategy: Strategy, game: Game,
                       max_seed_bits: int = DEFAULT_MAX_SEED_BITS) -> bool:
    """True iff every party's exact output marginal depends only on its own
    input, across all promised inputs. Inapplicable to strategies that use
    communication channels (those may signal by design)."""
    if strategy.channels:
        raise CommunicationUsedError(
            f"{strategy.name} uses communication; the check does not apply")
    dist = exact_distribution(strategy, game, max_seed_bits)
    return marginals_non_signaling(dist, game.n_parties)


# --- classical value ---------------------------------------------------------

def classical_value(game: Game, max_candidates: int = DEFAULT_MAX_SEARCH) -> Fraction:
    """Maximum fraction of promised inputs won by any deterministic
    no-communication strategy, inputs weighted uniformly. Shared randomness
    cannot beat this maximum, so it is the classical game value."""
    if game.party_inputs is None:
        raise SearchSpaceError(f"{game.name} has no enumerable per-party inputs")
    promise = promised_inputs(game)
    domains = game.party_inputs
    tables_per_party = []
    total = 1
    for i in range(game.n_parties):
        outs = game.party_outputs[i]
        total *= len(outs) ** len(domains[i])
        tables_per_party.append(
            list(itertools.product(outs, repeat=len(domains[i]))))
    if total > max_candidates:
        raise SearchSpaceError(
            f"{total} deterministic strategies exceed the limit {max_candidates}")

    index = [{v: k for k, v in enumerate(domains[i])}
             for i in range(game.n_parties)]
    indexed = [tuple(index[i][x[i]] for i in range(game.n_parties))
               for x in promise]
    win = game.win
    best = 0
    for combo in itertools.product(*tables_per_party):
        w = 0
        for x, xi in zip(promise, indexed):
            outcome = tuple(combo[i][xi[i]] for i in range(game.n_parties))
            if win(x, outcome):
                w += 1
        if w > best:
            best = w
            if best == len(promise):
                break
    return Fraction(best, len(promise))


# --- impossibility search ----------------------------------------------------

@dataclass
class SearchReport:
    """Outcome of an exhaustive deterministic-strategy search under a fixed
    NLB budget. Restricting to deterministic strategies is WLOG for the
    probability-1 question; the grid weights promised inputs and free-bit
    values uniformly."""

    game: str
    budget: str
    pairings: tuple
    candidates: int
    grid_size: int
    best_wins: int
    perfect: bool
    witness: dict | None
    witness_strategy: Strategy | None

    @property
    def best_fraction(self) -> Fraction:
        return Fraction(self.best_wins, self.grid_size)

    def to_json(self) -> dict:
        return {
            "game": self.game, "budget": self.budget,
            "pairings": [list(p) for p in self.pairings],
            "candidates": self.candidates, "grid_size": self.grid_size,
            "best": {"num": self.best_fraction.numerator,
                     "den": self.best_fraction.denominator},
            "perfect": self.perfect, "witness": self.witness,
            "note": "deterministic strategies are exhaustive for the "
                    "probability-1 question",
        }


def _require_parity_game(game: Game):
    if game.parity_target is None or any(w != 1 for w in game.output_lengths):
        raise SearchSpaceError(
            f"search supports single-bit parity games; {game.name} is not one")
    if game.party_inputs is None or any(d != (0, 1) for d in game.party_inputs):
        raise SearchSpaceError(
            f"search needs binary per-party inputs, which {game.name} lacks")


def strategy_from_tables(game: Game, pairing, pair_tables, other_tables) -> Strategy:
    """Materialise a searched deterministic strategy as an executable
    Strategy so the reported witness re-verifies under the engine."""
    n = game.n_parties
    nlbs = ()
    pair_progs = {}
    if pairing is not None:
        p, q = pairing
        gp, hp = pair_tables[0]
        gq, hq = pair_tables[1]
        nlbs = (NlbInstance("box", p, q),)

        def make_pair(g, h):
            def feed(view):
                return Action(nlb_inputs={"box": g[view.own_input]})

            def answer(view):
                return Action(output=(h[2 * view.own_input + view.nlb["box"]],))
            return PartyProgram((feed, answer))

        pair_progs = {p: make_pair(gp, hp), q: make_pair(gq, hq)}

    def make_other(f):
        def answer(view):
            return Action(output=(f[view.own_input],))
        return PartyProgram((answer,))

    programs = []
    oi = 0
    for r in range(n):
        if r in pair_progs:
            programs.append(pair_progs[r])
        else:
            programs.append(make_other(other_tables[oi]))
            oi += 1
    return Strategy(name="search-witness", n_parties=n, programs=tuple(programs),
                    nlbs=nlbs, game_id=game.name)


def impossibility_search(game: Game, pair: tuple | None = None, budget: int = 1,
                         max_candidates: int = DEFAULT_MAX_SEARCH) -> SearchReport:
    """Exhaust deterministic strategies in which one designated party pair
    shares a single NLB (budget 1) or nobody holds any resource (budget 0).

    With budget 1, a pair party's strategy is an (input -> box input)
    function plus an (input, box output) -> output function; every other
    party maps its input straight to an output. The report covers the given
    pairing or, by default, the union over all party pairs."""
    _require_parity_game(game)
    if budget not in (0, 1):
        raise SearchSpaceError("supported budgets: 0 or 1 NLBs")
    n = game.n_parties
    if pair is not None:
        p, q = pair
        if not (0 <= p < n and 0 <= q < n) or p == q:
            raise AnalysisError(
                f"pair {p},{q} must name two distinct parties of {game.name} "
                f"(0..{n - 1})")
    promise = promised_inputs(game)
    targets = [game.parity_target(x) for x in promise]
    funcs1 = list(itertools.product((0, 1), repeat=2))   # bit -> bit tables
    funcs2 = list(itertools.product((0, 1), repeat=4))   # (bit, bit) -> bit

    if budget == 0:
        grid_size = len(promise)
        candidates = 4 ** n
        if candidates > max_candidates:
            raise SearchSpaceError("strategy space exceeds the limit")
        best = -1
        perfect_combo = None
        for combo in itertools.product(funcs1, repeat=n):
            w = 0
            for x, t in zip(promise, targets):
                par = 0
                for i in range(n):
                    par ^= combo[i][x[i]]
                if par == t:
                    w += 1
            best = max(best, w)
            if w == grid_size and perfect_combo is None:
                perfect_combo = combo
        witness = None
        witness_strategy = None
        if perfect_combo is not None:
            witness_strategy = strategy_from_tables(game, None, None, perfect_combo)
            witness = {"pairing": None,
                       "outputs": [list(f) for f in perfect_combo]}
        return SearchReport(game.name, "0nlb", (), candidates, grid_size,
                            best, perfect_combo is not None, witness,
                            witness_strategy)

    pairings = [tuple(pair)] if pair is not None else \
        list(itertools.combinations(range(n), 2))
    grid = [(x, s, t) for x, t in zip(promise, targets) for s in (0, 1)]
    grid_size = len(grid)
    full_mask = (1 << grid_size) - 1

    per_pairing = (4 * 16) ** 2 * 4 ** (n - 2)
    candidates = per_pairing * len(pairings)
    if candidates > max_candidates:
        raise SearchSpaceError("strategy space exceeds the limit")

    best = -1
    perfect_found = None
    for p, q in pairings:
        others = [r for r in range(n) if r not in (p, q)]
        # masks of the other parties' joint output parity over the grid
        others_masks = []
        for combo in itertools.product(funcs1, repeat=len(others)):
            mask = 0
            for gi, (x, _, _) in enumerate(grid):
                par = 0
                for oi, r in enumerate(others):
                    par ^= combo[oi][x[r]]
                mask |= par << gi
            others_masks.append((mask, combo))

        for gp, hp, gq, hq in itertools.product(funcs1, funcs2, funcs1, funcs2):
            cmask = 0
            for gi, (x, s, t) in enumerate(grid):
                zq = s ^ (gp[x[p]] & gq[x[q]])
                bit = hp[2 * x[p] + s] ^ hq[2 * x[q] + zq] ^ t
                cmask |= bit << gi
            for omask, combo in others_masks:
                wins = grid_size - ((cmask ^ omask) & full_mask).bit_count()
                if wins > best:
                    best = wins
                if wins == grid_size and perfect_found is None:
                    perfect_found = ((p, q), (gp, hp), (gq, hq), combo)

    witness = None
    witness_strategy = None
    if perfect_found is not None:
        pairing, sp, sq, combo = perfect_found
        witness_strategy = strategy_from_tables(game, pairing, (sp, sq), combo)
        check = verify_winning(witness_strategy, game, Exhaustive())
        if not check.passed:
            raise AnalysisError("search witness failed re-verification")
        witness = {"pairing": list(pairing),
                   "box_inputs": [list(sp[0]), list(sq[0])],
                   "pair_outputs": [list(sp[1]), list(sq[1])],
                   "other_outputs": [list(f) for f in combo]}
    return SearchReport(game.name, "1nlb", tuple(pairings), candidates,
                        grid_size, best, perfect_found is not None, witness,
                        witness_strategy)


# --- resource accounting -----------------------------------------------------

def resource_count(strategy: Strategy) -> tuple[int, int]:
    """(NLB uses, communication bits) of every run: the declared counts,
    since execute rejects a run that leaves a declared resource unused."""
    return len(strategy.nlbs), len(strategy.channels)


def nlb_isolated_parties(strategy: Strategy) -> list[int]:
    """Parties that are no endpoint of any declared NLB. A winning strategy
    for the parity-family games can leave at most one party isolated."""
    touched = set()
    for x in strategy.nlbs:
        touched.add(x.port0_party)
        touched.add(x.port1_party)
    return [p for p in range(strategy.n_parties) if p not in touched]
