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

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# enumerate_seeds and is_winning stay importable as analysis.enumerate_seeds
# and analysis.is_winning, names the benchmark's tracer (bench/tracer.py)
# rebinds
from .engine import (Lane, LaneBranch, LaneGrid, NlbInstance, PartyProgram,
                     Action, Strategy, DEFAULT_MAX_SEED_BITS, count_text,
                     enumerate_seeds, execute, lowest_bit, require_enumerable)
from .games import (Game, GameError, is_winning, outcome_index, outcome_lanes,
                    promised_inputs, require_promise, sample_promised_input,
                    winning_outcomes)
from .search import score_strategies

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


# --- the block loop ------------------------------------------------------------

# points per lane block of sampled verify: a chunk of dj-nlb:10's 2,032 free
# bits is 2 MB, and every sample of at most this many points is one chunk
SAMPLE_CHUNK = 1024
# points per lane block of the exhaustive sweep, which holds as many whole
# inputs as fit, or one. A lane over this many points is 2 kB, enough to
# spread a run's fixed cost; wider blocks gain nothing, since their lanes
# must be cut at input boundaries again (multi-mermin-nlb:6's 32 inputs of
# 2**15 seeds as one block took 18 ms, one input per block 12 ms), and a
# lane over the 7-party grid's 2**27 points would be 16 MB
SWEEP_WIDTH = 1 << 14


def _set_bits(mask: int):
    """The positions of mask's set bits, in ascending order."""
    return (i for i, c in enumerate(reversed(bin(mask))) if c == "1")


def _run_blocks(strategy: Strategy, grid: LaneGrid, runs: list, done: list):
    """Run each (offset, block, x, seed) of ``runs`` in order and yield
    (outcome, offset, block) as it finishes; bit i of block stands for point
    offset + i of the grid, and x, seed and the outcome hold a lane wherever
    the block's points differ. A run that raises LaneBranch is replaced by
    the runs grid.split gives; a run with seed None goes point by point on
    grid.point, as one-point blocks of its own. Each run that finished is
    appended to done."""
    runs = runs[::-1]
    while runs:
        run = runs.pop()
        offset, block, x, seed = run
        if seed is None:
            for i in _set_bits(block):
                x, seed = grid.point(offset + i)
                outcome, _ = execute(strategy, x, seed, record=False)
                yield outcome, offset + i, 1
        else:
            try:
                outcome, _ = execute(strategy, x, seed, record=False)
            except LaneBranch as branch:
                runs += grid.split(offset, block, branch.mask)
                continue
            yield outcome, offset, block
        done.append(run)


# --- the sweep ---------------------------------------------------------------

def _split_outcome(full: int, parts) -> list[tuple]:
    """Split the seeds of a piece by the outcome each seed produced, given
    the piece's block and, party by party, the masks of seeds where each
    output bit is 1 (see _pieces).

    Returns (outcome, seed mask) pairs with non-empty, disjoint masks. Each
    party's part is split on its own bits first, then intersected with the
    groups so far."""
    if full == 1:
        # one point: its masks are its bits
        return [(parts, 1)]
    groups = [((), full)]
    for leaves in parts:
        pieces = [((), full)]
        for leaf in leaves:
            if leaf == 0 or leaf == full:
                bit = (1 if leaf else 0,)
                pieces = [(head + bit, mask) for head, mask in pieces]
            else:
                zeros = full ^ leaf
                pieces = [(head + (b,), m) for head, mask in pieces
                          for b, m in ((0, mask & zeros), (1, mask & leaf)) if m]
        if len(pieces) == 1:
            part = pieces[0][0]
            groups = [(head + (part,), mask) for head, mask in groups]
        else:
            groups = [(head + (part,), m) for head, mask in groups
                      for part, piece in pieces if (m := mask & piece)]
    return groups


def _sweep(strategy: Strategy, grid: LaneGrid):
    """A LaneGrid run by run: the exhaustive (input x seed) grid of the
    periodic fill, or the one group of the drawn fill.

    Yields (outcome, offset, block) as each run finishes (see _run_blocks),
    in no particular point order. Group by group, each starts from the
    partition the previous one ended with, so a program costs one failed
    run per split of a group over the whole sweep."""
    total = len(grid.inputs) * grid.size
    runs = grid.start
    while runs:
        done = []
        yield from _run_blocks(strategy, grid, runs, done)
        runs = []
        for offset, block, _, seed in done:
            offset += grid.width
            if offset + block.bit_length() <= total:
                # a seed is the same one group on; None runs point by point
                runs.append((offset, block, seed and grid.input(offset, block), seed))
            elif offset < total:
                block &= (1 << total - offset) - 1
                runs.append((offset, block, *grid.run(offset, block)))


def _require_parties(strategy: Strategy, game: Game) -> None:
    if strategy.n_parties != game.n_parties:
        raise AnalysisError(f"{strategy.name} has wrong party count for {game.name}")


def _grid(strategy: Strategy, game: Game, max_seed_bits: int) -> LaneGrid:
    """The game's promise x the strategy's seeds, once the strategy is
    known to have the game's party count and a seed space within the
    limit: both are checked before the promise is built."""
    _require_parties(strategy, game)
    require_enumerable(strategy, max_seed_bits)
    return LaneGrid.periodic(strategy, promised_inputs(game), SWEEP_WIDTH)


def _pieces(strategy: Strategy, grid: LaneGrid):
    """The sweep's runs as pieces of one input value each, in no particular
    order: (i, first, block, parts) per piece, bit s of block standing for
    point i * grid.size + first + s, whose input equals grid.inputs[i].
    parts holds, party by party, a mask per output bit of the points where
    that bit is 1. A run of one point is a piece of 1-bit masks: its
    outcome itself. Runs are cut at input boundaries where inputs are
    bit-shaped; otherwise every run holds one input value and is a piece
    whole, which in the drawn fill may span several draws."""
    for outcome, offset, block in _sweep(strategy, grid):
        if block == 1:
            yield (*divmod(offset, grid.size), 1, outcome)
            continue
        parts = tuple([tuple([v.mask if type(v) is Lane else block if v else 0
                              for v in part]) for part in outcome])
        if grid.input_shape is None:
            yield (*divmod(offset, grid.size), block, parts)
        else:
            yield from grid.by_input(offset, block, parts)


def _tally(strategy: Strategy, game: Game, max_seed_bits: int):
    """Per promised input, in promise order, (x, {outcome: [seed count,
    lowest seed]}) with the outcomes ordered by their lowest seed: the order
    in which a seed-by-seed sweep first meets them. Seeds are numbered in
    enumerate_seeds' order. Each piece is split by joint outcome; an
    input's pieces may come from any runs, in any order."""
    grid = _grid(strategy, game, max_seed_bits)
    inputs = grid.inputs
    tallies = [{} for _ in inputs]
    for i, first, block, parts in _pieces(strategy, grid):
        tally = tallies[i]
        for outcome, mask in _split_outcome(block, parts):
            count, seed = mask.bit_count(), first + lowest_bit(mask)
            entry = tally.get(outcome)
            if entry is None:
                tally[outcome] = [count, seed]
            else:
                entry[0] += count
                if seed < entry[1]:
                    entry[1] = seed
    for x, tally in zip(inputs, tallies):
        if len(tally) > 1:
            tally = dict(sorted(tally.items(), key=lambda item: item[1][1]))
        yield x, tally


# --- exact distributions -----------------------------------------------------

@dataclass
class ExactDistribution:
    """Per promised input, the exact outcome probabilities of a strategy,
    with common denominator equal to the seed-space cardinality."""

    strategy: str
    game: str
    seed_count: int
    per_input: dict

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
    total = strategy.seed_count()
    shares = {}     # one Fraction per distinct seed count; a count is never 0
    per_input = {x: {o: shares.get(n) or shares.setdefault(n, Fraction(n, total))
                     for o, (n, _) in tally.items()}
                 for x, tally in _tally(strategy, game, max_seed_bits)}
    return ExactDistribution(strategy.name, game.name, total, per_input)


def _won(game: Game, x, outcome, block: int) -> int:
    """The mask of the points of block at which the outcome, lane-valued
    over block, wins on x. Raises LaneBranch for a win relation that is
    not bit algebra on the outputs."""
    won = game.win(x, outcome)
    return won.mask if type(won) is Lane else block if won else 0


def uniformity_verdict(dist: ExactDistribution, game: Game) -> bool:
    """True iff, for every promised input, the distribution is exactly
    uniform over that input's winning outcomes and zero elsewhere.

    The win relation runs once per input, on lanes over the whole outcome
    space (see games.outcome_lanes), or once per outcome
    (winning_outcomes) where it is not bit algebra. Bit k of a mask stands
    for the k-th outcome of that space."""
    space = outcome_lanes(game)
    full = (1 << (1 << sum(game.output_lengths))) - 1
    for x, probs in dist.per_input.items():
        require_promise(game, x)
        try:
            winners = _won(game, x, space, full)
        except LaneBranch:
            winners = sum(1 << outcome_index(game, o) for o in winning_outcomes(game, x))
        support = 0
        for o in probs:
            k = outcome_index(game, o)
            if k is None:
                return False
            support |= 1 << k
        if support != winners:
            return False
        share = Fraction(1, len(probs))
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


def _counterexample(x, seed, outcome) -> dict:
    return {"input": _jsonable(x), "seed": seed.to_json(),
            "outcome": [list(p) for p in outcome]}


def _verify(strategy: Strategy, game: Game, grid: LaneGrid):
    """(checked, wins, counterexample or None) over a grid's points. The
    promise is checked once per input and the arity once per piece. The
    win relation runs once per piece, on its outcome lanes, or once per
    distinct outcome of a piece where it is not bit algebra. The
    counterexample is the grid's lowest losing point: in the periodic fill
    the lowest seed of the first input that has one, in the drawn fill the
    first losing draw."""
    inputs = grid.inputs
    promised = list(map(game.on_promise, inputs))
    lengths = tuple(game.output_lengths)
    checked = wins = 0
    misfits = set()     # inputs off the promise or with an outcome of wrong arity
    lost = None         # (lowest losing point, its outcome)
    for i, first, block, parts in _pieces(strategy, grid):
        if not promised[i] or tuple(map(len, parts)) != lengths:
            misfits.add(i)
            continue
        x = inputs[i]
        checked += block.bit_count()
        try:
            # each mask as engine._on_block gives it: 0, 1 or a lane; the
            # masks of a one-point piece are its bits
            won = _won(game, x, parts if block == 1 else tuple(
                [tuple([1 if m == block else m and Lane(m, block) for m in part])
                 for part in parts]), block)
        except LaneBranch:
            won = 0
            for outcome, mask in _split_outcome(block, parts):
                if game.win(x, outcome):
                    won |= mask
        wins += won.bit_count()
        losing = block ^ won
        if losing:
            low = lowest_bit(losing)
            point = i * grid.size + first + low
            if lost is None or point < lost[0]:
                lost = (point, tuple([tuple([m >> low & 1 for m in part])
                                      for part in parts]))
    if misfits:
        # as is_winning would report it at the first such input, once the
        # grid has run to the end
        require_promise(game, inputs[min(misfits)])
        raise GameError(f"outcome arity does not match {game.name}")
    if lost is None:
        return checked, wins, None
    return checked, wins, _counterexample(*grid.point(lost[0]), lost[1])


def verify_winning(strategy: Strategy, game: Game, policy,
                   max_seed_bits: int = DEFAULT_MAX_SEED_BITS) -> VerifyResult:
    """Check the win relation on every (input, seed) of the policy's grid,
    deciding a whole piece of it per call of the win relation (see
    _verify).

    Exhaustive mode sweeps the full promise x seed grid; the counterexample
    is the first losing point in enumerate_seeds' order. Sampled mode draws
    (input, seed) pairs from the given rng seed, SAMPLE_CHUNK of them per
    grid; each run is still an exact deterministic execution."""
    _require_parties(strategy, game)
    if isinstance(policy, Exhaustive):
        results = [_verify(strategy, game, _grid(strategy, game, max_seed_bits))]
        mode = "exhaustive"
    elif isinstance(policy, Sample):
        rng = random.Random(policy.rng_seed)
        sample_input = functools.partial(sample_promised_input, game)
        # each chunk's grid is released before the next one is drawn
        results = [_verify(strategy, game, LaneGrid.drawn(
                       strategy, sample_input, rng, min(SAMPLE_CHUNK, policy.k - start)))
                   for start in range(0, policy.k, SAMPLE_CHUNK)]
        mode = f"sample:{policy.k}"
    else:
        raise AnalysisError(f"unknown seed policy {policy!r}")
    checked, wins, counterexamples = zip(*results)
    counterexample = next(filter(None, counterexamples), None)
    return VerifyResult(counterexample is None, mode, sum(checked), sum(wins),
                        counterexample)


# --- non-signaling -----------------------------------------------------------

def marginals_non_signaling(inputs: list, counts: list) -> bool:
    """True iff each party's marginal is identical across all inputs that
    agree on that party's coordinate. counts[r][i] is party r's marginal at
    inputs[i], as {own output: positive seed count}."""
    for r, marginals in enumerate(counts):
        first: dict = {}
        for x, marginal in zip(inputs, marginals):
            if first.setdefault(x[r], marginal) != marginal:
                return False
    return True


def no_signaling_check(strategy: Strategy, game: Game,
                       max_seed_bits: int = DEFAULT_MAX_SEED_BITS) -> bool:
    """True iff every party's exact output marginal depends only on its own
    input, across all promised inputs. Inapplicable to strategies that use
    communication channels (those may signal by design).

    Each piece of the sweep is split on each party's own output bits only,
    and the marginals are compared as integer seed counts: every
    probability is a count over the seed-space size."""
    if strategy.channels:
        raise CommunicationUsedError(
            f"{strategy.name} uses communication; the check does not apply")
    grid = _grid(strategy, game, max_seed_bits)
    inputs = grid.inputs
    counts = [[{} for _ in inputs] for _ in range(game.n_parties)]
    for i, _, block, parts in _pieces(strategy, grid):
        total = block.bit_count()
        for marginals, leaves in zip(counts, parts):
            if len(leaves) == 1:
                # a one-bit part needs no split: one count gives both
                ones = leaves[0].bit_count()
                pairs = (((0,), total - ones), ((1,), ones))
            else:
                pairs = [(own, mask.bit_count())
                         for (own,), mask in _split_outcome(block, (leaves,))]
            marginal = marginals[i]
            for own, n in pairs:
                if n:
                    marginal[own] = marginal.get(own, 0) + n
    return marginals_non_signaling(inputs, counts)


# --- deterministic-strategy search -------------------------------------------

def _deterministic_search(game: Game, pairings: list, budget: int,
                          max_candidates: int):
    """Check that a search of the game fits the limit, then score its
    deterministic strategies with search.score_strategies. The count is
    checked before the promise is read. Returns (candidates, grid size, best
    wins, the first perfect (pairing, pair tables, other tables) in product
    order or None)."""
    if budget not in (0, 1):
        raise SearchSpaceError("supported budgets: 0 or 1 NLBs")
    if budget and (game.parity is None or any(w != 1 for w in game.output_lengths)):
        raise SearchSpaceError(
            f"search supports single-bit parity games; {game.name} is not one")
    if game.party_inputs is None:
        raise SearchSpaceError(f"{game.name} has no enumerable per-party inputs")
    if budget and any(d != (0, 1) for d in game.party_inputs):
        raise SearchSpaceError(
            f"search needs binary per-party inputs, which {game.name} lacks")
    if game.parity is None:
        raise SearchSpaceError(f"{game.name} is not a parity game")
    n = game.n_parties
    outputs, domains = game.party_outputs, game.party_inputs
    candidates = 4096 ** budget * len(pairings) * math.prod(
        len(outputs[r]) ** len(domains[r])
        for r in range(n) if r not in (pairings[0] or ()))
    if candidates > max_candidates:
        raise SearchSpaceError(
            f"{count_text(candidates)} deterministic strategies exceed the limit "
            f"{max_candidates}")
    return (candidates,
            *score_strategies(game, promised_inputs(game), pairings, budget))


def classical_value(game: Game, max_candidates: int = DEFAULT_MAX_SEARCH) -> Fraction:
    """Maximum fraction of promised inputs won by any deterministic
    no-communication strategy, inputs weighted uniformly: the best of the
    budget-0 search. Shared randomness cannot beat this maximum, so it is
    the classical game value."""
    _, grid_size, best, _ = _deterministic_search(game, [None], 0, max_candidates)
    return Fraction(best, grid_size)


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

    def make_other(r, f):
        table = {v: game.party_outputs[r][k] for v, k in zip(game.party_inputs[r], f)}

        def answer(view):
            return Action(output=table[view.own_input])
        return PartyProgram((answer,))

    others = iter(other_tables)
    programs = tuple(pair_progs[r] if r in pair_progs else make_other(r, next(others))
                     for r in range(n))
    return Strategy(name="search-witness", n_parties=n, programs=programs,
                    nlbs=nlbs, game_id=game.name)


def impossibility_search(game: Game, pair: tuple | None = None, budget: int = 1,
                         max_candidates: int = DEFAULT_MAX_SEARCH) -> SearchReport:
    """Exhaust deterministic strategies in which one designated party pair
    shares a single NLB (budget 1) or nobody holds any resource (budget 0).

    With budget 1, a pair party's strategy is an (input -> box input)
    function plus an (input, box output) -> output function; every other
    party maps its input straight to an output. The report covers the given
    pairing or, by default, the union over all party pairs. Budget 0 is the
    same search with no pairing: every party is an "other" party, and the
    best is the classical value."""
    n = game.n_parties
    if pair is not None:
        p, q = pair
        if budget == 0:
            raise AnalysisError(f"pair {p},{q} needs budget 1; budget 0 places no box")
        if not (0 <= p < n and 0 <= q < n) or p == q:
            raise AnalysisError(
                f"pair {p},{q} must name two distinct parties of {game.name} "
                f"(0..{n - 1})")
    pairings = [None] if budget == 0 else [tuple(pair)] if pair is not None \
        else list(itertools.combinations(range(n), 2))
    candidates, grid_size, best, found = _deterministic_search(
        game, pairings, budget, max_candidates)

    witness = None
    witness_strategy = None
    if found is not None:
        pairing, pair_tables, combo = found
        witness_strategy = strategy_from_tables(game, pairing, pair_tables, combo)
        check = verify_winning(witness_strategy, game, Exhaustive())
        if not check.passed:
            raise AnalysisError("search witness failed re-verification")
        if pairing is None:
            witness = {"pairing": None, "outputs": [list(f) for f in combo]}
        else:
            sp, sq = pair_tables
            witness = {"pairing": list(pairing),
                       "box_inputs": [list(sp[0]), list(sq[0])],
                       "pair_outputs": [list(sp[1]), list(sq[1])],
                       "other_outputs": [list(f) for f in combo]}
    return SearchReport(game.name, f"{budget}nlb",
                        tuple(p for p in pairings if p is not None), candidates,
                        grid_size, best, found is not None, witness,
                        witness_strategy)


# --- resource accounting -----------------------------------------------------

def resource_count(strategy: Strategy) -> tuple[int, int]:
    """(NLB uses, communication bits) of every run: the declared counts,
    since execute rejects a run that leaves a declared resource unused."""
    return len(strategy.nlbs), len(strategy.channels)
