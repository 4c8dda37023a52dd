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
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# enumerate_seeds, is_winning and winning_outcomes stay importable from
# analysis, names the benchmark's tracer (bench/tracer.py) rebinds
from .engine import (LaneBranch, LaneGrid, NlbInstance, PartyProgram, Action,
                     Strategy, DEFAULT_MAX_SEED_BITS, EnumerationLimitError,
                     bit_mask, count_text, enumerate_seeds, execute, lowest_bit,
                     mask_outcome, outcome_masks, require_enumerable)
from .games import (MAX_OUTCOMES, Game, GameError, is_winning, outcome_index,
                    outcome_lanes, promised_inputs, require_promise,
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

# points per lane block of sampled verify: a chunk of dj-nlb:10's 2,032
# free-bit lanes is 0.35 MB, and every sample of at most this many points is
# one chunk. The chunk size is part of the draw order (see LaneGrid.drawn),
# so changing it changes which points a seed draws
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


# --- the sweep ---------------------------------------------------------------

def _split_outcome(full: int, parts) -> list[tuple]:
    """Split the points full of a run, or its piece at one input
    (LaneGrid.windows), by the outcome each point produced, given the run's
    parts as _runs gives them. Serves exact_distribution, which splits
    whole runs, and the per-outcome fallback of _decide.

    Returns (outcome, seed mask) pairs with non-empty, disjoint masks. Each
    party's part is split on its own bits first, then intersected with the
    groups so far."""
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


def _require_parties(strategy: Strategy, game: Game) -> None:
    if strategy.n_parties != game.n_parties:
        raise AnalysisError(f"{strategy.name} has wrong party count for {game.name}")


def _grid(strategy: Strategy, game: Game, max_seed_bits: int) -> LaneGrid:
    """The game's promise x the strategy's seeds, once the strategy is
    known to have the game's party count and a seed space within the
    limit: both are checked before the promise is built. The grid is kept
    on the strategy for the game it was built for, and reused while the
    promise lists the same inputs."""
    _require_parties(strategy, game)
    require_enumerable(strategy, max_seed_bits)
    inputs = promised_inputs(game)
    kept = strategy.__dict__.get("_grid")
    if kept is None or kept[0] is not game or kept[1].inputs != inputs:
        kept = strategy.__dict__["_grid"] = (
            game, LaneGrid.periodic(strategy, inputs, SWEEP_WIDTH))
    return kept[1]


def _runs(strategy: Strategy, grid: LaneGrid):
    """The grid's points run by run, as (offset, block, parts) in no
    particular point order: bit s of block stands for point offset + s of
    the grid, and parts holds, party by party, a mask per output bit of the
    points where that bit is 1 (engine.outcome_masks). This is the one place
    where analysis executes a strategy.

    Runs go in order, from grid.start: a run that raises LaneBranch is
    replaced by the runs grid.split gives, and a run without a seed goes
    point by point, point k as grid.run(k, 1) gives it. Each group then
    starts from the partition the one before it ended with, so a program
    costs one failed run per split of a group over the whole sweep."""
    total = len(grid.inputs) * grid.size
    runs = grid.start
    while runs:
        todo, runs = runs[::-1], []
        while todo:
            offset, block, x, seed = run = todo.pop()
            points = [run] if seed is not None else (
                (offset + i, 1, *grid.run(offset + i, 1)) for i in _set_bits(block))
            for at, piece, px, pseed in points:
                try:
                    outcome, _ = execute(strategy, px, pseed, record=False)
                except LaneBranch as branch:
                    if piece == 1:
                        raise       # a point has no lanes to split
                    todo += grid.split(offset, block, branch.mask)
                    break
                yield at, piece, outcome_masks(outcome, piece)
            else:
                # the same block one group on, where a seed is the same and a
                # run without one still goes point by point
                offset += grid.width
                if offset + block.bit_length() <= total:
                    runs.append((offset, block, seed and grid.input(offset, block), seed))
                elif offset < total:
                    block &= (1 << total - offset) - 1
                    runs.append((offset, block, *grid.run(offset, block)))


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
    """Full seed enumeration for every promised input, in promise order.
    Each run is split by joint outcome once, and each outcome's seeds are
    counted per input (LaneGrid.count_by_input); an input's counts may come
    from any runs, so its outcomes come in no particular order."""
    total = strategy.seed_count()
    grid = _grid(strategy, game, max_seed_bits)
    tallies = [{} for _ in grid.inputs]
    for offset, block, parts in _runs(strategy, grid):
        outcomes, masks = zip(*_split_outcome(block, parts))
        for i, _, counts in grid.count_by_input(offset, block, masks):
            tally = tallies[i]
            for outcome, n in zip(outcomes, counts):
                if n:
                    tally[outcome] = tally.get(outcome, 0) + n
    # one Fraction per distinct seed count
    shares = {n: Fraction(n, total)
              for n in {n for tally in tallies for n in tally.values()}}
    per_input = {x: {o: shares[n] for o, n in tally.items()}
                 for x, tally in zip(grid.inputs, tallies)}
    return ExactDistribution(strategy.name, game.name, total, per_input)


def _won(game: Game, x, outcome, block: int) -> int:
    """The points of block where the outcome wins on x, either of them lanes
    over block or not; LaneBranch where the relation is not bit algebra."""
    return bit_mask(game.win(x, outcome), block)


def uniformity_verdict(dist: ExactDistribution, game: Game) -> bool:
    """True iff, for every promised input, the distribution is exactly
    uniform over that input's winning outcomes and zero elsewhere.

    Each input's winners are decided by _decide, on lanes over the whole
    outcome space (see games.outcome_lanes): bit k of a mask stands for the
    k-th outcome of that space. Each input's mask, once its promise is
    checked and the input read (require_promise), and each outcome's
    position are kept on the game, so they are found once per game, and a
    call that finds every input in the table builds no outcome space."""
    # each promised input's winners, and each outcome's position or None
    table, index = game.__dict__.setdefault("_uniformity", ({}, {}))
    space = None        # the outcome space's masks, built at the first miss
    for x, probs in dist.per_input.items():
        winners = table.get(x)
        if winners is None:
            if space is None:
                lanes = outcome_lanes(game)     # refuses a space past MAX_OUTCOMES
                full = (1 << (1 << sum(game.output_lengths))) - 1
                space = outcome_masks(lanes, full)
            winners = table[x] = _decide(game, require_promise(game, x), full, space)
        support = 0
        for o in probs:
            if o not in index:
                index[o] = outcome_index(game, o)
            k = index[o]
            if k is None:
                return False
            support |= 1 << k
        if support != winners:
            return False
        # exact_distribution shares one Fraction per seed count, so equal
        # shares are mostly one object
        share = next(iter(probs.values()))
        if share != Fraction(1, len(probs)) or any(
                p is not share and p != share for p in probs.values()):
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


def _decide(game: Game, x, block: int, parts) -> int:
    """The points of block, a run's or its piece at one input, whose outcome
    (the run's parts) wins on x: one call of the win relation on lanes, or,
    where that raises LaneBranch, one call per distinct outcome."""
    try:
        return _won(game, x, mask_outcome(parts, block), block)
    except LaneBranch:
        won = 0
        for outcome, mask in _split_outcome(block, parts):
            if game.win(x, outcome):
                won |= mask
        return won


def _verify(strategy: Strategy, game: Game, grid: LaneGrid):
    """(checked, wins, counterexample or None) over a grid's points.

    A run is decided whole, by one call of the win relation on its input
    and outcome lanes, when it meets several inputs (LaneGrid.input_span),
    all promised, and its outcome has the game's arity. Every other run,
    and one on which that call raises LaneBranch, is decided by _decide per
    piece, its points at one input (LaneGrid.windows). The promise is
    checked once per input of the grid, whose record serves each sweep of a
    kept grid (see _grid). An input off the promise, or met with an
    outcome of the wrong arity, is reported once the grid has run, at the
    grid's lowest such input, so an error of a run itself comes first. The
    counterexample is the grid's lowest losing point, read off the run's
    masks: in the periodic fill the lowest seed of the first input that has
    one, in the drawn fill the first losing draw."""
    if grid.promised is None:
        grid.promised = list(map(game.on_promise, grid.inputs))
    promised = grid.promised
    lengths = tuple(game.output_lengths)
    checked = wins = 0
    misfits = set()     # inputs off the promise or with an outcome of wrong arity
    lost = None         # (lowest losing point, its outcome)
    for offset, block, parts in _runs(strategy, grid):
        fits = tuple(map(len, parts)) == lengths
        first, last = grid.input_span(offset, block)
        won = None
        if last > first and fits and all(promised[first:last + 1]):
            try:
                won = _won(game, grid.input(offset, block),
                           mask_outcome(parts, block), block)
            except LaneBranch:
                pass
        if won is None:     # a run decided whole builds no windows
            won = 0
            for i, window in grid.windows(offset, block):
                if not promised[i] or not fits:
                    misfits.add(i)
                elif piece := block & window:
                    won |= _decide(game, grid.inputs[i], piece, parts)
        checked += block.bit_count()
        wins += won.bit_count()
        losing = block ^ won
        if losing:
            low = lowest_bit(losing)
            if lost is None or offset + low < lost[0]:
                lost = (offset + low, [[m >> low & 1 for m in part] for part in parts])
    if misfits:
        # as is_winning would report it at the first such input
        require_promise(game, grid.inputs[min(misfits)])
        raise GameError(f"outcome arity does not match {game.name}")
    if lost is None:
        return checked, wins, None
    x, seed = grid.run(lost[0], 1)
    return checked, wins, {"input": _jsonable(x), "seed": seed.to_json(),
                           "outcome": lost[1]}


def verify_winning(strategy: Strategy, game: Game, policy,
                   max_seed_bits: int = DEFAULT_MAX_SEED_BITS) -> VerifyResult:
    """Check the win relation on every (input, seed) of the policy's grid,
    deciding a whole piece of it per call of the win relation (see
    _verify).

    Exhaustive mode sweeps the full promise x seed grid; the counterexample
    is the first losing point in enumerate_seeds' order. Sampled mode draws
    (input, seed) pairs from random.Random(rng_seed), SAMPLE_CHUNK of them
    per grid, in LaneGrid.drawn's order: a chunk's inputs, then each box's
    free bits for the chunk, then its shared indices. So the chunk size is
    part of which points a seed draws. Each run is still an exact
    deterministic execution, and the counterexample is the first losing
    draw."""
    _require_parties(strategy, game)
    if isinstance(policy, Exhaustive):
        results = [_verify(strategy, game, _grid(strategy, game, max_seed_bits))]
        mode = "exhaustive"
    elif isinstance(policy, Sample):
        rng = random.Random(policy.rng_seed)
        # each chunk's grid is released before the next one is drawn
        results = [_verify(strategy, game, LaneGrid.drawn(
                       strategy, game.sample_input, rng,
                       min(SAMPLE_CHUNK, policy.k - start)))
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
    agree on that party's coordinate: counts[r][i] must equal counts[r][j]
    wherever inputs[i][r] == inputs[j][r]. counts[r][i] is party r's
    marginal at inputs[i] in any form that fixes it and is fixed by it;
    no_signaling_check gives its parity counts (see _parities)."""
    for r, marginals in enumerate(counts):
        first: dict = {}
        for x, marginal in zip(inputs, marginals):
            if first.setdefault(x[r], marginal) != marginal:
                return False
    return True


def _parities(party: int, leaves) -> list:
    """The XOR mask of every nonempty subset of a party's output bits, given
    the masks of those bits over a run: subset T, a bit per output bit, at
    index T - 1. Refuses a party with more than games.MAX_OUTCOMES of them."""
    count = (1 << len(leaves)) - 1
    if count > MAX_OUTCOMES:
        raise EnumerationLimitError(
            f"party {party} has {len(leaves)} output bits: {count_text(count)} "
            f"parities exceed the limit {MAX_OUTCOMES}")
    masks = []
    for leaf in leaves:
        masks += [leaf, *map(leaf.__xor__, masks)]
    return masks


def no_signaling_check(strategy: Strategy, game: Game,
                       max_seed_bits: int = DEFAULT_MAX_SEED_BITS) -> bool:
    """True iff every party's exact output marginal depends only on its own
    input, across all promised inputs. Inapplicable to strategies that use
    communication channels (those may signal by design).

    Per input and party, each parity of the party's own output bits (see
    _parities) is counted over the seeds (LaneGrid.count_by_input), beside
    the seed count, keyed by the output's length. Every input has the same
    seeds, so these integer counts fix the party's marginal and are fixed by
    it (a Walsh-Hadamard transform); they are compared as
    marginals_non_signaling does."""
    if strategy.channels:
        raise CommunicationUsedError(
            f"{strategy.name} uses communication; the check does not apply")
    grid = _grid(strategy, game, max_seed_bits)
    inputs = grid.inputs
    counts = [[{} for _ in inputs] for _ in range(game.n_parties)]
    for offset, block, parts in _runs(strategy, grid):
        parities = [_parities(r, leaves) for r, leaves in enumerate(parts)]
        for i, total, ones in grid.count_by_input(
                offset, block, [mask for masks in parities for mask in masks]):
            ones = iter(ones)
            for marginals, masks in zip(counts, parities):
                # outputs of each length are counted apart, beside their seeds
                k = len(masks)
                tally = marginals[i].get(k)
                if tally is None:
                    tally = marginals[i][k] = [0] * (k + 1)
                tally[0] += total
                for t in range(1, k + 1):
                    tally[t] += next(ones)
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
