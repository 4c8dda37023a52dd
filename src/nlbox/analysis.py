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

# enumerate_seeds stays importable as analysis.enumerate_seeds, a name the
# benchmark's tracer (bench/tracer.py) rebinds
from .engine import (Lane, LaneBranch, NlbInstance, PartyProgram, PointGrid,
                     Action, Strategy, DEFAULT_MAX_SEED_BITS, _build, _columns,
                     _on_block, _spread, enumerate_seeds, execute,
                     require_enumerable, seed_space)
from .games import (Game, is_winning, promised_inputs, sample_promised_input,
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


def _cut(mask: int, size: int, count: int) -> list[int]:
    """mask in count slices of size bits, lowest first. It is cut into whole
    bytes at C speed, each holding the same number of slices."""
    group = 8 // math.gcd(size, 8)
    step = size * group // 8
    raw = mask.to_bytes(-(-size * count // 8), "little")
    chunks = [int.from_bytes(raw[at:at + step], "little")
              for at in range(0, len(raw), step)]
    if group == 1:
        return chunks
    low = (1 << size) - 1
    return [chunk >> (size * j) & low for chunk in chunks for j in range(group)][:count]


def _by_input(offset: int, masks: list, size: int) -> list[tuple]:
    """Cut masks over the points from offset on at input boundaries, size
    points to an input: (input, first, cut masks) per input that the first
    mask, a block, meets. Bit s of a cut mask stands for seed first + s of
    that input."""
    i, first = divmod(offset, size)
    count = (first + masks[0].bit_length() - 1) // size + 1
    if count == 1:
        return [(i, first, masks)]
    cuts = [_cut(mask << first, size, count) for mask in masks]
    return [(i + j, 0, parts) for j, parts in enumerate(zip(*cuts)) if parts[0]]


def _halves(offset: int, block: int, mask, args, size: int) -> list[tuple]:
    """The runs that replace a block after a LaneBranch, each with
    args(offset, block): the two blocks on which the lane ``mask`` is
    constant; without a mask, one block per input (size points each) when
    the block spans several, else the block with input and seed None: run
    point by point."""
    inside = block & mask if mask is not None else 0
    if inside and inside != block:
        parts = [(offset, inside), (offset, block ^ inside)]
    else:
        # reversed, so that the inputs run in order
        parts = [(i * size + first, seeds)
                 for i, first, (seeds,) in _by_input(offset, [block], size)][::-1]
        if len(parts) == 1:
            return [(offset, block, None, None)]
    runs = []
    for start, part in parts:
        low = (part & -part).bit_length() - 1
        runs.append((start + low, part >> low, *args(start + low, part >> low)))
    return runs


def _run_blocks(strategy: Strategy, runs: list, args, point, done: list, size: int):
    """Run each (offset, block, x, seed) of ``runs`` in order and yield
    (outcome, offset, block) as it finishes; bit i of block stands for point
    offset + i, and x, seed and the outcome hold a lane wherever the block's
    points differ. A run that raises LaneBranch is replaced by the runs
    _halves gives, args(offset, block) giving a block's (x, seed) and size
    the points of one input; a run with seed None goes point by point on
    point(k) = (x, seed) of point k, as one-point blocks of its own. Each run
    that finished is appended to done."""
    runs = runs[::-1]
    while runs:
        run = runs.pop()
        offset, block, x, seed = run
        if seed is None:
            for i in _set_bits(block):
                x, seed = point(offset + i)
                outcome, _ = execute(strategy, x, seed, record=False)
                yield outcome, offset + i, 1
        else:
            try:
                outcome, _ = execute(strategy, x, seed, record=False)
            except LaneBranch as branch:
                runs += _halves(offset, block, branch.mask, args, size)
                continue
            yield outcome, offset, block
        done.append(run)


_BIT = bytes.maketrans(b"01", b"\x00\x01")


def _point_outcomes(outcome, block: int):
    """(i, outcome of point offset + i) for each bit i of a run's block,
    read off the run's lanes point by point."""
    width = block.bit_length()
    parts = []
    for part in outcome:
        # a leaf's column: byte i is its bit at point offset + i
        columns = [format(v.mask, f"0{width}b")[::-1].encode().translate(_BIT)
                   if type(v) is Lane else bytes([v]) * width for v in part]
        parts.append(list(zip(*columns)) if columns else [()] * width)
    points = list(zip(*parts))
    return ((i, points[i]) for i in _set_bits(block))


# --- the exhaustive sweep ----------------------------------------------------

def _split_outcome(masks: list, lengths: list) -> list[tuple]:
    """Split the seeds of one run by the outcome each seed produced, given
    the run's block, then each output bit as the mask of seeds where it is
    1, party by party, and each party's number of output bits.

    Returns (outcome, seed mask) pairs with non-empty, disjoint masks. Each
    party's part is split on its own bits first, then intersected with the
    groups so far."""
    bits = iter(masks)
    full = next(bits)
    groups = [((), full)]
    for length in lengths:
        pieces = [((), full)]
        for leaf in itertools.islice(bits, length):
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


def _sweep(strategy: Strategy, inputs):
    """The exhaustive (input x seed) grid, run by run.

    Point i * S + s is input i under seed s, S the seed count and seeds in
    enumerate_seeds' order. Yields (outcome, offset, block) as each run
    finishes (see _run_blocks), in no particular point order. When every
    input has one bit shape (see engine._columns) and the shared value is
    no per-index block (see SeedSpace), a block holds as many whole inputs
    as fit in SWEEP_WIDTH points, and the input is a lane too, leaf by leaf;
    otherwise it holds one input. Each group of inputs starts from the
    partition the previous one ended with, so a program costs one failed
    run per split of a group over the whole sweep."""
    size = strategy.seed_count()
    copies = max(1, min(len(inputs), SWEEP_WIDTH // size))
    columns = []
    shape = None
    if copies > 1 and not seed_space(strategy).per_index:
        shape = _columns(inputs, columns)
    space = seed_space(strategy, copies if shape else 1)
    width, total = space.width, len(inputs) * size
    # each group starts from the partition the previous one ended with, one
    # group on and cut to the points that are left; the first from the space's
    partition = [(offset - width, block, None, seed)
                 for offset, block, seed in space.start]
    for base in range(0, total, width):
        masks = [_spread(column[base // size:(base + width) // size], size)
                 for column in columns]

        def input_of(offset, block, base=base, masks=masks):
            if shape is None:
                return inputs[offset // size]
            return _build(shape, iter([_on_block(m >> offset - base, block)
                                       for m in masks]))

        def args(offset, block, input_of=input_of):
            return input_of(offset, block), space.run_seed(offset, block)

        runs = []
        for offset, block, _, seed in partition:
            offset += width
            if offset + block.bit_length() <= total:
                # a seed is the same one group on; None runs point by point
                runs.append((offset, block, seed and input_of(offset, block), seed))
            elif offset < total:
                block &= (1 << total - offset) - 1
                runs.append((offset, block, *args(offset, block)))
        partition = []
        yield from _run_blocks(strategy, runs, args,
                               lambda k: (inputs[k // size], space.seed(k)),
                               partition, size)


def _tally(strategy: Strategy, game: Game, max_seed_bits: int):
    """Per promised input, in promise order, (x, {outcome: [seed count,
    lowest seed]}) with the outcomes ordered by their lowest seed: the order
    in which a seed-by-seed sweep first meets them. Seeds are numbered in
    enumerate_seeds' order. Each run's outcome is cut at input boundaries
    and split by outcome; an input's pieces may come from any runs, in any
    order. The seed-space limit is checked before the promise is built."""
    require_enumerable(strategy, max_seed_bits)
    inputs = promised_inputs(game)
    size = strategy.seed_count()
    tallies = [{} for _ in inputs]

    def add(tally, outcome, count, seed):
        entry = tally.get(outcome)
        if entry is None:
            tally[outcome] = [count, seed]
        else:
            entry[0] += count
            if seed < entry[1]:
                entry[1] = seed

    for outcome, offset, block in _sweep(strategy, inputs):
        if block == 1:
            i, seed = divmod(offset, size)
            add(tallies[i], outcome, 1, seed)
            continue
        lengths = list(map(len, outcome))
        leaves = [v.mask if type(v) is Lane else block if v else 0
                  for part in outcome for v in part]
        for i, first, masks in _by_input(offset, [block, *leaves], size):
            # split when the input is reached, so that only its pieces live
            for split, mask in _split_outcome(masks, lengths):
                add(tallies[i], split, mask.bit_count(),
                    first + (mask & -mask).bit_length() - 1)
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
    total = strategy.seed_count()
    per_input = {x: {o: Fraction(n, total) for o, (n, _) in tally.items()}
                 for x, tally in _tally(strategy, game, max_seed_bits)}
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


def _counterexample(x, seed, outcome) -> dict:
    return {"input": _jsonable(x), "seed": seed.to_json(),
            "outcome": [list(p) for p in outcome]}


def _sample_chunk(strategy: Strategy, game: Game, rng: random.Random, k: int):
    """Draw k points and run them as lane blocks. Returns (wins, the
    counterexample of the first losing point or None); the win relation
    runs on each point."""
    grid = PointGrid(strategy, functools.partial(sample_promised_input, game), rng, k)
    outcomes = [None] * k
    for outcome, offset, block in _run_blocks(strategy, grid.start, grid.run,
                                              grid.point, [], k):
        for i, point_outcome in _point_outcomes(outcome, block):
            outcomes[offset + i] = point_outcome
    won = list(map(bool, map(is_winning, itertools.repeat(game), grid.inputs,
                             outcomes)))
    if False not in won:
        return k, None
    i = won.index(False)
    return sum(won), _counterexample(grid.inputs[i], grid.point(i)[1], outcomes[i])


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
    if isinstance(policy, Exhaustive):
        for x, tally in _tally(strategy, game, max_seed_bits):
            for outcome, (count, seed) in tally.items():
                checked += count
                if is_winning(game, x, outcome):
                    wins += count
                elif counterexample is None:
                    counterexample = _counterexample(
                        x, seed_space(strategy).seed(seed), outcome)
        mode = "exhaustive"
    elif isinstance(policy, Sample):
        rng = random.Random(policy.rng_seed)
        for start in range(0, policy.k, SAMPLE_CHUNK):
            size = min(SAMPLE_CHUNK, policy.k - start)
            chunk_wins, lost = _sample_chunk(strategy, game, rng, size)
            checked += size
            wins += chunk_wins
            counterexample = counterexample or lost
        mode = f"sample:{policy.k}"
    else:
        raise AnalysisError(f"unknown seed policy {policy!r}")
    return VerifyResult(counterexample is None, mode, checked, wins, counterexample)


# --- non-signaling -----------------------------------------------------------

def marginals_non_signaling(dist: ExactDistribution, n_parties: int) -> bool:
    """True iff each party's marginal is identical across all inputs that
    agree on that party's coordinate. Marginals are compared as seed
    counts: every probability is a count over seed_count."""
    total = dist.seed_count
    counts = {x: [(o, p.numerator * (total // p.denominator)) for o, p in probs.items()]
              for x, probs in dist.per_input.items()}
    for party in range(n_parties):
        first: dict = {}
        for x, pairs in counts.items():
            marginal: dict = {}
            for o, n in pairs:
                marginal[o[party]] = marginal.get(o[party], 0) + n
            if first.setdefault(x[party], marginal) != marginal:
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
            f"{candidates} deterministic strategies exceed the limit {max_candidates}")
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


def nlb_isolated_parties(strategy: Strategy) -> list[int]:
    """Parties that are no endpoint of any declared NLB. A winning strategy
    for the parity-family games can leave at most one party isolated."""
    touched = set()
    for x in strategy.nlbs:
        touched.add(x.port0_party)
        touched.add(x.port1_party)
    return [p for p in range(strategy.n_parties) if p not in touched]
