"""The six promise games: input promises, win relations, target correlations.

Games are addressed by registry id: ``chsh``, ``magic-square``, ``mermin``,
``multi-mermin:<n>``, ``dj:<n>``, ``bmaj:<n>``. Inputs and outcomes are plain
tuples; a per-party output is always a tuple of bits, so an outcome for a
three-party game with single-bit answers looks like ((0,), (1,), (0,)).

Magic square inputs use the 1-based row/column convention {1, 2, 3} at every
interface; matrices are indexed 0-based internally.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .engine import (EnumerationLimitError, bits_of, count_text, index_bits, seed_lanes,
                     truth)

MAX_OUTCOMES = 2 ** 20
# dj:<n> inputs are 2^n bits and dj-nlb:<n> declares about 2^(n+1) boxes
# (2,032 at the cap, a few ms per sampled run); both ids refuse a larger n
DJ_MAX_N = 10
# dj:<n>'s promise, its per-party inputs and its per-party outputs are
# listed only where the promise has at most this many pairs: dj:3 has
# 18,176, dj:4 about 843M; a larger n must use the sampler
DJ_MAX_PROMISE = 2 ** 20


class GameError(Exception):
    pass


class PromiseError(GameError):
    """An input outside the game's promise was offered to the win relation."""


def bmaj(x) -> int:
    """Majority biased towards 0: 1 iff the Hamming weight of the n bits x
    exceeds floor(n/2). Bits and result may be lanes: the weight is added up
    digit by digit and compared with floor(n/2) (see _exceeds)."""
    if len(x) < 2:
        raise ValueError("bmaj needs at least 2 bits")
    return _exceeds(_weight(x), len(x) // 2)


def _weight(x) -> list:
    """The Hamming weight of x, whose bits may be lanes, as its binary
    digits, lowest first: each bit is added in through a ripple of half
    adders, and the counter grows a digit when the count needs one."""
    digits = []
    for count, carry in enumerate(x, 1):
        if count.bit_length() > len(digits):
            digits.append(0)
        for k, digit in enumerate(digits):
            digits[k], carry = digit ^ carry, digit & carry
    return digits


def _exceeds(digits: list, t: int):
    """1 where the number with these binary digits (lowest first, bits or
    lanes, at least t.bit_length() of them) exceeds the constant t, else 0:
    from the top digit down, the number pulls ahead where it still equals
    t's digits above and has a 1 where t has a 0."""
    above, equal = 0, 1
    for k in range(len(digits) - 1, -1, -1):
        digit = digits[k]
        if t >> k & 1:
            equal &= digit
        else:
            above |= equal & digit
            equal &= 1 ^ digit
    return above


class Parity(NamedTuple):
    """A win relation stated as a parity: outcome y wins on input x iff the
    XOR over parties r of answer(r, x, y[r]) equals target(x)."""

    target: Callable[[tuple], int]
    answer: Callable[[int, tuple, tuple], int]

    def win(self, x, y):
        """1 where y wins on x, else 0: the XOR of the answers and
        1 ^ target(x), so it runs on output lanes as on bits."""
        answers = map(self.answer, range(len(y)), itertools.repeat(x), y)
        return functools.reduce(operator.xor, answers, 1 ^ self.target(x))


def mermin_target(x) -> int:
    """floor(w/2) mod 2 for the Hamming weight w of the bits x, which may be
    lanes, as the result then is: floor(w/2) and C(w, 2) agree mod 2, so it
    is the XOR of all pairwise ANDs, each bit ANDed with the parity before it."""
    pairs = seen = 0
    for v in x:
        pairs ^= seen & v
        seen ^= v
    return pairs


def own_bit(r, x, out) -> int:
    """The answer bit of a party whose output is the bit itself."""
    return out[0]


class Affine(NamedTuple):
    """A promise stated as a map of free bits: an input is its ``free``
    free bits, then one bit per entry of ``parities``, the XOR of the free
    bits that entry lists by position (multi-mermin:n has n - 1 free bits
    and their parity, bmaj:n n free bits). fields derives the Game's
    promise fields from it: the promise, one input per choice of free bits
    in itertools.product order; sample_chunk, one getrandbits(m) per free
    bit, each parity column the XOR of its free columns; sample_input, the
    one-point chunk; and on_promise, in bit algebra on the bits."""

    free: int
    parities: tuple = ()

    def point(self, free: tuple) -> tuple:
        """The input with these free bits, then its parities: ints, or
        masks over a chunk's draws (see Game), one bit per draw."""
        return free + tuple([functools.reduce(operator.xor, [free[k] for k in p])
                             for p in self.parities])

    def holds(self, x):
        """1 where the bits x, which may be lanes, have their parities, else
        0."""
        wrong = map(operator.xor, x[self.free:], self.point(x[:self.free])[self.free:])
        return 1 ^ functools.reduce(operator.or_, wrong, 0)

    def fields(self) -> dict:
        """The promise fields of a Game that draws and checks this map."""
        n = self.free + len(self.parities)

        def sample_chunk(rng, m):
            return self.point(tuple([rng.getrandbits(m) for _ in range(self.free)]))

        def on_promise(x):
            bits = bits_of(x)
            return bits is not None and len(bits) == n and truth(self.holds(bits))

        return dict(
            promise=_lazy(lambda: [self.point(_bits(k, self.free))
                                   for k in range(1 << self.free)]),
            sample_chunk=sample_chunk,
            # the one-point chunk: a mask over one draw is its bit
            sample_input=lambda rng: sample_chunk(rng, 1),
            on_promise=on_promise)


@dataclass(frozen=True)
class Game:
    """A promise game: who plays, what inputs are promised, who wins.

    ``win(x, y)`` is the win relation: truthy iff outcome y wins on the
    promised input x. Written in bit algebra on the outputs (``^``, ``&``,
    ``|`` and ``1 ^ v``, with no ``sum``, ``==``, ``bool`` or early return
    on them), it runs unchanged on output lanes, where it decides a whole
    block of outcomes in one call; verify runs it that way. Every built-in
    relation has that one form on its inputs too, so one call decides a
    block whose points span several inputs: a bit of x may be a lane, and
    magic square's row or column may take several values (see indicators).
    A plain input is given as ints (see require_promise). A relation that
    uses a lane in any other way raises LaneBranch there, and is then
    called once per input, and once per distinct outcome of an input,
    instead.

    ``on_promise(x)`` is truthy iff x is promised. The built-in promises
    are bit algebra too: on input lanes one call gives the lane of the
    points on the promise; a promise that uses a lane otherwise (``==``,
    ``in``, hashing) raises LaneBranch, and is called per point instead.
    ``sample_chunk(rng, m)`` draws m inputs at once, each input bit as the
    mask of the draws where it is 1 (bit i for draw i), which is its lane;
    ``sample_input`` is then the one-point chunk. It is None where inputs
    are not bits (magic square), and sampled verify calls sample_input per
    draw. chsh, bmaj and multi-mermin derive promise, both samplers and
    on_promise from one Affine declaration.

    ``party_inputs`` lists each party's possible inputs (None when the
    per-party input space is too large to enumerate). ``party_outputs``
    lists candidate per-party outputs for strategy searches (None where
    ``party_inputs`` is None, since no search can use them); where the win
    relation imposes a purely local constraint (magic square parities) the
    candidates are restricted to locally-valid outputs, which cannot lower
    the optimum. ``parity`` is set for games whose relation, on the outputs
    in ``party_outputs``, is a parity (see Parity). ``uniform_target`` marks
    games whose reference correlation is uniform over winning outcomes.
    """

    name: str
    n_parties: int
    output_lengths: tuple[int, ...]
    promise: Callable[[], list]
    sample_input: Callable[[object], tuple]
    sample_chunk: Callable[[object, int], tuple] | None
    on_promise: Callable[[tuple], bool]
    win: Callable[[tuple, tuple], bool]
    party_inputs: tuple | None
    party_outputs: tuple | None
    parity: Parity | None
    uniform_target: bool


def promised_inputs(game: Game) -> list:
    """The full promise set, in a fixed deterministic order."""
    return game.promise()


def require_promise(game: Game, input_tuple: tuple) -> tuple:
    """input_tuple, once on the game's promise (else PromiseError), as plain
    ints: tuples for lists and ints for whole floats, so that (1.0, 0.0)
    decides as (1, 0), and magic square's (2.0, 3) as (2, 3)."""
    if not game.on_promise(input_tuple):
        raise PromiseError(f"{input_tuple} is outside the promise of {game.name}")
    return _plain(input_tuple)


def _plain(x):
    if type(x) in (tuple, list):
        return tuple(map(_plain, x))
    return int(x) if type(x) is float and x.is_integer() else x


def is_winning(game: Game, input_tuple: tuple, outcome: tuple) -> bool:
    """Raises PromiseError off the promise, and GameError for an outcome of
    the wrong arity or with an entry other than the int 0 or 1."""
    input_tuple = require_promise(game, input_tuple)
    try:
        fits = tuple(map(len, outcome)) == tuple(game.output_lengths)
    except TypeError:
        fits = False
    if not fits:
        raise GameError(f"outcome arity does not match {game.name}")
    for part in outcome:
        for bit in part:
            if type(bit) is not int or bit < 0 or bit > 1:
                raise GameError(f"outcome {outcome!r} holds {bit!r}, which is not a bit")
    return bool(game.win(input_tuple, outcome))


def outcome_space(game: Game):
    parts = [list(itertools.product((0, 1), repeat=w)) for w in game.output_lengths]
    return itertools.product(*parts)


def _check_outcome_space(game: Game) -> None:
    total = 2 ** sum(game.output_lengths)
    if total > MAX_OUTCOMES:
        raise EnumerationLimitError(
            f"outcome space of {game.name} has {count_text(total)} points "
            f"(limit {MAX_OUTCOMES})")


def outcome_lanes(game: Game) -> tuple:
    """The whole outcome space as one outcome of lanes: bit k of each lane
    is that output bit in the k-th outcome of outcome_space. The space is
    limited as in winning_outcomes."""
    _check_outcome_space(game)
    lanes = iter(seed_lanes(sum(game.output_lengths)))
    return tuple(tuple(itertools.islice(lanes, w)) for w in game.output_lengths)


def outcome_index(game: Game, outcome: tuple) -> int | None:
    """The position of outcome in outcome_space, or None when it is not
    one of the space's outcomes."""
    if tuple(map(len, outcome)) != tuple(game.output_lengths):
        return None
    k = 0
    for part in outcome:
        for b in part:
            if b not in (0, 1):
                return None
            k = k << 1 | int(b)
    return k


def winning_outcomes(game: Game, input_tuple: tuple) -> set:
    """All outcomes satisfying the win relation for one promised input,
    enumerated from the full outcome space, one call of the win relation
    per outcome. The promise is checked and the input read once (see
    require_promise); every outcome of the space has the game's arity."""
    _check_outcome_space(game)
    input_tuple = require_promise(game, input_tuple)
    win = game.win
    return {o for o in outcome_space(game) if win(input_tuple, o)}


# --- constructors -----------------------------------------------------------

def _scalar_bits(n):
    return tuple(((0,), (1,)) for _ in range(n))


def _lazy(build):
    """A promise() that builds its list on the first call, then copies it."""
    cached = functools.cache(build)
    return lambda: list(cached())


def _bits(k: int, n: int) -> tuple:
    """The k-th n-tuple of bits in itertools.product order."""
    return tuple([(k >> i) & 1 for i in range(n - 1, -1, -1)])


EVEN_TRIPLES = tuple(r for r in itertools.product((0, 1), repeat=3) if sum(r) % 2 == 0)
ODD_TRIPLES = tuple(r for r in itertools.product((0, 1), repeat=3) if sum(r) % 2 == 1)


def indicators(v) -> tuple:
    """The bits (v == 1) & 1, (v == 2) & 1 and (v == 3) & 1 of a
    magic-square input v, lanes where v takes several of those values
    across a block (engine.index_bits), so that select(bits, indicators(v))
    is bits[v - 1]. A plain v is read as that index reads it: 0 and -1 pick
    the last two entries, and any other value raises as the index does."""
    return index_bits(v, 3)


def select(bits, hot):
    """bits[v - 1] for the input v whose indicators are hot, in bit
    algebra, so bits and hot may be lanes."""
    return (bits[0] & hot[0]) ^ (bits[1] & hot[1]) ^ (bits[2] & hot[2])


def magic_square_game() -> Game:
    inputs = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]

    def win(x, y):
        # the row has even parity, the column odd parity, and they agree
        # on the shared cell: the row's entry at the column input and the
        # column's at the row input, selected in bit algebra, so that an
        # input may take several values across a block
        (r0, r1, r2), (c0, c1, c2) = y
        cells = select(y[0], indicators(x[1])) ^ select(y[1], indicators(x[0]))
        return (1 ^ r0 ^ r1 ^ r2) & (c0 ^ c1 ^ c2) & (1 ^ cells)

    return Game(
        name="magic-square", n_parties=2, output_lengths=(3, 3),
        promise=lambda: list(inputs),
        sample_input=lambda rng: inputs[rng.randrange(9)],
        sample_chunk=None,
        on_promise=lambda x: x in inputs,
        win=win,
        party_inputs=((1, 2, 3), (1, 2, 3)),
        party_outputs=(EVEN_TRIPLES, ODD_TRIPLES),
        # with the parities fixed by party_outputs, the row's entry at the
        # column input must equal the column's entry at the row input
        parity=Parity(lambda x: 0, lambda r, x, out: out[x[1 - r] - 1]),
        uniform_target=True,
    )


def multi_mermin_game(n: int, name: str | None = None) -> Game:
    if n < 3:
        raise GameError("multi-mermin needs n >= 3")
    parity = Parity(mermin_target, own_bit)
    return Game(
        name=name or f"multi-mermin:{n}", n_parties=n,
        output_lengths=(1,) * n,
        # n - 1 free bits, then their parity
        **Affine(n - 1, (tuple(range(n - 1)),)).fields(),
        win=parity.win,
        party_inputs=((0, 1),) * n,
        party_outputs=_scalar_bits(n),
        parity=parity,
        uniform_target=True,
    )


def mermin_game() -> Game:
    return multi_mermin_game(3, name="mermin")


def hamming(a, b) -> int:
    return sum(map(operator.ne, a, b))


def dj_game(n: int) -> Game:
    """Distributed Deutsch-Jozsa: 2^n-bit inputs equal or at Hamming distance
    2^(n-1); n-bit outputs equal iff the inputs are equal."""
    if n < 1:
        raise GameError("dj needs n >= 1")
    if n > DJ_MAX_N:
        raise GameError(f"dj limited to n <= {DJ_MAX_N}")
    length = 2 ** n
    half = 2 ** (n - 1)
    positions = range(length)

    def on_promise(x):
        # a ^ b has weight 0 or half, so no binary digit of its weight
        # (_weight, lowest first) is set but half's: bit algebra, so that a
        # bit of a or b may be a lane
        if type(x) not in (tuple, list) or len(x) != 2:
            return False
        a, b = map(bits_of, x)
        if a is None or b is None or len(a) != length or len(b) != length:
            return False
        digits = _weight(map(operator.xor, a, b))
        del digits[n - 1]
        return truth(1 ^ functools.reduce(operator.or_, digits))

    # each string a, with itself and with each of the C(length, half)
    # strings at distance half from it; counted before anything is built
    pairs = 2 ** length * (1 + math.comb(length, half))
    enumerable = pairs <= DJ_MAX_PROMISE
    strings = tuple(itertools.product((0, 1), repeat=length)) if enumerable else None
    outputs = tuple(itertools.product((0, 1), repeat=n)) if enumerable else None

    @_lazy
    def promise():
        if not enumerable:
            raise EnumerationLimitError(
                f"dj:{n} promise has {count_text(pairs)} pairs "
                f"(limit {DJ_MAX_PROMISE})")
        return [(a, b) for a in strings for b in strings if hamming(a, b) in (0, half)]

    def sample_chunk(rng, m):
        # each bit of a over the m draws, then their class coins, then, in
        # draw order, a set of half positions for each draw whose coin is 1:
        # its b is a with those bits flipped, and any other draw's b is a
        a = tuple([rng.getrandbits(m) for _ in range(length)])
        coin = rng.getrandbits(m)
        b = list(a)
        for i in range(m):
            if coin >> i & 1:
                for j in rng.sample(positions, half):
                    b[j] ^= 1 << i
        return a, tuple(b)

    def win(x, y):
        # the outputs differ iff some bit pair does, which must hold iff the
        # inputs differ: "the inputs are equal" is 1 ^ OR(a_i ^ b_i)
        differ = functools.reduce(operator.or_, map(operator.xor, y[0], y[1]))
        return 1 ^ functools.reduce(operator.or_, map(operator.xor, *x)) ^ differ

    return Game(
        name=f"dj:{n}", n_parties=2, output_lengths=(n, n),
        promise=promise,
        # the one-point chunk: a mask over one draw is its bit
        sample_input=lambda rng: sample_chunk(rng, 1),
        sample_chunk=sample_chunk,
        on_promise=on_promise,
        win=win,
        party_inputs=(strings, strings) if strings else None,
        party_outputs=(outputs, outputs) if strings else None,
        # with one output bit each, "equal iff the inputs are equal" is a parity
        parity=Parity(lambda x: int(x[0] != x[1]), own_bit) if n == 1 else None,
        uniform_target=False,
    )


def bmaj_game(n: int) -> Game:
    if n < 2:
        raise GameError("bmaj needs n >= 2")
    parity = Parity(bmaj, own_bit)

    return Game(
        name=f"bmaj:{n}", n_parties=n, output_lengths=(1,) * n,
        **Affine(n).fields(),
        win=parity.win,
        party_inputs=((0, 1),) * n,
        party_outputs=_scalar_bits(n),
        parity=parity,
        uniform_target=False,
    )


def chsh_game() -> Game:
    """CHSH is biased majority on two bits, bmaj(x0, x1) = x0 & x1, with a
    reference correlation uniform over the winning outcomes."""
    return replace(bmaj_game(2), name="chsh", uniform_target=True)


# --- registry ---------------------------------------------------------------

GAME_FAMILIES = {
    "chsh": (chsh_game, None),
    "magic-square": (magic_square_game, None),
    "mermin": (mermin_game, None),
    "multi-mermin": (multi_mermin_game, "n >= 3"),
    "dj": (dj_game, "n >= 1"),
    "bmaj": (bmaj_game, "n >= 2"),
}


def resolve_id(families: dict, registry_id: str, kind: str, error: type):
    """Build what a registry id like ``mermin`` or ``multi-mermin:4`` names.
    families maps a base name to (factory, None) or, for a family that
    takes n, (factory, hint); n must be written in canonical decimal, so
    ``:03``, ``:+3``, ``: 3`` and ``:1_0`` are refused, not renamed."""
    base, sep, param = registry_id.partition(":")
    entry = families.get(base)
    if entry is None:
        raise error(f"unknown {kind} {registry_id!r}")
    factory, wants_n = entry
    if wants_n is None:
        if sep:
            raise error(f"{kind} {base!r} takes no parameter")
        return factory()
    if not sep:
        raise error(f"{kind} {base!r} needs a parameter, e.g. {base}:3")
    try:
        n = int(param)
    except ValueError:
        n = None
    if n is None or str(n) != param:
        raise error(f"bad parameter in {registry_id!r}")
    return factory(n)


def get_game(game_id: str) -> Game:
    """Resolve a registry id like ``mermin`` or ``multi-mermin:4``."""
    return resolve_id(GAME_FAMILIES, game_id, "game", GameError)
