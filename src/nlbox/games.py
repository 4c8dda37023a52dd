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
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .engine import EnumerationLimitError, count_text, draw_bits, seed_lanes

MAX_OUTCOMES = 2 ** 20
# dj:<n> inputs are 2^n bits and dj-nlb:<n> declares about 2^(n+1) boxes
# (2,032 at the cap, a few ms per sampled run); both ids refuse a larger n
DJ_MAX_N = 10


class GameError(Exception):
    pass


class PromiseError(GameError):
    """An input outside the game's promise was offered to the win relation."""


def bmaj(x) -> int:
    """Majority biased towards 0: 1 iff the Hamming weight exceeds floor(n/2)."""
    if len(x) < 2:
        raise ValueError("bmaj needs at least 2 bits")
    return 1 if sum(x) > len(x) // 2 else 0


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


def own_bit(r, x, out) -> int:
    """The answer bit of a party whose output is the bit itself."""
    return out[0]


@dataclass(frozen=True)
class Game:
    """A promise game: who plays, what inputs are promised, who wins.

    ``win(x, y)`` is the win relation: truthy iff outcome y wins on the
    promised input x. Written in bit algebra on the outputs (``^``, ``&``,
    ``|`` and ``1 ^ v``, with no ``sum``, ``==``, ``bool`` or early return
    on them), it runs unchanged on output lanes (engine.Lane), where it
    decides a whole block of outcomes in one call; the exhaustive sweeps
    run it that way. A relation that uses an output lane in any other way
    raises LaneBranch there, and is then called once per distinct outcome
    instead.

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
    on_promise: Callable[[tuple], bool]
    win: Callable[[tuple, tuple], bool]
    party_inputs: tuple | None
    party_outputs: tuple | None
    parity: Parity | None
    uniform_target: bool


def promised_inputs(game: Game) -> list:
    """The full promise set, in a fixed deterministic order."""
    return game.promise()


def sample_promised_input(game: Game, rng) -> tuple:
    return game.sample_input(rng)


def require_promise(game: Game, input_tuple: tuple) -> None:
    if not game.on_promise(input_tuple):
        raise PromiseError(f"{input_tuple} is outside the promise of {game.name}")


def is_winning(game: Game, input_tuple: tuple, outcome: tuple) -> bool:
    require_promise(game, input_tuple)
    # part lengths are compared lazily and stop at the first mismatch, so a
    # later part that has no length is never asked for one
    if len(outcome) != game.n_parties or not all(
            map(operator.eq, map(len, outcome), game.output_lengths)):
        raise GameError(f"outcome arity does not match {game.name}")
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
    per outcome. The promise is checked once; every outcome of the space
    has the game's arity by construction."""
    _check_outcome_space(game)
    require_promise(game, input_tuple)
    win = game.win
    return {o for o in outcome_space(game) if win(input_tuple, o)}


# --- constructors -----------------------------------------------------------

def _all_bits(x) -> bool:
    """True iff every entry of x is ``in (0, 1)``, as 0, 1, False, True and
    1.0 are: the same test, made in C."""
    return all(map(operator.contains, itertools.repeat((0, 1)), x))


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


def magic_square_game() -> Game:
    inputs = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]

    def win(x, y):
        # the row has even parity, the column odd parity, and they agree
        # on the shared cell
        (r0, r1, r2), (c0, c1, c2) = y
        return ((1 ^ r0 ^ r1 ^ r2) & (c0 ^ c1 ^ c2)
                & (1 ^ y[0][x[1] - 1] ^ y[1][x[0] - 1]))

    return Game(
        name="magic-square", n_parties=2, output_lengths=(3, 3),
        promise=lambda: list(inputs),
        sample_input=lambda rng: inputs[rng.randrange(9)],
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
    # int(): a promised input may hold 0.0 and 1.0
    parity = Parity(lambda x: int(sum(x)) // 2 % 2, own_bit)

    def sample_input(rng):
        # the k-th even-weight tuple is the n - 1 bits of k, then their parity
        head = _bits(rng.randrange(2 ** (n - 1)), n - 1)
        return head + (sum(head) % 2,)

    return Game(
        name=name or f"multi-mermin:{n}", n_parties=n,
        output_lengths=(1,) * n,
        promise=_lazy(lambda: [x for x in itertools.product((0, 1), repeat=n)
                               if sum(x) % 2 == 0]),
        sample_input=sample_input,
        on_promise=lambda x: len(x) == n and _all_bits(x) and sum(x) % 2 == 0,
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

    def on_promise(x):
        if len(x) != 2:
            return False
        a, b = x
        return len(a) == length and len(b) == length and hamming(a, b) in (0, half)

    # the promise, the per-party inputs and the per-party outputs are
    # enumerated only for n <= 2; larger n must use the sampler
    strings = tuple(itertools.product((0, 1), repeat=length)) if n <= 2 else None
    outputs = tuple(itertools.product((0, 1), repeat=n)) if strings else None

    def promise():
        if strings is None:
            raise EnumerationLimitError(
                f"dj:{n} promise is enumerated only for n <= 2")
        return [(a, b) for a in strings for b in strings if hamming(a, b) in (0, half)]

    def sample_input(rng):
        # both promise classes drawn with probability 1/2; a is length
        # draws of rng.randrange(2), drawn in bulk
        a = tuple(draw_bits(rng, length))
        if rng.randrange(2) == 0:
            return (a, a)
        b = list(a)
        for i in rng.sample(range(length), half):
            b[i] ^= 1
        return (a, tuple(b))

    def win(x, y):
        # the outputs differ iff some bit pair does, which must hold iff the
        # inputs differ
        differ = functools.reduce(operator.or_, map(operator.xor, y[0], y[1]))
        return (x[0] == x[1]) ^ differ

    return Game(
        name=f"dj:{n}", n_parties=2, output_lengths=(n, n),
        promise=promise,
        sample_input=sample_input,
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
        promise=_lazy(lambda: list(itertools.product((0, 1), repeat=n))),
        sample_input=lambda rng: _bits(rng.randrange(2 ** n), n),
        on_promise=lambda x: len(x) == n and _all_bits(x),
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
