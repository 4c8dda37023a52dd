"""The six promise games: input promises, win relations, target correlations.

Games are addressed by registry id: ``chsh``, ``magic-square``, ``mermin``,
``multi-mermin:<n>``, ``dj:<n>``, ``bmaj:<n>``. Inputs and outcomes are plain
tuples; a per-party output is always a tuple of bits, so an outcome for a
three-party game with single-bit answers looks like ((0,), (1,), (0,)).

Magic square inputs use the 1-based row/column convention {1, 2, 3} at every
interface; matrices are indexed 0-based internally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .engine import EnumerationLimitError

MAX_OUTCOMES = 2 ** 20


class GameError(Exception):
    pass


class PromiseError(GameError):
    """An input outside the game's promise was offered to the win relation."""


def bmaj(x) -> int:
    """Majority biased towards 0: 1 iff the Hamming weight exceeds floor(n/2)."""
    if len(x) < 2:
        raise ValueError("bmaj needs at least 2 bits")
    return 1 if sum(x) > len(x) // 2 else 0


@dataclass(frozen=True)
class Game:
    """A promise game: who plays, what inputs are promised, who wins.

    ``party_inputs`` lists each party's possible inputs (None when the
    per-party input space is too large to enumerate). ``party_outputs``
    lists candidate per-party outputs for strategy searches; where the win
    relation imposes a purely local constraint (magic square parities) the
    candidates are restricted to locally-valid outputs, which cannot lower
    the optimum. ``parity_target`` is set for games whose relation is
    "XOR of all output bits equals target(input)". ``uniform_target`` marks
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
    party_outputs: tuple
    parity_target: Callable[[tuple], int] | None
    uniform_target: bool


def promised_inputs(game: Game) -> list:
    """The full promise set, in a fixed deterministic order."""
    return game.promise()


def sample_promised_input(game: Game, rng) -> tuple:
    return game.sample_input(rng)


def _require_promise(game: Game, input_tuple: tuple) -> None:
    if not game.on_promise(input_tuple):
        raise PromiseError(f"{input_tuple} is outside the promise of {game.name}")


def is_winning(game: Game, input_tuple: tuple, outcome: tuple) -> bool:
    _require_promise(game, input_tuple)
    if len(outcome) != game.n_parties or any(
            len(outcome[i]) != game.output_lengths[i] for i in range(game.n_parties)):
        raise GameError(f"outcome arity does not match {game.name}")
    return game.win(input_tuple, outcome)


def outcome_space(game: Game):
    parts = [list(itertools.product((0, 1), repeat=w)) for w in game.output_lengths]
    return itertools.product(*parts)


def winning_outcomes(game: Game, input_tuple: tuple) -> set:
    """All outcomes satisfying the win relation for one promised input,
    enumerated from the full outcome space. The promise is checked once;
    every outcome of the space has the game's arity by construction."""
    total = 2 ** sum(game.output_lengths)
    if total > MAX_OUTCOMES:
        raise EnumerationLimitError(
            f"outcome space of {game.name} has {total} points (limit {MAX_OUTCOMES})")
    _require_promise(game, input_tuple)
    win = game.win
    return {o for o in outcome_space(game) if win(input_tuple, o)}


# --- constructors -----------------------------------------------------------

def _scalar_bits(n):
    return tuple(((0,), (1,)) for _ in range(n))


def chsh_game() -> Game:
    inputs = list(itertools.product((0, 1), repeat=2))

    def win(x, y):
        return (y[0][0] ^ y[1][0]) == (x[0] & x[1])

    return Game(
        name="chsh", n_parties=2, output_lengths=(1, 1),
        promise=lambda: list(inputs),
        sample_input=lambda rng: inputs[rng.randrange(4)],
        on_promise=lambda x: x in inputs,
        win=win,
        party_inputs=((0, 1), (0, 1)),
        party_outputs=_scalar_bits(2),
        parity_target=lambda x: x[0] & x[1],
        uniform_target=True,
    )


EVEN_TRIPLES = tuple(r for r in itertools.product((0, 1), repeat=3) if sum(r) % 2 == 0)
ODD_TRIPLES = tuple(r for r in itertools.product((0, 1), repeat=3) if sum(r) % 2 == 1)


def magic_square_game() -> Game:
    inputs = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]

    def win(x, y):
        row, col = y
        if sum(row) % 2 != 0 or sum(col) % 2 != 1:
            return False
        return row[x[1] - 1] == col[x[0] - 1]

    return Game(
        name="magic-square", n_parties=2, output_lengths=(3, 3),
        promise=lambda: list(inputs),
        sample_input=lambda rng: inputs[rng.randrange(9)],
        on_promise=lambda x: x in inputs,
        win=win,
        party_inputs=((1, 2, 3), (1, 2, 3)),
        party_outputs=(EVEN_TRIPLES, ODD_TRIPLES),
        parity_target=None,
        uniform_target=True,
    )


def multi_mermin_game(n: int, name: str | None = None) -> Game:
    if n < 3:
        raise GameError("multi-mermin needs n >= 3")
    inputs = [x for x in itertools.product((0, 1), repeat=n) if sum(x) % 2 == 0]

    def target(x):
        return (sum(x) // 2) % 2

    def win(x, y):
        par = 0
        for o in y:
            par ^= o[0]
        return par == target(x)

    return Game(
        name=name or f"multi-mermin:{n}", n_parties=n,
        output_lengths=(1,) * n,
        promise=lambda: list(inputs),
        sample_input=lambda rng: inputs[rng.randrange(len(inputs))],
        on_promise=lambda x: len(x) == n and all(b in (0, 1) for b in x)
                              and sum(x) % 2 == 0,
        win=win,
        party_inputs=((0, 1),) * n,
        party_outputs=_scalar_bits(n),
        parity_target=target,
        uniform_target=True,
    )


def mermin_game() -> Game:
    return multi_mermin_game(3, name="mermin")


def hamming(a, b) -> int:
    return sum(x != y for x, y in zip(a, b))


def dj_game(n: int) -> Game:
    """Distributed Deutsch-Jozsa: 2^n-bit inputs equal or at Hamming distance
    2^(n-1); n-bit outputs equal iff the inputs are equal."""
    if n < 1:
        raise GameError("dj needs n >= 1")
    length = 2 ** n
    half = 2 ** (n - 1)

    def on_promise(x):
        a, b = x
        return len(a) == length and len(b) == length and hamming(a, b) in (0, half)

    def promise():
        # exhaustive promise enumeration is only supported for n <= 2;
        # larger n must use the seeded sampler
        if n > 2:
            raise EnumerationLimitError(
                f"dj:{n} promise is enumerated only for n <= 2; use sampling")
        strings = list(itertools.product((0, 1), repeat=length))
        out = []
        for a in strings:
            for b in strings:
                if hamming(a, b) in (0, half):
                    out.append((a, b))
        return out

    def sample_input(rng):
        # both promise classes drawn with probability 1/2
        a = tuple(rng.randrange(2) for _ in range(length))
        if rng.randrange(2) == 0:
            return (a, a)
        flips = set(rng.sample(range(length), half))
        b = tuple(bit ^ 1 if i in flips else bit for i, bit in enumerate(a))
        return (a, b)

    def win(x, y):
        return (y[0] == y[1]) == (x[0] == x[1])

    strings = None
    if n <= 2:
        strings = tuple(itertools.product((0, 1), repeat=length))

    return Game(
        name=f"dj:{n}", n_parties=2, output_lengths=(n, n),
        promise=promise,
        sample_input=sample_input,
        on_promise=on_promise,
        win=win,
        party_inputs=(strings, strings) if strings else None,
        party_outputs=(tuple(itertools.product((0, 1), repeat=n)),) * 2,
        parity_target=None,
        uniform_target=False,
    )


def bmaj_game(n: int) -> Game:
    if n < 2:
        raise GameError("bmaj needs n >= 2")
    inputs = list(itertools.product((0, 1), repeat=n))

    def win(x, y):
        par = 0
        for o in y:
            par ^= o[0]
        return par == bmaj(x)

    return Game(
        name=f"bmaj:{n}", n_parties=n, output_lengths=(1,) * n,
        promise=lambda: list(inputs),
        sample_input=lambda rng: inputs[rng.randrange(len(inputs))],
        on_promise=lambda x: len(x) == n and all(b in (0, 1) for b in x),
        win=win,
        party_inputs=((0, 1),) * n,
        party_outputs=_scalar_bits(n),
        parity_target=lambda x: bmaj(x),
        uniform_target=False,
    )


# --- registry ---------------------------------------------------------------

GAME_FAMILIES = {
    "chsh": (chsh_game, None),
    "magic-square": (magic_square_game, None),
    "mermin": (mermin_game, None),
    "multi-mermin": (multi_mermin_game, "n >= 3"),
    "dj": (dj_game, "n >= 1"),
    "bmaj": (bmaj_game, "n >= 2"),
}


def get_game(game_id: str) -> Game:
    """Resolve a registry id like ``mermin`` or ``multi-mermin:4``."""
    base, sep, param = game_id.partition(":")
    entry = GAME_FAMILIES.get(base)
    if entry is None:
        raise GameError(f"unknown game {game_id!r}")
    factory, wants_n = entry
    if wants_n is None:
        if sep:
            raise GameError(f"game {base!r} takes no parameter")
        return factory()
    if not sep:
        raise GameError(f"game {base!r} needs a parameter, e.g. {base}:3")
    try:
        n = int(param)
    except ValueError:
        raise GameError(f"bad parameter in {game_id!r}") from None
    return factory(n)
