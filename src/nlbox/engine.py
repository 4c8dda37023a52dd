"""Round-based executor for multi-party protocols that consume non-local boxes.

A non-local box (NLB) is a two-port resource: each port receives one input
bit from its party, and the two output bits XOR to the AND of the inputs.
Which of the two solutions is realised is decided by one free bit, so a run
is fully determined by (strategy, input, seed) and exact output statistics
can be obtained by enumerating the finite seed space. A run's input, free
bits and shared value may also hold Lanes, one bit per (input, seed) point,
so that one run decides a whole block of points at once (see LaneGrid).

Locality is structural: a party program is only ever handed its own input,
the shared-randomness component, resource outputs delivered to its own
NLB ports and channel endpoints, and the memo its own previous round left.
Execution is bulk-synchronous: each round collects every party's resource
requests, then resolves NLBs whose two ports are both fed and delivers
channel bits, all visible from the next round on. A run must use every
declared NLB and channel exactly once.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

DEFAULT_MAX_SEED_BITS = 24


class ProtocolError(Exception):
    """A party program broke the resource discipline during a run."""


class UndeclaredResourceError(ProtocolError):
    pass


class ResourceReuseError(ProtocolError):
    pass


class DeadlockError(ProtocolError):
    """An NLB was fed on one port while the counterpart never arrived."""


class MissingOutputError(ProtocolError):
    pass


class NonBitError(ProtocolError):
    """A party fed, sent or output a value other than the int 0 or 1."""


class UnusedResourceError(ProtocolError):
    """A run ended with a declared NLB unfed or a declared channel unused."""


class MalformedActionError(ProtocolError):
    """A round returned a non-Action, or non-dict nlb_inputs or sends."""


class EnumerationLimitError(Exception):
    """An exact enumeration would exceed the configured limit. Nothing
    falls back: the caller refuses, and the CLI exits 1."""


class LaneBranch(Exception):
    """A party program used a lane as anything but a bit under ``^ & |``.

    When it branched on or indexed with a lane that differs between the
    points of its block, ``mask`` is that lane: the points where it is 1 and
    those where it is 0 form two blocks on which it is constant. Any other
    use (comparison, hashing, arithmetic, a non-bit operand) leaves ``mask``
    None, and callers rerun the block input by input, or point by point."""

    def __init__(self, message: str, mask: int | None = None):
        super().__init__(message)
        self.mask = mask


def nlb_evaluate(a: int, b: int, r: int) -> tuple[int, int]:
    """One NLB firing: inputs (a, b), free bit r.

    Port 0 receives r, port 1 receives r XOR (a AND b), so the outputs
    always XOR to a AND b and each port's marginal is uniform over r.
    """
    return r, r ^ (a & b)


@dataclass(frozen=True)
class NlbInstance:
    """A single-use NLB wired between two distinct parties."""

    id: str
    port0_party: int
    port1_party: int

    def __post_init__(self):
        if self.port0_party == self.port1_party:
            raise ValueError(f"NLB {self.id!r}: ports must belong to distinct parties")


@dataclass(frozen=True)
class Channel:
    """A directed one-bit communication channel, usable at most once."""

    id: str
    src: int
    dst: int

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"channel {self.id!r}: src and dst must differ")


@dataclass(frozen=True)
class SharedDomain:
    """Finite domain of shared-randomness values declared by a strategy."""

    label: str
    values: tuple

    def __len__(self):
        return len(self.values)

    def describe(self) -> dict:
        return {"label": self.label, "size": len(self.values)}


TRIVIAL_SHARED = SharedDomain("trivial", (None,))


def bit_domain(k: int, label: str = "shared-bits") -> SharedDomain:
    return SharedDomain(label, tuple(itertools.product((0, 1), repeat=k)))


def _refuse(op: str):
    def refuse(self, *args):
        raise LaneBranch(f"party program applied {op} to a lane")
    refuse.__name__ = f"__{op}__"
    return refuse


class Lane:
    """One bit across a block of points (bitslicing): bit k of ``mask`` is
    its value at point k, and ``full`` has one bit set per point of the
    block (``mask`` has no bit outside it).

    ``^ & |`` against other lanes of the block and against the ints 0 and 1
    act on every point at once. ``bool`` and ``index`` give the lane's value
    where it is the same for every point of the block and raise LaneBranch
    with the mask where it is not; every other use raises LaneBranch
    without one. So a program that runs to the end on lanes computed
    exactly what it would compute point by point."""

    __slots__ = ("mask", "full")

    def __init__(self, mask: int, full: int):
        self.mask = mask
        self.full = full

    def _operand(self, other) -> int:
        if type(other) is Lane:
            return other.mask
        if isinstance(other, int):
            if other == 0:
                return 0
            if other == 1:
                return self.full
        raise LaneBranch(f"party program combined a lane with {other!r}")

    def __xor__(self, other):
        return Lane(self.mask ^ self._operand(other), self.full)

    def __and__(self, other):
        return Lane(self.mask & self._operand(other), self.full)

    def __or__(self, other):
        return Lane(self.mask | self._operand(other), self.full)

    __rxor__ = __xor__
    __rand__ = __and__
    __ror__ = __or__

    def __bool__(self):
        if self.mask == 0:
            return False
        if self.mask == self.full:
            return True
        raise LaneBranch("party program branched on a lane that differs "
                         "between seeds", self.mask)

    def __index__(self):
        return 1 if self.__bool__() else 0

    def __repr__(self):
        return f"Lane({self.mask:#b}, seeds={self.full.bit_count()})"


for _op in ("int", "float", "complex", "hash", "eq", "ne",
            "lt", "le", "gt", "ge", "add", "radd", "sub", "rsub", "mul", "rmul",
            "truediv", "rtruediv", "floordiv", "rfloordiv", "mod", "rmod",
            "divmod", "rdivmod", "pow", "rpow", "lshift", "rlshift", "rshift",
            "rrshift", "neg", "pos", "abs", "invert", "round", "trunc", "floor",
            "ceil", "format", "str"):
    setattr(Lane, f"__{_op}__", _refuse(_op))
del _op


def seed_lanes(n_nlbs: int, n_shared: int = 1) -> tuple[Lane, ...]:
    """The free bits of all n_shared * 2**n_nlbs seeds, as lanes.

    Seed k is the k-th of ``enumerate_seeds``' order: shared index
    k >> n_nlbs, and NLB j's free bit is bit ``n_nlbs - 1 - j`` of k, so its
    lane alternates runs of 2**(n_nlbs-1-j) zeros and ones. Each lane is one
    run pair doubled up to full width, a few shifts rather than a loop over
    seeds."""
    width = n_shared << n_nlbs
    full = (1 << width) - 1
    lanes = []
    for j in range(n_nlbs):
        run = 1 << (n_nlbs - 1 - j)
        mask = ((1 << run) - 1) << run
        span = 2 * run
        while span < width:
            mask |= mask << span
            span *= 2
        lanes.append(Lane(mask & full, full))
    return tuple(lanes)


class LaneSeed(NamedTuple):
    """A block of points run at once: bit i of ``block`` stands for point
    ``offset + i``, counted from the start of its group of a LaneGrid. Each
    free bit and each leaf of the shared value is a Lane over ``block``, or
    the int it equals on every point of the block."""

    nlb_bits: tuple
    shared: object
    offset: int
    block: int


@dataclass(frozen=True)
class Seed:
    """One point of a strategy's randomness space: a free bit per declared
    NLB (in declaration order) plus an index into the shared domain."""

    nlb_bits: tuple[int, ...]
    shared_index: int = 0

    def to_json(self) -> dict:
        return {"nlb_bits": list(self.nlb_bits), "shared_index": self.shared_index}

    @classmethod
    def from_json(cls, data: dict) -> "Seed":
        return cls(tuple(data["nlb_bits"]), data["shared_index"])


class View:
    """What one party may see at the start of a round.

    ``nlb`` maps instance id -> the output bit delivered to this party's
    port, cumulatively over all previous rounds; ``received`` likewise for
    channel bits. ``memo`` is the memo of this party's previous Action (None
    in its first round). Programs must treat views as read-only.
    """

    __slots__ = ("party", "own_input", "shared", "nlb", "received", "memo")

    def __init__(self, party, own_input, shared, nlb, received, memo=None):
        self.party = party
        self.own_input = own_input
        self.shared = shared
        self.nlb = nlb
        self.received = received
        self.memo = memo


@dataclass(slots=True)
class Action:
    """One round's requests: NLB inputs to submit, channel bits to send,
    and (in a program's final round) the party's output bit-string.

    ``memo`` is handed back, uninspected, as ``View.memo`` of the same
    party's next round and to no one else; it never enters the transcript.
    Since it can only be computed from the party's own earlier views, it
    adds no information, only saves recomputing it round after round."""

    nlb_inputs: dict | None = None
    sends: dict | None = None
    output: tuple | None = None
    memo: object = None


RoundFn = Callable[[View], Action]


@dataclass(frozen=True)
class PartyProgram:
    """A per-party protocol: one pure function per round, View -> Action."""

    rounds: tuple[RoundFn, ...]


class NlbFiring(NamedTuple):
    id: str
    round: int
    inputs: tuple[int, int]
    outputs: tuple[int, int]


class ChannelSend(NamedTuple):
    id: str
    round: int
    src: int
    dst: int
    bit: int


class Transcript(NamedTuple):
    """Complete ledger of one run; a pure function of (strategy, input, seed)."""

    firings: tuple[NlbFiring, ...]
    sends: tuple[ChannelSend, ...]
    outputs: tuple[tuple[int, ...], ...]

    @property
    def nlb_uses(self) -> int:
        return len(self.firings)

    @property
    def comm_bits(self) -> int:
        return len(self.sends)

    def to_json(self) -> dict:
        return {
            "nlb_firings": [
                {"id": f.id, "round": f.round, "inputs": list(f.inputs),
                 "outputs": list(f.outputs)}
                for f in self.firings
            ],
            "channel_sends": [
                {"id": s.id, "round": s.round, "from": s.src, "to": s.dst,
                 "bit": s.bit}
                for s in self.sends
            ],
            "outputs": [list(o) for o in self.outputs],
        }


@dataclass(frozen=True)
class Strategy:
    """An executable protocol: programs plus the declared resource wiring.

    ``game_id`` names the game the strategy is built for (registry id). Every
    run uses each declared resource once, so the declaration is the count.
    """

    name: str
    n_parties: int
    programs: tuple[PartyProgram, ...]
    nlbs: tuple[NlbInstance, ...] = ()
    channels: tuple[Channel, ...] = ()
    shared_domain: SharedDomain = TRIVIAL_SHARED
    game_id: str = ""

    def __post_init__(self):
        if len(self.programs) != self.n_parties:
            raise ValueError("one program per party required")
        ids = [x.id for x in self.nlbs] + [c.id for c in self.channels]
        if len(set(ids)) != len(ids):
            raise ValueError("resource ids must be unique")
        for x in self.nlbs:
            if not (0 <= x.port0_party < self.n_parties
                    and 0 <= x.port1_party < self.n_parties):
                raise ValueError(f"NLB {x.id!r} wired to an unknown party")
        for c in self.channels:
            if not (0 <= c.src < self.n_parties and 0 <= c.dst < self.n_parties):
                raise ValueError(f"channel {c.id!r} wired to an unknown party")
        object.__setattr__(self, "_nlb_index",
                           {x.id: (k, x.id, x.port0_party, x.port1_party)
                            for k, x in enumerate(self.nlbs)})
        object.__setattr__(self, "_channel_index",
                           {c.id: c for c in self.channels})
        object.__setattr__(self, "_max_rounds",
                           max(len(p.rounds) for p in self.programs))

    def seed_count(self) -> int:
        return (2 ** len(self.nlbs)) * len(self.shared_domain)


def _not_a_bit(party: int, what: str, value):
    raise NonBitError(f"party {party} {what} {value!r}, which is not a bit")


def execute(strategy: Strategy, input_tuple: tuple, seed: "Seed | LaneSeed",
            record: bool = True) -> tuple[tuple[tuple[int, ...], ...], Transcript]:
    """Run the strategy on one input under one seed.

    Returns (outcome, transcript) where outcome is the tuple of per-party
    output bit-strings; a LaneSeed runs a block of seeds at once.
    Deterministic: identical arguments give identical transcripts. With
    ``record=False`` the transcript carries only outputs (a fast path for
    bulk seed enumeration); all validity checks still run.
    """
    n = strategy.n_parties
    if len(input_tuple) != n:
        raise ValueError(f"expected {n} inputs, got {len(input_tuple)}")
    if len(seed.nlb_bits) != len(strategy.nlbs):
        raise ValueError("seed has wrong number of NLB bits")
    if type(seed) is LaneSeed:
        shared = seed.shared
    else:
        shared = strategy.shared_domain.values[seed.shared_index]

    nlb_index = strategy._nlb_index
    channel_index = strategy._channel_index
    n_nlbs = len(strategy.nlbs)
    pend0: list = [None] * n_nlbs
    pend1: list = [None] * n_nlbs
    unfired = n_nlbs
    used_channels: set[str] = set()
    outputs: list = [None] * n
    firings: list[NlbFiring] = []
    sends: list[ChannelSend] = []
    programs = strategy.programs
    nlb_bits = seed.nlb_bits
    # one view per party for the whole run: its nlb and received dicts are
    # cumulative, and only the memo changes from round to round
    views = [View(i, x, shared, {}, {}) for i, x in enumerate(input_tuple)]

    for rnd in range(strategy._max_rounds):
        to_fire: list[tuple] = []
        deliveries: list[tuple[int, str, int]] = []
        for i in range(n):
            rounds = programs[i].rounds
            if rnd >= len(rounds) or outputs[i] is not None:
                continue
            view = views[i]
            action = rounds[rnd](view)
            if type(action) is not Action:
                raise MalformedActionError(
                    f"party {i} round {rnd} returned {action!r}, not an Action")
            view.memo = action.memo

            feeds = action.nlb_inputs
            if feeds is not None:
                if type(feeds) is not dict:
                    raise MalformedActionError(
                        f"party {i} nlb_inputs {feeds!r} is not a dict")
                for nid, bit in feeds.items():
                    entry = nlb_index.get(nid)
                    if entry is None:
                        raise UndeclaredResourceError(
                            f"party {i} fed undeclared NLB {nid!r}")
                    # a bit is the int 0 or 1 or a Lane; the type goes
                    # first, since comparing a Lane raises LaneBranch
                    if ((type(bit) is not int or bit < 0 or bit > 1)
                            and type(bit) is not Lane):
                        _not_a_bit(i, f"fed NLB {nid!r}", bit)
                    idx, _, port0, port1 = entry
                    if i == port0:
                        if pend0[idx] is not None:
                            raise ResourceReuseError(
                                f"NLB {nid!r} fed more than once")
                        pend0[idx] = bit
                    elif i == port1:
                        if pend1[idx] is not None:
                            raise ResourceReuseError(
                                f"NLB {nid!r} fed more than once")
                        pend1[idx] = bit
                    else:
                        raise UndeclaredResourceError(
                            f"party {i} holds no port of NLB {nid!r}")
                    if pend0[idx] is not None and pend1[idx] is not None:
                        to_fire.append(entry)

            chan_bits = action.sends
            if chan_bits is not None:
                if type(chan_bits) is not dict:
                    raise MalformedActionError(
                        f"party {i} sends {chan_bits!r} is not a dict")
                for cid, bit in chan_bits.items():
                    chan = channel_index.get(cid)
                    if chan is None:
                        raise UndeclaredResourceError(
                            f"party {i} sent on undeclared channel {cid!r}")
                    if chan.src != i:
                        raise UndeclaredResourceError(
                            f"party {i} is not the source of channel {cid!r}")
                    if cid in used_channels:
                        raise ResourceReuseError(f"channel {cid!r} used twice")
                    if ((type(bit) is not int or bit < 0 or bit > 1)
                            and type(bit) is not Lane):
                        _not_a_bit(i, f"sent on channel {cid!r}", bit)
                    used_channels.add(cid)
                    deliveries.append((chan.dst, cid, bit))
                    if record:
                        sends.append(ChannelSend(cid, rnd, chan.src, chan.dst, bit))

            out = action.output
            if out is not None:
                if type(out) is list:
                    out = tuple(out)
                elif type(out) is not tuple:
                    raise NonBitError(f"party {i} output {out!r}, which is "
                                      f"not a tuple or list of bits")
                for v in out:
                    if (type(v) is not int or v < 0 or v > 1) and type(v) is not Lane:
                        _not_a_bit(i, "output", v)
                outputs[i] = out

        unfired -= len(to_fire)
        # bulk-synchronous resolution: nothing submitted this round is
        # visible before the next one
        for idx, nid, port0, port1 in to_fire:
            a = pend0[idx]
            b = pend1[idx]
            # inlined nlb_evaluate; tests pin the two paths to each other
            r = nlb_bits[idx]
            z1 = r ^ (a & b)
            views[port0].nlb[nid] = r
            views[port1].nlb[nid] = z1
            if record:
                firings.append(NlbFiring(nid, rnd, (a, b), (r, z1)))
        for dst, cid, bit in deliveries:
            views[dst].received[cid] = bit

    if None in outputs:
        raise MissingOutputError(
            f"party {outputs.index(None)} ended without an output")
    # a box fires in the round its second port is fed, and a fed port stays
    # fed, so an unfired box is fed on one port (a deadlock) or on none
    if unfired:
        for idx, x in enumerate(strategy.nlbs):
            if (pend0[idx] is None) != (pend1[idx] is None):
                raise DeadlockError(f"NLB {x.id!r} fed on one port only")
        unfed = next(x.id for x, p in zip(strategy.nlbs, pend0) if p is None)
        raise UnusedResourceError(f"NLB {unfed!r} was never fed")
    if len(used_channels) != len(strategy.channels):
        unused = next(c.id for c in strategy.channels if c.id not in used_channels)
        raise UnusedResourceError(f"channel {unused!r} carried no bit")

    outcome = tuple(outputs)
    if not record:
        return outcome, Transcript((), (), outcome)
    return outcome, Transcript(tuple(firings), tuple(sends), outcome)


def count_text(n: int) -> str:
    """A count as a message states it: in decimal while it fits in 64 bits,
    else as a power of two. Python refuses to print an int of more than
    4,300 digits, and a refusal must name its count all the same."""
    if n.bit_length() <= 64:
        return str(n)
    k = n.bit_length() - 1
    return f"2**{k}" if n == 1 << k else f"more than 2**{k}"


def require_enumerable(strategy: Strategy, max_seed_bits: int) -> None:
    """Raise EnumerationLimitError when the seed-space cardinality
    2^(#NLBs) * |shared domain| exceeds 2**max_seed_bits. Bit lengths are
    compared, so a huge limit costs nothing to check."""
    total = strategy.seed_count()
    if (total - 1).bit_length() > max_seed_bits:
        raise EnumerationLimitError(
            f"seed space of {strategy.name} has {count_text(total)} points "
            f"(limit 2**{max_seed_bits})")


def enumerate_seeds(strategy: Strategy, max_seed_bits: int = DEFAULT_MAX_SEED_BITS):
    """Yield every seed exactly once, shared index outermost and the NLB
    bits in ``itertools.product`` order; see require_enumerable."""
    require_enumerable(strategy, max_seed_bits)
    nb = len(strategy.nlbs)
    for shared_index in range(len(strategy.shared_domain)):
        for bits in itertools.product((0, 1), repeat=nb):
            yield Seed(bits, shared_index)


def seed_at(n_nlbs: int, index: int, shared_index: int) -> Seed:
    """The index-th seed of one shared index in enumerate_seeds' order."""
    return Seed(tuple((index >> (n_nlbs - 1 - j)) & 1 for j in range(n_nlbs)),
                shared_index)


# randrange(2) takes one 32-bit Mersenne Twister word per try: the try is
# accepted when the word's top bit is 0, and its result is bit 30
_TRY_BIT = bytes((b >> 6) & 1 for b in range(256))
_REJECTED = bytes(range(128, 256))


def draw_bits(rng: random.Random, n: int) -> bytes:
    """n draws of rng.randrange(2), as bytes of 0 and 1, leaving rng where
    those draws would. getrandbits(32 * m) is the next m words, least
    significant first, so each pass draws one word per bit still needed and
    keeps the accepted ones; no word is drawn that randrange would not."""
    out = b""
    while n:
        words = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
        got = words[3::4].translate(_TRY_BIT, _REJECTED)
        out += got
        n -= len(got)
    return out


def sample_seed(strategy: Strategy, rng: random.Random) -> Seed:
    """Draw one uniform seed from the strategy's randomness space: one
    randrange(2) per NLB, then the shared index."""
    bits = tuple(draw_bits(rng, len(strategy.nlbs)))
    return Seed(bits, rng.randrange(len(strategy.shared_domain)))


# --- the (input, seed) grid as lane blocks -------------------------------------

def _columns(values, leaves: list):
    """The nesting of plain tuples and frozen dataclasses shared by every
    value in ``values`` (a sequence), or None when they differ in it or a
    leaf is not the int 0 or 1. Each leaf's column, its value in every
    value as bytes of 0 and 1, is appended to ``leaves`` in _build's order."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    if kind is int:
        try:
            column = bytes(values)
        except ValueError:
            return None
        if column.translate(None, b"\x00\x01"):
            return None
        leaves.append(column)
        return "bit"
    if kind is tuple:
        if len(set(map(len, values))) != 1:
            return None
        parts = list(zip(*values))
    elif dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen:
        parts = [[getattr(v, f.name) for v in values]
                 for f in dataclasses.fields(kind)]
    else:
        return None
    shapes = []
    for part in parts:
        shape = _columns(part, leaves)
        if shape is None:
            return None
        shapes.append(shape)
    return kind, tuple(shapes)


_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _lane_mask(column: bytes) -> int:
    """The mask whose bit i is column[i], for non-empty bytes of 0 and 1."""
    return int(column[::-1].translate(_DIGIT), 2)


def _build(shape, leaves):
    """A value of the given shape whose leaves are taken from ``leaves``;
    dataclasses are built field by field, without their __init__."""
    if shape == "bit":
        return next(leaves)
    kind, parts = shape
    items = [_build(part, leaves) for part in parts]
    if kind is tuple:
        return tuple(items)
    obj = object.__new__(kind)
    for f, v in zip(dataclasses.fields(kind), items):
        object.__setattr__(obj, f.name, v)
    return obj


def _on_block(mask: int, block: int):
    """A lane restricted to ``block``, or the int it equals on every seed."""
    mask &= block
    if mask == 0:
        return 0
    return 1 if mask == block else Lane(mask, block)


def _spread(column: bytes, run: int) -> int:
    """The mask whose bits i * run to (i + 1) * run - 1 all equal column[i],
    for non-empty bytes of 0 and 1: a leaf's lane over points that take
    each value run times in a row. Whole bytes are joined at C speed."""
    if run == 1:
        return _lane_mask(column)
    if run % 8:
        ones, zeros = b"\x01" * run, bytes(run)
        return _lane_mask(b"".join([ones if b else zeros for b in column]))
    ones, zeros = b"\xff" * (run // 8), bytes(run // 8)
    return int.from_bytes(b"".join([ones if b else zeros for b in column]), "little")


# byte b -> its eight bits, lowest first, one per byte
_BYTE_BITS = [bytes(b >> j & 1 for j in range(8)) for b in range(256)]


def _cut(mask: int, size: int, count: int) -> list[int]:
    """mask in count slices of size bits, lowest first. It is cut into whole
    bytes at C speed, each holding the same number of slices; one-bit slices
    are read off a byte table."""
    group = 8 // math.gcd(size, 8)
    step = size * group // 8
    raw = mask.to_bytes(-(-size * count // 8), "little")
    if size == 1:
        return list(b"".join(map(_BYTE_BITS.__getitem__, raw))[:count])
    chunks = [int.from_bytes(raw[at:at + step], "little")
              for at in range(0, len(raw), step)]
    if group == 1:
        return chunks
    low = (1 << size) - 1
    return [chunk >> (size * j) & low for chunk in chunks for j in range(group)][:count]


def lowest_bit(mask: int) -> int:
    """The position of the lowest set bit of mask > 0. The low word is
    tried first, so the cost does not grow with the mask's length."""
    word = mask & 0xFFFFFFFFFFFFFFFF
    if word:
        return (word & -word).bit_length() - 1
    return (mask & -mask).bit_length() - 1


class LaneGrid:
    """(input, seed) points numbered 0, 1, ... and held as lane columns, so
    that a block of them runs at once. Point k is input inputs[k // size]
    under the seed point(k) gives. A group is the width points from a
    multiple of width on, and a block is a set of points of one group,
    (offset, mask) with bit i of mask standing for point offset + i and bit
    0 set. Each free bit is a lane over a group; so are the input and the
    shared value, leaf by leaf, when all of them have one bit shape (see
    _columns), and otherwise no block holds two of them. ``start`` is the
    first group's partition as runs (offset, block, x, seed). Two fills:

    - ``periodic``: the exhaustive grid. size is the seed count, each
      input's seeds in enumerate_seeds' order, and every group has the same
      seed lanes, so a block's seed serves it one group on too.
    - ``drawn``: k points in one group, point k the k-th draw of
      ``sample_input(rng)`` then ``sample_seed``; size is 1.
    """

    def __init__(self, strategy: Strategy, size: int, width: int,
                 shared_values: list, spread: int):
        # shared_values: the shared value of each run of spread points
        self.n_nlbs, self.values = len(strategy.nlbs), strategy.shared_domain.values
        self.size, self.width = size, width
        columns = []
        self.shared_shape = _columns(shared_values, columns)
        self.shared_masks = [_spread(column, spread) for column in columns]
        self.per_index = self.shared_shape is None and len(self.values) > 1
        self.inputs, self.input_shape, self.input_columns = None, None, []
        self.base = None        # the group whose input lanes input() holds
        self.bits = self.shared = None      # the drawn fill's draws

    @classmethod
    def periodic(cls, strategy: Strategy, inputs: list, width: int) -> "LaneGrid":
        """inputs x the strategy's seeds, in groups of as many whole inputs
        as fit in width points, or one; see require_enumerable first."""
        size = strategy.seed_count()
        copies = max(1, min(len(inputs), width // size))
        columns, shape = [], None
        if copies > 1 and not _seed_grid(strategy, 1).per_index:
            shape = _columns(inputs, columns)
        grid = object.__new__(cls)     # the cached seed side, plus inputs
        grid.__dict__.update(_seed_grid(strategy, copies if shape else 1).__dict__)
        grid.inputs, grid.input_shape, grid.input_columns = inputs, shape, columns
        grid.start = [(offset, block, grid.input(offset, block), seed)
                      for offset, block, _, seed in grid.start]
        return grid

    @classmethod
    def drawn(cls, strategy: Strategy, sample_input, rng: random.Random,
              k: int) -> "LaneGrid":
        """k points drawn from rng. They start as one block per input that
        is not bit-shaped and per shared index that is not."""
        nb, values = len(strategy.nlbs), strategy.shared_domain.values
        inputs, bits, shared = [], [], []
        for _ in range(k):
            inputs.append(sample_input(rng))
            bits.append(draw_bits(rng, nb))
            shared.append(rng.randrange(len(values)))
        grid = cls(strategy, 1, k, [values[s] for s in shared], 1)
        grid.bits, grid.shared, grid.period = b"".join(bits), shared, k
        grid.nlb_masks = [_lane_mask(grid.bits[j::nb]) for j in range(nb)]
        grid.inputs, grid.input_shape = inputs, _columns(inputs, grid.input_columns)
        keys = zip(inputs if grid.input_shape is None else [None] * k,
                   shared if grid.shared_shape is None else [None] * k)
        groups = {}
        for i, key in enumerate(keys):
            groups[key] = groups.get(key, 0) | 1 << i
        grid.start = []
        for mask in groups.values():
            low = lowest_bit(mask)
            grid.start.append((low, mask >> low, *grid.run(low, mask >> low)))
        return grid

    def point(self, k: int) -> tuple:
        """(input, Seed) of point k."""
        return self.inputs[k // self.size], self.seed(k, 1)

    def run(self, offset: int, block: int) -> tuple:
        """The (input, seed) that runs a block: lane-valued where its points
        differ, or the point of a one-point block."""
        if block == 1:
            return self.point(offset)
        return self.input(offset, block), self.seed(offset, block)

    def input(self, offset: int, block: int):
        """The input of a block, a lane wherever its points differ."""
        if self.input_shape is None:
            return self.inputs[offset // self.size]
        at = offset % self.width
        if offset - at != self.base:
            self.base = offset - at
            first, count = self.base // self.size, self.width // self.size
            self.input_masks = [_spread(column[first:first + count], self.size)
                                for column in self.input_columns]
        return _build(self.input_shape, iter(
            [_on_block(m >> at, block) for m in self.input_masks]))

    def seed(self, offset: int, block: int) -> "LaneSeed | Seed":
        """The seed of a block: a LaneSeed, its offset counted from the
        group's start, or the Seed of a one-point block."""
        nb = self.n_nlbs
        index = offset % self.size >> nb if self.shared is None else self.shared[offset]
        if block == 1:
            if self.bits is None:
                return seed_at(nb, offset & ((1 << nb) - 1), index)
            return Seed(tuple(self.bits[offset * nb:(offset + 1) * nb]), index)
        at = offset % self.width
        bits = tuple([_on_block(m >> at % self.period, block) for m in self.nlb_masks])
        if self.shared_shape is None:
            return LaneSeed(bits, self.values[index], at, block)
        return LaneSeed(bits, _build(self.shared_shape, iter(
            [_on_block(m >> at, block) for m in self.shared_masks])), at, block)

    def by_input(self, offset: int, block: int, parts=()) -> list[tuple]:
        """Cut a block, and parts (tuples of masks over its points, party by
        party) with it, at input boundaries: (input index, first, cut block,
        cut parts) per input that the block meets, bit s of a cut mask
        standing for seed first + s of that input."""
        i, first = divmod(offset, self.size)
        count = (first + block.bit_length() - 1) // self.size + 1
        if count == 1:
            return [(i, first, block, parts)]

        def cut(mask):
            return _cut(mask << first, self.size, count)
        # input by input, each party's cut masks; a party may have none
        empty = itertools.repeat(())
        cut_parts = zip(*[zip(*map(cut, leaves)) if leaves else empty
                          for leaves in parts]) if parts else empty
        return [(i + j, 0, b, p) for j, (b, p) in enumerate(zip(cut(block), cut_parts)) if b]

    def split(self, offset: int, block: int, mask: int | None) -> list[tuple]:
        """The runs (offset, block, x, seed) that replace a block whose run
        raised LaneBranch: the two blocks on which its mask is constant;
        without one, or one constant on the block, one block per input when
        the block spans several, else the block with x and seed None, to
        run point by point. In the drawn fill each point is an input."""
        inside = block & mask if mask is not None else 0
        if inside and inside != block:
            parts = [(offset, inside), (offset, block ^ inside)]
        else:
            # reversed, so that the inputs run in order
            parts = [(i * self.size, b) for i, _, b, _ in self.by_input(offset, block)][::-1]
            if len(parts) == 1:
                return [(offset, block, None, None)]
        runs = []
        for start, part in parts:
            low = lowest_bit(part)
            runs.append((start + low, part >> low, *self.run(start + low, part >> low)))
        return runs


def _seed_grid(strategy: Strategy, copies: int) -> LaneGrid:
    """The periodic fill's seed side for groups of copies inputs: a LaneGrid
    without inputs, built on first use and kept on the strategy."""
    grids = strategy.__dict__.setdefault("_seed_grids", {})
    grid = grids.get(copies)
    if grid is None:
        nb, values = len(strategy.nlbs), strategy.shared_domain.values
        size = len(values) << nb
        grid = grids[copies] = LaneGrid(strategy, size, copies * size,
                                        list(values) * copies, 1 << nb)
        # free-bit lanes repeat every period points; blocks of one shared
        # index need only one period of them
        grid.period = 1 << nb if grid.per_index else grid.width
        grid.nlb_masks = [lane.mask for lane in seed_lanes(nb, grid.period >> nb)]
        blocks = ([(s << nb, (1 << (1 << nb)) - 1) for s in range(len(values))]
                  if grid.per_index else [(0, (1 << grid.width) - 1)])
        grid.start = [(offset, block, None, grid.seed(offset, block))
                      for offset, block in blocks]
    return grid
