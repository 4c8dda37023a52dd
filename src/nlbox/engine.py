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
    act on every point at once; an int operand gives the lane itself or the
    int the result is (``& 0`` is 0, ``| 1`` is 1), and only ``^ 1`` makes a
    new lane. ``bool`` and ``index`` give the lane's value where it is the
    same for every point of the block and raise LaneBranch with the mask
    where it is not; every other use, int's own methods and properties
    included, raises LaneBranch without one. So a program that runs to the
    end on lanes computed exactly what it would compute point by point."""

    __slots__ = ("mask", "full")

    def __init__(self, mask: int, full: int):
        self.mask = mask
        self.full = full

    def _bit(self, other) -> int:
        """other where it is the int 0 or 1 (or a bool), else LaneBranch."""
        if isinstance(other, int) and (other == 0 or other == 1):
            return other
        raise LaneBranch(f"party program combined a lane with {other!r}")

    def __xor__(self, other):
        if type(other) is Lane:
            return Lane(self.mask ^ other.mask, self.full)
        return Lane(self.mask ^ self.full, self.full) if self._bit(other) else self

    def __and__(self, other):
        if type(other) is Lane:
            return Lane(self.mask & other.mask, self.full)
        return self if self._bit(other) else 0

    def __or__(self, other):
        if type(other) is Lane:
            return Lane(self.mask | other.mask, self.full)
        return 1 if self._bit(other) else self

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


class Choice:
    """An int that is not a bit, across a block of points on which it takes
    several values: ``masks`` maps each value to the points that take it,
    over ``full`` (see Lane). A program reads it only through equal_bits;
    every other use, ``==`` included, raises LaneBranch without a mask."""

    __slots__ = ("masks", "full")

    def __init__(self, masks: dict, full: int):
        self.masks = masks
        self.full = full

    def __repr__(self):
        return f"Choice({sorted(self.masks)}, seeds={self.full.bit_count()})"


def equal_bits(value, values) -> tuple:
    """Per entry v of values, the bit (value == v) & 1: an int for a plain
    value, and for a Choice the Lane of its points that take v, or 0 where
    none does. A Choice that takes a value outside values raises
    LaneBranch, so that each of its points runs with its plain value."""
    if type(value) is not Choice:
        return tuple([int(value == v) for v in values])
    masks, full = value.masks, value.full
    if not masks.keys() <= set(values):
        raise LaneBranch(f"party program read {value!r} as one of {values!r}")
    return tuple([Lane(masks[v], full) if v in masks else 0 for v in values])


def index_bits(value, n: int) -> tuple:
    """equal_bits(value, (1, ..., n)) for a 1-based index into n entries. A
    plain value is first read as an n-tuple reads the index value - 1: 0 and
    -1 pick its last two entries, and any other value raises as it does."""
    positions = tuple(range(1, n + 1))
    return equal_bits(value if type(value) is Choice else positions[value - 1], positions)


_REFUSED = ("int", "float", "complex", "hash", "eq", "ne",
            "lt", "le", "gt", "ge", "add", "radd", "sub", "rsub", "mul", "rmul",
            "truediv", "rtruediv", "floordiv", "rfloordiv", "mod", "rmod",
            "divmod", "rdivmod", "pow", "rpow", "lshift", "rlshift", "rshift",
            "rrshift", "neg", "pos", "abs", "invert", "round", "trunc", "floor",
            "ceil", "format", "str")
for _op in _REFUSED:
    setattr(Lane, f"__{_op}__", _refuse(_op))
# int's own attributes (bit_length, real, ...) refuse as properties: a
# __getattr__ would slow down every read of a lane's mask and full
for _op in dir(int):
    if not _op.startswith("_"):
        setattr(Lane, _op, property(_refuse(_op)))
for _op in _REFUSED + ("bool", "index", "xor", "rxor", "and", "rand", "or", "ror",
                       "iter", "len", "getitem", "contains", "getattr"):
    setattr(Choice, f"__{_op}__", _refuse(_op))
del _op


def _is_bit(value) -> bool:
    """The int 0 or 1, or a Lane: what a party may feed, send or output (the
    type goes first, since comparing a Lane raises LaneBranch)."""
    return type(value) is int and 0 <= value <= 1 or type(value) is Lane


def bits_of(x) -> tuple | None:
    """The entries of x as bits, where x is a tuple or list whose every
    entry is ``in (0, 1)``, as 0, 1, False, True and 1.0 are, or a Lane: a
    plain entry as the int it equals, a lane as itself. None for anything
    else: a str, another type, or an entry that is neither. Plain entries
    are counted in C; a lane refuses ``==`` there, and the entries are then
    told apart by type (a Choice refuses ``in``: LaneBranch)."""
    if type(x) not in (tuple, list):
        return None
    try:
        if x.count(0) + x.count(1) == len(x):
            return tuple(map(int, x))
    except LaneBranch:
        bits = tuple([v if type(v) is Lane else int(v) if v in (0, 1) else None
                      for v in x])
        return None if any(v is None for v in bits) else bits
    return None


def truth(value):
    """A bit as a bool, and a Lane as itself: what a promise built in bit
    algebra returns on plain entries and on lanes."""
    return value if type(value) is Lane else bool(value)


def bit_mask(value, block: int) -> int:
    """The points of block where value, a bit or a lane over block, is 1."""
    return value.mask if type(value) is Lane else block if value else 0


def outcome_masks(outcome, block: int) -> tuple:
    """An outcome over block as masks (bit_mask), party by party."""
    return tuple([tuple([bit_mask(v, block) for v in part]) for part in outcome])


def mask_outcome(parts, block: int) -> tuple:
    """outcome_masks undone on block: each bit as _on_block gives it."""
    return tuple([tuple([_on_block(m, block) for m in part]) for part in parts])


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
        # per party, each box it holds a port of: (its port's slot, the
        # other port's slot) in execute's pending feeds, 2k and 2k + 1 for
        # box k's ports 0 and 1
        ports = [{} for _ in range(self.n_parties)]
        for k, x in enumerate(self.nlbs):
            ports[x.port0_party][x.id] = (2 * k, 2 * k + 1)
            ports[x.port1_party][x.id] = (2 * k + 1, 2 * k)
        object.__setattr__(self, "_ports", tuple(ports))
        object.__setattr__(self, "_channel_index",
                           {c.id: c for c in self.channels})
        object.__setattr__(self, "_max_rounds",
                           max(len(p.rounds) for p in self.programs))

    def seed_count(self) -> int:
        return (2 ** len(self.nlbs)) * len(self.shared_domain)


def _not_a_bit(lanes: bool, party: int, what: str, value, kind: str = "a bit"):
    if lanes:
        # value may hold a Lane or a Choice: refused at every point, so that
        # each point's own run names its plain value
        raise LaneBranch(f"party {party} {what} a value that is not {kind}")
    raise NonBitError(f"party {party} {what} {value!r}, which is not {kind}")


def _malformed(lanes: bool, message: str):
    # on lanes as in _not_a_bit: each point's own run names its plain value
    raise LaneBranch("party program returned a malformed action") if lanes \
        else MalformedActionError(message)


def _refuse_feed(strategy: Strategy, lanes: bool, party: int, nid, bit):
    """Raise for a feed that party's port table refused: an undeclared box
    first, then a value that is not a bit, then a box it holds no port of."""
    if not any(nid in ports for ports in strategy._ports):
        raise UndeclaredResourceError(f"party {party} fed undeclared NLB {nid!r}")
    if not _is_bit(bit):
        _not_a_bit(lanes, party, f"fed NLB {nid!r}", bit)
    raise UndeclaredResourceError(f"party {party} holds no port of NLB {nid!r}")


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
    lanes = type(seed) is LaneSeed
    if lanes:
        shared = seed.shared
    else:
        values, index = strategy.shared_domain.values, seed.shared_index
        for bit in seed.nlb_bits:
            # lanes come in a LaneSeed only
            if type(bit) is not int or bit < 0 or bit > 1:
                raise ValueError(f"{seed} has free bit {bit!r}, which is not a bit")
        if type(index) is not int or not 0 <= index < len(values):
            raise ValueError(f"{seed} has shared index {index!r}, not one of "
                             f"range({len(values)})")
        shared = values[index]

    port_tables = strategy._ports
    nlbs = strategy.nlbs
    channel_index = strategy._channel_index
    n_nlbs = len(nlbs)
    pend: list = [None] * (2 * n_nlbs)     # the bit fed to each port (see _ports)
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
                _malformed(lanes, f"party {i} round {rnd} returned {action!r}, "
                                  "not an Action")
            view.memo = action.memo

            feeds = action.nlb_inputs
            if feeds is not None:
                if type(feeds) is not dict:
                    _malformed(lanes, f"party {i} nlb_inputs {feeds!r} is not a dict")
                ports = port_tables[i]
                for nid, bit in feeds.items():
                    port = ports.get(nid)
                    kind = type(bit)    # _is_bit, inlined
                    if port is None or not (kind is Lane or kind is int and 0 <= bit <= 1):
                        _refuse_feed(strategy, lanes, i, nid, bit)
                    slot, other = port
                    if pend[slot] is not None:
                        raise ResourceReuseError(f"NLB {nid!r} fed more than once")
                    pend[slot] = bit
                    if pend[other] is not None:
                        to_fire.append(slot >> 1)

            chan_bits = action.sends
            if chan_bits is not None:
                if type(chan_bits) is not dict:
                    _malformed(lanes, f"party {i} sends {chan_bits!r} is not a dict")
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
                    if not _is_bit(bit):
                        _not_a_bit(lanes, i, f"sent on channel {cid!r}", bit)
                    used_channels.add(cid)
                    deliveries.append((chan.dst, cid, bit))
                    if record:
                        sends.append(ChannelSend(cid, rnd, chan.src, chan.dst, bit))

            out = action.output
            if out is not None:
                if type(out) is list:
                    out = tuple(out)
                elif type(out) is not tuple:
                    _not_a_bit(lanes, i, "output", out, "a tuple or list of bits")
                for v in out:
                    if not _is_bit(v):
                        _not_a_bit(lanes, i, "output", v)
                outputs[i] = out

        unfired -= len(to_fire)
        # bulk-synchronous resolution: nothing submitted this round is
        # visible before the next one
        for idx in to_fire:
            a = pend[2 * idx]
            b = pend[2 * idx + 1]
            # inlined nlb_evaluate; tests pin the two paths to each other
            r = nlb_bits[idx]
            if type(r) is Lane and type(a) is Lane and type(b) is Lane:
                z1 = Lane(r.mask ^ (a.mask & b.mask), r.full)
            else:
                z1 = r ^ (a & b)
            box = nlbs[idx]
            nid = box.id
            views[box.port0_party].nlb[nid] = r
            views[box.port1_party].nlb[nid] = z1
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
            if (pend[2 * idx] is None) != (pend[2 * idx + 1] is None):
                raise DeadlockError(f"NLB {x.id!r} fed on one port only")
        unfed = next(x.id for x, p in zip(strategy.nlbs, pend[::2]) if p is None)
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


def sample_seed(strategy: Strategy, rng: random.Random) -> Seed:
    """Draw one uniform seed from the strategy's randomness space, as a
    one-point chunk of sampled verify draws it (see LaneGrid.drawn): one
    getrandbits(1) per NLB, then the shared index, only where the domain
    has several values."""
    bits = tuple([rng.getrandbits(1) for _ in strategy.nlbs])
    n = len(strategy.shared_domain)
    return Seed(bits, rng.randrange(n) if n > 1 else 0)


# --- the (input, seed) grid as lane blocks -------------------------------------

# the most values an int leaf may take and still run on lanes, as a Choice
MAX_CHOICES = 8


def _columns(values, leaves: list, choices: list | None = None):
    """The nesting of plain tuples and frozen dataclasses shared by every
    value in ``values`` (a sequence), or None when they differ in it or a
    leaf is neither the int 0 or 1 nor one value of one type in every value.
    Each bit leaf's column, its value in every value as bytes of 0 and 1, is
    appended to ``leaves`` in _build's order; a constant leaf is kept in the
    shape as (None, value). Where ``choices`` is a list, an int leaf that
    takes at most MAX_CHOICES values, not all bits, is kept too, as
    (Choice, its values in order of first appearance), with one column per
    value, 1 where the leaf takes it; its values are appended to
    ``choices``."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    (kind,) = kinds
    if kind is int:
        try:
            column = bytes(values)
        except ValueError:      # an int outside 0..255
            column = None
        if column is not None and not column.translate(None, b"\x00\x01"):
            leaves.append(column)
            return "bit"
    if kind is tuple and len(set(map(len, values))) == 1:
        parts = list(zip(*values))
    elif dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen:
        parts = [[getattr(v, f.name) for v in values]
                 for f in dataclasses.fields(kind)]
    elif values.count(values[0]) == len(values):
        return None, values[0]
    else:
        if kind is not int or choices is None:
            return None
        distinct = tuple(dict.fromkeys(values))
        if len(distinct) > MAX_CHOICES:
            return None
        leaves += [bytes([v == d for v in values]) for d in distinct]
        choices.append(distinct)
        return Choice, distinct
    shapes = []
    for part in parts:
        shape = _columns(part, leaves, choices)
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
    dataclasses are built field by field, without their __init__. A Choice
    leaf takes one leaf per value, and is the plain value where that leaf
    is 1 on the whole block."""
    if shape == "bit":
        return next(leaves)
    kind, parts = shape
    if kind is None:
        return parts        # a constant leaf
    if kind is Choice:
        lanes = {value: next(leaves) for value in parts}
        masks = {}
        for value, leaf in lanes.items():
            if type(leaf) is Lane:
                masks[value], full = leaf.mask, leaf.full
            elif leaf:
                return value
        return Choice(masks, full)
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


def _mask_shape(value, masks: list):
    """The _build shape of input lanes given as nested tuples of masks, as
    a game's sample_chunk draws them, each mask appended to masks."""
    if type(value) is int:
        masks.append(value)
        return "bit"
    return tuple, tuple([_mask_shape(v, masks) for v in value])


class _Draws:
    """The plain inputs of a drawn chunk, by index: point i's input is
    decoded from bit i of the chunk's input masks when it is asked for."""

    __slots__ = ("shape", "masks", "k")

    def __init__(self, shape, masks: list, k: int):
        self.shape, self.masks, self.k = shape, masks, k

    def __len__(self):
        return self.k

    def __getitem__(self, i: int):
        if not 0 <= i < self.k:
            raise IndexError(i)
        return _build(self.shape, iter([m >> i & 1 for m in self.masks]))


# window width in bits -> the memoryview format of a machine word that wide
_WORD_FORMATS = {memoryview(bytes(8)).cast(f).itemsize * 8: f for f in "QIHB"}


def lowest_bit(mask: int) -> int:
    """The position of the lowest set bit of mask > 0."""
    return (mask & -mask).bit_length() - 1


class LaneGrid:
    """(input, seed) points numbered 0, 1, ... and held as lane columns, so
    that a block of them runs at once. Point k, run(k, 1), is input
    inputs[k // size] under the Seed seed(k, 1). A group is the width points
    from a multiple of width on, and a block is a set of points of one
    group, (offset, mask) with bit i of mask standing for point offset + i
    and bit 0 set. Each free bit is a lane over a group; so are the input
    and the shared value, leaf by leaf, when all of them have one bit shape
    (see _columns), and otherwise no block holds two of them. ``start`` is
    the first group's partition as runs (offset, block, x, seed). Two fills:

    - ``periodic``: the exhaustive grid. size is the seed count, each
      input's seeds in enumerate_seeds' order, and every group has the same
      seed lanes, so a block's seed serves it one group on too. Here an int
      input leaf that is not a bit may be a Choice (see _columns), until
      the first split narrows the grid (see split).
    - ``drawn``: k points in one group, drawn as one chunk (see drawn):
      point i is the i-th input drawn, under bit i of each box's lane and
      the i-th shared index; size is 1. Where the game draws its inputs as
      lanes, ``inputs`` decodes a point's plain input only when asked.
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
        self.shared = None      # the drawn fill's shared indices
        self.whole = None       # the drawn fill's whole chunk, as a block
        self.promised = None    # per input, on the promise? (analysis.verify_winning)
        self.narrows = False    # the input holds a Choice, until split narrows

    @classmethod
    def periodic(cls, strategy: Strategy, inputs: list, width: int) -> "LaneGrid":
        """inputs x the strategy's seeds, in groups of as many whole inputs
        as fit in width points, or one; see require_enumerable first."""
        nb, values = len(strategy.nlbs), strategy.shared_domain.values
        size = len(values) << nb
        copies = max(1, min(len(inputs), width // size))
        columns, shape, choices = [], None, []
        # inputs share a group only where they have one shape and the grid
        # is not per_index (see __init__)
        if copies > 1 and (len(values) == 1 or _columns(values, []) is not None):
            shape = _columns(inputs, columns, choices)
        copies = copies if shape else 1
        grid = cls(strategy, size, copies * size, list(values) * copies, 1 << nb)
        # free-bit lanes repeat every period points; blocks of one shared
        # index need only one period of them
        grid.period = 1 << nb if grid.per_index else grid.width
        grid.nlb_masks = [lane.mask for lane in seed_lanes(nb, grid.period >> nb)]
        grid.inputs, grid.input_shape, grid.input_columns = inputs, shape, columns
        grid.narrows = bool(shape and choices)
        blocks = ([(s << nb, (1 << (1 << nb)) - 1) for s in range(len(values))]
                  if grid.per_index else [(0, (1 << grid.width) - 1)])
        grid.start = [(offset, block, *grid.run(offset, block))
                      for offset, block in blocks]
        return grid

    @classmethod
    def drawn(cls, strategy: Strategy, game, rng: random.Random,
              k: int) -> "LaneGrid":
        """k points drawn from rng as one chunk: the k inputs, then one
        getrandbits(k) per box, bit i for point i, then k shared indices
        where the domain has several values. The inputs are drawn by the
        game's sample_chunk as input lanes (see games.Game), and decoded into
        plain inputs only where a run needs one (see _Draws); a game without
        one draws them by one sample_input call per point, lanes where they
        all have one bit shape (see _columns). They start as one block per
        input that is not bit-shaped and per shared index that is not."""
        values = strategy.shared_domain.values
        if game.sample_chunk is not None:
            masks = []
            shape = _mask_shape(game.sample_chunk(rng, k), masks)
            inputs = _Draws(shape, masks, k)
        else:
            inputs, columns = [game.sample_input(rng) for _ in range(k)], []
            shape = _columns(inputs, columns)
            masks = list(map(_lane_mask, columns))
        nlb_masks = [rng.getrandbits(k) for _ in strategy.nlbs]
        shared = ([rng.randrange(len(values)) for _ in range(k)] if len(values) > 1
                  else [0] * k)
        grid = cls(strategy, 1, k, [values[s] for s in shared], 1)
        grid.shared, grid.period, grid.nlb_masks = shared, k, nlb_masks
        # the free bits of the whole chunk in one pass, as _on_block gives them
        full = grid.whole = (1 << k) - 1
        grid.nlb_lanes = tuple([1 if m == full else Lane(m, full) if m else 0
                                for m in nlb_masks])
        grid.inputs, grid.input_shape = inputs, shape
        # one group: its input lanes are the drawn masks
        grid.base, grid.input_masks = 0, masks
        if grid.input_shape is None or grid.shared_shape is None:
            keys = zip(inputs if grid.input_shape is None else [None] * k,
                       shared if grid.shared_shape is None else [None] * k)
            groups = {}
            for i, key in enumerate(keys):
                groups[key] = groups.get(key, 0) | 1 << i
        else:
            groups = {None: (1 << k) - 1}
        grid.start = []
        for mask in groups.values():
            low = lowest_bit(mask)
            grid.start.append((low, mask >> low, *grid.run(low, mask >> low)))
        return grid

    def run(self, offset: int, block: int) -> tuple:
        """The (input, seed) that runs a block: lane-valued where its points
        differ. run(k, 1) is point k, as (input, Seed)."""
        return self.input(offset, block), self.seed(offset, block)

    def input(self, offset: int, block: int):
        """The input of a block, a lane wherever its points differ. The
        input lanes of the last group asked for (base, input_masks) are kept
        on the grid (the drawn fill's one group keeps its drawn masks), and
        so are shared by every sweep of a grid that analysis keeps: safe,
        since nlbox starts no threads and runs one sweep at a time."""
        if self.input_shape is None or block == 1:
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
        index = offset % self.size >> self.n_nlbs if self.shared is None \
            else self.shared[offset]
        at = offset % self.width
        if block == self.whole:
            bits = self.nlb_lanes
        else:
            bits = tuple([_on_block(m >> at % self.period, block)
                          for m in self.nlb_masks])
        if block == 1:
            return Seed(bits, index)
        if self.shared_shape is None:
            return LaneSeed(bits, self.values[index], at, block)
        return LaneSeed(bits, _build(self.shared_shape, iter(
            [_on_block(m >> at, block) for m in self.shared_masks])), at, block)

    def input_span(self, offset: int, block: int) -> tuple[int, int]:
        """The first and last input, by index, that a block meets. A block
        of inputs that are not bit-shaped holds one input value and meets
        only the first, even over several draws of the drawn fill."""
        i, first = divmod(offset, self.size)
        if self.input_shape is None:
            return i, i
        return i, i + (first + block.bit_length() - 1) // self.size

    def windows(self, offset: int, block: int) -> list[tuple]:
        """(input index, window) per input from input_span's first to its
        last, the window masking that input's points in the block's own
        coordinates (bit s for point offset + s): its points in the block
        are block & window. A block that meets one input is its window."""
        i, last = self.input_span(offset, block)
        if i == last:
            return [(i, block)]
        size = self.size
        return [(j, (1 << (j + 1) * size - offset) - (1 << max(j * size - offset, 0)))
                for j in range(i, last + 1)]

    def count_by_input(self, offset: int, block: int, masks) -> list[tuple]:
        """Per input that a block meets (see input_span), (input index,
        points, counts): the number of the block's points at that input, and
        of those set in each of masks (masks over the block's points). No
        per-input mask is built: windows of 8, 16, 32 or 64 points are read
        as machine words, whose byte order leaves their popcount alone, and
        other widths are cut by _cut."""
        i, last = self.input_span(offset, block)
        if i == last:
            return [(i, block.bit_count(), [m.bit_count() for m in masks])]
        size, first, count = self.size, offset - i * self.size, last - i + 1
        word, length = _WORD_FORMATS.get(size), size * count // 8

        def windows(mask):
            if word:
                return map(int.bit_count, memoryview(
                    (mask << first).to_bytes(length, "little")).cast(word))
            return map(int.bit_count, _cut(mask << first, size, count))
        return [(i + j, n, counts) for j, (n, *counts)
                in enumerate(zip(*map(windows, (block, *masks)))) if n]

    def split(self, offset: int, block: int, mask: int | None) -> list[tuple]:
        """The runs (offset, block, x, seed) that replace a block whose run
        raised LaneBranch: the two blocks on which its mask is constant;
        without one, or one constant on the block, one block per input when
        the block meets several (see windows), else the block with x and
        seed None, to run point by point.

        A grid whose input holds a Choice first narrows, whatever the
        LaneBranch: from then on, for every sweep of the grid, each group
        is one input and the input is never a lane, as for inputs that are
        not bit-shaped, and ``start`` is the first input's block. A block
        that met several inputs, a whole group of the wider layout, is
        replaced by its first input's block."""
        if self.narrows:
            first, last = self.input_span(offset, block)
            whole = (1 << self.size) - 1
            self.narrows, self.width, self.input_shape = False, self.size, None
            self.start = [(0, whole, *self.run(0, whole))]
            if last > first:
                return [(offset, whole, *self.run(offset, whole))]
        inside = block & mask if mask is not None else 0
        if inside and inside != block:
            parts = [inside, block ^ inside]
        else:
            windows = self.windows(offset, block)
            if len(windows) == 1:
                return [(offset, block, None, None)]
            # reversed, so that the inputs run in order
            parts = [block & window for _, window in reversed(windows)]
        runs = []
        for part in filter(None, parts):
            low = lowest_bit(part)
            runs.append((offset + low, part >> low, *self.run(offset + low, part >> low)))
        return runs

