"""Round-based executor for multi-party protocols that consume non-local boxes.

A non-local box (NLB) is a two-port resource: each port receives one input
bit from its party, and the two output bits XOR to the AND of the inputs.
Which of the two solutions is realised is decided by one free bit, so a run
is fully determined by (strategy, input, seed) and exact output statistics
can be obtained by enumerating the finite seed space. A seed's free bits and
shared value may also hold Lanes, one bit per seed, so that one run decides
a whole block of seeds at once (see SeedSpace).

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
    """An exact enumeration would exceed the configured limit; callers may
    fall back to sampled mode."""


class LaneBranch(Exception):
    """A party program used a lane as anything but a bit under ``^ & |``.

    When it branched on or indexed with a lane that differs between the
    seeds of its block, ``mask`` is that lane: the seeds where it is 1 and
    those where it is 0 form two blocks on which it is constant. Any other
    use (comparison, hashing, arithmetic, a non-bit operand) leaves ``mask``
    None, and callers rerun the block seed by seed."""

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
    """One bit across a block of seeds (bitslicing): bit k of ``mask`` is
    its value under seed k, and ``full`` has one bit set per seed of the
    block (``mask`` has no bit outside it).

    ``^ & |`` against other lanes of the block and against the ints 0 and 1
    act on every seed at once. ``bool`` and ``index`` give the lane's value
    where it is the same for every seed of the block and raise LaneBranch
    with the mask where it is not; every other use raises LaneBranch
    without one. So a program that runs to the end on lanes computed
    exactly what it would compute seed by seed."""

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
    """A block of seeds run at once: bit i of ``block`` stands for seed
    ``offset + i`` (see SeedSpace). Each free bit and each leaf of the
    shared value is a Lane over ``block``, or the int it equals on every
    seed of the block."""

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


def require_enumerable(strategy: Strategy, max_seed_bits: int) -> None:
    """Raise EnumerationLimitError when the seed-space cardinality
    2^(#NLBs) * |shared domain| exceeds 2**max_seed_bits."""
    total = strategy.seed_count()
    if total > 2 ** max_seed_bits:
        raise EnumerationLimitError(
            f"seed space of {strategy.name} has {total} points "
            f"(limit 2**{max_seed_bits}); use sampled mode")


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


def sample_seed(strategy: Strategy, rng) -> Seed:
    """Draw one uniform seed from the strategy's randomness space."""
    bits = tuple(rng.randrange(2) for _ in strategy.nlbs)
    return Seed(bits, rng.randrange(len(strategy.shared_domain)))


# --- the seed space as blocks --------------------------------------------------

def _bit_shape(value, leaves: list):
    """The nesting of plain tuples and frozen dataclasses around ``value``'s
    leaves, which are appended to ``leaves``; None when a leaf is not the
    int 0 or 1."""
    kind = type(value)
    if kind is int:
        leaves.append(value)
        return "bit" if value == 0 or value == 1 else None
    if kind is tuple:
        items = value
    elif dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen:
        items = [getattr(value, f.name) for f in dataclasses.fields(kind)]
    else:
        return None
    parts = tuple(_bit_shape(v, leaves) for v in items)
    return None if None in parts else (kind, parts)


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


class SeedSpace:
    """A strategy's seeds numbered in ``enumerate_seeds``' order: seed k has
    shared index k >> #NLBs. A block is a set of seeds given as (offset,
    mask): bit i of mask stands for seed offset + i, and bit 0 is set.

    When every shared value is a plain tuple or frozen dataclass of the
    same shape with leaves 0 and 1, the shared value is lane-valued too,
    leaf by leaf, and the whole space is one block; otherwise each shared
    index is one block."""

    def __init__(self, strategy: Strategy):
        nb = len(strategy.nlbs)
        values = strategy.shared_domain.values
        self.n_nlbs = nb
        self.values = values
        self.shape = None
        if len(values) > 1:
            flat = [[] for _ in values]
            shapes = {_bit_shape(v, leaves) for v, leaves in zip(values, flat)}
            if len(shapes) == 1 and None not in shapes:
                # a leaf's lane repeats each shared value's bit 2**nb times
                ones, zeros = "1" * (1 << nb), "0" * (1 << nb)
                (self.shape,) = shapes
                self.shared_masks = [
                    int("".join([ones if b else zeros for b in reversed(col)]), 2)
                    for col in zip(*flat)]
        self.per_index = self.shape is None and len(values) > 1
        if self.per_index:
            # a free bit's lane repeats every 2**nb seeds and no block spans
            # two shared indices, so one period of it serves every block
            self.nlb_masks = tuple(lane.mask for lane in seed_lanes(nb))
            blocks = [(s << nb, (1 << (1 << nb)) - 1) for s in range(len(values))]
        else:
            self.nlb_masks = tuple(lane.mask for lane in seed_lanes(nb, len(values)))
            blocks = [(0, (1 << (len(values) << nb)) - 1)]
        # the partition every sweep starts from
        self.start = [(offset, block, self.run_seed(offset, block))
                      for offset, block in blocks]

    def seed(self, k: int) -> Seed:
        """Seed k of the space."""
        return seed_at(self.n_nlbs, k & ((1 << self.n_nlbs) - 1), k >> self.n_nlbs)

    def run_seed(self, offset: int, block: int) -> LaneSeed | Seed:
        """The seed that runs a block: a LaneSeed, or the Seed of a one-seed
        block."""
        if block == 1:
            return self.seed(offset)
        shift = offset & ((1 << self.n_nlbs) - 1) if self.per_index else offset
        bits = tuple(_on_block(m >> shift, block) for m in self.nlb_masks)
        if self.shape is None:
            shared = self.values[offset >> self.n_nlbs]
        else:
            shared = _build(self.shape, iter(
                [_on_block(m >> offset, block) for m in self.shared_masks]))
        return LaneSeed(bits, shared, offset, block)

    def split(self, offset: int, block: int, mask: int | None) -> list[tuple]:
        """The (offset, block, seed) runs that replace a block after a
        LaneBranch: the two blocks on which the lane ``mask`` is constant,
        or, without a mask, the block with seed None: run seed by seed."""
        inside = block & mask if mask is not None else 0
        if inside == 0 or inside == block:
            return [(offset, block, None)]
        runs = []
        for part in (inside, block ^ inside):
            low = (part & -part).bit_length() - 1
            runs.append((offset + low, part >> low,
                         self.run_seed(offset + low, part >> low)))
        return runs


def seed_space(strategy: Strategy) -> SeedSpace:
    """The strategy's SeedSpace, built on first use and kept on the
    strategy; see require_enumerable before asking for one."""
    space = strategy.__dict__.get("_seed_space")
    if space is None:
        space = SeedSpace(strategy)
        object.__setattr__(strategy, "_seed_space", space)
    return space
