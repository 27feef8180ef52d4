"""Discrete-event transport: message types, delay models, and the event queue.

Time is integer ticks. Four communication models are supported:
synchronous (fixed delay), alternating good/bad periods with optional
per-process laggards, eventually synchronous with a global stabilization
time (GST), and asynchronous with unbounded escalating delay bursts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

SimTime = int


class MessageKind(Enum):
    PROPOSE = "propose"
    VOTE = "vote"
    DECISION = "decision"
    SUSPICION = "suspicion"


@dataclass(slots=True)
class Message:
    sender: int
    recipient: int
    height: int
    kind: MessageKind
    payload: int  # payload_id, or the suspect id for suspicion messages
    sent_at: SimTime = 0


@dataclass(frozen=True)
class Synchronous:
    """Every message is delivered exactly ``delay`` ticks after sending."""

    delay: int = 0


@dataclass(frozen=True)
class GoodBad:
    """Alternating good/bad periods, starting with a good one.

    Delays are drawn per point-to-point message from the period active at
    send time. ``laggards`` adds a fixed extra delay to everything a given
    process sends, which is how a well-behaved but badly connected process
    is modeled.
    """

    good_len: int
    bad_len: int
    good_delay_bound: int
    bad_delay_range: Tuple[int, int]
    laggards: Dict[int, int] = field(default_factory=dict)

    def in_good_period(self, t: SimTime) -> bool:
        cycle = self.good_len + self.bad_len
        return (t % cycle) < self.good_len


@dataclass(frozen=True)
class EventuallySynchronous:
    """Unbounded delays before GST, bounded by ``post_gst_bound`` after.

    ``gst`` may be left unset and activated later via ``gst_height``: the
    simulation engine runs on a copy with ``gst`` set to the tick at which
    the chain reaches the height preceding it, so stabilization happens
    "during" that height.
    """

    post_gst_bound: int
    pre_gst_delay_range: Tuple[int, int]
    gst: Optional[SimTime] = None
    gst_height: Optional[int] = None


@dataclass(frozen=True)
class Asynchronous:
    """No delay bound. Calm heights draw from ``base_delay_range``; every
    ``burst_every_heights``-th height, decision messages are delayed by an
    exponentially growing burst, which outpaces any additive timeout
    adaptation. Calm heights are the "good periods" in which consensus
    still progresses.
    """

    base_delay_range: Tuple[int, int] = (0, 3)
    burst_every_heights: int = 8
    burst_initial: int = 50
    burst_growth: int = 2

    def burst_delay(self, height: int) -> Optional[int]:
        k = self.burst_every_heights
        if k <= 0 or height == 0 or height % k != 0:
            return None
        return self.burst_initial * self.burst_growth ** (height // k)


NetworkModel = object  # one of the four dataclasses above


def _synchronous_delay(model: Synchronous, msg: Message, rng: random.Random) -> SimTime:
    return msg.sent_at + model.delay


# The bounded draws below inline ``rng.randint(lo, hi)`` as CPython (3.10 and
# later) computes it: ``lo`` plus getrandbits(k) for the bit length k of the
# width, redrawn while out of range. They consume the same RNG stream
# without randint's three Python frames, and a width of 1 still draws.


def _good_bad_delay(model: GoodBad, msg: Message, rng: random.Random) -> SimTime:
    t = msg.sent_at
    if model.in_good_period(t):
        lo, width = 0, model.good_delay_bound + 1
    else:
        lo, hi = model.bad_delay_range
        width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return t + lo + r + model.laggards.get(msg.sender, 0)


def _eventually_synchronous_delay(model: EventuallySynchronous, msg: Message, rng: random.Random) -> SimTime:
    t = msg.sent_at
    gst = model.gst
    if gst is not None and t >= gst:
        lo, width = 0, model.post_gst_bound + 1
    else:
        lo, hi = model.pre_gst_delay_range
        width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return t + lo + r


def _asynchronous_delay(model: Asynchronous, msg: Message, rng: random.Random) -> SimTime:
    lo, hi = model.base_delay_range
    width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    delay = lo + r
    if msg.kind is MessageKind.DECISION:
        burst = model.burst_delay(msg.height)
        if burst is not None:
            delay += burst
    return msg.sent_at + delay


_DRAW = {
    Synchronous: _synchronous_delay,
    GoodBad: _good_bad_delay,
    EventuallySynchronous: _eventually_synchronous_delay,
    Asynchronous: _asynchronous_delay,
}


def assign_delay(model: NetworkModel, msg: Message, rng: random.Random) -> SimTime:
    """Delivery tick of ``msg``, drawn from its ``sent_at``."""
    draw = _DRAW.get(type(model))
    if draw is None:
        raise TypeError(f"unknown network model: {model!r}")
    return draw(model, msg, rng)


class ExhaustedQueue(Exception):
    """Popped from an empty event queue: the run is over."""


class InvalidTimestamp(ValueError):
    """Tried to schedule an event before the current clock."""


class EventQueue:
    """Events in (tick, push order): a FIFO list per tick and a min-heap of
    the distinct ticks (a calendar queue over integer time).

    The list of the tick at ``clock`` is drained through one iterator, so a
    push at ``clock`` joins the list being drained and pops after every
    event already pushed for that tick. Every tick in the heap is later
    than ``clock``.
    """

    __slots__ = ("clock", "_buckets", "_ticks", "_current", "_drain", "_later")

    def __init__(self) -> None:
        self.clock: SimTime = 0
        self._buckets: Dict[SimTime, list] = {}  # tick > clock -> its events
        self._ticks: List[SimTime] = []  # heap of the keys of _buckets
        self._current: list = []  # the events of tick ``clock``
        self._drain = iter(self._current)
        self._later = 0  # events in _buckets

    def __len__(self) -> int:
        # a list iterator's length hint is exactly the items it has left
        return self._later + self._drain.__length_hint__()

    def push(self, at: SimTime, event) -> None:
        if at == self.clock:
            self._current.append(event)
            return
        if at < self.clock:
            raise InvalidTimestamp(f"event at t={at} but clock is {self.clock}")
        bucket = self._buckets.get(at)
        if bucket is None:
            self._buckets[at] = [event]
            heappush(self._ticks, at)
        else:
            bucket.append(event)
        self._later += 1

    def pop(self) -> Tuple[SimTime, object]:
        for event in self._drain:  # the next event of tick ``clock``, if any
            return self.clock, event
        if not self._ticks:
            # an exhausted list iterator never resumes, so pushes at the
            # clock after this go to a fresh list
            self._current = []
            self._drain = iter(self._current)
            raise ExhaustedQueue
        at = heappop(self._ticks)
        current = self._current = self._buckets.pop(at)
        self._later -= len(current)
        self._drain = drain = iter(current)
        self.clock = at
        return at, next(drain)
