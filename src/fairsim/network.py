"""Discrete-event transport: message types, delay models, and the event queue.

Time is integer ticks. Four communication models are supported:
synchronous (fixed delay), alternating good/bad periods with optional
per-process laggards, eventually synchronous with a global stabilization
time (GST), and asynchronous with unbounded escalating delay bursts.
"""
from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

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


@dataclass
class Synchronous:
    """Every message is delivered exactly ``delay`` ticks after sending."""

    delay: int = 0


@dataclass
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


@dataclass
class EventuallySynchronous:
    """Unbounded delays before GST, bounded by ``post_gst_bound`` after.

    ``gst`` may be left unset and activated later via ``gst_height``: the
    simulation engine fixes the tick when the chain reaches the height
    preceding it, so stabilization happens "during" that height.
    """

    post_gst_bound: int
    pre_gst_delay_range: Tuple[int, int]
    gst: Optional[SimTime] = None
    gst_height: Optional[int] = None


@dataclass
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


def _good_bad_delay(model: GoodBad, msg: Message, rng: random.Random) -> SimTime:
    t = msg.sent_at
    if model.in_good_period(t):
        delay = rng.randint(0, model.good_delay_bound)
    else:
        lo, hi = model.bad_delay_range
        delay = rng.randint(lo, hi)
    return t + delay + model.laggards.get(msg.sender, 0)


def _eventually_synchronous_delay(model: EventuallySynchronous, msg: Message, rng: random.Random) -> SimTime:
    t = msg.sent_at
    if model.gst is not None and t >= model.gst:
        return t + rng.randint(0, model.post_gst_bound)
    lo, hi = model.pre_gst_delay_range
    return t + rng.randint(lo, hi)


def _asynchronous_delay(model: Asynchronous, msg: Message, rng: random.Random) -> SimTime:
    lo, hi = model.base_delay_range
    delay = rng.randint(lo, hi)
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
    """Min-heap of (deliver_at, seq, event); FIFO among equal timestamps."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()
        self.clock: SimTime = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, at: SimTime, event) -> None:
        if at < self.clock:
            raise InvalidTimestamp(f"event at t={at} but clock is {self.clock}")
        heapq.heappush(self._heap, (at, next(self._seq), event))

    def pop(self) -> Tuple[SimTime, object]:
        if not self._heap:
            raise ExhaustedQueue
        at, _, event = heapq.heappop(self._heap)
        self.clock = at
        return at, event
