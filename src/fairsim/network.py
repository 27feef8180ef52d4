"""Discrete-event transport: message types, delay models, and the event queue.

Time is integer ticks. Four communication models are supported:
synchronous (fixed delay), alternating good/bad periods with optional
per-process laggards, eventually synchronous with a global stabilization
time (GST), and asynchronous with unbounded escalating delay bursts.

A ``Message`` is one send: every recipient of it shares one tuple.
``assign_delay`` draws the delays of a whole send at once and groups its
recipients by delivery tick, and each group travels in one delivery event.
"""
from __future__ import annotations

import random
from enum import Enum
from heapq import heappop, heappush
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .core import EMPTY_MAPPING

SimTime = int


class MessageKind(Enum):
    PROPOSE = "propose"
    VOTE = "vote"
    DECISION = "decision"
    SUSPICION = "suspicion"


_DECISION = MessageKind.DECISION


class Message(NamedTuple):
    """One send, shared by all of its recipients: a tuple, so read-only."""

    sender: int
    height: int
    kind: MessageKind
    payload: int  # payload_id, or a suspect's id
    sent_at: SimTime = 0


class Synchronous(NamedTuple):
    """Every message is delivered exactly ``delay`` ticks after sending."""

    delay: int = 0


class GoodBad(NamedTuple):
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
    laggards: Mapping[int, int] = EMPTY_MAPPING

    def in_good_period(self, t: SimTime) -> bool:
        cycle = self.good_len + self.bad_len
        return (t % cycle) < self.good_len


class EventuallySynchronous(NamedTuple):
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


class Asynchronous(NamedTuple):
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


NetworkModel = object  # one of the four model classes above


# Each model's branch adds its fixed offsets (the low end of its range, a
# laggard's extra delay, a burst) to ``t`` and sets the width of its range;
# they depend on the send only, so they are computed once per send. Each
# remote copy's draw inlines ``rng.randint(lo, hi)`` as CPython (3.10 and
# later) computes it: getrandbits(k) for the bit length k of the width,
# redrawn while out of range. It consumes the same RNG stream without
# randint's three Python frames, and a width of 1 still draws.


def assign_delay(
    model: NetworkModel, msg: Message, recipients: Sequence[int], rng: random.Random
) -> Dict[SimTime, Sequence[int]]:
    """Delivery ticks of one send: delivery tick -> the ``recipients`` of
    ``msg`` delivered then, each group in recipient order.

    Remote copies draw their delays from ``rng`` in recipient order, one
    draw each; the sender's own copy arrives at ``sent_at`` and draws
    nothing. A group may be ``recipients`` itself, so neither is changed.
    """
    t = sent_at = msg.sent_at
    sender = msg.sender
    cls = type(model)
    if cls is Synchronous:
        at = t + model.delay
        if at != t and sender in recipients:
            others = [rcpt for rcpt in recipients if rcpt != sender]
            return {t: [sender], at: others} if others else {t: recipients}
        return {at: recipients} if recipients else {}
    if cls is EventuallySynchronous:
        gst = model.gst
        if gst is not None and t >= gst:
            width = model.post_gst_bound + 1
        else:
            lo, hi = model.pre_gst_delay_range
            width = hi - lo + 1
            t += lo
    elif cls is GoodBad:
        if model.in_good_period(t):
            width = model.good_delay_bound + 1
        else:
            lo, hi = model.bad_delay_range
            width = hi - lo + 1
            t += lo
        t += model.laggards.get(sender, 0)
    elif cls is Asynchronous:
        lo, hi = model.base_delay_range
        width = hi - lo + 1
        t += lo
        if msg.kind is _DECISION:
            burst = model.burst_delay(msg.height)
            if burst is not None:
                t += burst
    else:
        raise TypeError(f"unknown network model: {model!r}")
    k = width.bit_length()
    getrandbits = rng.getrandbits
    groups: Dict[SimTime, List[int]] = {}
    for rcpt in recipients:
        if rcpt == sender:
            at = sent_at
        else:
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            at = t + r
        groups.setdefault(at, []).append(rcpt)
    return groups


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
    than ``clock``. A plain heap of (at, seq, event) in its place ran
    replications 1.27x slower on wide-committee and 1.12x on long-horizon.
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
