import heapq
import random

import pytest
from hypothesis import given, strategies as st

from fairsim.network import (
    Asynchronous,
    EventQueue,
    EventuallySynchronous,
    ExhaustedQueue,
    GoodBad,
    InvalidTimestamp,
    Message,
    MessageKind,
    Synchronous,
    assign_delay,
)


def _msg(kind=MessageKind.VOTE, sender=0, height=1, sent_at=0):
    return Message(sender=sender, height=height, kind=kind, payload=0, sent_at=sent_at)


def test_message_is_frozen():
    # one Message is shared by every recipient of a send, so no handler may
    # change it under the others
    msg = _msg()
    with pytest.raises(AttributeError):
        msg.payload = 1
    with pytest.raises(AttributeError):
        del msg.payload
    with pytest.raises(AttributeError):
        msg.extra = 1
    assert (msg.sender, msg.height, msg.kind, msg.payload, msg.sent_at) == (0, 1, MessageKind.VOTE, 0, 0)


def test_queue_orders_by_time_then_fifo():
    q = EventQueue()
    q.push(5, "late")
    q.push(1, "a")
    q.push(1, "b")
    q.push(3, "mid")
    assert [q.pop()[1] for _ in range(4)] == ["a", "b", "mid", "late"]


def test_queue_rejects_past_events():
    q = EventQueue()
    q.push(10, "x")
    q.pop()
    with pytest.raises(InvalidTimestamp):
        q.push(9, "too-late")
    q.push(10, "same-tick-ok")


def test_queue_exhaustion():
    q = EventQueue()
    with pytest.raises(ExhaustedQueue):
        q.pop()


# push offsets from the clock: 0 schedules at the current tick (during a
# drain when events of that tick are pending), negative ones lie in the past
_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.one_of(st.just(0), st.integers(min_value=-2, max_value=6))),
        st.just(("pop",)),
    ),
    max_size=80,
)


@given(_QUEUE_OPS)
def test_queue_matches_reference_heap(ops):
    """EventQueue pops what a heap of (at, push order, event) pops."""
    q, ref, clock = EventQueue(), [], 0
    for seq, op in enumerate(ops):
        if op[0] == "push":
            at = clock + op[1]
            if at < clock:
                with pytest.raises(InvalidTimestamp):
                    q.push(at, seq)
            else:
                q.push(at, seq)
                heapq.heappush(ref, (at, seq, seq))
        elif ref:
            clock, _, event = heapq.heappop(ref)
            assert q.pop() == (clock, event)
        else:
            with pytest.raises(ExhaustedQueue):
                q.pop()
        assert q.clock == clock
        assert len(q) == len(ref)


def _ticks(groups):
    """recipient -> delivery tick, from assign_delay's groups."""
    return {rcpt: at for at, group in groups.items() for rcpt in group}


def _delay(model, msg, rng):
    """The delay of one remote copy of ``msg``."""
    (at,) = assign_delay(model, msg, [msg.sender + 1], rng)
    return at - msg.sent_at


def test_synchronous_fixed_delay():
    rng = random.Random(0)
    state = rng.getstate()
    for d in (0, 1, 7):
        model = Synchronous(delay=d)
        assert assign_delay(model, _msg(sender=2, sent_at=100), [0, 1, 3], rng) == {100 + d: [0, 1, 3]}
        # the sender's own copy arrives at once, the others after the delay
        groups = assign_delay(model, _msg(sender=2, sent_at=100), [0, 1, 2, 3], rng)
        assert groups == ({100: [0, 1, 2, 3]} if d == 0 else {100: [2], 100 + d: [0, 1, 3]})
        assert assign_delay(model, _msg(sender=2, sent_at=100), [2], rng) == {100: [2]}
    assert rng.getstate() == state  # nothing is drawn


def test_goodbad_period_arithmetic():
    model = GoodBad(good_len=10, bad_len=5, good_delay_bound=0, bad_delay_range=(3, 3))
    assert model.in_good_period(0)
    assert model.in_good_period(9)
    assert not model.in_good_period(10)
    assert not model.in_good_period(14)
    assert model.in_good_period(15)  # next cycle


def test_goodbad_delay_bounds_and_laggard():
    model = GoodBad(
        good_len=10, bad_len=5, good_delay_bound=2, bad_delay_range=(4, 9), laggards={3: 50}
    )
    rng = random.Random(1)
    others = [0, 1, 2, 4, 5]
    for _ in range(40):
        for d in _ticks(assign_delay(model, _msg(sender=3, sent_at=3), others, rng)).values():
            assert 50 <= d - 3 <= 52
        for d in _ticks(assign_delay(model, _msg(sender=3, sent_at=12), others, rng)).values():
            assert 54 <= d - 12 <= 59
    # the laggard's extra delay applies to its outgoing messages only
    for _ in range(200):
        assert 0 <= _delay(model, _msg(sender=2, sent_at=3), rng) <= 2
        assert 4 <= _delay(model, _msg(sender=2, sent_at=12), rng) <= 9
    # and never to its own copy
    assert _ticks(assign_delay(model, _msg(sender=3, sent_at=12), [1, 3], rng))[3] == 12


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=2**32))
def test_evsync_bounds_switch_at_gst(t, seed):
    model = EventuallySynchronous(post_gst_bound=8, pre_gst_delay_range=(20, 60), gst=5000)
    rng = random.Random(seed)
    for d in _ticks(assign_delay(model, _msg(sender=0, sent_at=t), [1, 2, 3], rng)).values():
        if t >= 5000:
            assert 0 <= d - t <= 8
        else:
            assert 20 <= d - t <= 60


def test_evsync_without_gst_stays_unbounded_mode():
    model = EventuallySynchronous(post_gst_bound=1, pre_gst_delay_range=(30, 30), gst=None)
    rng = random.Random(0)
    assert assign_delay(model, _msg(sender=1, sent_at=99999), [0, 1, 2], rng) == {99999 + 30: [0, 2], 99999: [1]}


def test_async_burst_schedule():
    model = Asynchronous(
        base_delay_range=(0, 0), burst_every_heights=8, burst_initial=120, burst_growth=3
    )
    assert model.burst_delay(1) is None
    assert model.burst_delay(7) is None
    assert model.burst_delay(8) == 120 * 3
    assert model.burst_delay(16) == 120 * 9
    assert model.burst_delay(24) == 120 * 27


def test_async_burst_hits_decisions_only():
    model = Asynchronous(
        base_delay_range=(0, 0), burst_every_heights=8, burst_initial=120, burst_growth=3
    )
    rng = random.Random(0)
    assert _delay(model, _msg(MessageKind.DECISION, height=8), rng) == 360
    assert _delay(model, _msg(MessageKind.VOTE, height=8), rng) == 0
    assert _delay(model, _msg(MessageKind.DECISION, height=9), rng) == 0
    # the sender's own decision is not delayed by the burst
    assert assign_delay(model, _msg(MessageKind.DECISION, sender=0, height=8), [0, 1], rng) == {0: [0], 360: [1]}


@pytest.mark.parametrize(
    "model",
    [
        Synchronous(delay=0),
        Synchronous(delay=3),
        GoodBad(good_len=10, bad_len=5, good_delay_bound=2, bad_delay_range=(4, 9)),
        EventuallySynchronous(post_gst_bound=8, pre_gst_delay_range=(20, 60), gst=300),
        Asynchronous(),
    ],
)
def test_a_send_to_no_one_has_no_groups(model):
    # an empty group would still be a queue event
    rng = random.Random(0)
    state = rng.getstate()
    assert assign_delay(model, _msg(), [], rng) == {}
    assert rng.getstate() == state


def test_assign_delay_rejects_unknown_model():
    with pytest.raises(TypeError):
        assign_delay(object(), _msg(), [0, 1], random.Random(0))


def _reference_delay(model, msg, rng):
    """The delay rule of every model for one remote copy, written out in one place."""
    t = msg.sent_at
    if isinstance(model, Synchronous):
        return t + model.delay
    if isinstance(model, GoodBad):
        if (t % (model.good_len + model.bad_len)) < model.good_len:
            delay = rng.randint(0, model.good_delay_bound)
        else:
            delay = rng.randint(*model.bad_delay_range)
        return t + delay + model.laggards.get(msg.sender, 0)
    if isinstance(model, EventuallySynchronous):
        if model.gst is not None and t >= model.gst:
            return t + rng.randint(0, model.post_gst_bound)
        return t + rng.randint(*model.pre_gst_delay_range)
    delay = rng.randint(*model.base_delay_range)
    k = model.burst_every_heights
    if msg.kind is MessageKind.DECISION and k > 0 and msg.height % k == 0:
        delay += model.burst_initial * model.burst_growth ** (msg.height // k)
    return t + delay


@pytest.mark.parametrize(
    "model",
    [
        Synchronous(delay=3),
        GoodBad(good_len=10, bad_len=5, good_delay_bound=2, bad_delay_range=(4, 9), laggards={3: 7}),
        EventuallySynchronous(post_gst_bound=8, pre_gst_delay_range=(20, 60), gst=300),
        Asynchronous(base_delay_range=(0, 3), burst_every_heights=4, burst_initial=50, burst_growth=2),
        # one-value ranges: randint still draws one bit for each
        GoodBad(good_len=10, bad_len=5, good_delay_bound=0, bad_delay_range=(3, 3)),
        EventuallySynchronous(post_gst_bound=0, pre_gst_delay_range=(20, 60), gst=300),
        Asynchronous(base_delay_range=(0, 0), burst_every_heights=4, burst_initial=50, burst_growth=2),
    ],
    ids=[
        "synchronous",
        "good_bad",
        "eventually_synchronous",
        "asynchronous",
        "good_bad-one-value",
        "eventually_synchronous-one-value",
        "asynchronous-one-value",
    ],
)
def test_assign_delay_matches_reference_stream(model):
    """Each remote copy draws in recipient order, the sender's own copy
    draws nothing, and the copies are grouped by tick in recipient order."""
    kinds = list(MessageKind)
    got, want = random.Random(11), random.Random(11)
    for i in range(120):
        msg = _msg(kinds[i % len(kinds)], sender=i % 5, height=1 + i % 9, sent_at=i * 7)
        others = random.Random(i).sample([q for q in range(40) if q != msg.sender], (0, 2, 33)[i % 3])
        recipients = sorted(others + [msg.sender])  # 1, 3 or 34 recipients
        expected = {}
        for rcpt in recipients:
            at = msg.sent_at if rcpt == msg.sender else _reference_delay(model, msg, want)
            expected.setdefault(at, []).append(rcpt)
        groups = assign_delay(model, msg, recipients, got)
        assert groups == expected
        assert all(list(group) == sorted(group) for group in groups.values())
    assert got.getstate() == want.getstate()
