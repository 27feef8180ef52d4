import gc
import pickle
import tracemalloc

from hypothesis import given, strategies as st

from fairsim.consensus import (
    EngineConfig,
    SimulationEngine,
    evidence_threshold,
    max_byzantine,
    quorum_size,
    update_delta,
)
from fairsim.core import (
    BehaviorKind,
    GenesisConfig,
    ProcessSpec,
    RewardMechanismId,
    ScenarioError,
    SelectionMechanismId,
    TimeoutPolicy,
)
from fairsim.harness import chain_to_jsonl, parse_scenario
from fairsim.network import MessageKind, Synchronous
from fairsim.scenarios import builtin_scenario
from oracles import CollectSpy, chain_validate
import pytest

from fairsim.consensus import QuorumImpossible


def test_threshold_tables():
    assert [quorum_size(n) for n in (1, 2, 3, 4, 5, 6, 7)] == [1, 2, 2, 3, 4, 4, 5]
    assert [max_byzantine(n) for n in (1, 3, 4, 6, 7, 10)] == [0, 0, 1, 1, 2, 3]
    assert [evidence_threshold(n) for n in (1, 3, 4, 6, 7)] == [1, 2, 2, 3, 3]


@given(st.integers(min_value=1, max_value=500))
def test_quorum_overlaps_leave_an_honest_majority(n):
    # two quorums intersect in more processes than can be Byzantine
    assert 2 * quorum_size(n) - n > max_byzantine(n)
    assert evidence_threshold(n) > max_byzantine(n)


def test_correct_members_within_the_bound_make_a_quorum():
    # so a committee that passes check_committee can always decide
    assert all(n - max_byzantine(n) >= quorum_size(n) for n in range(1, 10**5 + 1))


def test_update_delta_fixed_never_moves():
    assert update_delta(5, {0, 1}, {0, 1, 2}, TimeoutPolicy.FIXED, 7) == 5


def test_update_delta_modulable_grows_only_on_misses():
    assert update_delta(5, {0, 1}, {0, 1, 2}, TimeoutPolicy.MODULABLE, 7) == 12
    assert update_delta(5, {0, 1, 2}, {0, 1, 2}, TimeoutPolicy.MODULABLE, 7) == 5


def _specs(population, behaviors=None):
    behaviors = behaviors or {}
    return [
        ProcessSpec(id=pid, merit=0, initial_stake=100, behavior=behaviors.get(pid, {}))
        for pid in range(population)
    ]


def _genesis(reward=RewardMechanismId.SUSPICION_QUORUM, policy=TimeoutPolicy.FIXED):
    return GenesisConfig(
        n=4,
        population=4,
        selection=SelectionMechanismId.SELECT_ALL,
        reward=reward,
        timeout_policy=policy,
        initial_stakes={pid: 100 for pid in range(4)},
    )


def _engine(behaviors=None, max_height=10, seed=0, reward=RewardMechanismId.SUSPICION_QUORUM, delta=2):
    """The engine of a synchronous, instant-delivery run of four processes,
    recording what each process collects at each height."""
    return CollectSpy(
        specs=_specs(4, behaviors),
        genesis=_genesis(reward),
        model=Synchronous(delay=0),
        max_height=max_height,
        seed=seed,
        config=EngineConfig(delta0=delta),
    )


def _run(*args, **kwargs):
    return _engine(*args, **kwargs).run()


@pytest.mark.parametrize("delay", [0, 3])
def test_one_queue_event_per_delivery_tick(delay):
    engine = SimulationEngine(_specs(4), _genesis(), Synchronous(delay=delay), max_height=1, seed=0)
    engine._send(2, [0, 1, 2, 3], MessageKind.VOTE, 1, 0, 5)
    if delay == 0:
        assert len(engine.queue) == 1
        assert engine.queue.pop()[1][2] == [0, 1, 2, 3]
    else:
        # the sender's own copy stays at the send tick
        assert len(engine.queue) == 2
        assert [(at, event[2]) for at, event in (engine.queue.pop(), engine.queue.pop())] == [(5, [2]), (8, [0, 1, 3])]


def test_single_height_all_correct():
    engine = _engine(max_height=1, delta=5)
    res = engine.run()
    # instant delivery: everyone decides at the starting tick
    assert {pid for pid, ts in res.decided_at.items() if 1 in ts} == {0, 1, 2, 3}
    assert {ts[1] for ts in res.decided_at.values()} == {0}
    for pid in range(4):
        assert engine.collected[pid][1] == {0, 1, 2, 3}


def test_single_height_silent_member():
    engine = _engine({3: {1: BehaviorKind.BYZANTINE_SILENT}}, max_height=1, delta=5)
    res = engine.run()
    assert {pid for pid, ts in res.decided_at.items() if 1 in ts} == {0, 1, 2, 3}
    for pid in (0, 1, 2):
        # the silent member's decision message never arrives
        assert engine.collected[pid][1] == {0, 1, 2}


def test_single_height_decision_only_still_collected():
    engine = _engine({3: {1: BehaviorKind.BYZANTINE_DECISION_ONLY}}, max_height=1, delta=5)
    engine.run()
    for pid in (0, 1, 2):
        assert 3 in engine.collected[pid][1]


def test_multi_height_chain_is_valid_and_complete():
    res = _run(max_height=10)
    assert len(res.chain) == 11
    assert chain_validate(res.chain)
    assert res.matrix.heights() == list(range(1, 11))
    for h in res.matrix.heights():
        assert res.matrix.rewarded(h) == {0, 1, 2, 3}


def test_equivocator_confirmed_and_unrewarded():
    behaviors = {1: {h: BehaviorKind.BYZANTINE_EQUIVOCATE for h in range(2, 11, 2)}}
    res = _run(behaviors, max_height=10)
    for h in res.matrix.heights():
        expected = {0, 2, 3} if h % 2 == 0 else {0, 1, 2, 3}
        assert res.matrix.rewarded(h) == expected


def test_silent_member_detected_under_synchrony():
    behaviors = {2: {5: BehaviorKind.BYZANTINE_SILENT}}
    res = _run(behaviors, max_height=8)
    assert res.matrix.rewarded(5) == {0, 1, 3}
    assert res.matrix.rewarded(4) == {0, 1, 2, 3}
    assert res.matrix.rewarded(6) == {0, 1, 2, 3}


def test_decision_only_goes_undetected():
    # skips the protocol but ships a plausible decision: the detector
    # cannot tell, so the reward sticks (accuracy violation by design)
    behaviors = {2: {5: BehaviorKind.BYZANTINE_DECISION_ONLY}}
    res = _run(behaviors, max_height=8)
    assert res.matrix.rewarded(5) == {0, 1, 2, 3}


def test_engine_deterministic():
    a = _run(max_height=6, seed=123)
    b = _run(max_height=6, seed=123)
    assert chain_to_jsonl(a.chain) == chain_to_jsonl(b.chain)
    assert a.decided_at == b.decided_at
    assert a.finished_at == b.finished_at


def test_too_many_byzantine_rejected():
    behaviors = {
        0: {1: BehaviorKind.BYZANTINE_SILENT},
        1: {1: BehaviorKind.BYZANTINE_SILENT},
    }
    with pytest.raises(QuorumImpossible) as exc:
        _run(behaviors, max_height=2)
    # a scenario error at the behaviours, which survives the pickling that
    # sends it from a --jobs child process
    assert isinstance(exc.value, ScenarioError)
    copy = pickle.loads(pickle.dumps(exc.value))
    assert type(copy) is QuorumImpossible
    assert (copy.path, copy.message) == (exc.value.path, exc.value.message) == (
        "population.behaviors",
        "height 1: 2 Byzantine members in a committee of 4; at most 1 tolerated",
    )


def test_never_reward_produces_empty_vectors():
    res = _run(max_height=5, reward=RewardMechanismId.NEVER_REWARD)
    for h in res.matrix.heights():
        assert res.matrix.rewarded(h) == set()


class _RewardSpy(SimulationEngine):
    """Records (h, proposer, vector) of each reward allocation a proposal of h makes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.allocated = []

    def _reward_proposal(self, pid, h):
        reward = super()._reward_proposal(pid, h)
        self.allocated.append((h, pid, reward))
        return reward


def test_a_heights_first_correct_proposal_fixes_its_rewards():
    """With a delay longer than a round, later rounds propose again before a
    height decides. Its block carries what the first correct proposal
    allocated, and no later proposal allocates again: process 0 leads round 0
    of every height but equivocates at height 2, so process 1 fixes that one."""
    engine = _RewardSpy(
        _specs(4, {0: {2: BehaviorKind.BYZANTINE_EQUIVOCATE}}),
        _genesis(),
        Synchronous(delay=150),
        max_height=3,
        seed=0,
        config=EngineConfig(round_ticks=100),
        record_trace=True,
    )
    res = engine.run()
    for h in (2, 3, 4):
        proposers = {sender for _, _, sender, _, kind, at in res.trace if kind == "propose" and at == h}
        assert len(proposers - {0}) > 1, h
    assert [(h, pid) for h, pid, _ in engine.allocated if h > 1] == [(2, 1), (3, 0), (4, 0)]
    for h, _, reward in engine.allocated:
        assert res.chain.block_at(h).reward_vector == reward, h


class _PeakSlots(SimulationEngine):
    """Records the most slots one process holds at once (each with its
    height's accusations and collected decisions), and the most height
    records the engine holds (each with its block's rewards)."""

    peak_slots = peak_heights = 0

    def _peak(self, pid):
        self.peak_slots = max(self.peak_slots, len(self.procs[pid].slots))
        self.peak_heights = max(self.peak_heights, len(self._heights))

    # deliveries add slots and height records and only a start drops them, so
    # each count peaks just before a start; a collect comes just before one
    def _start_height(self, pid, h, t):
        self._peak(pid)
        super()._start_height(pid, h, t)

    def _on_collect(self, pid, h, t):
        super()._on_collect(pid, h, t)
        self._peak(pid)


def test_live_slots_do_not_grow_with_the_run():
    # the long-horizon benchmark workload's shape: N=n=4, instant delivery,
    # an equivocator at even heights and so a suspicion broadcast per even height
    peaks = []
    for max_height in (60, 600):
        behaviors = {1: {h: BehaviorKind.BYZANTINE_EQUIVOCATE for h in range(2, max_height + 1, 2)}}
        engine = _PeakSlots(
            specs=_specs(4, behaviors),
            genesis=_genesis(),
            model=Synchronous(delay=0),
            max_height=max_height,
            seed=1,
            config=EngineConfig(delta0=2, delta_increment=2),
        )
        assert len(engine.run().chain) == max_height + 1
        peaks.append((engine.peak_slots, engine.peak_heights))
        # height 1's record is dropped once every process has started height 3
        assert 1 not in engine._heights
    assert peaks[0] == peaks[1]
    assert 0 < peaks[0][0] <= 3 and 0 < peaks[0][1] <= 4


def _retained_bytes(doc: dict, max_height: int) -> int:
    """Bytes a run of ``doc`` up to ``max_height`` leaves allocated when it
    returns, its engine and result alive."""
    sc = parse_scenario(dict(doc, max_height=max_height))
    gc.collect()
    tracemalloc.start()
    try:
        engine = SimulationEngine(sc.specs, sc.genesis, sc.model, sc.max_height, sc.seed, sc.engine)
        result = engine.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.chain) == max_height + 1
    return retained


# the wide-committee benchmark workload's shape at seed 1: N=100, n=34
_WIDE_COMMITTEE = {
    "schema_version": 1,
    "name": "wide-committee",
    "population": {
        "size": 100,
        "behaviors": [
            {"process": 17, "kind": "equivocate", "heights": "odd"},
            {"process": 72, "kind": "silent", "heights": {"mod": 3, "rem": 0}},
        ],
    },
    "genesis": {"committee_size": 34, "selection": "fewest_selections", "reward": "suspicion_quorum",
                "timeout_policy": "modulable"},
    "network": {"model": "eventually_synchronous", "gst_height": 5, "post_gst_bound": 15,
                "pre_gst_delay_range": [10, 60]},
    "seed": 1,
    "engine": {"delta0": 5, "delta_increment": 5, "round_ticks": 400},
}


@pytest.mark.parametrize(
    "doc, heights, bound",
    [(builtin_scenario("sync-suspicion-equivocator"), (300, 1200), 450), (_WIDE_COMMITTEE, (10, 20), 20_000)],
    ids=["N=4", "N=100"],
)
def test_retained_memory_per_height(doc, heights, bound):
    # what a run keeps per height is its outputs (the chain, the reward
    # matrix that shares the chain's vectors, the decision ticks); each
    # process's collected decisions and accusations go two heights later.
    # At N=4 the committee never changes and each vector equals the one two
    # heights before, so the chain holds one committee and three vectors at any length
    h1, h2 = heights
    per_height = (_retained_bytes(doc, h2) - _retained_bytes(doc, h1)) / (h2 - h1)
    assert per_height <= bound
