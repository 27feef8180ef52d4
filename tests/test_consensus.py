from hypothesis import given, strategies as st

from fairsim.consensus import (
    EngineConfig,
    SimulationEngine,
    collect_decisions,
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
    SelectionMechanismId,
    TimeoutPolicy,
    chain_to_jsonl,
    chain_validate,
)
from fairsim.network import Synchronous
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


def test_update_delta_fixed_never_moves():
    assert update_delta(5, {0, 1}, {0, 1, 2}, TimeoutPolicy.FIXED, 7) == 5


def test_update_delta_modulable_grows_only_on_misses():
    assert update_delta(5, {0, 1}, {0, 1, 2}, TimeoutPolicy.MODULABLE, 7) == 12
    assert update_delta(5, {0, 1, 2}, {0, 1, 2}, TimeoutPolicy.MODULABLE, 7) == 5


def test_collect_decisions_window_and_membership():
    deliveries = {0: 10, 1: 14, 2: 16, 9: 10}
    assert collect_decisions(deliveries, decided_at=10, delta=5, committee=[0, 1, 2]) == {0, 1}


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


def _run(behaviors=None, max_height=10, seed=0, reward=RewardMechanismId.SUSPICION_QUORUM, delta=2):
    engine = SimulationEngine(
        specs=_specs(4, behaviors),
        genesis=_genesis(reward),
        model=Synchronous(delay=0),
        max_height=max_height,
        seed=seed,
        config=EngineConfig(delta0=delta),
    )
    return engine.run()


def test_single_height_all_correct():
    res = _run(max_height=1, delta=5)
    # instant delivery: everyone decides at the starting tick
    assert {pid for pid, ts in res.decided_at.items() if 1 in ts} == {0, 1, 2, 3}
    assert {ts[1] for ts in res.decided_at.values()} == {0}
    for pid in range(4):
        assert res.to_reward[pid][1] == {0, 1, 2, 3}


def test_single_height_silent_member():
    res = _run({3: {1: BehaviorKind.BYZANTINE_SILENT}}, max_height=1, delta=5)
    assert {pid for pid, ts in res.decided_at.items() if 1 in ts} == {0, 1, 2, 3}
    for pid in (0, 1, 2):
        # the silent member's decision message never arrives
        assert res.to_reward[pid][1] == {0, 1, 2}


def test_single_height_decision_only_still_collected():
    res = _run({3: {1: BehaviorKind.BYZANTINE_DECISION_ONLY}}, max_height=1, delta=5)
    for pid in (0, 1, 2):
        assert 3 in res.to_reward[pid][1]


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
    with pytest.raises(QuorumImpossible):
        _run(behaviors, max_height=2)


def test_never_reward_produces_empty_vectors():
    res = _run(max_height=5, reward=RewardMechanismId.NEVER_REWARD)
    for h in res.matrix.heights():
        assert res.matrix.rewarded(h) == set()


class _PeakSlots(SimulationEngine):
    """Records the most slots and accusation heights one process holds at
    once, and the most height records and pending rewards the engine holds."""

    peak_slots = peak_accusers = peak_heights = peak_pending = 0

    def _on_msg(self, msg, pid, t):
        super()._on_msg(msg, pid, t)
        st = self.procs[pid]
        self.peak_slots = max(self.peak_slots, len(st.slots))
        self.peak_accusers = max(self.peak_accusers, len(st.suspicion.accusers))
        self.peak_heights = max(self.peak_heights, len(self._heights))
        self.peak_pending = max(self.peak_pending, len(self._pending_reward))


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
        peaks.append((engine.peak_slots, engine.peak_accusers, engine.peak_heights, engine.peak_pending))
        # a dropped height is not computed again
        with pytest.raises(RuntimeError, match="dropped"):
            engine._height(1)
    assert peaks[0] == peaks[1]
    assert 0 < peaks[0][0] <= 3 and 0 < peaks[0][1] <= 3
    assert 0 < peaks[0][2] <= 4 and peaks[0][3] <= 1
