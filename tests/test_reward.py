import pytest
from hypothesis import given, strategies as st

from fairsim.core import RewardMechanismId as R
from fairsim.reward import (
    RewardMatrix,
    RewardsNotYetAllocated,
    SuspicionState,
    allocate,
    suspicion_quorum,
)


def test_suspicion_quorum_values():
    # 2*floor(n/3)+1: strictly more than the Byzantine bound can muster
    assert [suspicion_quorum(n) for n in (1, 2, 3, 4, 5, 6, 7, 10)] == [1, 1, 3, 3, 3, 5, 5, 7]


@given(st.integers(min_value=1, max_value=300))
def test_suspicion_quorum_beats_byzantine_bound(n):
    assert suspicion_quorum(n) > (n - 1) // 3


def test_matrix_rows_are_write_once():
    m = RewardMatrix()
    m.set_row(1, [0, 1, 2], {0: 1, 1: 1})
    assert m.r(1, 0) == 1
    assert m.r(1, 2) == 0
    assert m.amount(1, 1) == 1
    with pytest.raises(ValueError):
        m.set_row(1, [0, 1, 2], {})


def test_matrix_row_is_the_vector_it_was_given():
    # a row shares the block's reward vector rather than copying it
    amounts = {0: 1, 2: 3}
    m = RewardMatrix()
    m.set_row(1, [0, 1, 2], amounts)
    assert m.row(1) is amounts


def test_matrix_rejects_non_member_rewards():
    m = RewardMatrix()
    with pytest.raises(ValueError):
        m.set_row(1, [0, 1], {5: 1})


def test_matrix_unallocated_height():
    m = RewardMatrix()
    with pytest.raises(RewardsNotYetAllocated):
        m.r(3, 0)


def test_matrix_rewarded_set():
    m = RewardMatrix()
    m.set_row(2, [0, 1, 2, 3], {0: 1, 3: 1})
    assert m.rewarded(2) == {0, 3}
    assert m.heights() == [2]


def test_suspicion_state_confirmation_threshold():
    s = SuspicionState(n=4)  # quorum 3
    s.accuse(suspect=2, accuser=0)
    s.accuse(suspect=2, accuser=1)
    assert s.confirmed() == set()
    s.accuse(suspect=2, accuser=1)  # duplicate accuser does not count twice
    assert s.confirmed() == set()
    s.accuse(suspect=2, accuser=3)
    assert s.confirmed() == {2}
    assert SuspicionState(n=4).confirmed() == set()


def _alloc(mech, to_reward, incorrect=frozenset()):
    return allocate(
        mech=mech,
        committee=[0, 1, 2, 3],
        to_reward=set(to_reward),
        incorrect=set(incorrect),
        reward_per_member=2,
    )


def test_allocate_reward_all():
    a = _alloc(R.REWARD_ALL_COMMITTEE, to_reward=())
    assert a == {0: 2, 1: 2, 2: 2, 3: 2}


def test_allocate_never():
    assert _alloc(R.NEVER_REWARD, to_reward={0, 1, 2, 3}) == {}


def test_allocate_tendermint_rewards_collected_members_only():
    a = _alloc(R.TENDERMINT_TO_REWARD, to_reward={1, 2, 9})
    assert a == {1: 2, 2: 2}


def test_allocate_suspicion_subtracts_confirmed():
    a = _alloc(R.SUSPICION_QUORUM, to_reward={0, 1, 2, 3}, incorrect={2})
    assert a == {0: 2, 1: 2, 3: 2}


def test_suspicion_state_confirmed_is_per_height():
    # one state per height, as the engine keeps one in each height's slot
    s = {h: SuspicionState(n=4) for h in (1, 2, 3, 4)}  # quorum 3
    for accuser in (0, 1, 3):
        s[2].accuse(suspect=1, accuser=accuser)  # confirmed at height 2
        s[3].accuse(suspect=2, accuser=accuser)  # confirmed at height 3
    s[3].accuse(suspect=0, accuser=1)
    s[3].accuse(suspect=0, accuser=2)  # one accuser short at height 3
    for accuser in (0, 2, 3):
        s[4].accuse(suspect=0, accuser=accuser)  # confirmed at height 4
    assert s[2].confirmed() == {1}
    assert s[3].confirmed() == {2}
    assert s[4].confirmed() == {0}
    assert s[1].confirmed() == set()
