import heapq
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fairsim.core import (
    GENESIS_HASH,
    Block,
    Blockchain,
    GenesisConfig,
    RewardMechanismId,
    SelectionMechanismId as S,
    payload_for_height,
    simulated_hash,
)
from fairsim.selection import (
    InsufficientTrace,
    SelectionState,
    SelectionStats,
    check_selection_fairness,
    run_selection_experiment,
    selection_committees,
)
from oracles import select, selection_stats


def _block(height, committee, reward_vector):
    return Block(height, committee, reward_vector, payload_id=0, parent_link=0)


def _state(stakes, mech, n=2, counts=None):
    st_ = SelectionState(len(stakes), n, mech, dict(enumerate(stakes)))
    if counts:
        # one block whose committee lists each process ``count`` times
        st_.apply_block(_block(1, [pid for pid, c in enumerate(counts) for _ in range(c)], {}))
    return st_


def test_highest_stake_with_tiebreak():
    assert _state([5, 9, 9, 1], S.HIGHEST_STAKE).committee(1) == [1, 2]
    assert _state([9, 9, 9, 1], S.HIGHEST_STAKE).committee(1) == [0, 1]


def test_lowest_stake_with_tiebreak():
    assert _state([5, 1, 1, 9], S.LOWEST_STAKE).committee(1) == [1, 2]


def test_fewest_selections():
    assert _state([0, 0, 0, 0], S.FEWEST_SELECTIONS, counts=[3, 1, 1, 5]).committee(1) == [1, 2]


def test_select_all_selects_the_whole_population():
    assert _state([0, 0, 0], S.SELECT_ALL, n=3).committee(1) == [0, 1, 2]


def test_round_robin_wraps():
    st_ = _state([0] * 7, S.ROUND_ROBIN, n=3)
    assert st_.committee(1) == [0, 1, 2]
    assert st_.committee(2) == [3, 4, 5]
    assert st_.committee(3) == [6, 0, 1]


def _random_chain(rng, population, n, length):
    genesis = GenesisConfig(
        n=n,
        population=population,
        selection=S.LOWEST_STAKE,
        reward=RewardMechanismId.REWARD_ALL_COMMITTEE,
        initial_stakes={pid: rng.randrange(0, 50) for pid in range(population)},
    )
    bc = Blockchain(genesis=genesis)
    parent = GENESIS_HASH
    for h in range(1, length + 1):
        committee = rng.sample(range(population), n)
        rewarded = [pid for pid in committee if rng.random() < 0.7]
        block = Block(
            height=h,
            committee=committee,
            reward_vector={pid: 1 for pid in rewarded},
            payload_id=payload_for_height(h, parent),
            parent_link=parent,
        )
        bc.append(block)
        parent = simulated_hash(block)
    return bc


def test_pure_select_agrees_with_incremental_state():
    rng = random.Random(42)
    for _ in range(20):
        bc = _random_chain(rng, population=9, n=3, length=12)
        states = [
            SelectionState(9, 3, mech, bc.genesis.initial_stakes)
            for mech in (S.HIGHEST_STAKE, S.LOWEST_STAKE, S.FEWEST_SELECTIONS)
        ]
        for h in range(1, 14):
            for state in states:
                assert select(bc, h, state.mech) == state.committee(h)
                if h <= 12:
                    state.apply_block(bc.block_at(h))


def test_select_short_chain_returns_empty():
    rng = random.Random(0)
    bc = _random_chain(rng, population=6, n=2, length=3)
    assert select(bc, 6, S.LOWEST_STAKE) == []
    assert select(bc, 4, S.LOWEST_STAKE) != []


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_committee_shape_invariants(seed, n):
    rng = random.Random(seed)
    population = n + rng.randrange(0, 8)
    stakes = [rng.randrange(0, 20) for _ in range(population)]
    for mech in (S.HIGHEST_STAKE, S.LOWEST_STAKE, S.FEWEST_SELECTIONS, S.ROUND_ROBIN):
        committee = _state(stakes, mech, n=n).committee(1 + rng.randrange(0, 5))
        assert len(committee) == n
        assert len(set(committee)) == n
        assert all(0 <= pid < population for pid in committee)


@st.composite
def _tied_population(draw):
    population = draw(st.integers(min_value=1, max_value=30))
    values = st.lists(st.integers(min_value=0, max_value=3), min_size=population, max_size=population)
    return draw(values), draw(values), draw(st.integers(min_value=1, max_value=population))


@given(_tied_population())
@settings(max_examples=300, deadline=None)
def test_ranked_committees_match_nsmallest_reference(case):
    # reference ranking: smallest (key, process id) first, so ties go to
    # the lower process id
    stakes, counts, n = case
    N = len(stakes)
    reference = {
        S.HIGHEST_STAKE: lambda p: (-stakes[p], p),
        S.LOWEST_STAKE: lambda p: (stakes[p], p),
        S.FEWEST_SELECTIONS: lambda p: (counts[p], p),
    }
    for mech, key in reference.items():
        st_ = _state(stakes, mech, n=n, counts=counts)
        assert st_.committee(1) == heapq.nsmallest(n, range(N), key=key), mech


def _reference(mech, stakes, counts, n):
    key = {
        S.HIGHEST_STAKE: lambda p: (-stakes[p], p),
        S.LOWEST_STAKE: lambda p: (stakes[p], p),
        S.FEWEST_SELECTIONS: lambda p: (counts[p], p),
    }[mech]
    return heapq.nsmallest(n, range(len(stakes)), key=key)


@st.composite
def _ranked_run(draw):
    population = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=population))
    stakes = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=population, max_size=population))
    vector = st.dictionaries(st.integers(min_value=0, max_value=population - 1), st.integers(min_value=0, max_value=3))
    vectors = draw(st.lists(vector, min_size=1, max_size=40))
    return stakes, n, vectors, draw(st.integers(min_value=0, max_value=3))


@given(_ranked_run())
@settings(max_examples=200, deadline=None)
def test_kept_ranking_matches_from_scratch_reference(run):
    # the state re-sorts its last ranking and never rebuilds it, so at every
    # height it must still equal a from-scratch ranking of the stakes and
    # counts so far: with blocks applied as the engine does, and with each
    # member credited reward_per_member as a selection-only run does
    initial, n, vectors, reward_per_member = run
    N = len(initial)
    for mech in (S.HIGHEST_STAKE, S.LOWEST_STAKE, S.FEWEST_SELECTIONS):
        state = SelectionState(N, n, mech, dict(enumerate(initial)))
        stakes, counts = list(initial), [0] * N
        for h, vector in enumerate(vectors, start=1):
            committee = state.committee(h)
            assert committee == _reference(mech, stakes, counts, n), (mech, h)
            state.apply_block(_block(h, committee, vector))
            for pid in committee:
                counts[pid] += 1
            for pid, amount in vector.items():
                stakes[pid] += amount

        stakes, counts = list(initial), [0] * N
        run = selection_committees(N, n, mech, len(vectors), dict(enumerate(initial)), reward_per_member)
        for h, committee in enumerate(run, start=1):
            assert committee == _reference(mech, stakes, counts, n), (mech, h, reward_per_member)
            for pid in committee:
                counts[pid] += 1
                stakes[pid] += reward_per_member


def test_tally_max_gap_counts_tail():
    # round robin over 5 with committees of 2: [0, 1], [2, 3], [4, 0], [1, 2]
    stats = run_selection_experiment(5, 2, S.ROUND_ROBIN, 4)
    assert stats.total_heights == 4
    assert stats.counts == {0: 2, 1: 2, 2: 2, 3: 1, 4: 1}
    # 1 is unselected at heights 2-3, 4 at heights 1-2, and 3 at heights 3-4,
    # after its last selection
    assert stats.max_gap == {0: 1, 1: 2, 2: 1, 3: 2, 4: 2}


@pytest.mark.parametrize("heights", [0, -5])
def test_selection_experiment_of_no_heights(heights):
    nothing = SelectionStats(counts={0: 0, 1: 0, 2: 0}, total_heights=0, max_gap={0: 0, 1: 0, 2: 0})
    for mech in S:
        assert run_selection_experiment(3, 2, mech, heights) == nothing, mech
        assert selection_stats(3, 2, mech, heights) == nothing, mech


def test_fairness_checker_on_rotation():
    stats = run_selection_experiment(6, 2, S.FEWEST_SELECTIONS, 300)
    merits = {pid: Fraction(1, 6) for pid in range(6)}
    verdict = check_selection_fairness(stats, merits, window=10)
    assert verdict.fair


def test_fairness_checker_flags_starvation():
    # committees of 0 and 1 at each of 100 heights, the highest stakes kept
    stats = selection_stats(3, 2, S.HIGHEST_STAKE, 100)
    assert stats == SelectionStats({0: 100, 1: 100, 2: 0}, 100, {0: 0, 1: 0, 2: 100})
    merits = {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    verdict = check_selection_fairness(stats, merits, window=10)
    assert not verdict.condition1_ok
    assert verdict.condition1_witnesses == [2]


def test_fairness_checker_flags_merit_inversion():
    # process 1 is the committee of each of 50 heights
    stats = SelectionStats(counts={0: 0, 1: 50}, total_heights=50, max_gap={0: 50, 1: 0})
    merits = {0: Fraction(2, 3), 1: Fraction(1, 3)}
    verdict = check_selection_fairness(stats, merits, window=50, slack=1)
    assert not verdict.condition2_ok
    assert (0, 1) in verdict.condition2_witnesses


def test_fairness_checker_needs_enough_trace():
    stats = SelectionStats(counts={0: 1, 1: 0}, total_heights=1, max_gap={0: 0, 1: 1})
    with pytest.raises(InsufficientTrace):
        check_selection_fairness(stats, {0: Fraction(1)}, window=10)


def test_lowest_stake_uniform_matches_round_robin_small():
    # small instance of the rotation equivalence; the full-size version is
    # exercised by the acceptance suite
    low = selection_committees(7, 2, S.LOWEST_STAKE, 50)
    rr = selection_committees(7, 2, S.ROUND_ROBIN, 50)
    assert [sorted(c) for c in low] == [sorted(c) for c in rr]


@st.composite
def _selection_run(draw):
    population = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=population))
    heights = draw(st.integers(min_value=1, max_value=600))
    # partial stakes: a missing process and a drawn 0 both start at stake 0
    pids, amounts = st.integers(min_value=0, max_value=population - 1), st.integers(min_value=0, max_value=39)
    stakes = draw(st.none() | st.dictionaries(pids, amounts))
    return population, n, heights, stakes, draw(st.sampled_from([0, 1, 2, 7]))


@given(_selection_run())
# heights shorter than the period (12 for fewest selections here)
@example((12, 5, 11, {}, 1))
# lowest stake finds a period of 7 at height 15, tallies it once more, and
# the 4 whole periods that follow end the run exactly at the jump
@example((7, 3, 50, {0: 5, 1: 2, 3: 9}, 2))
@example((6, 6, 100, {0: 3, 2: 0}, 1))
@example((1, 1, 37, {0: 0}, 7))
# lowest stake finds a period of 10 at height 42; the longest gaps of
# processes 2 and 9 (9 heights) span two periods, so only the period tallied
# after the match records them. Random draws seldom reach such a case.
@example((10, 1, 182, {0: 7, 1: 18, 2: 2, 3: 33, 4: 4, 5: 38, 6: 5, 7: 22, 8: 29, 9: 2}, 7))
@settings(max_examples=150, deadline=None)
def test_selection_experiment_matches_the_per_height_tally(run):
    population, n, heights, stakes, reward_per_member = run
    for mech in S:
        expected = selection_stats(population, n, mech, heights, stakes, reward_per_member)
        assert run_selection_experiment(population, n, mech, heights, stakes, reward_per_member) == expected, mech


def test_a_billion_heights_cost_one_period():
    start = time.perf_counter()
    runs = {mech: run_selection_experiment(170, 50, mech, 10**9) for mech in S}
    assert time.perf_counter() - start < 1
    for mech, stats in runs.items():
        size = 170 if mech is S.SELECT_ALL else 50
        assert stats.total_heights == 10**9, mech
        assert sum(stats.counts.values()) == size * 10**9, mech
    for mech in (S.LOWEST_STAKE, S.FEWEST_SELECTIONS, S.ROUND_ROBIN):
        assert max(runs[mech].counts.values()) - min(runs[mech].counts.values()) <= 1, mech
    top = runs[S.HIGHEST_STAKE]
    assert [top.counts[pid] for pid in range(170)] == [10**9] * 50 + [0] * 120
    assert [top.max_gap[pid] for pid in range(50, 170)] == [10**9] * 120
    assert runs[S.SELECT_ALL].max_gap == dict.fromkeys(range(170), 0)


def test_selection_experiment_matches_the_per_height_tally_at_criterion_5():
    assert run_selection_experiment(170, 50, S.LOWEST_STAKE, 10000) == selection_stats(170, 50, S.LOWEST_STAKE, 10000)
