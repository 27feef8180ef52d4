"""Committee selection from chain state, plus the selection-fairness checker.

The committee of height h follows from the chain: stakes are the initial
stakes plus every reward in blocks 1..h-1, and selection counts come from
the committees of those blocks. ``SelectionState`` ranks by one integer
key per process, ``stake*N + pid`` (lowest stake), ``-stake*N + pid``
(highest stake) or ``count*N + pid`` (fewest selections), so ascending keys
break ties to the lower pid. It re-sorts its last ranking in place: only
the processes credited since have moved, so the sort merges about two runs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import DEFAULT_STAKE, Block, ProcessId, SelectionMechanismId
from .fairness import InsufficientTrace


class SelectionState:
    """The ranking for one mechanism implied by the chain so far."""

    def __init__(self, population: int, n: int, mech: SelectionMechanismId, initial_stakes: Dict[ProcessId, int]):
        S = SelectionMechanismId
        self.population, self.n, self.mech = population, n, mech
        # what one unit of stake and one selection add to a rank key
        self.per_stake = {S.LOWEST_STAKE: population, S.HIGHEST_STAKE: -population}.get(mech, 0)
        self.per_selection = population if mech is S.FEWEST_SELECTIONS else 0
        self.rank = [initial_stakes.get(pid, 0) * self.per_stake + pid for pid in range(population)]
        self.order = list(range(population))

    def apply_block(self, block: Block) -> None:
        rank = self.rank
        if self.per_selection:
            for pid in block.committee:
                rank[pid] += self.per_selection
        if self.per_stake:
            for pid, amount in block.reward_vector.items():
                rank[pid] += amount * self.per_stake

    def committee(self, height: int) -> List[ProcessId]:
        N, n, mech = self.population, self.n, self.mech
        if mech is SelectionMechanismId.SELECT_ALL:
            return list(range(N))
        if mech is SelectionMechanismId.ROUND_ROBIN:
            return [((height - 1) * n + j) % N for j in range(n)]
        # the keys are distinct, so the last ranking does not change the result
        order = self.order
        order.sort(key=self.rank.__getitem__)
        return order[:n]


class SelectionStats(NamedTuple):
    """Per-process selection tallies over a finite run."""

    counts: Dict[ProcessId, int]
    total_heights: int
    max_gap: Dict[ProcessId, int]  # longest stretch of heights without a selection


class SelectionTally:
    """Incremental builder for SelectionStats."""

    def __init__(self, population: int) -> None:
        self.population = population
        self.counts = [0] * population
        self._last_selected = [0] * population  # height of most recent selection
        self._max_gap = [0] * population
        self.heights = 0

    def record(self, height: int, committee: Sequence[ProcessId]) -> None:
        self.heights = max(self.heights, height)
        counts, last_selected, max_gap = self.counts, self._last_selected, self._max_gap
        before = height - 1
        for pid in committee:
            counts[pid] += 1
            gap = before - last_selected[pid]
            if gap > max_gap[pid]:
                max_gap[pid] = gap
            last_selected[pid] = height

    def stats(self) -> SelectionStats:
        max_gap = {}
        for pid in range(self.population):
            tail = self.heights - self._last_selected[pid]
            max_gap[pid] = max(self._max_gap[pid], tail)
        return SelectionStats(
            counts={pid: self.counts[pid] for pid in range(self.population)},
            total_heights=self.heights,
            max_gap=max_gap,
        )


class SelectionFairnessVerdict(NamedTuple):
    condition1_ok: bool
    condition2_ok: bool
    fair: bool
    # processes with positive merit whose longest unselected stretch exceeds the window
    condition1_witnesses: List[ProcessId]
    # (i, j) pairs with merit_i >= merit_j but count_i < count_j - slack
    condition2_witnesses: List[tuple]


def check_selection_fairness(
    stats: SelectionStats,
    merits: Dict[ProcessId, Fraction],
    window: int,
    slack: int = None,
) -> SelectionFairnessVerdict:
    """Finite-trace surrogate of the two selection-fairness conditions.

    Condition 1: every positive-merit process is selected at least once in
    every sliding window of ``window`` heights. Condition 2: a higher-merit
    process is never selected more than ``slack`` fewer times than a
    lower-merit one (slack absorbs rotation phase; defaults to the number
    of processes per committee implied by the tallies).
    """
    if stats.total_heights < window:
        raise InsufficientTrace(
            f"trace of {stats.total_heights} heights is shorter than window {window}"
        )
    if slack is None:
        total = sum(stats.counts.values())
        slack = max(1, total // max(1, stats.total_heights))

    cond1_witnesses = [
        pid
        for pid, merit in sorted(merits.items())
        if merit > 0 and stats.max_gap.get(pid, stats.total_heights) > window
    ]

    cond2_witnesses = []
    pids = sorted(stats.counts)
    for i in pids:
        for j in pids:
            if i == j:
                continue
            if merits.get(i, 0) >= merits.get(j, 0) and stats.counts[i] < stats.counts[j] - slack:
                cond2_witnesses.append((i, j))

    cond1 = not cond1_witnesses
    cond2 = not cond2_witnesses
    return SelectionFairnessVerdict(
        condition1_ok=cond1,
        condition2_ok=cond2,
        fair=cond1 and cond2,
        condition1_witnesses=cond1_witnesses,
        condition2_witnesses=cond2_witnesses,
    )


def _committees(
    population: int,
    n: int,
    mech: SelectionMechanismId,
    heights: int,
    initial_stakes: Optional[Dict[ProcessId, int]],
    reward_per_member: int,
) -> Iterator[Tuple[int, List[ProcessId], int]]:
    """``(height, committee, period)`` for heights 1..``heights`` of a
    selection-only run, where ``period`` is 0 except once: at a height from
    which on the committees repeat every ``period`` heights. Sending it a
    number of heights skips them, which is exact for whole periods."""
    if initial_stakes is None:
        initial_stakes = {pid: DEFAULT_STAKE for pid in range(population)}
    state = SelectionState(population, n, mech, initial_stakes)
    rank = state.rank
    # each member is credited one selection and ``reward_per_member`` stake
    credit = state.per_selection + reward_per_member * state.per_stake
    # A ranked committee depends on the keys alone, and keys that differ by a
    # common shift give the same committees from then on: Brent's method looks
    # for that against the keys saved at heights 1, 2, 4, ... With a credit of
    # at most 0 no member falls behind a non-member: period 1 from height 1.
    looking = bool(state.per_stake or state.per_selection)
    saved_at, saved, saved_keys = 0, None, None
    h = 1
    while h <= heights:
        committee = state.committee(h)
        for pid in committee:
            rank[pid] += credit
        period = 0
        if looking:
            if credit <= 0 or (committee == saved and len({a - b for a, b in zip(rank, saved_keys)}) == 1):
                period = h - saved_at
            elif h & (h - 1) == 0:
                saved_at, saved, saved_keys = h, committee, rank[:]
            looking = not period
        skip = yield h, committee, period
        h += 1 + (skip or 0)


def run_selection_experiment(
    population: int,
    n: int,
    mech: SelectionMechanismId,
    heights: int,
    initial_stakes: Dict[ProcessId, int] = None,
    reward_per_member: int = 1,
) -> SelectionStats:
    """Selection-only run: all processes correct, every committee member is
    credited its reward as soon as the block is produced, so selection at
    height h sees the stakes implied by heights 1..h-1. Once the committees
    repeat, it tallies one more period, then the whole periods that fit.
    """
    tally = SelectionTally(population)
    counts, last_selected = tally.counts, tally._last_selected
    run = _committees(population, n, mech, heights, initial_stakes, reward_per_member)
    skip, end = None, 0
    while True:
        try:
            h, committee, found = run.send(skip)
        except StopIteration:
            return tally.stats()
        tally.record(h, committee)
        skip = None
        if found:
            # tally one more period first, for the gaps that span two periods
            period, since, end = found, counts[:], h + found
        elif h == end:
            # each whole period that fits repeats the last one, gaps included
            times = (heights - h) // period
            for pid, before in enumerate(since):
                if counts[pid] > before:
                    counts[pid] += times * (counts[pid] - before)
                    last_selected[pid] += times * period
            skip = times * period
            tally.heights += skip


def selection_committees(
    population: int,
    n: int,
    mech: SelectionMechanismId,
    heights: int,
    initial_stakes: Dict[ProcessId, int] = None,
    reward_per_member: int = 1,
) -> List[List[ProcessId]]:
    """Same run as ``run_selection_experiment`` but returning the committees."""
    return [c for _, c, _ in _committees(population, n, mech, heights, initial_stakes, reward_per_member)]
