"""Committee selection from chain state, plus the selection-fairness checker.

``select`` is a pure function of (chain, height, mechanism): stakes are the
initial stakes plus every reward recorded in blocks 1..h-1, and selection
counts come from the committees of those same blocks. ``SelectionState``
maintains the same quantities incrementally for long runs; the two are
checked against each other in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence

from .core import Block, Blockchain, ProcessId, SelectionMechanismId


class SelectionError(ValueError):
    pass


class InsufficientTrace(SelectionError):
    """Run shorter than the requested fairness window."""


@dataclass
class SelectionState:
    """Stakes and selection counts implied by the chain so far."""

    population: int
    n: int
    stakes: List[int]
    counts: List[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = [0] * self.population

    @classmethod
    def initial(cls, population: int, n: int, initial_stakes: Dict[ProcessId, int]) -> "SelectionState":
        stakes = [initial_stakes.get(pid, 0) for pid in range(population)]
        return cls(population=population, n=n, stakes=stakes)

    def apply_block(self, block: Block) -> None:
        for pid in block.committee:
            self.counts[pid] += 1
        for pid, amount in block.reward_vector.items():
            self.stakes[pid] += amount

    def committee(self, height: int, mech: SelectionMechanismId) -> List[ProcessId]:
        N, n = self.population, self.n
        if mech is SelectionMechanismId.SELECT_ALL:
            if n != N:
                raise SelectionError("select-all requires committee size == population")
            return list(range(N))
        if mech is SelectionMechanismId.ROUND_ROBIN:
            return [((height - 1) * n + j) % N for j in range(n)]
        # ties go to the lower process id: the sort is stable over range(N),
        # and reverse=True keeps equal keys in their original order
        if mech is SelectionMechanismId.HIGHEST_STAKE:
            return sorted(range(N), key=self.stakes.__getitem__, reverse=True)[:n]
        if mech is SelectionMechanismId.LOWEST_STAKE:
            return sorted(range(N), key=self.stakes.__getitem__)[:n]
        if mech is SelectionMechanismId.FEWEST_SELECTIONS:
            return sorted(range(N), key=self.counts.__getitem__)[:n]
        raise SelectionError(f"unknown selection mechanism: {mech}")


def select(bc: Blockchain, height: int, mech: SelectionMechanismId) -> List[ProcessId]:
    """Committee for ``height``, or [] when the chain is too short."""
    if len(bc) < height - 1:
        return []
    state = SelectionState.initial(bc.genesis.population, bc.genesis.n, bc.genesis.initial_stakes)
    for block in bc.blocks[: height - 1]:
        state.apply_block(block)
    return state.committee(height, mech)


@dataclass
class SelectionStats:
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
        for pid in committee:
            self.counts[pid] += 1
            gap = height - self._last_selected[pid] - 1
            if gap > self._max_gap[pid]:
                self._max_gap[pid] = gap
            self._last_selected[pid] = height

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


@dataclass
class SelectionFairnessVerdict:
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
) -> Iterator[List[ProcessId]]:
    """Committees of heights 1..``heights`` of a selection-only run.

    A generator, so long runs never hold every committee at once.
    """
    if initial_stakes is None:
        initial_stakes = {pid: 100 for pid in range(population)}
    state = SelectionState.initial(population, n, initial_stakes)
    for h in range(1, heights + 1):
        committee = state.committee(h, mech)
        for pid in committee:
            state.counts[pid] += 1
            state.stakes[pid] += reward_per_member
        yield committee


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
    height h sees the stakes implied by heights 1..h-1.
    """
    tally = SelectionTally(population)
    run = _committees(population, n, mech, heights, initial_stakes, reward_per_member)
    for h, committee in enumerate(run, start=1):
        tally.record(h, committee)
    return tally.stats()


def selection_committees(
    population: int,
    n: int,
    mech: SelectionMechanismId,
    heights: int,
    initial_stakes: Dict[ProcessId, int] = None,
    reward_per_member: int = 1,
) -> List[List[ProcessId]]:
    """Same run as ``run_selection_experiment`` but returning the committees."""
    return list(_committees(population, n, mech, heights, initial_stakes, reward_per_member))
