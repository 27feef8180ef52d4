"""Ground-truth analyzer: grades every height against the three reward
conditions and classifies the whole run. ``harness`` writes the reports
as fairness.json.

The ground truth is the behavior schedule, which ``GroundTruth.faulty``
alone reads: the engine acts on the same schedule that the analyzer grades
against, not on what any process observed.
"""
from __future__ import annotations

import itertools
from enum import Enum
from typing import AbstractSet, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .core import BehaviorKind, ProcessId, ProcessSpec
from .reward import RewardMatrix


class InsufficientTrace(ValueError):
    """Run shorter than the requested fairness window."""


class GroundTruth:
    """Which processes actually followed the protocol at each height."""

    __slots__ = ("_scheduled",)

    def __init__(self, scheduled: Sequence[ProcessSpec]) -> None:
        self._scheduled = scheduled

    @classmethod
    def from_specs(cls, specs: Sequence[ProcessSpec]) -> "GroundTruth":
        # only a process with a behaviour schedule can be faulty
        return cls([spec for spec in specs if spec.behavior])

    def faulty(self, height: int) -> Dict[ProcessId, BehaviorKind]:
        """Each process that did not follow the protocol at ``height`` -> its kind, in spec order."""
        correct = BehaviorKind.CORRECT
        return {s.id: kind for s in self._scheduled if (kind := s.behavior.get(height, correct)) is not correct}

    def followed_protocol(self, height: int, pid: ProcessId) -> bool:
        return pid not in self.faulty(height)


#: (non-member rewards are zero, completeness, accuracy)
HeightGrade = Tuple[bool, bool, bool]


def grade_height(
    height: int,
    matrix: RewardMatrix,
    committee: Sequence[ProcessId],
    truth: GroundTruth,
    population: int,
) -> HeightGrade:
    """Grade one height's allocation against the three conditions.

    A process is rewarded when its amount is above 0, so cond1 holds when
    the rewarded set is within the committee; ``population`` is not needed
    for that.
    """
    return _grade(matrix.rewarded(height), set(committee), truth.faulty(height).keys())


#: the eight grades, each one shared tuple, so a long run's grades cost a pointer per height
_GRADES = {grade: grade for grade in itertools.product((False, True), repeat=3)}


def _grade(rewarded: Set[ProcessId], members: Set[ProcessId], faulty: AbstractSet[ProcessId]) -> HeightGrade:
    # cond1: no non-member is rewarded; completeness: every member that
    # followed the protocol is; accuracy: no member that did not is
    return _GRADES[rewarded <= members, members - faulty <= rewarded, rewarded.isdisjoint(members & faulty)]


class Classification(Enum):
    FAIR = "fair"
    EVENTUALLY_FAIR = "eventually_fair"
    COMPLETE_FAIR = "complete_fair"
    ACCURATE_FAIR = "accurate_fair"
    NONE = "none"


class FairnessReport(NamedTuple):
    grades: Dict[int, HeightGrade]
    classification: Classification
    # first height of the clean suffix when (eventually) fair; 1 for fair runs
    h0: Optional[int]
    # observational facts, independent of the headline label
    complete_rows_ok: bool
    accurate_rows_ok: bool
    witnesses: Sequence[Tuple[int, ProcessId, str]] = ()


def classify(
    grades: Dict[int, HeightGrade],
    stabilization_window: int,
    static_complete: bool = False,
    static_accurate: bool = False,
) -> Tuple[Classification, Optional[int]]:
    """Classify a finite trace of per-height grades.

    Eventual fairness on a finite trace is declared only when the maximal
    clean suffix spans at least ``stabilization_window`` heights. The
    complete-fair / accurate-fair labels are reserved for mechanisms whose
    construction guarantees the respective condition (``static_*`` flags):
    an observed run of some timing-dependent mechanism can satisfy accuracy
    vacuously without the mechanism being accurate by design.
    """
    if not grades:
        raise InsufficientTrace("no graded heights")
    heights = sorted(grades)
    if len(heights) < stabilization_window:
        raise InsufficientTrace(f"{len(heights)} graded heights < stabilization window {stabilization_window}")
    if all(map(all, grades.values())):
        return Classification.FAIR, heights[0]

    # maximal clean suffix
    h0 = None
    for h in reversed(heights):
        if not all(grades[h]):
            break
        h0 = h
    if h0 is not None and heights[-1] - h0 + 1 >= stabilization_window:
        return Classification.EVENTUALLY_FAIR, h0

    if static_complete and all(grades[h][0] and grades[h][1] for h in heights):
        return Classification.COMPLETE_FAIR, None
    if static_accurate and all(grades[h][0] and grades[h][2] for h in heights):
        return Classification.ACCURATE_FAIR, None
    return Classification.NONE, None


def build_report(
    matrix: RewardMatrix,
    truth: GroundTruth,
    stabilization_window: int,
    static_complete: bool = False,
    static_accurate: bool = False,
) -> FairnessReport:
    """Grade every allocated height of ``matrix`` against its committee and classify the run.

    A height's grade and witnesses follow from its row and its faulty set,
    so each distinct (row number, *faulty processes) is graded once."""
    rows = [
        (committee, set(committee), {pid for pid, amt in vector.items() if amt > 0})
        for committee, vector in matrix.pairs()
    ]
    graded = {}  # (row number, *faulty processes) -> (its grade, its witnesses as (pid, condition))
    grades: Dict[int, HeightGrade] = {}
    witnesses: List[Tuple[int, ProcessId, str]] = []
    for h, number in matrix.numbers():
        faulty = truth.faulty(h)
        found = graded.get(key := (number, *faulty))
        if found is None:
            committee, members, rewarded = rows[number]
            grade = _grade(rewarded, members, faulty.keys())
            why = []
            if not grade[0]:
                why.extend((pid, "cond1") for pid in sorted(rewarded - members))
            if not grade[1]:
                why.extend((pid, "completeness") for pid in committee if pid not in faulty and pid not in rewarded)
            if not grade[2]:
                why.extend((pid, "accuracy") for pid in committee if pid in faulty and pid in rewarded)
            found = graded[key] = (grade, why)
        grades[h] = found[0]
        if found[1]:
            witnesses.extend((h, pid, condition) for pid, condition in found[1])

    label, h0 = classify(grades, stabilization_window, static_complete, static_accurate)
    distinct = [grade for grade, _ in graded.values()]
    return FairnessReport(
        grades=grades,
        classification=label,
        h0=h0,
        complete_rows_ok=all(g[0] and g[1] for g in distinct),
        accurate_rows_ok=all(g[0] and g[2] for g in distinct),
        witnesses=witnesses,
    )
