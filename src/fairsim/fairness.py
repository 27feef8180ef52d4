"""Ground-truth analyzer: grades every height against the three reward
conditions, classifies the whole run and writes the reports as fairness.json.

The ground truth comes from the behavior schedule, not from what any
process observed: a member counts as having followed the protocol for a
height iff it was scheduled correct there.
"""
from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

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

    def faulty(self, height: int) -> FrozenSet[ProcessId]:
        """The processes that did not follow the protocol at ``height``."""
        return frozenset(s.id for s in self._scheduled if s.behavior_at(height) is not BehaviorKind.CORRECT)

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
    return _grade(matrix.rewarded(height), set(committee), truth.faulty(height))


#: the eight grades, each one shared tuple, so a long run's grades cost a pointer per height
_GRADES = {grade: grade for grade in itertools.product((False, True), repeat=3)}


def _grade(rewarded: Set[ProcessId], members: Set[ProcessId], faulty: FrozenSet[ProcessId]) -> HeightGrade:
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
    horizon = len(heights)
    if horizon < stabilization_window:
        raise InsufficientTrace(
            f"{horizon} graded heights < stabilization window {stabilization_window}"
        )

    def clean(h: int) -> bool:
        return all(grades[h])

    if all(clean(h) for h in heights):
        return Classification.FAIR, heights[0]

    # maximal clean suffix
    h0 = None
    for h in reversed(heights):
        if clean(h):
            h0 = h
        else:
            break
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
    """Grade every allocated height of ``matrix`` against its committee and classify the run."""
    grades: Dict[int, HeightGrade] = {}
    witnesses: List[Tuple[int, ProcessId, str]] = []
    for h in matrix.heights():
        # one read of the height's row
        rewarded = matrix.rewarded(h)
        committee = matrix.committee(h)
        members = set(committee)
        faulty = truth.faulty(h)
        grade = grades[h] = _grade(rewarded, members, faulty)
        if not grade[0]:
            witnesses.extend((h, pid, "cond1") for pid in sorted(rewarded - members))
        if not grade[1]:
            witnesses.extend(
                (h, pid, "completeness") for pid in committee if pid not in faulty and pid not in rewarded
            )
        if not grade[2]:
            witnesses.extend((h, pid, "accuracy") for pid in committee if pid in faulty and pid in rewarded)

    label, h0 = classify(grades, stabilization_window, static_complete, static_accurate)
    return FairnessReport(
        grades=grades,
        classification=label,
        h0=h0,
        complete_rows_ok=all(g[0] and g[1] for g in grades.values()),
        accurate_rows_ok=all(g[0] and g[2] for g in grades.values()),
        witnesses=witnesses,
    )


# -- fairness.json ---------------------------------------------------------

_JSON_BOOL = {False: "false", True: "true"}

# one (cond1, completeness, accuracy) grade, as it stands in fairness.json
_GRADE_TEXT = {
    (cond1, complete, accurate): (
        f'{{\n          "accuracy": {_JSON_BOOL[accurate]},\n          "completeness": {_JSON_BOOL[complete]},'
        f'\n          "cond1": {_JSON_BOOL[cond1]}\n        }}'
    )
    for cond1, complete, accurate in _GRADES
}


def fairness_json(window: int, reports: Sequence[Tuple[int, FairnessReport]]) -> str:
    """fairness.json for (replication index, report) pairs: the text
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` writes for
    ``{"stabilization_window": window, "replications": [...]}``, one entry
    per report with its fields and its "replication" index, built as one
    flat list of pieces joined once."""
    out = ['{\n  "replications": [']
    for index, report in reports:
        out.append(
            f'\n    {{\n      "accurate_rows_ok": {_JSON_BOOL[report.accurate_rows_ok]},'
            f'\n      "classification": "{report.classification.value}",'
            f'\n      "complete_rows_ok": {_JSON_BOOL[report.complete_rows_ok]},\n      "grades": {{'
        )
        # keys sort as strings: "10" before "2"
        for key, grade in sorted((str(h), g) for h, g in report.grades.items()):
            out.append(f'\n        "{key}": {_GRADE_TEXT[grade]},')
        _close(out, "\n      }")
        h0 = "null" if report.h0 is None else report.h0
        out.append(f',\n      "h0": {h0},\n      "replication": {index},\n      "witnesses": [')
        for h, pid, condition in report.witnesses:
            out.append(
                f'\n        {{\n          "condition": "{condition}",\n          "height": {h},'
                f'\n          "process": {pid}\n        }},'
            )
        _close(out, "\n      ]")
        out.append("\n    },")
    _close(out, "\n  ]")
    out.append(f',\n  "stabilization_window": {window}\n}}\n')
    return "".join(out)


def _close(out: List[str], closer: str) -> None:
    """End the JSON container that ``out`` has open, whose items each end in
    a comma: drop the last comma and add ``closer`` (its newline, indent and
    bracket), or only the bracket after the opening one when it is empty."""
    if out[-1][-1] in "{[":
        out[-1] += closer[-1]
    else:
        out[-1] = out[-1][:-1] + closer
