import json

import pytest

from fairsim.core import BehaviorKind, ProcessSpec
from fairsim.fairness import (
    Classification,
    GroundTruth,
    InsufficientTrace,
    build_report,
    classify,
    fairness_json,
    grade_height,
)
from fairsim.reward import RewardMatrix, RewardsNotYetAllocated


def _truth(byzantine=None):
    """byzantine: {pid: [heights]}"""
    byzantine = byzantine or {}
    specs = [
        ProcessSpec(
            id=pid,
            merit=0,
            initial_stake=0,
            behavior={h: BehaviorKind.BYZANTINE_SILENT for h in byzantine.get(pid, [])},
        )
        for pid in range(4)
    ]
    return GroundTruth.from_specs(specs)


def test_ground_truth_only_scheduled_heights_misbehave():
    truth = _truth({2: [3, 5]})
    assert truth.followed_protocol(2, 2)
    assert not truth.followed_protocol(3, 2)
    assert truth.followed_protocol(4, 2)
    assert truth.followed_protocol(3, 0)


def test_grade_height_all_clean():
    m = RewardMatrix()
    m.set_row(1, [0, 1, 2], {0: 1, 1: 1, 2: 1})
    assert grade_height(1, m, [0, 1, 2], _truth(), population=4) == (True, True, True)


def test_grade_height_completeness_violation():
    m = RewardMatrix()
    m.set_row(1, [0, 1, 2], {0: 1, 1: 1})
    grade = grade_height(1, m, [0, 1, 2], _truth(), population=4)
    assert grade == (True, False, True)


def test_grade_height_accuracy_violation():
    m = RewardMatrix()
    m.set_row(2, [0, 1, 2], {0: 1, 1: 1, 2: 1})
    grade = grade_height(2, m, [0, 1, 2], _truth({2: [2]}), population=4)
    assert grade == (True, False, False) or grade == (True, True, False)
    # the byzantine got a reward: accuracy broken; correct members all
    # rewarded: completeness fine
    assert grade == (True, True, False)


def test_grade_height_unallocated_raises():
    with pytest.raises(RewardsNotYetAllocated):
        grade_height(1, RewardMatrix(), [0, 1], _truth(), population=4)


def _grades(pattern):
    """pattern: string of '.' (clean) and 'x' (completeness broken) per height."""
    return {
        h + 1: (True, c == ".", True)
        for h, c in enumerate(pattern)
    }


def test_classify_fair():
    label, h0 = classify(_grades("....."), stabilization_window=3)
    assert label is Classification.FAIR
    assert h0 == 1


def test_classify_eventually_fair_window_boundary():
    label, h0 = classify(_grades("xx...."), stabilization_window=4)
    assert label is Classification.EVENTUALLY_FAIR
    assert h0 == 3
    label, h0 = classify(_grades("xxx..."), stabilization_window=4)
    assert label is Classification.NONE
    assert h0 is None


def test_classify_fair_takes_priority_over_eventually_fair():
    label, h0 = classify(_grades("...."), stabilization_window=2)
    assert label is Classification.FAIR


def test_classify_static_complete():
    grades = {h: (True, True, h % 2 == 0) for h in range(1, 11)}
    label, _ = classify(grades, 4, static_complete=True)
    assert label is Classification.COMPLETE_FAIR
    label, _ = classify(grades, 4)
    assert label is Classification.NONE


def test_classify_static_accurate():
    grades = {h: (True, False, True) for h in range(1, 11)}
    label, _ = classify(grades, 4, static_accurate=True)
    assert label is Classification.ACCURATE_FAIR
    label, _ = classify(grades, 4)
    assert label is Classification.NONE


def test_classify_static_flags_do_not_mask_cond1():
    grades = {h: (False, True, True) for h in range(1, 11)}
    label, _ = classify(grades, 4, static_complete=True, static_accurate=True)
    assert label is Classification.NONE


def test_classify_needs_enough_heights():
    with pytest.raises(InsufficientTrace):
        classify(_grades(".."), stabilization_window=5)
    with pytest.raises(InsufficientTrace):
        classify({}, stabilization_window=1)


def test_build_report_witnesses():
    m = RewardMatrix()
    m.set_row(1, [0, 1, 2], {0: 1, 1: 1, 2: 1})
    m.set_row(2, [0, 1, 2], {0: 1, 2: 1})
    report = build_report(
        matrix=m,
        truth=_truth({2: [2]}),
        stabilization_window=1,
    )
    assert report.classification is Classification.NONE
    assert (2, 1, "completeness") in report.witnesses
    assert (2, 2, "accuracy") in report.witnesses
    assert not report.complete_rows_ok
    assert not report.accurate_rows_ok
    js = json.loads(fairness_json(1, [(0, report)]))["replications"][0]
    assert js["classification"] == "none"
    assert js["grades"]["1"] == {"cond1": True, "completeness": True, "accuracy": True}
