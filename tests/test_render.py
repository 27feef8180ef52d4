"""The output renderer against the standard library.

Every file is written from text templates; each must be exactly what
``json.dumps`` or ``csv.writer`` writes for the same data.
"""
import csv
import io
import json

from hypothesis import given, settings, strategies as st

from fairsim.consensus import RunResult
from fairsim.core import (
    Block,
    Blockchain,
    GenesisConfig,
    RewardMechanismId,
    SelectionMechanismId,
    TimeoutPolicy,
)
from fairsim.fairness import Classification, FairnessReport
from fairsim.harness import ReplicationResult, _aggregate_csv, _rewards_csv, _trace_jsonl, selection_csv
from fairsim.harness import chain_to_jsonl, fairness_json, genesis_to_json
from fairsim.network import MessageKind
from fairsim.reward import RewardMatrix
from oracles import report_json

_GENESIS = GenesisConfig(
    n=3,
    population=31,
    selection=SelectionMechanismId.FEWEST_SELECTIONS,
    reward=RewardMechanismId.SUSPICION_QUORUM,
    timeout_policy=TimeoutPolicy.MODULABLE,
    initial_stakes={0: 5, 12: 100, 3: 0},
)

_pids = st.integers(0, 30)  # two-digit keys sort as strings: "10" before "2"
_blocks = st.builds(
    Block,
    height=st.integers(1, 10**6),
    committee=st.lists(_pids, max_size=8),
    reward_vector=st.dictionaries(_pids, st.integers(0, 10**12), max_size=12),
    payload_id=st.integers(0, 2**40),
    parent_link=st.integers(0, 2**80),
)


def _block_dict(b: Block) -> dict:
    return {
        "height": b.height,
        "committee": b.committee,
        "rewards_for": b.height - 1,
        "reward_vector": {str(k): v for k, v in b.reward_vector.items()},
        "payload_id": b.payload_id,
        "parent_link": b.parent_link,
    }


@settings(max_examples=100, deadline=None)
@given(st.lists(_blocks, max_size=20))
def test_chain_is_json_dumps_of_each_block(blocks):
    lines = [json.dumps({"genesis": genesis_to_json(_GENESIS)}, sort_keys=True)]
    lines += [json.dumps(_block_dict(b), sort_keys=True) for b in blocks]
    assert chain_to_jsonl(Blockchain(genesis=_GENESIS, blocks=blocks)) == "\n".join(lines) + "\n"


_bools = st.booleans()
_reports = st.builds(
    FairnessReport,
    grades=st.dictionaries(st.integers(1, 120), st.tuples(_bools, _bools, _bools), max_size=40),
    classification=st.sampled_from(Classification),
    h0=st.none() | st.integers(1, 120),
    complete_rows_ok=_bools,
    accurate_rows_ok=_bools,
    witnesses=st.lists(
        st.tuples(st.integers(1, 120), _pids, st.sampled_from(["cond1", "completeness", "accuracy"])), max_size=5
    ),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_reports, max_size=4), st.integers(1, 120))
def test_fairness_json_is_json_dumps_indent_2(reports, window):
    doc = {
        "stabilization_window": window,
        "replications": [{"replication": i, **report_json(r)} for i, r in enumerate(reports)],
    }
    assert fairness_json(window, list(enumerate(reports))) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_ticks = st.integers(0, 2**40)
_events = st.tuples(_ticks, _ticks, _pids, _pids, st.sampled_from([k.value for k in MessageKind]), st.integers(1, 10**6))


@settings(max_examples=100, deadline=None)
@given(st.lists(_events, max_size=30))
def test_trace_is_json_dumps_of_each_event(events):
    keys = ("time", "deliver_at", "sender", "recipient", "kind", "height")
    expected = "".join(json.dumps(dict(zip(keys, ev)), sort_keys=True) + "\n" for ev in events)
    assert _trace_jsonl(events) == expected


def _csv(rows, preamble="") -> str:
    buf = io.StringIO()
    buf.write(preamble)
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@st.composite
def _replications(draw):
    """Replications of random reward matrices over random committees."""
    reps = []
    for index in range(draw(st.integers(1, 3))):
        matrix = RewardMatrix()
        for h in range(1, draw(st.integers(1, 6)) + 1):
            committee = draw(st.lists(_pids, min_size=1, max_size=6, unique=True))
            amounts = draw(st.dictionaries(st.sampled_from(committee), st.integers(0, 3)))
            matrix.set_row(h, committee, amounts)
        run = RunResult(Blockchain(_GENESIS), matrix, decided_at={}, trace=(), finished_at=0)
        reps.append(ReplicationResult(index, run, report=None))
    return reps


@settings(max_examples=100, deadline=None)
@given(_replications())
def test_rewards_csv_is_csv_writer(reps):
    rows = [["replication", "height", "process_id", "r", "amount"]]
    for rr in reps:
        for h in rr.result.matrix.heights():
            for pid in rr.result.matrix.committee(h):
                rows.append([rr.index, h, pid, rr.result.matrix.r(h, pid), rr.result.matrix.amount(h, pid)])
    assert _rewards_csv(reps) == _csv(rows)


_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 120), st.tuples(_floats, _floats, _floats)))
def test_aggregate_csv_is_csv_writer(aggregate):
    rows = [["height", "mean", "std_all", "std_rep"]]
    rows += [[h, repr(m), repr(a), repr(r)] for h, (m, a, r) in sorted(aggregate.items())]
    preamble = (
        "# mean/std of the reward parameter per height;"
        " std_all over process x replication samples, std_rep over replication means\n"
    )
    assert _aggregate_csv(aggregate) == _csv(rows, preamble)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 5000), min_size=1, max_size=40) | st.lists(st.integers(0, 3), min_size=1, max_size=40),
    st.integers(1, 5000),
    st.sampled_from(["shared", "equal", "distinct"]),
)
def test_selection_csv_is_csv_writer(counts, total, merit_kind):
    """Counts from a narrow range repeat, and merits are one shared Fraction
    (as ``uniform_merits`` makes), distinct objects of equal value, or
    distinct values: each row still gets its own count's and merit's text."""
    from fractions import Fraction

    shared = Fraction(1, len(counts))
    merit_of = {
        "shared": lambda pid: shared,
        "equal": lambda pid: Fraction(1, len(counts)),
        "distinct": lambda pid: Fraction(pid + 1, 7 * len(counts)),
    }[merit_kind]
    merits = {pid: merit_of(pid) for pid in range(len(counts))}
    rows = [["process_id", "count", "v_i", "alpha_i"]]
    rows += [[pid, c, repr(c / total), repr(float(merits[pid]))] for pid, c in enumerate(counts)]
    assert selection_csv(dict(enumerate(counts)), total, merits) == _csv(rows)
