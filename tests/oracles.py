"""Reference re-derivations that tests compare the program against.

No program path needs them: the engine builds each committee incrementally
and derives every parent link as it appends, ``fairsim check`` derives the
links of a stored chain the same way, and fairness.json is rendered from
templates.
"""
from typing import List

from fairsim.core import GENESIS_HASH, Blockchain, ProcessId, SelectionMechanismId, simulated_hash
from fairsim.fairness import FairnessReport
from fairsim.selection import SelectionState


def select(bc: Blockchain, height: int, mech: SelectionMechanismId) -> List[ProcessId]:
    """Committee for ``height`` replayed from genesis, or [] when the chain is too short."""
    if len(bc) < height - 1:
        return []
    state = SelectionState(bc.genesis.population, bc.genesis.n, mech, bc.genesis.initial_stakes)
    for block in bc.blocks[: height - 1]:
        state.apply_block(block)
    return state.committee(height)


def chain_validate(bc: Blockchain) -> bool:
    """True iff heights are contiguous from 1 and every parent link matches."""
    prev_hash = GENESIS_HASH
    for i, block in enumerate(bc.blocks):
        if block.height != i + 1:
            return False
        if block.parent_link != prev_hash:
            return False
        prev_hash = simulated_hash(block)
    return True


def report_json(report: FairnessReport) -> dict:
    """One replication's entry of fairness.json, less its "replication" index."""
    return {
        "classification": report.classification.value,
        "h0": report.h0,
        "complete_rows_ok": report.complete_rows_ok,
        "accurate_rows_ok": report.accurate_rows_ok,
        "grades": {
            str(h): {"cond1": g[0], "completeness": g[1], "accuracy": g[2]} for h, g in sorted(report.grades.items())
        },
        "witnesses": [{"height": h, "process": p, "condition": c} for h, p, c in report.witnesses],
    }
