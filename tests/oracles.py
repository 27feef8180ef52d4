"""Reference re-derivations that tests compare the program against.

No program path needs them: the engine builds each committee incrementally
and derives every parent link as it appends, ``fairsim check`` derives the
links of a stored chain the same way, fairness.json is rendered from
templates, a behaviour schedule is kept as the rules its scenario states,
and a selection-only run tallies whole periods once its committees repeat.
``CollectSpy`` keeps what the engine itself drops two heights later.
"""
from typing import Dict, List, Optional, Set

from fairsim.consensus import SimulationEngine
from fairsim.core import GENESIS_HASH, BehaviorKind, Blockchain, ProcessId, SelectionMechanismId, simulated_hash
from fairsim.fairness import FairnessReport
from fairsim.selection import SelectionState, SelectionStats, SelectionTally


def select(bc: Blockchain, height: int, mech: SelectionMechanismId) -> List[ProcessId]:
    """Committee for ``height`` replayed from genesis, or [] when the chain is too short."""
    if len(bc) < height - 1:
        return []
    state = SelectionState(bc.genesis.population, bc.genesis.n, mech, bc.genesis.initial_stakes)
    for block in bc.blocks[: height - 1]:
        state.apply_block(block)
    return state.committee(height)


def selection_stats(
    population: int,
    n: int,
    mech: SelectionMechanismId,
    heights: int,
    initial_stakes: Optional[Dict[ProcessId, int]] = None,
    reward_per_member: int = 1,
) -> SelectionStats:
    """``run_selection_experiment`` simulated and tallied height by height."""
    if initial_stakes is None:
        initial_stakes = {pid: 100 for pid in range(population)}
    state = SelectionState(population, n, mech, initial_stakes)
    credit = state.per_selection + reward_per_member * state.per_stake
    tally = SelectionTally(population)
    for h in range(1, heights + 1):
        committee = state.committee(h)
        for pid in committee:
            state.rank[pid] += credit
        tally.record(h, committee)
    return tally.stats()


class CollectSpy(SimulationEngine):
    """The engine, recording ``collected[pid][h]``: the decisions process pid
    collected for height h, read right after its collect of h. The engine
    drops them when pid starts h+2, so this sees every process at every
    height it collected."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.collected: Dict[ProcessId, Dict[int, Set[ProcessId]]] = {pid: {} for pid in self.procs}

    def _on_collect(self, pid, h, t):
        super()._on_collect(pid, h, t)
        self.collected[pid][h] = self.procs[pid].slots[h].collected


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


def _names(heights, h: int) -> bool:
    """Whether the ``heights`` specifier of a scenario behaviour names height ``h``."""
    if heights == "all":
        return True
    if heights in ("even", "odd"):
        return h % 2 == (heights == "odd")
    if isinstance(heights, list):
        return h in heights
    if "mod" in heights:
        return h % heights["mod"] == heights.get("rem", 0)
    return heights["from"] <= h and ("to" not in heights or h <= heights["to"])


def expanded_schedule(behaviors: list, max_height: int) -> Dict[ProcessId, Dict[int, BehaviorKind]]:
    """Each process's {height: kind} over heights 1..max_height + 1, one entry
    per height a behaviour names, the last behaviour that names it winning:
    the table the parser once built, of valid ``population.behaviors``."""
    schedule: Dict[ProcessId, Dict[int, BehaviorKind]] = {}
    for b in behaviors:
        table = schedule.setdefault(b["process"], {})
        for h in range(1, max_height + 2):
            if _names(b["heights"], h):
                table[h] = BehaviorKind(b["kind"])
    return schedule
