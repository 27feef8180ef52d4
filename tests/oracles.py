"""Reference re-derivations that tests compare the program against.

No program path needs them: the engine builds each committee incrementally
and derives every parent link as it appends, ``fairsim check`` derives the
links of a stored chain the same way, fairness.json is rendered from
templates, a behaviour schedule is kept as the rules its scenario states,
and a selection-only run tallies whole periods once its committees repeat,
where ``selection_stats`` simulates and tallies each height itself.
``CollectSpy`` keeps what the engine itself drops two heights later.
``PerDeliveryEngine`` delivers each copy through a handler of its own and
checks for the last block after every copy, where the engine checks only
what each delivery can complete; it judges a copy for a dropped height
against block h on the chain, where the engine reads the height's record.
"""
from typing import Dict, List, Optional, Set

from fairsim.consensus import SimulationEngine, _Slot
from fairsim.core import GENESIS_HASH, BehaviorKind, Blockchain, ProcessId, SelectionMechanismId, simulated_hash
from fairsim.network import ExhaustedQueue, MessageKind
from fairsim.fairness import FairnessReport
from fairsim.selection import SelectionState, SelectionStats


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
    """``run_selection_experiment`` simulated height by height, with each
    process's longest gap read off the list of heights that selected it."""
    if initial_stakes is None:
        initial_stakes = {pid: 100 for pid in range(population)}
    state = SelectionState(population, n, mech, initial_stakes)
    credit = state.per_selection + reward_per_member * state.per_stake
    selected_at: Dict[ProcessId, List[int]] = {pid: [] for pid in range(population)}
    for h in range(1, heights + 1):
        committee = state.committee(h)
        for pid in committee:
            state.rank[pid] += credit
            selected_at[pid].append(h)
    total = max(heights, 0)
    # the heights between two selections, before the first and after the last
    gaps = {pid: [b - a - 1 for a, b in zip([0] + at, at + [total + 1])] for pid, at in selected_at.items()}
    return SelectionStats(
        counts={pid: len(at) for pid, at in selected_at.items()},
        total_heights=total,
        max_gap={pid: max(g) for pid, g in gaps.items()},
    )


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


class PerDeliveryEngine(SimulationEngine):
    """The engine with one handler call per delivered copy: every copy for a
    live height runs the full ``_check_progress``, and the run checks for the
    last block after each copy and each event. Each bogus copy takes one off
    its height's queued count, as the engine's does per event, so records
    are dropped alike. The engine must match it byte for byte."""

    def _on_msg(self, msg, pid, t):
        st = self.procs[pid]
        h = msg.height
        kind = msg.kind
        if h < st.height - 1:
            # this process has dropped height h: only a bogus payload still
            # acts, and block h is on the chain, since it has started h+2
            if kind is not MessageKind.SUSPICION and msg.payload != self.chain.block_at(h).payload_id:
                self._heights[h].bogus -= 1
                self._suspect(pid, h, msg.sender, t)
            return
        slot = st.slots.get(h)
        if slot is None:
            slot = st.slots[h] = _Slot()
        if self._sync_omission:
            slot.heard.add(msg.sender)

        if kind is MessageKind.SUSPICION:
            slot.accusations(self.n).accuse(msg.payload, msg.sender)
            return

        info = self._heights[h]
        if msg.payload != info.payload:
            info.bogus -= 1
            self._suspect(pid, h, msg.sender, t)
        elif kind is MessageKind.DECISION:
            slot.deliveries.add(msg.sender)
        elif kind is MessageKind.VOTE:
            slot.votes.add(msg.sender)
        else:
            slot.proposal_seen = True

        if st.height == h and h not in st.decided:
            self._check_progress(pid, h, info, slot, t)

    def _deliver(self):
        self._open(1, GENESIS_HASH)
        blocks, max_height = self.chain.blocks, self.max_height
        for pid in range(self.population):
            self.queue.push(0, ("start", pid, 1))
        while True:
            try:
                t, event = self.queue.pop()
            except ExhaustedQueue:
                return self.queue.clock
            kind = event[0]
            if kind == "msg":
                for pid in event[2]:
                    self._on_msg(event[1], pid, t)
                    if len(blocks) > max_height:
                        return t
                continue
            if kind == "start":
                self._start_height(event[1], event[2], t)
            elif kind == "round":
                self._on_round(event[1], event[2], event[3], t)
            elif kind == "collect":
                self._on_collect(event[1], event[2], t)
            if len(blocks) > max_height:
                return t


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
