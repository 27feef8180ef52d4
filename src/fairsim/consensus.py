"""Repeated-consensus engine.

Each process walks the per-height state machine: compute the committee,
solve an abstracted propose/vote/decide round inside it (or wait for
decision evidence from outside), then keep collecting decision messages
for its timeout window before starting the next height. The reward for a
height rides in the next block, proposed by the first correct proposer of
that next height from whatever it managed to collect.

The intra-committee consensus is deliberately thin: the valid payload for
a height is a deterministic function of the chain, members vote for it
once they see a proposal carrying it, and a quorum of ceil(2n/3) votes
decides. Everything the fairness analysis cares about is the timing of
the messages around decisions, which this preserves.

A process drops its state for height h when it starts h+2, once
``_on_collect(h)`` and ``_reward_proposal(h+1)`` have read it; a later
message for h acts only when its payload is bogus, and reads the valid
payload off block h. The engine drops its record of height h (committee
and payload) once every process has started h+2, and the rewards a
proposal fixes for h leave with block h. So engine memory stays flat in
the run's length, apart from the per-height results it returns and the
(height, suspect) pairs each process has accused, kept because a bogus
message for any past height can still be in flight.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Collection, Dict, List, Sequence, Set, Tuple

from .core import (
    GENESIS_HASH,
    BehaviorKind,
    Block,
    Blockchain,
    GenesisConfig,
    ProcessId,
    ProcessSpec,
    TimeoutPolicy,
    payload_for_height,
    simulated_hash,
)
from .network import (
    EventQueue,
    ExhaustedQueue,
    Message,
    MessageKind,
    SimTime,
    Synchronous,
    EventuallySynchronous,
    assign_delay,
)
from .reward import RewardMatrix, SuspicionState, allocate, matrix_from_chain
from .selection import SelectionState

# the enum members the handlers test, bound once: an Enum class attribute
# lookup costs several times a module global
_PROPOSE, _VOTE = MessageKind.PROPOSE, MessageKind.VOTE
_DECISION, _SUSPICION = MessageKind.DECISION, MessageKind.SUSPICION
_CORRECT, _SILENT = BehaviorKind.CORRECT, BehaviorKind.BYZANTINE_SILENT
_EQUIVOCATE = BehaviorKind.BYZANTINE_EQUIVOCATE


class QuorumImpossible(Exception):
    """A committee at some height cannot decide safely or at all."""


class AgreementViolation(Exception):
    pass


def quorum_size(n: int) -> int:
    return -(-2 * n // 3)  # ceil(2n/3)


def evidence_threshold(n: int) -> int:
    """Identical decisions a non-member needs before trusting one: enough
    that at least one sender is honest."""
    return n // 3 + 1


def max_byzantine(n: int) -> int:
    return (n - 1) // 3


def check_committee(committee: Sequence[ProcessSpec], h: int, allow_quorum_violation: bool = False) -> None:
    """Raise QuorumImpossible when too few members of ``committee`` are
    correct at height ``h``: more misbehave than consensus tolerates or, under
    ``allow_quorum_violation``, fewer are correct than a decision needs (only
    correct members send valid votes, so the height could never be decided)."""
    n = len(committee)
    correct = sum(1 for s in committee if s.behavior_at(h) is _CORRECT)
    if not allow_quorum_violation:
        limit = max_byzantine(n)
        if n - correct > limit:
            raise QuorumImpossible(
                f"height {h}: {n - correct} Byzantine members in a committee of {n};"
                f" at most {limit} tolerated"
            )
    elif correct < quorum_size(n):
        raise QuorumImpossible(
            f"height {h}: only {correct} of {n} committee members are correct;"
            f" a decision needs {quorum_size(n)}"
        )


def update_delta(
    current: int,
    collected: Set[ProcessId],
    committee: Set[ProcessId],
    policy: TimeoutPolicy,
    increment: int,
) -> int:
    """Next collection timeout: fixed policy never moves, modulable grows
    additively whenever someone expected was missed."""
    if policy is TimeoutPolicy.MODULABLE and not committee <= collected:
        return current + increment
    return current


def collect_decisions(
    decision_deliveries: Dict[ProcessId, SimTime],
    decided_at: SimTime,
    delta: int,
    committee: Collection[ProcessId],
) -> Set[ProcessId]:
    """Committee members whose decision arrived within the wait window."""
    deadline = decided_at + delta
    return {q for q, t in decision_deliveries.items() if q in committee and t <= deadline}


@dataclass
class EngineConfig:
    delta0: int = 5
    delta_increment: int = 5
    round_ticks: int = 100
    allow_quorum_violation: bool = False


@dataclass
class RunResult:
    chain: Blockchain
    committees: Dict[int, List[ProcessId]]
    matrix: RewardMatrix
    # what only the engine saw; a result rebuilt from a stored chain has none of it
    to_reward: Dict[ProcessId, Dict[int, Set[ProcessId]]] = field(default_factory=dict)
    decided_at: Dict[ProcessId, Dict[int, SimTime]] = field(default_factory=dict)
    trace: List[dict] = field(default_factory=list)
    finished_at: SimTime = 0


@dataclass(slots=True)
class _Slot:
    """One process's state for one height."""

    proposal_seen: bool = False
    voted: bool = False  # the vote step ran: a vote, an equivocation or nothing
    votes: Set[ProcessId] = field(default_factory=set)
    deliveries: Dict[ProcessId, SimTime] = field(default_factory=dict)  # sender -> first valid decision
    heard: Set[ProcessId] = field(default_factory=set)  # every sender; read only under the synchronous model


@dataclass(slots=True)
class _Proc:
    # slot h and the accusations for h live from the first delivery for h
    # until the process starts h+2; decided and to_reward (the run's result)
    # and accused (so a late bogus message is not accused twice) keep every h
    delta: int
    suspicion: SuspicionState
    height: int = 0
    slots: Dict[int, _Slot] = field(default_factory=dict)
    decided: Dict[int, SimTime] = field(default_factory=dict)
    to_reward: Dict[int, Set[ProcessId]] = field(default_factory=dict)
    accused: Set[Tuple[int, ProcessId]] = field(default_factory=set)


class _Height:
    """What is fixed for one height once its committee is known."""

    __slots__ = ("committee", "members", "order", "quorum", "evidence", "payload")

    def __init__(self, committee: List[ProcessId], payload: int) -> None:
        self.committee = committee
        self.members = frozenset(committee)
        self.order = sorted(committee)
        self.quorum = quorum_size(len(committee))
        self.evidence = evidence_threshold(len(committee))
        self.payload = payload


# deterministic bogus payload offsets for equivocating senders
_BOGUS_A = 1_000_000_007
_BOGUS_B = 2_000_000_014


class SimulationEngine:
    def __init__(
        self,
        specs: Sequence[ProcessSpec],
        genesis: GenesisConfig,
        model,
        max_height: int,
        seed: int,
        config: EngineConfig = None,
        record_trace: bool = False,
    ) -> None:
        self.specs = {s.id: s for s in specs}
        self.genesis = genesis
        self.model = model
        self.max_height = max_height
        self.rng = random.Random(seed)
        self.config = config or EngineConfig()
        self.record_trace = record_trace

        self.population = genesis.population
        self.n = genesis.n
        self.chain = Blockchain(genesis=genesis)
        self.queue = EventQueue()
        self.procs = {pid: _Proc(self.config.delta0, SuspicionState(n=self.n)) for pid in range(self.population)}
        self.trace: List[dict] = []

        self._heights: Dict[int, _Height] = {}
        # heights up to this one are dropped from _heights
        self._dropped = 0
        # height -> processes that have started it, until all of them have
        self._started: Dict[int, int] = {}
        self._everyone = list(range(self.population))
        self._sel_state = SelectionState(self.population, self.n, genesis.selection, genesis.initial_stakes)
        self._sel_applied = 0
        self._pending_reward: Dict[int, Dict[ProcessId, int]] = {}
        self._sync_omission = isinstance(model, Synchronous)

    # -- plumbing -----------------------------------------------------------

    def _height(self, h: int) -> _Height:
        info = self._heights.get(h)
        if info is not None:
            return info
        if h <= self._dropped:
            raise RuntimeError(f"height {h} was dropped once every process had started {h + 2}")
        if len(self.chain) < h - 1:
            raise RuntimeError(f"committee for height {h} requested too early")
        while self._sel_applied < h - 1:
            self._sel_state.apply_block(self.chain.blocks[self._sel_applied])
            self._sel_applied += 1
        committee = self._sel_state.committee(h)
        specs = [self.specs[pid] for pid in committee]
        check_committee(specs, h, self.config.allow_quorum_violation)
        # a height starts only once block h-1 is on the chain, so its valid
        # payload is fixed from here on
        info = _Height(committee, payload_for_height(h, self._parent_link(h)))
        self._heights[h] = info
        return info

    def _parent_link(self, h: int) -> int:
        return GENESIS_HASH if h == 1 else simulated_hash(self.chain.block_at(h - 1))

    def _send(
        self,
        sender: ProcessId,
        recipients: Sequence[ProcessId],
        kind: MessageKind,
        h: int,
        payload: int,
        t: SimTime,
    ) -> None:
        """Deliver one message, shared by all of ``recipients`` (sorted), to each of them."""
        model, rng, push = self.model, self.rng, self.queue.push
        trace = self.trace if self.record_trace else None
        msg = Message(sender, h, kind, payload, t)
        for rcpt in recipients:
            at = t if rcpt == sender else assign_delay(model, msg, rng)
            push(at, ("msg", msg, rcpt))
            if trace is not None:
                trace.append(
                    {
                        "time": t,
                        "deliver_at": at,
                        "sender": sender,
                        "recipient": rcpt,
                        "kind": kind.value,
                        "height": h,
                    }
                )

    # -- height lifecycle ---------------------------------------------------

    def _start_height(self, pid: ProcessId, h: int, t: SimTime) -> None:
        st = self.procs[pid]
        st.height = h
        st.slots.pop(h - 2, None)
        st.suspicion.accusers.pop(h - 2, None)
        started = self._started.get(h, 0) + 1
        if started < self.population:
            self._started[h] = started
        else:
            # no process reads height h-2 any more; a late message for it
            # reads its payload off the chain
            self._started.pop(h, None)
            self._heights.pop(h - 2, None)
            self._dropped = h - 2
        info = self._height(h)
        if pid in info.members:
            self._on_round(pid, h, 0, t)
        slot = st.slots.get(h)
        if slot is not None:
            self._check_progress(pid, h, info, slot, t)

    def _propose(self, pid: ProcessId, h: int, t: SimTime) -> None:
        # the first correct proposal of a height fixes the rewards its block
        # carries, until the block is on the chain
        if len(self.chain) < h and h not in self._pending_reward:
            self._pending_reward[h] = self._reward_proposal(pid, h)
        info = self._height(h)
        self._send(pid, info.order, _PROPOSE, h, info.payload, t)

    def _equivocate(self, pid: ProcessId, kind: MessageKind, h: int, t: SimTime) -> None:
        """Send one bogus payload to the lower half of the other members and
        another to the upper half."""
        info = self._height(h)
        peers = [q for q in info.order if q != pid]
        half = len(peers) // 2
        self._send(pid, peers[:half], kind, h, info.payload + _BOGUS_A, t)
        self._send(pid, peers[half:], kind, h, info.payload + _BOGUS_B, t)

    def _reward_proposal(self, pid: ProcessId, h: int) -> Dict[ProcessId, int]:
        prev = h - 1
        if prev < 1:
            return {}
        st = self.procs[pid]
        return allocate(
            mech=self.genesis.reward,
            committee=self._height(prev).committee,
            to_reward=st.to_reward.get(prev, set()),
            incorrect=st.suspicion.confirmed(prev),
            reward_per_member=self.genesis.reward_per_member,
        )

    def _on_round(self, pid: ProcessId, h: int, r: int, t: SimTime) -> None:
        st = self.procs[pid]
        if st.height != h or h in st.decided:
            return
        order = self._height(h).order
        if order[r % len(order)] == pid:
            behavior = self.specs[pid].behavior_at(h)
            if behavior is _CORRECT:
                self._propose(pid, h, t)
            elif behavior is _EQUIVOCATE:
                self._equivocate(pid, _PROPOSE, h, t)
        self.queue.push(t + self.config.round_ticks, ("round", pid, h, r + 1))

    # -- message handling ---------------------------------------------------

    def _on_msg(self, msg: Message, pid: ProcessId, t: SimTime) -> None:
        st = self.procs[pid]
        h = msg.height
        kind = msg.kind
        if h < st.height - 1:
            # this process has dropped height h: only a bogus payload still
            # acts, and block h is on the chain, since it has started h+2
            if kind is not _SUSPICION and msg.payload != self.chain.block_at(h).payload_id:
                self._suspect(pid, h, msg.sender, t)
            return
        slot = st.slots.get(h)
        if slot is None:
            slot = st.slots[h] = _Slot()
        if self._sync_omission:
            slot.heard.add(msg.sender)

        if kind is _SUSPICION:
            st.suspicion.accuse(h, msg.payload, msg.sender)
            return

        # the sender looked up this height's record before sending, and it is
        # dropped only once this process has started h+2
        info = self._heights[h]
        if msg.payload != info.payload:
            self._suspect(pid, h, msg.sender, t)
        elif kind is _DECISION:
            slot.deliveries.setdefault(msg.sender, t)
        elif kind is _VOTE:
            slot.votes.add(msg.sender)
        else:
            slot.proposal_seen = True

        if st.height == h and h not in st.decided:
            self._check_progress(pid, h, info, slot, t)

    def _suspect(self, pid: ProcessId, h: int, suspect: ProcessId, t: SimTime) -> None:
        if self.specs[pid].behavior_at(h) is not _CORRECT:
            return
        st = self.procs[pid]
        if (h, suspect) in st.accused:
            return
        st.accused.add((h, suspect))
        if h >= st.height - 1:
            st.suspicion.accuse(h, suspect, pid)
        others = [q for q in self._everyone if q != pid]
        self._send(pid, others, _SUSPICION, h, suspect, t)

    def _check_progress(self, pid: ProcessId, h: int, info: _Height, slot: _Slot, t: SimTime) -> None:
        member = pid in info.members
        if member and slot.proposal_seen and not slot.voted:
            slot.voted = True
            behavior = self.specs[pid].behavior_at(h)
            if behavior is _CORRECT:
                self._send(pid, info.order, _VOTE, h, info.payload, t)
            elif behavior is _EQUIVOCATE:
                self._equivocate(pid, _VOTE, h, t)

        if member and len(slot.votes) >= info.quorum or len(slot.deliveries) >= info.evidence:
            self._decide(pid, h, info, t)

    def _decide(self, pid: ProcessId, h: int, info: _Height, t: SimTime) -> None:
        st = self.procs[pid]
        st.decided[h] = t
        if len(self.chain) < h:
            self._append_block(h, info)
        elif self.chain.block_at(h).payload_id != info.payload:
            raise AgreementViolation(f"conflicting decisions at height {h}")

        if pid in info.members and self.specs[pid].behavior_at(h) is not _SILENT:
            self._send(pid, self._everyone, _DECISION, h, info.payload, t)
        self.queue.push(t + st.delta, ("collect", pid, h))

    def _append_block(self, h: int, info: _Height) -> None:
        block = Block(
            height=h,
            committee=info.committee,
            rewards_for=h - 1,
            reward_vector=self._pending_reward.pop(h, {}),
            payload_id=info.payload,
            parent_link=self._parent_link(h),
        )
        self.chain.append(block)

    def _on_collect(self, pid: ProcessId, h: int, t: SimTime) -> None:
        st = self.procs[pid]
        info = self._height(h)
        # deciding h took a delivery for h, so its slot exists
        slot = st.slots[h]
        st.to_reward[h] = collect_decisions(slot.deliveries, st.decided[h], t - st.decided[h], info.members)
        if self._sync_omission and self.specs[pid].behavior_at(h) is _CORRECT:
            # with instant delivery, total silence over a height is a
            # detectable omission
            for q in info.committee:
                if q != pid and q not in slot.heard:
                    self._suspect(pid, h, q, t)
        expected = info.members - st.suspicion.confirmed(h)
        st.delta = update_delta(
            st.delta,
            st.to_reward[h] & expected,
            expected,
            self.genesis.timeout_policy,
            self.config.delta_increment,
        )
        self.queue.push(t + 1, ("start", pid, h + 1))

    # -- main loop ----------------------------------------------------------

    def run(self) -> RunResult:
        model = self.model
        # an eventually synchronous model without a GST tick is swapped for a
        # copy with one when the chain reaches the height before gst_height
        gst_pending = (
            isinstance(model, EventuallySynchronous) and model.gst is None and model.gst_height is not None
        )
        blocks = self.chain.blocks
        # the block after max_height carries max_height's rewards
        stop_len = self.max_height + 1
        if gst_pending and len(blocks) >= model.gst_height - 1:
            self.model = replace(model, gst=0)
            gst_pending = False
        for pid in range(self.population):
            self.queue.push(0, ("start", pid, 1))
        pop = self.queue.pop
        on_msg, on_start, on_round, on_collect = self._on_msg, self._start_height, self._on_round, self._on_collect
        while True:
            try:
                t, event = pop()
            except ExhaustedQueue:
                finished_at = self.queue.clock
                break
            kind = event[0]
            if kind == "msg":
                on_msg(event[1], event[2], t)
            elif kind == "start":
                on_start(event[1], event[2], t)
            elif kind == "round":
                on_round(event[1], event[2], event[3], t)
            elif kind == "collect":
                on_collect(event[1], event[2], t)
            if gst_pending and len(blocks) >= model.gst_height - 1:
                self.model = replace(model, gst=t)
                gst_pending = False
            if len(blocks) >= stop_len:
                finished_at = t
                break
        matrix, committees = matrix_from_chain(self.chain)
        return RunResult(
            chain=self.chain,
            committees=committees,
            matrix=matrix,
            to_reward={pid: st.to_reward for pid, st in self.procs.items()},
            decided_at={pid: st.decided for pid, st in self.procs.items()},
            trace=self.trace,
            finished_at=finished_at,
        )

