"""Repeated-consensus engine.

Each process walks the per-height state machine: solve an abstracted
propose/vote/decide round inside the height's committee (or wait for
decision evidence from outside), then keep collecting decision messages
for its timeout window before starting the next height. The reward for a
height rides in the next block, proposed by the first correct proposer of
that next height from whatever it managed to collect.

The intra-committee consensus is deliberately thin: the valid payload for
a height is a deterministic function of the chain, members vote for it
once they see a proposal carrying it, and a quorum of ceil(2n/3) votes
decides. Everything the fairness analysis cares about is the timing of
the messages around decisions, which this preserves.

A height opens when its parent block lands: appending block h fixes height
h+1's committee, parent link and valid payload (height 1 opens on genesis).
A GST set by ``gst_height`` follows the handler that decides block
gst_height - 1.

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
from typing import Dict, List, Mapping, NamedTuple, Sequence, Set, Tuple

from .core import (
    GENESIS_HASH,
    BehaviorKind,
    Block,
    Blockchain,
    GenesisConfig,
    ProcessId,
    ProcessSpec,
    ScenarioError,
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


class QuorumImpossible(ScenarioError):
    """A committee at some height holds more Byzantine members than
    consensus tolerates."""


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


def check_committee(committee: Sequence[ProcessSpec], h: int) -> None:
    """Raise QuorumImpossible when more members of ``committee`` are not
    correct at height ``h`` than consensus tolerates. Within that bound the
    correct members alone make a quorum, so the height can always decide."""
    n = len(committee)
    byzantine = sum(1 for s in committee if s.behavior_at(h) is not _CORRECT)
    if byzantine > max_byzantine(n):
        raise QuorumImpossible(
            "population.behaviors",
            f"height {h}: {byzantine} Byzantine members in a committee of {n}; at most {max_byzantine(n)} tolerated",
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


class EngineConfig(NamedTuple):
    delta0: int = 5
    delta_increment: int = 5
    round_ticks: int = 100


class RunResult(NamedTuple):
    chain: Blockchain
    committees: Dict[int, List[ProcessId]]
    matrix: RewardMatrix
    to_reward: Mapping[ProcessId, Dict[int, Set[ProcessId]]]
    decided_at: Mapping[ProcessId, Dict[int, SimTime]]
    # one (time, deliver_at, sender, recipient, kind value, height) per copy sent
    trace: Sequence[tuple]
    finished_at: SimTime


class _Slot:
    """One process's state for one height."""

    __slots__ = ("proposal_seen", "voted", "votes", "deliveries", "heard")

    def __init__(self) -> None:
        self.proposal_seen = self.voted = False  # voted: the vote step ran (a vote, an equivocation or nothing)
        self.votes: Set[ProcessId] = set()
        self.deliveries: Set[ProcessId] = set()  # senders of a valid decision
        self.heard: Set[ProcessId] = set()  # every sender; read only under the synchronous model


class _Proc:
    # slot h and the accusations for h live from the first delivery for h
    # until the process starts h+2; decided and to_reward (the run's result)
    # and accused (so a late bogus message is not accused twice) keep every h
    __slots__ = ("delta", "suspicion", "height", "slots", "decided", "to_reward", "accused")

    def __init__(self, delta: int, suspicion: SuspicionState) -> None:
        self.delta, self.suspicion, self.height = delta, suspicion, 0
        self.slots: Dict[int, _Slot] = {}
        self.decided: Dict[int, SimTime] = {}
        self.to_reward: Dict[int, Set[ProcessId]] = {}
        self.accused: Set[Tuple[int, ProcessId]] = set()


class _Height:
    """What is fixed for one height once its parent block is on the chain."""

    __slots__ = ("committee", "members", "order", "quorum", "evidence", "parent_link", "payload")

    def __init__(self, h: int, committee: List[ProcessId], parent_link: int) -> None:
        self.committee = committee
        self.members = frozenset(committee)
        self.order = sorted(committee)
        self.quorum = quorum_size(len(committee))
        self.evidence = evidence_threshold(len(committee))
        self.parent_link = parent_link
        self.payload = payload_for_height(h, parent_link)


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
        self.trace: List[tuple] = []

        self._heights: Dict[int, _Height] = {}
        # height -> processes that have started it, until all of them have
        self._started: Dict[int, int] = {}
        self._everyone = list(range(self.population))
        self._sel_state = SelectionState(self.population, self.n, genesis.selection, genesis.initial_stakes)
        self._pending_reward: Dict[int, Dict[ProcessId, int]] = {}
        self._sync_omission = isinstance(model, Synchronous)
        # an eventually synchronous model without a GST tick gets one when
        # block gst_height - 1 is decided (None: no swap due)
        self._gst_block = None
        if isinstance(model, EventuallySynchronous) and model.gst is None and model.gst_height is not None:
            if model.gst_height <= 1:
                self.model = model._replace(gst=0)
            else:
                self._gst_block = model.gst_height - 1

    # -- plumbing -----------------------------------------------------------

    def _open(self, h: int, parent_link: int) -> None:
        """Fix height h's committee and valid payload once ``parent_link``'s block h-1 has landed."""
        committee = self._sel_state.committee(h)
        check_committee([self.specs[pid] for pid in committee], h)
        self._heights[h] = _Height(h, committee, parent_link)

    def _send(
        self,
        sender: ProcessId,
        recipients: Sequence[ProcessId],
        kind: MessageKind,
        h: int,
        payload: int,
        t: SimTime,
    ) -> None:
        """Deliver one message, shared by all of ``recipients`` (sorted), to
        each of them: one queue event per delivery tick, carrying that tick's
        recipients in order."""
        msg = Message(sender, h, kind, payload, t)
        groups = assign_delay(self.model, msg, recipients, self.rng)
        push = self.queue.push
        for at, group in groups.items():
            push(at, ("msg", msg, group))
        if self.record_trace:
            deliver_at = {rcpt: at for at, group in groups.items() for rcpt in group}
            self.trace.extend((t, deliver_at[rcpt], sender, rcpt, kind.value, h) for rcpt in recipients)

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
        info = self._heights[h]
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
        info = self._heights[h]
        self._send(pid, info.order, _PROPOSE, h, info.payload, t)

    def _equivocate(self, pid: ProcessId, kind: MessageKind, h: int, t: SimTime) -> None:
        """Send one bogus payload to the lower half of the other members and
        another to the upper half."""
        info = self._heights[h]
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
            committee=self._heights[prev].committee,
            to_reward=st.to_reward[prev],
            incorrect=st.suspicion.confirmed(prev),
            reward_per_member=self.genesis.reward_per_member,
        )

    def _on_round(self, pid: ProcessId, h: int, r: int, t: SimTime) -> None:
        st = self.procs[pid]
        if st.height != h or h in st.decided:
            return
        order = self._heights[h].order
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

        # height h opened before anyone could send for it, and its record is
        # dropped only once this process has started h+2
        info = self._heights[h]
        if msg.payload != info.payload:
            self._suspect(pid, h, msg.sender, t)
        elif kind is _DECISION:
            slot.deliveries.add(msg.sender)
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
        if h == self._gst_block:
            # the first decision of h appended block h
            self.model, self._gst_block = self.model._replace(gst=t), None

    def _append_block(self, h: int, info: _Height) -> None:
        """Put block h on the chain and open height h+1, unless h is the run's last block."""
        block = Block(h, info.committee, self._pending_reward.pop(h), info.payload, info.parent_link)
        self.chain.append(block)
        self._sel_state.apply_block(block)
        if h <= self.max_height:
            self._open(h + 1, simulated_hash(block))

    def _on_collect(self, pid: ProcessId, h: int, t: SimTime) -> None:
        st = self.procs[pid]
        info = self._heights[h]
        # deciding h took a delivery for h, so its slot exists
        slot = st.slots[h]
        # each decision the slot holds came within the window, which this
        # collect ends, and from a member, since only members send decisions
        st.to_reward[h] = set(slot.deliveries)
        if self._sync_omission and self.specs[pid].behavior_at(h) is _CORRECT:
            # with instant delivery, total silence over a height is a
            # detectable omission
            for q in info.committee:
                if q != pid and q not in slot.heard:
                    self._suspect(pid, h, q, t)
        expected = info.members - st.suspicion.confirmed(h)
        st.delta = update_delta(
            st.delta, st.to_reward[h], expected, self.genesis.timeout_policy, self.config.delta_increment
        )
        self.queue.push(t + 1, ("start", pid, h + 1))

    # -- main loop ----------------------------------------------------------

    def _deliver(self) -> SimTime:
        """Open height 1, then handle events until the chain holds
        max_height + 1 blocks or the queue runs dry; the tick at which it
        stopped.

        Each later height opens inside the handler that decides its parent
        block, and the GST swap ends that handler. A message event carries
        one send's recipients for one tick, each delivered in order as if it
        were an event of its own, so the stop follows the exact delivery that
        lands the last block."""
        self._open(1, GENESIS_HASH)
        blocks, max_height = self.chain.blocks, self.max_height
        for pid in range(self.population):
            self.queue.push(0, ("start", pid, 1))
        pop = self.queue.pop
        on_msg, on_start, on_round, on_collect = self._on_msg, self._start_height, self._on_round, self._on_collect
        while True:
            try:
                t, event = pop()
            except ExhaustedQueue:
                return self.queue.clock
            kind = event[0]
            if kind == "msg":
                msg = event[1]
                for pid in event[2]:
                    on_msg(msg, pid, t)
                    if len(blocks) > max_height:
                        return t
                continue
            if kind == "start":
                on_start(event[1], event[2], t)
            elif kind == "round":
                on_round(event[1], event[2], event[3], t)
            elif kind == "collect":
                on_collect(event[1], event[2], t)
            if len(blocks) > max_height:
                return t

    def run(self) -> RunResult:
        finished_at = self._deliver()
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

