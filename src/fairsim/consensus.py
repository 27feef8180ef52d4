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
h+1's committee, parent link, valid payload and who is faulty, read from the
``GroundTruth`` that the analyzer grades against (height 1 opens on genesis).
A GST set by ``gst_height`` follows the handler that decides block
gst_height - 1.

A process keeps all it knows of height h in one slot (votes, decisions,
the accusations delivered for h, what its collect ended with) and drops it
whole when it starts h+2, once ``_on_collect(h)`` and
``_reward_proposal(h+1)`` have read it; a later copy for h acts only when
its payload is bogus. The engine keeps what it fixes for h (committee,
payload, the block's rewards) in one record, with the (accuser, suspect)
pairs accused at h and the number of bogus copies for h still queued. The
record is dropped once every process has started h+2 and no bogus copy for
h is queued, so a late copy finds the record exactly when it is bogus.
Engine memory thus grows with the run only by what it returns: the chain,
a reward matrix sharing its committees and vectors, the decision ticks.

A block reuses the committee or reward vector of one of the two blocks
before it when they are equal (``==``): a ``select_all`` committee never
changes, and an even/odd fault schedule repeats the vector every other
height. So blocks share these objects, and every reader treats them as
read-only.

A process is live at h from its start of h until it decides h, and
nothing is pending while it is live: after every handler, its slot of h
meets neither threshold and holds no proposal it has not answered, since
``_start_height`` checks the slot it finds and each delivery checks what
it adds. So the event loop delivers each copy itself and checks only what
that copy's kind can complete: a decision the evidence threshold, a vote
the member's quorum, a proposal the vote step. A suspicion, a bogus
payload and a copy for a height its recipient is not live at complete
nothing. Only ``_decide`` appends a block, so the loop looks for the run's
last block only after a call that can decide and after every start, round
and collect event: the run stops right after the exact delivery that lands
it.
"""
from __future__ import annotations

import random
from typing import Dict, List, Mapping, NamedTuple, Sequence, Set

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
from .fairness import GroundTruth
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
from .reward import RewardMatrix, SuspicionState, allocate
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


def check_committee(committee: Sequence[ProcessId], faulty: Mapping[ProcessId, BehaviorKind], h: int) -> None:
    """Raise QuorumImpossible when more members of ``committee`` are in
    ``faulty`` at height ``h`` than consensus tolerates. Within that bound the
    correct members alone make a quorum, so the height can always decide."""
    n = len(committee)
    byzantine = sum(1 for pid in committee if pid in faulty)
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
    matrix: RewardMatrix
    decided_at: Mapping[ProcessId, Dict[int, SimTime]]
    # one (time, deliver_at, sender, recipient, kind value, height) per copy sent
    trace: Sequence[tuple]
    finished_at: SimTime


class _Slot:
    """One process's state for one height, dropped whole when it starts h+2."""

    __slots__ = ("proposal_seen", "voted", "votes", "deliveries", "heard", "suspicion", "collected")

    def __init__(self, n: int) -> None:
        self.proposal_seen = self.voted = False  # voted: the vote step ran (a vote, an equivocation or nothing)
        self.votes: Set[ProcessId] = set()
        self.deliveries: Set[ProcessId] = set()  # senders of a valid decision
        self.heard: Set[ProcessId] = set()  # every sender; read only under the synchronous model
        self.suspicion = SuspicionState(n)  # the accusations delivered for this height
        self.collected = None  # the deliveries its collect ended with: the next proposal's to_reward


class _Proc:
    # slots[h] lives until the process starts h+2; decided (the run's result) keeps every h
    __slots__ = ("delta", "height", "slots", "decided")

    def __init__(self, delta: int) -> None:
        self.delta, self.height = delta, 0
        self.slots: Dict[int, _Slot] = {}
        self.decided: Dict[int, SimTime] = {}


class _Height:
    """What its parent block fixes for one height, its block's rewards, how many processes started it, who
    accused whom at it, and how many copies with a bogus payload for it are queued."""

    __slots__ = ("committee", "faulty", "members", "order", "quorum", "evidence", "parent_link", "payload",
                 "reward", "started", "accused", "bogus")

    def __init__(self, h: int, committee: List[ProcessId], parent_link: int, faulty: Dict[ProcessId, BehaviorKind]) -> None:
        self.committee = committee
        self.faulty = faulty  # each process not correct at h, member or not -> its kind
        self.members = frozenset(committee)
        self.order = sorted(committee)
        self.quorum = quorum_size(len(committee))
        self.evidence = evidence_threshold(len(committee))
        self.parent_link = parent_link
        self.payload = payload_for_height(h, parent_link)
        self.reward = {} if h == 1 else None  # set by h's first correct proposal; height 1 rewards nothing
        self.started = self.bogus = 0
        self.accused: Set[tuple] = set()  # (accuser, suspect): each pair sends one suspicion


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
        self._truth = GroundTruth.from_specs(specs)
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
        self.procs = {pid: _Proc(self.config.delta0) for pid in range(self.population)}
        self.trace: List[tuple] = []

        self._heights: Dict[int, _Height] = {}
        self._everyone = list(range(self.population))
        self._sel_state = SelectionState(self.population, self.n, genesis.selection, genesis.initial_stakes)
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
        """Fix height h's committee, faults and valid payload once ``parent_link``'s block h-1 has landed."""
        info = _Height(h, self._sel_state.committee(h), parent_link, self._truth.faulty(h))
        check_committee(info.committee, info.faulty, h)
        self._heights[h] = info

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
        info = self._heights[h]
        info.started += 1
        if info.started == self.population:
            # every process has dropped its slots up to h-2: a record there
            # is read only by a bogus copy for it, so it goes once none is queued
            heights = self._heights
            for old in [k for k in heights if k <= h - 2 and not heights[k].bogus]:
                del heights[old]
        if pid in info.members:
            self._on_round(pid, h, 0, t)
        slot = st.slots.get(h)
        if slot is not None:
            self._check_progress(pid, h, info, slot, t)

    def _act(self, pid: ProcessId, kind: MessageKind, h: int, info: _Height, t: SimTime) -> None:
        """Send pid's proposal or vote (``kind``) for h as its behaviour at h says.

        A correct process sends the valid payload to the committee, and h's
        first correct proposal, which comes before block h, fixes the rewards
        that block carries. An equivocator sends one bogus payload to the lower
        half of the other members and another to the upper half. A silent or
        decision-only process sends nothing."""
        behavior = info.faulty.get(pid, _CORRECT)
        if behavior is _CORRECT:
            if kind is _PROPOSE and info.reward is None:
                info.reward = self._reward_proposal(pid, h)
            self._send(pid, info.order, kind, h, info.payload, t)
        elif behavior is _EQUIVOCATE:
            peers = [q for q in info.order if q != pid]
            info.bogus += len(peers)
            half = len(peers) // 2
            self._send(pid, peers[:half], kind, h, info.payload + _BOGUS_A, t)
            self._send(pid, peers[half:], kind, h, info.payload + _BOGUS_B, t)

    def _reward_proposal(self, pid: ProcessId, h: int) -> Dict[ProcessId, int]:
        # the proposer has collected h-1 and not yet started h+1
        slot = self.procs[pid].slots[h - 1]
        return allocate(
            mech=self.genesis.reward,
            committee=self._heights[h - 1].committee,
            to_reward=slot.collected,
            incorrect=slot.suspicion.confirmed(),
            reward_per_member=self.genesis.reward_per_member,
        )

    def _on_round(self, pid: ProcessId, h: int, r: int, t: SimTime) -> None:
        st = self.procs[pid]
        if st.height != h or h in st.decided:
            return
        info = self._heights[h]
        if info.order[r % len(info.order)] == pid:
            self._act(pid, _PROPOSE, h, info, t)
        self.queue.push(t + self.config.round_ticks, ("round", pid, h, r + 1))

    # -- message handling ---------------------------------------------------

    def _suspect(self, pid: ProcessId, h: int, suspect: ProcessId, t: SimTime) -> None:
        info = self._heights[h]
        if pid in info.faulty:
            return
        accused = info.accused
        if (pid, suspect) in accused:
            return
        accused.add((pid, suspect))
        st = self.procs[pid]
        if h >= st.height - 1:
            # a message or a collect for h made the slot
            st.slots[h].suspicion.accuse(suspect, pid)
        others = [q for q in self._everyone if q != pid]
        self._send(pid, others, _SUSPICION, h, suspect, t)

    def _check_progress(self, pid: ProcessId, h: int, info: _Height, slot: _Slot, t: SimTime) -> None:
        member = pid in info.members
        if member and slot.proposal_seen and not slot.voted:
            slot.voted = True
            self._act(pid, _VOTE, h, info, t)

        if member and len(slot.votes) >= info.quorum or len(slot.deliveries) >= info.evidence:
            self._decide(pid, h, info, t)

    def _decide(self, pid: ProcessId, h: int, info: _Height, t: SimTime) -> None:
        st = self.procs[pid]
        st.decided[h] = t
        if len(self.chain) < h:
            self._append_block(h, info)
        elif self.chain.block_at(h).payload_id != info.payload:
            raise AgreementViolation(f"conflicting decisions at height {h}")

        if pid in info.members and info.faulty.get(pid) is not _SILENT:
            self._send(pid, self._everyone, _DECISION, h, info.payload, t)
        self.queue.push(t + st.delta, ("collect", pid, h))
        if h == self._gst_block:
            # the first decision of h appended block h
            self.model, self._gst_block = self.model._replace(gst=t), None

    def _append_block(self, h: int, info: _Height) -> None:
        """Put block h on the chain and open height h+1, unless h is the run's last block.

        A committee or reward vector equal to one of the two blocks before it
        is that block's object, so a chain that repeats them keeps each once."""
        committee, reward = info.committee, info.reward
        for prev in self.chain.blocks[-2:]:
            if prev.committee == committee:
                committee = prev.committee
            if prev.reward_vector == reward:
                reward = prev.reward_vector
        block = Block(h, committee, reward, info.payload, info.parent_link)
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
        slot.collected = set(slot.deliveries)
        if self._sync_omission and pid not in info.faulty:
            # with instant delivery, total silence over a height is a
            # detectable omission
            for q in info.committee:
                if q != pid and q not in slot.heard:
                    self._suspect(pid, h, q, t)
        expected = info.members - slot.suspicion.confirmed()
        policy, increment = self.genesis.timeout_policy, self.config.delta_increment
        st.delta = update_delta(st.delta, slot.collected, expected, policy, increment)
        self.queue.push(t + 1, ("start", pid, h + 1))

    # -- main loop ----------------------------------------------------------

    def _deliver(self) -> SimTime:
        """Open height 1, then handle events until the chain holds
        max_height + 1 blocks or the queue runs dry; the tick at which it
        stopped.

        Each later height opens inside the handler that decides its parent
        block, and the GST swap ends that handler. A message event carries
        one send's recipients for one tick, each delivered in order as if it
        were an event of its own, under the live and stop rules of the module
        docstring; the message and its height record are read once per event."""
        self._open(1, GENESIS_HASH)
        blocks, max_height = self.chain.blocks, self.max_height
        for pid in range(self.population):
            self.queue.push(0, ("start", pid, 1))
        pop = self.queue.pop
        procs, heights, n, sync_omission = self.procs, self._heights, self.n, self._sync_omission
        suspect, check_progress, decide = self._suspect, self._check_progress, self._decide
        on_start, on_round, on_collect = self._start_height, self._on_round, self._on_collect
        while True:
            try:
                t, event = pop()
            except ExhaustedQueue:
                return self.queue.clock
            kind = event[0]
            if kind == "msg":
                msg = event[1]
                h, mkind, payload, sender = msg.height, msg.kind, msg.payload, msg.sender
                # height h opened before anyone could send for it, and its
                # record outlives every process's slot and every bogus copy,
                # so with no record every copy is late and none is bogus
                info = heights.get(h)
                bogus = info is not None and mkind is not _SUSPICION and payload != info.payload
                if bogus:
                    info.bogus -= len(event[2])
                for pid in event[2]:
                    st = procs[pid]
                    height = st.height
                    if h < height - 1:
                        if bogus:
                            suspect(pid, h, sender, t)
                        continue
                    slot = st.slots.get(h)
                    if slot is None:
                        slot = st.slots[h] = _Slot(n)
                    if sync_omission:
                        slot.heard.add(sender)
                    if mkind is _SUSPICION:
                        slot.suspicion.accuse(payload, sender)
                        continue
                    if bogus:
                        suspect(pid, h, sender, t)
                        continue
                    if mkind is _DECISION:
                        slot.deliveries.add(sender)
                        if height != h or len(slot.deliveries) < info.evidence or h in st.decided:
                            continue
                        decide(pid, h, info, t)
                    elif mkind is _VOTE:
                        slot.votes.add(sender)
                        if height != h or len(slot.votes) < info.quorum or h in st.decided or pid not in info.members:
                            continue
                        decide(pid, h, info, t)
                    else:
                        slot.proposal_seen = True
                        if height != h or h in st.decided:
                            continue
                        check_progress(pid, h, info, slot, t)
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
        blocks = self.chain.blocks
        matrix = RewardMatrix()
        for block, carrier in zip(blocks, blocks[1:]):  # block h+1 carries the rewards for h's committee
            matrix.set_row(block.height, block.committee, carrier.reward_vector)
        return RunResult(
            chain=self.chain,
            matrix=matrix,
            decided_at={pid: st.decided for pid, st in self.procs.items()},
            trace=self.trace,
            finished_at=finished_at,
        )

