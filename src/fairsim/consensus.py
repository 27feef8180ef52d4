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
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from .core import (
    GENESIS_HASH,
    BehaviorKind,
    Block,
    Blockchain,
    GenesisConfig,
    ProcessId,
    ProcessSpec,
    RewardMechanismId,
    SelectionMechanismId,
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
from .reward import RewardMatrix, SuspicionState, allocate
from .selection import SelectionState


class QuorumImpossible(Exception):
    """A committee carries more Byzantine members than consensus tolerates."""


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


def check_byzantine_bound(committee: Sequence[ProcessSpec], h: int) -> None:
    """Raise QuorumImpossible when more members of ``committee`` misbehave at
    height ``h`` than consensus tolerates."""
    byz = sum(1 for s in committee if s.behavior_at(h) is not BehaviorKind.CORRECT)
    limit = max_byzantine(len(committee))
    if byz > limit:
        raise QuorumImpossible(
            f"height {h}: {byz} Byzantine members in a committee of {len(committee)};"
            f" at most {limit} tolerated"
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
    committee: Sequence[ProcessId],
) -> Set[ProcessId]:
    """Committee members whose decision arrived within the wait window."""
    deadline = decided_at + delta
    members = set(committee)
    return {q for q, t in decision_deliveries.items() if q in members and t <= deadline}


@dataclass
class EngineConfig:
    delta0: int = 5
    delta_increment: int = 5
    round_ticks: int = 100
    allow_quorum_violation: bool = False
    record_trace: bool = False
    # "chain": stop once the block after max_height is appended (rewards for
    # every graded height are then final). "drain": additionally let every
    # correct process finish max_height, for liveness checks.
    stop_mode: str = "chain"


@dataclass
class ConsensusOutcome:
    height: int
    payload_id: int
    decided_at: Dict[ProcessId, SimTime]
    decision_deliveries: Dict[ProcessId, Dict[ProcessId, SimTime]]
    to_reward: Dict[ProcessId, Set[ProcessId]]


@dataclass
class RunResult:
    chain: Blockchain
    committees: Dict[int, List[ProcessId]]
    matrix: RewardMatrix
    to_reward: Dict[ProcessId, Dict[int, Set[ProcessId]]]
    decided_at: Dict[ProcessId, Dict[int, SimTime]]
    final_deltas: Dict[ProcessId, int]
    trace: List[dict]
    finished_at: SimTime


class _Proc:
    __slots__ = (
        "pid",
        "spec",
        "height",
        "delta",
        "voted",
        "equivocated",
        "decided",
        "valid_proposal_seen",
        "votes",
        "decision_deliveries",
        "any_from",
        "to_reward",
        "suspicion",
        "accused",
    )

    def __init__(self, spec: ProcessSpec, delta0: int, n: int) -> None:
        self.pid = spec.id
        self.spec = spec
        self.height = 0
        self.delta = delta0
        self.voted: Set[int] = set()
        self.equivocated: Set[int] = set()
        self.decided: Dict[int, SimTime] = {}
        self.valid_proposal_seen: Set[int] = set()
        self.votes: Dict[int, Set[ProcessId]] = {}
        self.decision_deliveries: Dict[int, Dict[ProcessId, SimTime]] = {}
        self.any_from: Dict[int, Set[ProcessId]] = {}
        self.to_reward: Dict[int, Set[ProcessId]] = {}
        self.suspicion = SuspicionState(n=n)
        self.accused: Set[Tuple[int, ProcessId]] = set()


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
        committee_override: Dict[int, List[ProcessId]] = None,
    ) -> None:
        self.specs = {s.id: s for s in specs}
        self.genesis = genesis
        self.model = model
        self.max_height = max_height
        self.rng = random.Random(seed)
        self.config = config or EngineConfig()
        self.committee_override = committee_override or {}

        self.population = genesis.population
        self.n = genesis.n
        self.chain = Blockchain(genesis=genesis)
        self.matrix = RewardMatrix()
        self.queue = EventQueue()
        self.procs = {pid: _Proc(self.specs[pid], self.config.delta0, self.n) for pid in range(self.population)}
        self.trace: List[dict] = []

        self._committees: Dict[int, List[ProcessId]] = {}
        self._sel_state = SelectionState.initial(self.population, self.n, genesis.initial_stakes)
        self._sel_applied = 0
        self._pending_reward: Dict[int, Dict[ProcessId, int]] = {}
        self._sync_omission = isinstance(model, Synchronous)

    # -- plumbing -----------------------------------------------------------

    def _committee(self, h: int) -> List[ProcessId]:
        cached = self._committees.get(h)
        if cached is not None:
            return cached
        if h in self.committee_override:
            committee = list(self.committee_override[h])
        else:
            if len(self.chain) < h - 1:
                raise RuntimeError(f"committee for height {h} requested too early")
            while self._sel_applied < h - 1:
                self._sel_state.apply_block(self.chain.blocks[self._sel_applied])
                self._sel_applied += 1
            committee = self._sel_state.committee(h, self.genesis.selection)
        if not self.config.allow_quorum_violation:
            check_byzantine_bound([self.specs[pid] for pid in committee], h)
        self._committees[h] = committee
        return committee

    def _parent_link(self, h: int) -> int:
        return GENESIS_HASH if h == 1 else simulated_hash(self.chain.block_at(h - 1))

    def _payload(self, h: int) -> int:
        return payload_for_height(h, self._parent_link(h))

    def _send(
        self,
        sender: ProcessId,
        recipients: Sequence[ProcessId],
        kind: MessageKind,
        h: int,
        r: int,
        payload: int,
        t: SimTime,
    ) -> None:
        for rcpt in sorted(recipients):
            msg = Message(
                sender=sender,
                recipient=rcpt,
                height=h,
                round=r,
                kind=kind,
                payload=payload,
                sent_at=t,
            )
            msg.deliver_at = t if rcpt == sender else assign_delay(self.model, msg, self.rng)
            self.queue.push(msg.deliver_at, ("msg", msg))
            if self.config.record_trace:
                self.trace.append(
                    {
                        "time": t,
                        "deliver_at": msg.deliver_at,
                        "sender": sender,
                        "recipient": rcpt,
                        "kind": kind.value,
                        "height": h,
                    }
                )

    def _everyone(self) -> List[ProcessId]:
        return list(range(self.population))

    # -- height lifecycle ---------------------------------------------------

    def _start_height(self, pid: ProcessId, h: int, t: SimTime) -> None:
        st = self.procs[pid]
        st.height = h
        if h > self.max_height + 1:
            return
        if pid in self._committee(h):
            self._on_round(pid, h, 0, t)
        self._check_progress(pid, h, t)

    def _propose(self, pid: ProcessId, h: int, r: int, t: SimTime) -> None:
        # the first correct proposal of a height fixes the rewards its block carries
        if h not in self._pending_reward:
            self._pending_reward[h] = self._reward_proposal(pid, h)
        self._send(pid, self._committee(h), MessageKind.PROPOSE, h, r, self._payload(h), t)

    def _equivocate(self, pid: ProcessId, kind: MessageKind, h: int, r: int, t: SimTime) -> None:
        """Send one bogus payload to the lower half of the other members and
        another to the upper half."""
        payload = self._payload(h)
        peers = sorted(q for q in self._committee(h) if q != pid)
        half = len(peers) // 2
        self._send(pid, peers[:half], kind, h, r, payload + _BOGUS_A, t)
        self._send(pid, peers[half:], kind, h, r, payload + _BOGUS_B, t)

    def _reward_proposal(self, pid: ProcessId, h: int) -> Dict[ProcessId, int]:
        prev = h - 1
        if prev < 1:
            return {}
        st = self.procs[pid]
        return allocate(
            mech=self.genesis.reward,
            committee=self._committee(prev),
            to_reward=st.to_reward.get(prev, set()),
            incorrect=st.suspicion.confirmed(prev),
            reward_per_member=self.genesis.reward_per_member,
        )

    def _on_round(self, pid: ProcessId, h: int, r: int, t: SimTime) -> None:
        st = self.procs[pid]
        if st.height != h or h in st.decided:
            return
        committee = self._committee(h)
        proposers = sorted(committee)
        proposer = proposers[r % len(proposers)]
        if proposer == pid:
            behavior = st.spec.behavior_at(h)
            if behavior is BehaviorKind.CORRECT:
                self._propose(pid, h, r, t)
            elif behavior is BehaviorKind.BYZANTINE_EQUIVOCATE:
                self._equivocate(pid, MessageKind.PROPOSE, h, r, t)
        self.queue.push(t + self.config.round_ticks, ("round", pid, h, r + 1))

    # -- message handling ---------------------------------------------------

    def _on_msg(self, msg: Message, t: SimTime) -> None:
        st = self.procs[msg.recipient]
        h = msg.height
        st.any_from.setdefault(h, set()).add(msg.sender)

        if msg.kind is MessageKind.SUSPICION:
            st.suspicion.accuse(h, msg.payload, msg.sender)
            return

        valid = msg.payload == self._payload(h)
        if msg.kind is MessageKind.PROPOSE:
            if valid:
                st.valid_proposal_seen.add(h)
            else:
                self._suspect(msg.recipient, h, msg.sender, t)
        elif msg.kind is MessageKind.VOTE:
            if valid:
                st.votes.setdefault(h, set()).add(msg.sender)
            else:
                self._suspect(msg.recipient, h, msg.sender, t)
        elif msg.kind is MessageKind.DECISION:
            if valid:
                st.decision_deliveries.setdefault(h, {}).setdefault(msg.sender, t)
            else:
                self._suspect(msg.recipient, h, msg.sender, t)

        if st.height == h and h not in st.decided:
            self._check_progress(msg.recipient, h, t)

    def _suspect(self, pid: ProcessId, h: int, suspect: ProcessId, t: SimTime) -> None:
        st = self.procs[pid]
        if st.spec.behavior_at(h) is not BehaviorKind.CORRECT:
            return
        if (h, suspect) in st.accused:
            return
        st.accused.add((h, suspect))
        st.suspicion.accuse(h, suspect, pid)
        others = [q for q in self._everyone() if q != pid]
        self._send(pid, others, MessageKind.SUSPICION, h, 0, suspect, t)

    def _check_progress(self, pid: ProcessId, h: int, t: SimTime) -> None:
        st = self.procs[pid]
        if h in st.decided:
            return
        committee = self._committee(h)
        member = pid in committee
        behavior = st.spec.behavior_at(h)

        if member and h in st.valid_proposal_seen:
            if behavior is BehaviorKind.CORRECT and h not in st.voted:
                st.voted.add(h)
                self._send(pid, committee, MessageKind.VOTE, h, 0, self._payload(h), t)
            elif behavior is BehaviorKind.BYZANTINE_EQUIVOCATE and h not in st.equivocated:
                st.equivocated.add(h)
                self._equivocate(pid, MessageKind.VOTE, h, 0, t)

        if member and len(st.votes.get(h, ())) >= quorum_size(len(committee)):
            self._decide(pid, h, t)
            return
        senders = st.decision_deliveries.get(h, {})
        if len(senders) >= evidence_threshold(len(committee)):
            self._decide(pid, h, t)

    def _decide(self, pid: ProcessId, h: int, t: SimTime) -> None:
        st = self.procs[pid]
        st.decided[h] = t
        payload = self._payload(h)
        if len(self.chain) < h:
            self._append_block(h, payload)
        elif self.chain.block_at(h).payload_id != payload:
            raise AgreementViolation(f"conflicting decisions at height {h}")

        committee = self._committee(h)
        behavior = st.spec.behavior_at(h)
        if pid in committee and behavior is not BehaviorKind.BYZANTINE_SILENT:
            self._send(pid, self._everyone(), MessageKind.DECISION, h, 0, payload, t)
        self.queue.push(t + st.delta, ("collect", pid, h))

    def _append_block(self, h: int, payload: int) -> None:
        vector = self._pending_reward.get(h, {})
        block = Block(
            height=h,
            committee=self._committee(h),
            rewards_for=h - 1,
            reward_vector=vector,
            payload_id=payload,
            parent_link=self._parent_link(h),
        )
        self.chain.append(block)
        if h >= 2:
            self.matrix.set_row(h - 1, self._committee(h - 1), vector)

    def _on_collect(self, pid: ProcessId, h: int, t: SimTime) -> None:
        st = self.procs[pid]
        committee = self._committee(h)
        st.to_reward[h] = collect_decisions(
            st.decision_deliveries.get(h, {}), st.decided[h], t - st.decided[h], committee
        )
        if self._sync_omission and st.spec.behavior_at(h) is BehaviorKind.CORRECT:
            # with instant delivery, total silence over a height is a
            # detectable omission
            heard = st.any_from.get(h, set())
            for q in committee:
                if q != pid and q not in heard:
                    self._suspect(pid, h, q, t)
        expected = set(committee) - st.suspicion.confirmed(h)
        st.delta = update_delta(
            st.delta,
            st.to_reward[h] & expected,
            expected,
            self.genesis.timeout_policy,
            self.config.delta_increment,
        )
        self.queue.push(t + 1, ("start", pid, h + 1))

    # -- main loop ----------------------------------------------------------

    def _maybe_trigger_gst(self, t: SimTime) -> None:
        m = self.model
        if (
            isinstance(m, EventuallySynchronous)
            and m.gst is None
            and m.gst_height is not None
            and len(self.chain) >= m.gst_height - 1
        ):
            m.gst = t

    def _done(self) -> bool:
        if self.config.stop_mode == "drain":
            return all(
                self.procs[pid].height > self.max_height
                for pid in range(self.population)
                if self._is_always_correct_until(pid, self.max_height)
            ) and len(self.chain) >= self.max_height
        return len(self.chain) >= self.max_height + 1

    def _is_always_correct_until(self, pid: ProcessId, h: int) -> bool:
        spec = self.specs[pid]
        return all(spec.behavior_at(x) is BehaviorKind.CORRECT for x in range(1, h + 1))

    def run(self) -> RunResult:
        self._maybe_trigger_gst(0)
        for pid in range(self.population):
            self.queue.push(0, ("start", pid, 1))
        finished_at = 0
        while True:
            try:
                t, event = self.queue.pop()
            except ExhaustedQueue:
                finished_at = self.queue.clock
                break
            kind = event[0]
            if kind == "msg":
                self._on_msg(event[1], t)
            elif kind == "start":
                self._start_height(event[1], event[2], t)
            elif kind == "round":
                self._on_round(event[1], event[2], event[3], t)
            elif kind == "collect":
                self._on_collect(event[1], event[2], t)
            self._maybe_trigger_gst(t)
            if self._done():
                finished_at = t
                break
        return RunResult(
            chain=self.chain,
            committees=dict(self._committees),
            matrix=self.matrix,
            to_reward={pid: dict(st.to_reward) for pid, st in self.procs.items()},
            decided_at={pid: dict(st.decided) for pid, st in self.procs.items()},
            final_deltas={pid: st.delta for pid, st in self.procs.items()},
            trace=self.trace,
            finished_at=finished_at,
        )


def run_height(
    height: int,
    committee: Sequence[ProcessId],
    model,
    behaviors: Dict[ProcessId, BehaviorKind],
    population: int = None,
    delta: int = 5,
    seed: int = 0,
) -> ConsensusOutcome:
    """Run a single height with a fixed committee and report who decided
    what, when, and what each process collected."""
    if population is None:
        population = max(committee) + 1
    specs = [
        ProcessSpec(
            id=pid,
            merit=0,
            initial_stake=0,
            behavior={height: behaviors.get(pid, BehaviorKind.CORRECT)} if pid in behaviors else {},
        )
        for pid in range(population)
    ]
    genesis = GenesisConfig(
        n=len(committee),
        population=population,
        selection=SelectionMechanismId.SELECT_ALL,
        reward=RewardMechanismId.REWARD_ALL_COMMITTEE,
        initial_stakes={pid: 0 for pid in range(population)},
    )
    if height != 1:
        raise ValueError("single-height runs start from a fresh chain (height 1)")
    engine = SimulationEngine(
        specs,
        genesis,
        model,
        max_height=1,
        seed=seed,
        config=EngineConfig(delta0=delta, stop_mode="drain"),
        committee_override={1: list(committee), 2: list(committee)},
    )
    result = engine.run()
    block = result.chain.block_at(1)
    return ConsensusOutcome(
        height=1,
        payload_id=block.payload_id,
        decided_at={pid: ts[1] for pid, ts in result.decided_at.items() if 1 in ts},
        decision_deliveries={
            pid: dict(engine.procs[pid].decision_deliveries.get(1, {}))
            for pid in range(population)
        },
        to_reward={pid: tr.get(1, set()) for pid, tr in result.to_reward.items()},
    )
