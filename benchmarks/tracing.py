"""Span tracer for the fairsim benchmark.

The tracer wraps public functions of each fairsim module at the place they
are called from, so the program itself is unchanged. Every wrapped call is
timed; its self time is its duration minus the time spent in wrapped calls
below it. Coarse calls (the CLI, harness steps, the engine, the analyzer,
chain encoding) are kept as spans: name, start, end, parent span,
replication id. Hot leaf calls (committee selection, delay draws, queue
operations, reward and suspicion bookkeeping) call nothing traced; they are
only counted and timed into their parent, which keeps memory flat however
many messages a run delivers.

A layer is a fairsim module; the first part of a call name is its layer.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

LAYERS = ("selection", "network", "consensus", "reward", "fairness", "harness", "core", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, name, start, end, parent id, rep, iteration)
        self.iteration = 0
        self.rep: Optional[int] = None
        # open spans: [seconds spent in traced calls below, span id]
        self.stack: List[list] = []
        self.stats: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts: Counter = Counter()
        self.queue_peak = 0

    def reset(self) -> None:
        """Clear the per-iteration statistics (spans are kept)."""
        self.stats.clear()
        self.counts.clear()
        self.queue_peak = 0

    def span(self, name: str, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1][1] if stack else None
        span_id = len(self.spans)
        self.spans.append(None)  # filled in on exit, so ids follow start order
        frame = [0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            st = self.stats[name]
            st[0] += 1
            st[1] += duration
            st[2] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            self.spans[span_id] = (span_id, name, start, end, parent, self.rep, self.iteration)

    def leaf(self, name: str, fn, after=None):
        """Wrapper for a hot call that calls nothing traced."""
        stack = self.stack
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                st = stats[name]
                st[0] += 1
                st[1] += duration
                st[2] += duration
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def layer_self(self, layer: str) -> float:
        return sum((st[2] for name, st in self.stats.items() if name.split(".")[0] == layer), 0.0)

    def spans_json(self, origin: float) -> List[Dict]:
        return [
            {
                "id": sid,
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "rep": rep,
                "iteration": it,
            }
            for sid, name, start, end, parent, rep, it in self.spans
        ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch the fairsim call sites to go through ``tracer``; undo on exit."""
    from fairsim import cli, consensus, harness, network, reward, selection

    saved = []

    def replace(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, after=None):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        replace(owner, attr, wrapper)

    def leaf(owner, attr, name, after=None):
        replace(owner, attr, tracer.leaf(name, getattr(owner, attr), after))

    counts = tracer.counts

    def on_pop(result, args):
        event = result[1]
        counts["events." + event[0]] += 1
        if event[0] == "msg":
            counts["msgs." + event[1].kind.value] += 1

    def on_push(result, args):
        size = len(args[0])
        if size > tracer.queue_peak:
            tracer.queue_peak = size

    def run_replication(scenario, rep, *args, **kwargs):
        tracer.rep = rep
        try:
            return tracer.span("harness.run_replication", orig_run_replication, (scenario, rep) + args, kwargs)
        finally:
            tracer.rep = None

    # harness; cli and harness both import parse_scenario by name
    span(cli, "parse_scenario", "harness.parse")
    span(harness, "parse_scenario", "harness.parse")
    span(cli, "run_scenario", "harness.run_scenario")
    orig_run_replication = harness.run_replication
    replace(harness, "run_replication", run_replication)
    span(harness, "compute_aggregate", "harness.aggregate")
    span(harness, "write_outputs", "harness.write_outputs")
    span(cli, "regrade_output_dir", "harness.regrade")
    # fairness and core, where harness calls them
    span(harness, "build_report", "fairness.build_report",
         after=lambda r, a: counts.update({"heights_graded": len(r.grades)}))
    span(harness, "chain_to_jsonl", "core.chain_to_jsonl",
         after=lambda r, a: counts.update({"chain_bytes": len(r)}))
    span(harness, "chain_from_jsonl", "core.chain_from_jsonl")
    # consensus
    span(consensus.SimulationEngine, "run", "consensus.engine",
         after=lambda r, a: counts.update({"sim_ticks": r.finished_at}))
    # selection
    span(cli, "run_selection_experiment", "selection.run_experiment")
    leaf(selection.SelectionState, "committee", "selection.committee")
    # network; consensus imports assign_delay by name
    leaf(consensus, "assign_delay", "network.assign_delay")
    leaf(network.EventQueue, "push", "network.queue_push", after=on_push)
    leaf(network.EventQueue, "pop", "network.queue_pop", after=on_pop)
    # reward; consensus imports allocate by name
    leaf(consensus, "allocate", "reward.allocate")
    leaf(reward.SuspicionState, "confirmed", "reward.confirmed")
    leaf(reward.SuspicionState, "accuse", "reward.accuse")
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (names as in BENCHMARK.json)."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name: str) -> int:
        return stats[name][0] if name in stats else 0

    def busy(name: str) -> float:
        return stats[name][1] if name in stats else 0.0

    def us_per(seconds: float, n: int) -> float:
        return seconds / n * 1e6 if n else 0.0

    m = {
        "selection.committee_calls": calls("selection.committee"),
        "selection.committee_s": busy("selection.committee"),
        "selection.us_per_committee": us_per(busy("selection.committee"), calls("selection.committee")),
        "network.assign_delay_calls": calls("network.assign_delay"),
        "network.assign_delay_s": busy("network.assign_delay"),
        "network.queue_pushes": calls("network.queue_push"),
        "network.queue_pops": calls("network.queue_pop"),
        "network.queue_s": busy("network.queue_push") + busy("network.queue_pop"),
        "network.queue_peak_len": tracer.queue_peak,
        "consensus.engine_s": busy("consensus.engine"),
        "consensus.us_per_delivery": us_per(busy("consensus.engine"), counts["events.msg"]),
        "consensus.sim_ticks": counts["sim_ticks"],
        "reward.confirmed_calls": calls("reward.confirmed"),
        "reward.confirmed_s": busy("reward.confirmed"),
        "reward.allocate_calls": calls("reward.allocate"),
        "reward.allocate_s": busy("reward.allocate"),
        "reward.accuse_calls": calls("reward.accuse"),
        "reward.accuse_s": busy("reward.accuse"),
        "fairness.build_report_calls": calls("fairness.build_report"),
        "fairness.build_report_s": busy("fairness.build_report"),
        "fairness.heights_graded": counts["heights_graded"],
        "harness.parse_s": busy("harness.parse"),
        "harness.run_replication_s": busy("harness.run_replication"),
        "harness.aggregate_s": busy("harness.aggregate"),
        "harness.write_outputs_s": busy("harness.write_outputs"),
        "harness.regrade_s": busy("harness.regrade"),
        "core.chain_to_jsonl_s": busy("core.chain_to_jsonl"),
        "core.chain_from_jsonl_s": busy("core.chain_from_jsonl"),
        "core.chain_bytes": counts["chain_bytes"],
    }
    for kind in ("msg", "start", "round", "collect"):
        m[f"consensus.events.{kind}"] = counts["events." + kind]
    for kind in ("propose", "vote", "decision", "suspicion"):
        m[f"consensus.msgs.{kind}"] = counts["msgs." + kind]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self(layer)
    return m


# Simulated statistics: identical on every iteration of one seed.
SIMULATED = tuple(
    [f"consensus.events.{k}" for k in ("msg", "start", "round", "collect")]
    + [f"consensus.msgs.{k}" for k in ("propose", "vote", "decision", "suspicion")]
    + ["consensus.sim_ticks", "fairness.heights_graded"]
)
