"""The event-driven COMPLETE phase of BW against a literal transcription.

:class:`BWProcess` wakes FIFO-Receive-All threads by ``(origin, path)``,
memoises failed Verify calls on the message-set size and caches passed
Completeness checks (see the :mod:`repro.algorithms.bw` docstring for why
each skip is sound).  :class:`LiteralBW` drops all three: on every
evaluation it re-scans every thread's FIFO-Receive-All condition from the
first path, tests the FIFO-Receive condition of Appendix F by looking up
every earlier counter, and runs Completeness on every eligible announcement
on every Verify.  It keeps the evaluation cadence of the protocol (which
deliveries trigger an evaluation), so both must produce the same execution:
the same per-node state values, decisions and send counts, and the same
number of delivered events.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import (
    CompleteTamperBehavior,
    CrashBehavior,
    EquivocateBehavior,
)
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import BWProcess
from repro.algorithms.completeness import completeness
from repro.algorithms.filter_average import filter_and_average
from repro.algorithms.messages import CompleteMessage
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.generators import complete_digraph, watts_strogatz_bidirected
from repro.network.delays import UniformDelay
from repro.network.node import Context
from repro.network.simulator import Simulator


def literal_verify(node, state, fault_set) -> bool:
    """Function Verify (lines 20-26) as written: Completeness for every
    FIFO-received announcement whose path lies inside ``reach_v(F_v)``."""
    reach = node.topology.reach(node.node_id, fault_set)
    for (origin, announced_set, path), message in state.complete_messages.items():
        if not set(path) <= reach:
            continue
        if not node._fifo_received(origin, path, message.fifo_counter):
            continue
        if not completeness(
            state.message_set, message.value_map(), announced_set, node.topology, node.node_id
        ):
            return False
    return True


class LiteralBW(BWProcess):
    """BW with the COMPLETE phase (Algorithm 1 lines 12-14) re-polled in full."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: (origin, path) → every FIFO counter received that way.
        self._counters_seen: Dict[Tuple, set] = {}

    def _handle_complete(self, sender, message) -> None:
        path = tuple(message.path)
        if not path or path[-1] != sender:
            return
        if self.node_id in path:
            return
        extended = path + (self.node_id,)
        state = self._round_state(message.round)
        self._counters_seen.setdefault((message.origin, extended), set()).add(
            message.fifo_counter
        )
        key = (message.origin, frozenset(message.fault_set), extended)
        if key not in state.complete_messages:
            stored = CompleteMessage(
                round=message.round,
                origin=message.origin,
                fault_set=frozenset(message.fault_set),
                values=message.values,
                fifo_counter=message.fifo_counter,
                path=extended,
            )
            state.complete_messages[key] = stored
        relay_key = (message.origin, message.fifo_counter, path)
        if relay_key not in state.relayed_complete_keys:
            state.relayed_complete_keys.add(relay_key)
            forwarded = CompleteMessage(
                round=message.round,
                origin=message.origin,
                fault_set=message.fault_set,
                values=message.values,
                fifo_counter=message.fifo_counter,
                path=extended,
            )
            members = set(extended)
            self._flood(
                [neighbor for neighbor, _ in self._out_neighbors() if neighbor not in members],
                forwarded,
            )
        if message.round == self.current_round:
            self._evaluate_state(state)

    def _fifo_received(self, origin, path, counter) -> bool:
        if origin == self.node_id:
            return True
        seen = self._counters_seen.get((origin, path), set())
        return all(earlier in seen for earlier in range(1, counter))

    def _evaluate_state(self, state) -> None:
        if state.advanced or not state.started:
            return
        progressed = True
        while progressed and not state.advanced:
            progressed = False
            if self._maybe_flood_completes(state):
                progressed = True
            for fault_set, tracker in state.trackers.items():
                if tracker.complete_sent and not tracker.fifo_received_all:
                    if self._literal_fifo_receive_all(state, fault_set):
                        tracker.fifo_received_all = True
                        progressed = True
            # Value deliveries re-evaluate while a thread is past line 12.
            state.verify_trackers = [
                tracker for tracker in state.trackers.values() if tracker.fifo_received_all
            ]
            for fault_set, tracker in state.trackers.items():
                if tracker.fifo_received_all and literal_verify(self, state, fault_set):
                    result = filter_and_average(state.message_set, self.config.f, self.node_id)
                    self._advance(state.round_index, result)
                    progressed = True
                    break

    def _literal_fifo_receive_all(self, state, fault_set) -> bool:
        paths_by_origin = self.topology.simple_paths_within_reach(self.node_id, fault_set)
        for origin, paths in paths_by_origin.items():
            if origin == self.node_id:
                continue  # the thread fired, so its own COMPLETE is sent
            first = None
            for path in paths:
                message = state.complete_messages.get((origin, fault_set, path))
                if message is None or not self._fifo_received(origin, path, message.fifo_counter):
                    return False
                if first is None:
                    first = message
                elif message.content_key() != first.content_key():
                    return False
        return True


def _run(process_class, graph, policy, behavior_factory, seed):
    config = ConsensusConfig(
        f=1, epsilon=0.25, input_low=0.0, input_high=1.0, path_policy=policy
    )
    topology = TopologyKnowledge(graph, 1, policy)
    nodes = sorted(graph.nodes)
    inputs = {node: index / (len(nodes) - 1) for index, node in enumerate(nodes)}
    processes = {
        node: process_class(node, graph, inputs[node], config, topology=topology)
        for node in nodes
    }
    plan = FaultPlan(frozenset({nodes[-1]}), behavior_factory)
    simulator = Simulator(graph, UniformDelay(0.5, 2.0), seed=seed)
    simulator.add_processes(plan.apply(processes).values())
    honest = [processes[node] for node in nodes[:-1]]
    simulator.run(
        max_events=2_000_000, stop_when=lambda: all(process.decided for process in honest)
    )
    per_node = {
        node: (
            tuple(process.value_history),
            process.decided,
            process.output if process.decided else None,
            process.messages_sent,
        )
        for node, process in processes.items()
    }
    return per_node, simulator.stats.delivered_messages


def _split_brain():
    return EquivocateBehavior({0: 1.0, 1: 0.0}, default_offset=50.0)


#: Small Watts-Strogatz graphs (n, k, beta, seed) and a 5-clique.  ws6-stall
#: and ws7 miss 3-reach for f=1, so Verify fails there: on ws6-stall the
#: honest nodes never finish, on ws7 some threads fail while others pass.  A
#: Verify that fails first and passes later is checked directly by
#: ``test_verify_memo_agrees_with_literal_verify_as_values_arrive``.
GRAPHS = {
    "ws6": lambda: watts_strogatz_bidirected(6, 4, 0.2, seed=2),
    "ws6-stall": lambda: watts_strogatz_bidirected(6, 4, 0.7, seed=3),
    "ws7": lambda: watts_strogatz_bidirected(7, 4, 0.7, seed=2),
    "ws8": lambda: watts_strogatz_bidirected(8, 4, 0.2, seed=2),
    "clique5": lambda: complete_digraph(5),
}


def _tamper():
    return CompleteTamperBehavior(-500.0)


CELLS = [
    ("ws6", "simple", _split_brain),
    ("ws6-stall", "simple", _tamper),
    ("ws7", "simple", _split_brain),
    ("ws7", "simple", _tamper),
    ("ws8", "simple", CrashBehavior),
    ("ws8", "simple", _tamper),
    ("clique5", "redundant", _split_brain),
    ("clique5", "redundant", _tamper),
]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "graph_name,policy,behavior",
    CELLS,
    ids=[f"{name}-{behavior.__name__.strip('_')}" for name, _, behavior in CELLS],
)
def test_event_driven_matches_literal(graph_name, policy, behavior, seed):
    graph = GRAPHS[graph_name]()
    factory = lambda node: behavior()  # noqa: E731 - one fresh behaviour per faulty node
    fast = _run(BWProcess, graph, policy, factory, seed)
    literal = _run(LiteralBW, graph, policy, factory, seed)
    assert fast == literal


CLIQUE4 = complete_digraph(4)
CLIQUE4_CONFIG = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)
CLIQUE4_TOPOLOGY = TopologyKnowledge(CLIQUE4, 1, "redundant")


def _unwired_node(node_id=0):
    """A 4-clique BW node bound to a context that discards its sends."""
    node = BWProcess(node_id, CLIQUE4, 0.5, CLIQUE4_CONFIG, topology=CLIQUE4_TOPOLOGY)
    node.bind(
        Context(
            node_id,
            CLIQUE4.successors(node_id),
            CLIQUE4.predecessors(node_id),
            send=lambda sender, receiver, payload: None,
            set_timer=lambda target, delay, tag: None,
            clock=lambda: 0.0,
        )
    )
    return node


def _blocked_node():
    """A node whose thread for ``{3}`` fired and now waits on its first
    FIFO-Receive-All entry (no COMPLETE has arrived yet), with every
    FIFO-Receive-All scan recorded in ``node.scanned``."""
    node = _unwired_node()
    node.on_start()
    state = node._rounds[0]
    tracker = state.trackers[frozenset({3})]
    tracker.complete_sent = True
    node._fifo_woken.append(tracker)
    node._evaluate_state(state)
    node.scanned = []
    scan = node._fifo_receive_all_satisfied

    def recording_scan(scanned_state, woken):
        node.scanned.append(woken)
        return scan(scanned_state, woken)

    node._fifo_receive_all_satisfied = recording_scan
    return node, tracker


def _complete_on(node, tracker, link, counter, round_index=0):
    """Deliver a COMPLETE for ``tracker``'s fault set on ``link``."""
    origin, extended = link
    path = extended[:-1]
    node.on_message(
        path[-1],
        CompleteMessage(
            round=round_index,
            origin=origin,
            fault_set=tracker.fault_set,
            values=((0, 0.5),),
            fifo_counter=counter,
            path=path,
        ),
    )


def test_blocked_tracker_is_woken_only_by_its_own_link():
    node, tracker = _blocked_node()
    link = tracker.fifo_entries[tracker.scan_pos][0]
    assert node._fifo_waiters[link] == [tracker]
    # Deliveries on every other link of the thread's wait list leave it parked.
    others = [entry[0] for entry in tracker.fifo_entries if entry[0] != link]
    assert others
    for other in others:
        _complete_on(node, tracker, other, 1)
    assert node.scanned == []
    assert node._fifo_waiters[link] == [tracker]
    # A delivery on its own link wakes it, and it scans past that entry.
    position = tracker.scan_pos
    _complete_on(node, tracker, link, 1)
    assert node.scanned == [tracker]
    assert tracker.scan_pos > position


def test_counter_from_another_round_wakes_the_thread():
    node, tracker = _blocked_node()
    link = tracker.fifo_entries[tracker.scan_pos][0]
    position = tracker.scan_pos
    # Stored, but counter 1 is still missing on the link: parked again.
    _complete_on(node, tracker, link, 2)
    assert node.scanned == [tracker]
    assert tracker.scan_pos == position
    assert node._fifo_waiters[link] == [tracker]
    # Counter 1 arrives in a round-1 announcement.  The counter prefix is
    # shared across rounds, so the round-0 thread is woken; it is scanned at
    # the next round-0 evaluation.
    _complete_on(node, tracker, link, 1, round_index=1)
    assert node._fifo_woken == [tracker]
    assert node.scanned == [tracker]
    node._evaluate_state(node._rounds[0])
    assert node.scanned == [tracker, tracker]
    assert tracker.scan_pos > position


def test_verify_memo_agrees_with_literal_verify_as_values_arrive(monkeypatch):
    # Round 0 of node 0 in a fault-free 4-clique run: its announcements and
    # value messages, replayed into a fresh node one value at a time.
    processes = {
        node: BWProcess(node, CLIQUE4, node / 3, CLIQUE4_CONFIG, topology=CLIQUE4_TOPOLOGY)
        for node in CLIQUE4.nodes
    }
    simulator = Simulator(CLIQUE4, UniformDelay(0.5, 2.0), seed=3)
    simulator.add_processes(processes.values())
    simulator.run(max_events=200_000)
    done = processes[0]._rounds[0]

    node = _unwired_node()
    state = node._round_state(0)
    state.complete_messages.update(done.complete_messages)
    node._complete_paths.update(processes[0]._complete_paths)
    node._fifo_prefix.update(processes[0]._fifo_prefix)
    calls = []
    monkeypatch.setattr(
        "repro.algorithms.bw.completeness",
        lambda *args: calls.append(args) or completeness(*args),
    )
    flips = 0
    for tracker in state.trackers.values():
        state.message_set = type(state.message_set)(codec=node._codec)
        state.completeness_passed.clear()
        tracker.verify_failed_at = -1
        verdicts = []
        for value, path in done.message_set:
            state.message_set.add(value, path)
            expected = literal_verify(node, state, tracker.fault_set)
            assert node._verify(state, tracker) == expected
            calls.clear()
            # Unchanged message set: a failed Verify fails again for free.
            assert node._verify(state, tracker) == expected
            if not expected:
                assert calls == []
            verdicts.append(expected)
        flips += verdicts.count(False) > 0 and verdicts[-1]
    assert flips > 0
