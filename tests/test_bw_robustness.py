"""Additional robustness tests for the Byzantine-Witness algorithm.

These go beyond the canonical behaviours of ``test_bw_algorithm.py``:
mid-execution crashes, asymmetric silence, message duplication, multiple
epsilon regimes, FIFO versus non-FIFO links, and determinism of the whole
stack for a fixed seed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary.adversary import FaultPlan
from repro.adversary.behaviors import (
    ByzantineBehavior,
    CrashAfterBehavior,
    HonestBehavior,
    ReplayBehavior,
    SelectiveSilenceBehavior,
)
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import create_bw_processes
from repro.algorithms.messages import CompleteMessage, ValueMessage
from repro.algorithms.topology import TopologyKnowledge
from repro.graphs.generators import complete_digraph
from repro.network.delays import UniformDelay
from repro.network.simulator import Simulator
from repro.runner.experiment import run_bw_experiment


GRAPH = complete_digraph(4)
TOPOLOGY = TopologyKnowledge(GRAPH, 1, "redundant")
INPUTS = {0: 0.0, 1: 1.0, 2: 0.35, 3: 0.65}
CONFIG = ConsensusConfig(f=1, epsilon=0.25, input_low=0.0, input_high=1.0)


def run_with(behavior_factory, faulty=3, seed=1, config=CONFIG, delay=None):
    plan = FaultPlan(frozenset({faulty}), behavior_factory)
    return run_bw_experiment(
        GRAPH, INPUTS, config, plan, seed=seed, topology=TOPOLOGY,
        delay_model=delay,
    )


class TestUnusualBehaviours:
    def test_crash_after_some_sends(self):
        outcome = run_with(lambda node: CrashAfterBehavior(honest_sends=5))
        assert outcome.correct

    def test_tampered_complete_announcements(self):
        # The adversary attacks the witness machinery itself: it forges the
        # value maps inside its COMPLETE announcements.  The Completeness
        # condition prevents honest nodes from acting on announcements whose
        # values cannot be confirmed through uncoverable path sets, so
        # Definition 1 still holds.
        from repro.adversary.behaviors import CompleteTamperBehavior

        outcome = run_with(lambda node: CompleteTamperBehavior(-500.0))
        assert outcome.correct

    def test_selective_silence_towards_one_victim(self):
        outcome = run_with(lambda node: SelectiveSilenceBehavior(silent_towards=[0]))
        assert outcome.correct

    def test_replaying_adversary_does_not_break_deduplication(self):
        outcome = run_with(lambda node: ReplayBehavior(copies=3))
        assert outcome.correct

    def test_faulty_node_behaving_honestly(self):
        outcome = run_with(lambda node: HonestBehavior())
        assert outcome.correct
        # An honest "fault" keeps every node inside the global input range.
        assert all(0.0 <= value <= 1.0 for value in outcome.outputs.values())


class TestEpsilonRegimes:
    @pytest.mark.parametrize("epsilon,expected_rounds", [(0.6, 1), (0.3, 2), (0.06, 5)])
    def test_round_count_scales_with_epsilon(self, epsilon, expected_rounds):
        config = ConsensusConfig(f=1, epsilon=epsilon, input_low=0.0, input_high=1.0)
        outcome = run_with(lambda node: CrashAfterBehavior(3), config=config)
        assert outcome.rounds == expected_rounds == config.rounds_needed()
        assert outcome.correct

    def test_tiny_epsilon_still_converges(self):
        config = ConsensusConfig(f=1, epsilon=0.01, input_low=0.0, input_high=1.0)
        outcome = run_with(lambda node: SelectiveSilenceBehavior([1]), config=config)
        assert outcome.correct
        assert outcome.output_range < 0.01


class TestDeterminismAndNetworkVariants:
    def test_fixed_seed_reproduces_outputs_exactly(self):
        first = run_with(lambda node: CrashAfterBehavior(2), seed=123)
        second = run_with(lambda node: CrashAfterBehavior(2), seed=123)
        assert first.outputs == second.outputs
        assert first.messages_delivered == second.messages_delivered

    def test_different_seeds_still_correct(self):
        for seed in (5, 6, 7):
            assert run_with(lambda node: CrashAfterBehavior(2), seed=seed).correct

    def test_fifo_links_do_not_change_correctness(self):
        from repro.adversary.behaviors import EquivocateBehavior
        from repro.network.simulator import Simulator
        from repro.algorithms.bw import create_bw_processes

        processes = create_bw_processes(GRAPH, INPUTS, CONFIG, topology=TOPOLOGY)
        plan = FaultPlan(frozenset({3}), lambda node: EquivocateBehavior({0: -3.0, 1: 3.0}))
        wrapped = plan.apply(processes)
        simulator = Simulator(GRAPH, UniformDelay(0.5, 2.0), seed=2, fifo_links=True)
        simulator.add_processes(wrapped.values())
        simulator.run(max_events=2_000_000)
        outputs = [processes[node].output for node in (0, 1, 2)]
        assert all(value is not None for value in outputs)
        assert max(outputs) - min(outputs) < CONFIG.epsilon

    def test_extreme_delay_spread(self):
        outcome = run_with(
            lambda node: CrashAfterBehavior(4),
            delay=UniformDelay(0.01, 50.0),
            seed=9,
        )
        assert outcome.correct


class MalformedFaultSetBehavior(ByzantineBehavior):
    """Relay honestly, but give every COMPLETE announcement an ``int`` fault set."""

    def on_send(self, sender, receiver, payload, rng):
        if isinstance(payload, CompleteMessage):
            return [dataclasses.replace(payload, fault_set=7)]
        return [payload]


class ForgedRoundsBehavior(ByzantineBehavior):
    """Relay honestly, and on the first send to each neighbour add ``count``
    VALUE and COMPLETE messages for rounds outside ``[0, total_rounds)``."""

    def __init__(self, total_rounds, count=1000):
        self.total_rounds = total_rounds
        self.count = count
        self.forged_towards = set()

    def on_send(self, sender, receiver, payload, rng):
        if receiver in self.forged_towards:
            return [payload]
        self.forged_towards.add(receiver)
        rounds = [self.total_rounds + index for index in range(self.count - 4)]
        rounds += [-1, 1.0, True, "0"]
        forged = []
        for round_index in rounds:
            forged.append(ValueMessage(round=round_index, value=0.5, path=(sender,)))
            forged.append(
                CompleteMessage(
                    round=round_index,
                    origin=sender,
                    fault_set=frozenset(),
                    values=((sender, 0.5),),
                    fifo_counter=1,
                    path=(sender,),
                )
            )
        return [payload] + forged


def run_processes(behavior, faulty=3, seed=1):
    """Run BW on ``GRAPH`` with one faulty node; return the honest processes."""
    processes = create_bw_processes(GRAPH, INPUTS, CONFIG, topology=TOPOLOGY)
    plan = FaultPlan(frozenset({faulty}), lambda node: behavior)
    simulator = Simulator(GRAPH, UniformDelay(0.5, 2.0), seed=seed)
    simulator.add_processes(plan.apply(processes).values())
    simulator.run(max_events=2_000_000)
    return [process for node, process in processes.items() if node != faulty]


def assert_correct(honest):
    outputs = [process.output for process in honest]
    assert all(process.decided for process in honest)
    assert max(outputs) - min(outputs) < CONFIG.epsilon
    honest_inputs = [INPUTS[process.node_id] for process in honest]
    assert all(min(honest_inputs) <= value <= max(honest_inputs) for value in outputs)


class TestMalformedPayloads:
    def test_complete_with_int_fault_set_is_dropped(self):
        # ``frozenset(7)`` raised TypeError inside the handler and ended the
        # cell; the payload is now dropped like any other malformed message.
        honest = run_processes(MalformedFaultSetBehavior())
        assert_correct(honest)

    def test_forged_rounds_allocate_no_round_state(self):
        total_rounds = CONFIG.rounds_needed()
        honest = run_processes(ForgedRoundsBehavior(total_rounds))
        assert_correct(honest)
        for process in honest:
            assert len(process._rounds) <= total_rounds
            assert set(process._rounds) <= set(range(total_rounds))
