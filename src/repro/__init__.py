"""repro — Asynchronous Byzantine Approximate Consensus in Directed Networks.

A from-scratch Python reproduction of Sakavalas, Tseng and Vaidya (PODC 2020):
the Byzantine-Witness algorithm (Algorithm 1) with its Filter-and-Average
value update, the full k-reach / CCS / CCA / BCS condition family, an
asynchronous message-passing simulator with a Byzantine adversary, the
baselines the paper builds on, and an experiment harness regenerating every
table, figure and quantitative claim of the paper.

Quickstart
----------
>>> from repro import quick_consensus
>>> from repro.graphs import complete_digraph
>>> graph = complete_digraph(4)
>>> outcome = quick_consensus(graph, {0: 0.0, 1: 0.25, 2: 0.75, 3: 1.0},
...                           f=1, epsilon=0.1, faulty_nodes={3})
>>> outcome.epsilon_agreement and outcome.validity
True

The curated, versioned import surface is :mod:`repro.api` — sweep grids,
the scenario-file loaders, artifact helpers, and the plugin registries
(register a custom topology family, Byzantine behaviour, placement,
algorithm or delay model by name and sweep it like the built-ins)::

    from repro.api import API_VERSION, ExperimentSession, GridSpec, TOPOLOGIES

See ``examples/`` for richer scenarios and ``benchmarks/`` for the
table/figure reproductions.
"""

from typing import Dict, Hashable, Iterable, Optional

from repro.adversary.adversary import FaultPlan, no_faults
from repro.adversary.behaviors import FixedValueBehavior
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.bw import BWProcess, create_bw_processes
from repro.algorithms.topology import TopologyKnowledge
from repro.conditions.reach_conditions import (
    check_k_reach,
    check_one_reach,
    check_three_reach,
    check_two_reach,
)
from repro.graphs.digraph import DiGraph
from repro.runner.experiment import run_bw_experiment
from repro.runner.metrics import ConsensusOutcome

__version__ = "1.0.0"

__all__ = [
    "ConsensusConfig",
    "ConsensusOutcome",
    "BWProcess",
    "DiGraph",
    "FaultPlan",
    "TopologyKnowledge",
    "check_k_reach",
    "check_one_reach",
    "check_two_reach",
    "check_three_reach",
    "create_bw_processes",
    "no_faults",
    "quick_consensus",
    "run_bw_experiment",
    "__version__",
]


def quick_consensus(
    graph: DiGraph,
    inputs: Dict[Hashable, float],
    f: int,
    epsilon: float,
    faulty_nodes: Optional[Iterable[Hashable]] = None,
    byzantine_value: float = 1e6,
    seed: int = 0,
    path_policy: str = "redundant",
) -> ConsensusOutcome:
    """One-call convenience wrapper: run the Byzantine-Witness algorithm once.

    The faulty nodes (if any) lie with a fixed extreme value — the classical
    attack against averaging.  For full control over behaviours, delays and
    placement use :func:`repro.runner.run_bw_experiment` directly.
    """
    low = min(inputs.values())
    high = max(inputs.values())
    config = ConsensusConfig(
        f=f,
        epsilon=epsilon,
        input_low=low,
        input_high=high,
        path_policy=path_policy,
    )
    plan = (
        FaultPlan(frozenset(faulty_nodes), lambda node: FixedValueBehavior(byzantine_value))
        if faulty_nodes
        else no_faults()
    )
    return run_bw_experiment(graph, inputs, config, fault_plan=plan, seed=seed)
