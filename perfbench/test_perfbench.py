"""Tests of the benchmark's own code: span arithmetic, the failure rule and
that tracing leaves every cell's result unchanged.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import layer_tracer
import workloads
from repro.network.simulator import Simulator
from repro.registry import BITSET_BACKENDS
from repro.runner import scenarios
from repro.runner.harness import CellResult, GridSpec, TopologySpec


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_child_spans_on_a_nested_tree():
    # root [0, 10] -> a [1, 4] -> leaf [2, 3]; root -> b [5, 9];
    # then a second, childless "a" [20, 22].
    tracer = layer_tracer.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10, 20, 22]))
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("leaf")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("a")
    tracer.exit()

    assert tracer.spans["leaf"] == [1, 1, 1]
    assert tracer.spans["a"] == [2, 3 + 2, (3 - 1) + 2]
    assert tracer.spans["b"] == [1, 4, 4]
    assert tracer.spans["root"] == [1, 10, 10 - 3 - 4]
    # Self times partition the traced time: root's span plus the later "a".
    assert sum(stat[2] for stat in tracer.spans.values()) == 10 + 2


def _bw_result(**changes) -> CellResult:
    fields = dict(
        index=0,
        algorithm="bw",
        topology="clique(n=4)",
        n=4,
        f=1,
        behavior="crash",
        placement="random",
        seed=1,
        derived_seed=7,
        success=True,
        output_range=0.1,
        rounds=3,
        messages=1200,
        metrics={"epsilon_agreement": True, "validity": True, "termination": True},
    )
    fields.update(changes)
    return CellResult(**fields)


def test_failure_rule_flags_deliberately_wrong_results():
    good = _bw_result()
    assert workloads.cell_failures(good, True, workloads.outcome(good)) == []

    disagreeing = _bw_result(
        success=False,
        metrics={"epsilon_agreement": False, "validity": True, "termination": True},
    )
    assert workloads.cell_failures(disagreeing, True, None)
    # Without 3-reach BW owes no guarantee, so only the reference catches it.
    assert workloads.cell_failures(disagreeing, False, None) == []
    assert workloads.cell_failures(disagreeing, False, workloads.outcome(good))

    assert workloads.cell_failures(_bw_result(messages=1201), True, workloads.outcome(good))
    raised = _bw_result(metrics={"error": "Traceback\nValueError: x"})
    assert workloads.cell_failures(raised, None, None)
    capped = _bw_result(messages=workloads.DEFAULT_MAX_EVENTS)
    assert workloads.cell_failures(capped, None, None)

    check = CellResult(
        index=0, algorithm="check-reach", topology="g", n=7, f=1, behavior="-",
        placement="-", seed=1, derived_seed=3, success=True,
        metrics={"reach_1": True, "reach_2": False, "reach_3": True},
    )
    assert workloads.cell_failures(check, None, None)
    check.metrics["reach_2"] = True
    assert workloads.cell_failures(check, None, None) == []


def _tiny_bw_grid(seed):
    return GridSpec(
        name=f"perfbench-test-bw-{seed}",
        algorithms=("bw",),
        topologies=(TopologySpec.make("clique", n=4),),
        f_values=(1,),
        behaviors=("crash", "equivocate"),
        placements=("random",),
        seeds=(1, 2),
        epsilon=0.25,
        path_policy="redundant",
    )


def _tiny_check_grid(seed):
    return GridSpec(
        name=f"perfbench-test-check-{seed}",
        algorithms=("check-reach",),
        topologies=(TopologySpec.make("random-digraph", n=6, p=0.5, seed="cell"),),
        f_values=(1,),
        behaviors=("-",),
        placements=("-",),
        seeds=tuple(range(1, 21)),
    )


def _cell_bytes(results) -> str:
    return json.dumps([result.as_dict() for result in results], sort_keys=True)


def test_traced_rounds_yield_the_untraced_cell_results(tmp_path):
    originals = (Simulator.run, Simulator.add_process, scenarios.run_cell)
    tracers = {}
    for workload in (
        workloads.Workload("tiny-bw", _tiny_bw_grid),
        workloads.Workload("tiny-check", _tiny_check_grid, journaled=True),
    ):
        tracer = tracers[workload.name] = layer_tracer.Tracer()
        record = workloads.run_workload(
            workload, 3, 0.0, workers=1, scratch=tmp_path, tracer=tracer
        )
        assert [round_.traced for round_ in record.rounds] == [False, True, False]
        untraced, traced, _ = record.rounds
        assert _cell_bytes(traced.results) == _cell_bytes(untraced.results)
        assert tracer.calls("runner.cell") == len(untraced.results)
        assert all(round_.failures == [] for round_ in record.rounds)

    assert tracers["tiny-bw"].calls("algorithms.bw.value") > 0
    assert tracers["tiny-bw"].calls("adversary.on_message") > 0
    assert tracers["tiny-check"].calls("conditions.check_three_reach") == 20
    assert tracers["tiny-check"].calls("store.ingest") == 1
    # Uninstalling puts every patched attribute back.
    assert (Simulator.run, Simulator.add_process, scenarios.run_cell) == originals
    for name in BITSET_BACKENDS.names():
        assert not set(layer_tracer.BITSET_KERNELS) & set(vars(BITSET_BACKENDS.get(name)))
