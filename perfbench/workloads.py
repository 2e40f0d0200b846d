"""The benchmark's workloads, the run loop and the per-cell correctness rule.

A workload is one grid built from the run's seed.  One *round* runs it
through :class:`~repro.runner.session.ExperimentSession` the way
``python -m repro.runner run`` runs a scenario: expand the grid, warm the
worker caches, stream the cells, fold and write the artifact.  A run repeats
identical rounds for ``--seconds`` and reports medians over the rounds: a
shared machine's speed swings by up to 2x in bursts of a few seconds, and a
median over rounds shrugs off all but the longest bursts.

:func:`child_main` is the entry of the fresh process that runs one workload
(``perfbench/child.py``); ``perfbench/run.py`` starts those processes and
turns what they report into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import json
import multiprocessing
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.conditions.reach_conditions import check_three_reach
from repro.runner import scenarios
from repro.runner.experiment import DEFAULT_MAX_EVENTS
from repro.runner.harness import CellResult, GridSpec, SweepCell, TopologySpec
from repro.runner.journal import journal_path, spec_digest
from repro.runner.session import CellCompleted, ExperimentSession, MaxCellsPolicy
from repro.runner.worker_cache import clear_worker_caches, warm_worker_caches
from repro.store.store import ResultsStore

import layer_tracer

#: The seed whose outcomes the committed references record.
DEFAULT_SEED = 1

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    """One named grid plus how the session runs it (``BENCHMARK.json``
    records why each workload was chosen).

    ``grid(seed)`` builds one round's grid.  ``workers`` is the session's
    pool size; a traced run is always serial because spans are recorded in
    one process.  A ``journaled`` workload journals every cell, then
    ingests the journal into a fresh results store and queries it.
    """

    name: str
    grid: Callable[[int], GridSpec]
    workers: int = 1
    journaled: bool = False


#: Every run has at least this many rounds, however long they take.
MIN_ROUNDS = 3


def _bw_flood_grid(seed: int) -> GridSpec:
    # The bw_clique5 hot-path probe; a round takes ~1.4 s.
    return GridSpec(
        name=f"perfbench-bw-flood-{seed}",
        algorithms=("bw",),
        topologies=(TopologySpec.make("clique", n=5),),
        f_values=(1,),
        behaviors=("crash", "fixed-high"),
        placements=("random",),
        seeds=(1, 2),
        epsilon=0.25,
        path_policy="redundant",
    )


#: Bidirected Watts-Strogatz n=8 k=4 samples, as ``(beta, graph seed)``.
#: ``phase_smallworld``'s n=12 cells take 16-73 s each, too long for a run,
#: so the workload keeps the family, policy and behaviour at n=8.  With the
#: Byzantine node placed last, the first three run ~57% COMPLETE deliveries
#: and the fourth is a slow-tail cell: 66% COMPLETE at ~1.7x the cost per
#: delivery.  Under random placement a cell's cost swings with the faulty
#: node, so one seed's draw would set the whole run; here the seed draws
#: the delays only.
BW_COMPLETE_GRAPHS = ((0.0, 1), (0.2, 1), (0.9, 1), (0.7, 2))


def _bw_complete_grid(seed: int) -> GridSpec:
    # A round takes ~8 s.  Three seeds per graph, because a seed's delays
    # alone move a BW cell's cost here by up to ~10%.
    return GridSpec(
        name=f"perfbench-bw-complete-{seed}",
        algorithms=("bw",),
        topologies=tuple(
            TopologySpec.make("watts-strogatz-bidirected", n=8, k=4, beta=beta, seed=graph_seed)
            for beta, graph_seed in BW_COMPLETE_GRAPHS
        ),
        f_values=(1,),
        behaviors=("equivocate",),
        placements=("last",),
        seeds=(1, 2, 3),
        epsilon=0.25,
        path_policy="simple",
    )


def _check_large_grid(seed: int) -> GridSpec:
    # The f=2 cells of the ``scaling`` full grid but its n=32 two-cliques
    # cell, which alone takes ~7 s: a round takes ~2.6 s, so a run has ~8
    # rounds to take a median over (three 10-s rounds could not outlast the
    # machine's speed bursts).  Both backends still run (numpy at n>=24).
    # The seed does not change the cells: a 3-reach check costs 0.1-7 s on
    # a resampled random-k-out n=32 graph depending on its verdict.
    bridges = {"backward_bridges": 5, "forward_bridges": 5}
    return GridSpec(
        name=f"perfbench-check-large-{seed}",
        algorithms=("check-reach",),
        topologies=tuple(
            TopologySpec.make("two-cliques", clique_size=size, **bridges) for size in (8, 12)
        )
        + tuple(TopologySpec.make("random-k-out", k=10, n=n, seed=7) for n in (16, 24, 32)),
        f_values=(2,),
        behaviors=("-",),
        placements=("-",),
        seeds=(0,),
    )


#: Edge probabilities of the n=7 random digraphs; they split the f=1
#: verdicts about evenly between none, 1-, 2- and 3-reach.
SWEEP_SMALL_P = (0.3, 0.45, 0.6, 0.75)


def _sweep_small_grid(seed: int) -> GridSpec:
    # 8000 cells, a round takes ~3 s at 2 workers.
    return GridSpec(
        name=f"perfbench-sweep-small-{seed}",
        algorithms=("check-reach",),
        topologies=tuple(
            TopologySpec.make("random-digraph", n=7, p=p, seed="cell") for p in SWEEP_SMALL_P
        ),
        f_values=(1,),
        behaviors=("-",),
        placements=("-",),
        seeds=tuple(range(1, 2001)),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("bw-flood", _bw_flood_grid),
        Workload("bw-complete", _bw_complete_grid),
        Workload("check-large", _check_large_grid),
        Workload("sweep-small", _sweep_small_grid, workers=2, journaled=True),
    )
}


# ----------------------------------------------------------------------
# the guarded cell runner
# ----------------------------------------------------------------------
# Module globals because pool workers are forked and call the runner by its
# import path: they inherit both, and stamp the shared first-dispatch time.
_inner_run_cell: Optional[Callable[[GridSpec, SweepCell], CellResult]] = None
_first_dispatch = None


def _guarded_run_cell(spec: GridSpec, cell: SweepCell) -> CellResult:
    """The engine's cell runner, stamping the first dispatch and turning an
    exception into a failed cell so one bad cell does not end the run."""
    if _first_dispatch.value == 0.0:
        _first_dispatch.value = time.perf_counter()
    try:
        return _inner_run_cell(spec, cell)
    except Exception:  # reported per cell by cell_failures
        return CellResult(
            index=cell.index,
            algorithm=cell.algorithm,
            topology=cell.topology.label,
            n=0,
            f=cell.f,
            behavior=cell.behavior,
            placement=cell.placement,
            seed=cell.seed,
            derived_seed=cell.derived_seed,
            success=False,
            metrics={"error": traceback.format_exc()},
        )


@contextlib.contextmanager
def _span(tracer: Optional[layer_tracer.Tracer], name: str) -> Iterator[None]:
    if tracer is None:
        yield
        return
    tracer.enter(name)
    try:
        yield
    finally:
        tracer.exit()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
Outcome = Tuple[bool, int, int, Optional[float]]


def outcome(result: CellResult) -> Outcome:
    """The per-cell fields the references pin."""
    return (result.success, result.rounds, result.messages, result.output_range)


def cell_failures(
    result: CellResult, three_reach: Optional[bool], expected: Optional[Outcome]
) -> List[str]:
    """Why ``result`` counts as a failed cell (empty when it does not).

    ``three_reach`` is whether the cell's graph satisfies 3-reach for its
    ``f`` (needed for consensus cells only); ``expected`` is the committed
    reference outcome, or ``None`` when the run has no reference.
    """
    problems = []
    metrics = result.metrics
    if "error" in metrics:
        problems.append(f"raised: {str(metrics['error']).strip().splitlines()[-1]}")
    if result.messages >= DEFAULT_MAX_EVENTS:
        problems.append(f"hit the {DEFAULT_MAX_EVENTS}-event cap")
    if result.algorithm == "bw" and three_reach:
        for guarantee in ("epsilon_agreement", "validity", "termination"):
            if metrics.get(guarantee) is not True:
                problems.append(f"misses {guarantee} on a 3-reach graph")
    if result.algorithm == "check-reach" and "error" not in metrics:
        reach = [bool(metrics.get(f"reach_{k}")) for k in (1, 2, 3)]
        if (reach[2] and not reach[1]) or (reach[1] and not reach[0]):
            problems.append(f"verdicts break 3-reach => 2-reach => 1-reach: {reach}")
    if expected is not None and outcome(result) != tuple(expected):
        problems.append(f"outcome {outcome(result)} differs from reference {tuple(expected)}")
    return problems


def failures(
    cells: List[SweepCell], results: List[CellResult], reference: Optional[List[Outcome]]
) -> List[str]:
    """One line per failed cell among ``results`` of one round over
    ``cells``; ``reference`` holds the committed outcomes, if any."""
    by_index = {cell.index: cell for cell in cells}
    verdicts: Dict[Tuple[TopologySpec, int], bool] = {}
    lines = []
    for result in results:
        cell = by_index[result.index]
        three_reach = None
        if result.algorithm == "bw":
            key = (cell.resolved_topology, cell.f)
            if key not in verdicts:
                verdicts[key] = check_three_reach(key[0].build(), cell.f).holds
            three_reach = verdicts[key]
        expected = reference[result.index] if reference is not None else None
        problems = cell_failures(result, three_reach, expected)
        if problems:
            lines.append(f"{cell.label}: {'; '.join(problems)}")
    return lines


def reference_path(workload: Workload) -> pathlib.Path:
    return REFERENCE_DIR / f"{workload.name}.json.gz"


def reference_payload(spec: GridSpec, results: List[CellResult]) -> Dict[str, object]:
    """The reference file's content: one default-seed round of ``spec``."""
    return {
        "spec_digest": spec_digest(spec.as_dict()),
        "cells": [list(outcome(result)) for result in results],
    }


def load_reference(workload: Workload, spec: GridSpec) -> Optional[List[Outcome]]:
    """The committed per-cell outcomes of one round of ``spec``, or
    ``None`` when the reference was recorded for another grid."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload["spec_digest"] != spec_digest(spec.as_dict()):
        return None
    return [tuple(cell) for cell in payload["cells"]]


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class RoundRecord:
    """One round: a full session over the workload's grid, with
    ``perf_counter`` stamps.  ``start`` precedes grid expansion and
    ``end`` follows the artifact write and the store queries.

    ``results`` is kept for a run's first two rounds only (one untraced,
    one traced when tracing), so a long run's memory stays one round's.
    """

    traced: bool
    cells: int
    start: float
    first_dispatch: float
    last_cell: float
    end: float
    results: List[CellResult]
    failures: List[str]

    @property
    def cells_per_s(self) -> float:
        return self.cells / (self.last_cell - self.first_dispatch)


@dataclass
class RunRecord:
    """Every round of one run; all rounds run the same grid."""

    spec: GridSpec
    rounds: List[RoundRecord]


def _run_round(
    workload: Workload,
    spec: GridSpec,
    directory: pathlib.Path,
    *,
    workers: int,
    tracer: Optional[layer_tracer.Tracer],
    max_cells: Optional[int],
) -> Tuple[List[SweepCell], RoundRecord]:
    global _inner_run_cell, _first_dispatch
    start = time.perf_counter()
    # Every round starts from cold topology caches, as a fresh sweep does;
    # a repeated check cell would otherwise only hit the graph's memos.
    clear_worker_caches()
    _first_dispatch = multiprocessing.Value("d", 0.0, lock=False)
    _inner_run_cell = scenarios.run_cell
    scenarios.run_cell = _guarded_run_cell
    try:
        with _span(tracer, "runner.grid.expand"):
            cells = spec.expand()
        with _span(tracer, "runner.worker_cache.warm"):
            warm_worker_caches(spec, cells)
        run_dir = directory / "run" if workload.journaled else None
        session = ExperimentSession(
            spec,
            workers=workers,
            run_dir=run_dir,
            stop_policies=[MaxCellsPolicy(max_cells)] if max_cells else (),
        )
        results: List[CellResult] = []
        last_cell = 0.0
        with _span(tracer, "runner.session"):
            for event in session.events():
                if isinstance(event, CellCompleted):
                    results.append(event.result)
                    last_cell = time.perf_counter()
        with _span(tracer, "runner.artifact.write"):
            session.write_artifact(directory / "artifact.json")
        if run_dir is not None:
            with ResultsStore(directory / "store.sqlite") as store:
                store.ingest(run_dir)
                store.trend(spec.name)
                store.group_variance(spec.name)
            if tracer is not None:
                tracer.count("runner.journal.bytes", journal_path(run_dir).stat().st_size)
                tracer.count("store.cells", len(results))
        end = time.perf_counter()
        first_dispatch = _first_dispatch.value
    finally:
        scenarios.run_cell = _inner_run_cell
        _inner_run_cell = None
    record = RoundRecord(
        tracer is not None, len(results), start, first_dispatch, last_cell, end, results, []
    )
    return cells, record


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    workers: int,
    scratch: pathlib.Path,
    reference: Optional[List[Outcome]] = None,
    tracer: Optional[layer_tracer.Tracer] = None,
    setup_only: bool = False,
) -> RunRecord:
    """Run rounds of ``workload`` in this process until ``seconds`` have
    passed since the first dispatch (at least :data:`MIN_ROUNDS`), each in
    a fresh directory under ``scratch`` that is removed afterwards, and
    check every round's cells against :func:`failures`.

    With a ``tracer``, odd rounds are traced and even rounds are not, so
    the tracing overhead is measured on interleaved rounds.  ``setup_only``
    runs one unchecked round, which stops after its first cell when serial.
    A pooled round always runs to the end: stopping it early can hang in
    ``Pool.terminate`` while the pool's task thread is blocked writing a
    chunk that no worker will read.
    """
    spec = workload.grid(seed)
    scratch.mkdir(parents=True, exist_ok=True)
    records: List[RoundRecord] = []

    def more_rounds() -> bool:
        if not records:
            return True
        if setup_only:
            return False
        elapsed = time.perf_counter() - records[0].first_dispatch
        return len(records) < MIN_ROUNDS or elapsed < seconds

    while more_rounds():
        round_tracer = tracer if len(records) % 2 == 1 else None
        restore = layer_tracer.install(round_tracer) if round_tracer is not None else None
        directory = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
        try:
            cells, record = _run_round(
                workload,
                spec,
                directory,
                workers=workers,
                tracer=round_tracer,
                max_cells=1 if setup_only and workers == 1 else None,
            )
        finally:
            if restore is not None:
                restore()
            shutil.rmtree(directory, ignore_errors=True)
        if not setup_only:
            record.failures = failures(cells, record.results, reference)
        if len(records) >= 2:
            record.results = []
        records.append(record)
    return RunRecord(spec, records)


# ----------------------------------------------------------------------
# the child process
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: this process's peak plus the largest
    # peak among its reaped children (the pool workers).
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _print_breakdown(tracer: layer_tracer.Tracer) -> None:
    rows = layer_tracer.cell_breakdown(tracer)
    if not rows:
        return
    for row in rows:
        print(
            f"cell {row['label']}: {row['us_per_delivery']:.1f} us/delivery, "
            f"COMPLETE share {row['complete_share']:.3f}"
        )
    slowest = max(rows, key=lambda row: row["us_per_delivery"])
    median = statistics.median(row["us_per_delivery"] for row in rows)
    print(
        f"us/delivery median {median:.1f}, max {slowest['us_per_delivery']:.1f} "
        f"({slowest['label']})"
    )


def child_main(argv: Optional[List[str]] = None) -> int:
    """Run one workload and print one JSON line: its set-up stamp and, past
    set-up, its metrics and failed-cell count.

    Modes: ``setup`` runs one round for its set-up stamp, ``run`` is the
    measured run and ``trace`` interleaves untraced and traced rounds,
    serially, for the per-layer metrics.
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--scratch", required=True)
    parser.add_argument(
        "--started", type=float, required=True, help="perf_counter() when the parent started us"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    reference = None
    if args.mode != "setup" and args.seed == DEFAULT_SEED:
        reference = load_reference(workload, workload.grid(args.seed))
        if reference is None:
            print(f"note: no {workload.name} reference for this grid", file=sys.stderr)
    tracer = layer_tracer.Tracer() if args.mode == "trace" else None
    record = run_workload(
        workload,
        args.seed,
        args.seconds,
        workers=1 if tracer is not None else workload.workers,
        scratch=pathlib.Path(args.scratch),
        reference=reference,
        tracer=tracer,
        setup_only=args.mode == "setup",
    )
    first = record.rounds[0]
    report: Dict[str, object] = {"first_dispatch": first.first_dispatch}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    untraced = [round_ for round_ in record.rounds if not round_.traced]
    report["cells"] = sum(round_.cells for round_ in record.rounds)
    report["round_cells_per_s"] = [round_.cells_per_s for round_ in untraced]
    report["cells_per_s"] = statistics.median(round_.cells_per_s for round_ in untraced)
    report["wall_s"] = (first.start - args.started) + statistics.median(
        round_.end - round_.start for round_ in untraced
    )
    report["peak_rss_mb"] = _peak_rss_mb()
    lines = [line for round_ in record.rounds for line in round_.failures]
    for line in lines[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    report["failed"] = len(lines)
    if tracer is not None:
        traced = [round_ for round_ in record.rounds if round_.traced]
        _print_breakdown(tracer)
        traced_time = sum(round_.end - round_.start for round_ in traced)
        metrics = layer_tracer.layer_metrics(tracer, len(traced), traced_time)
        metrics["tracer.cells_per_s_ratio"] = (
            statistics.median(round_.cells_per_s for round_ in traced) / report["cells_per_s"],
            "ratio",
        )
        report["layers"] = {name: list(value) for name, value in metrics.items()}
    print(json.dumps(report))
    return 0
