"""Sweep orchestration: expand a declarative grid, shard it, aggregate outcomes.

The paper's tables and figures are all produced by sweeping consensus
executions (or condition checks) over grids of topologies, fault bounds,
Byzantine behaviours, fault placements and seeds.  This module provides the
machinery that turns a declarative :class:`GridSpec` into concrete
:class:`SweepCell`\\ s, runs them sharded across a ``multiprocessing`` pool
(:func:`pool_results`; the run loop itself is
:class:`~repro.runner.session.ExperimentSession`) and folds the per-cell
results into deterministic aggregates.

Determinism is the load-bearing property: every cell derives its RNG seed
from ``(scenario name, cell index)`` via :func:`derive_cell_seed`, so results
are independent of execution order, shard assignment and worker count.  A
serial run and a 4-worker run of the same grid produce byte-identical
artifacts (see :mod:`repro.runner.artifacts`).

The cell-execution function itself lives in :mod:`repro.runner.scenarios`
(which owns the topology / behaviour / algorithm registries); the pool source
here is generic over any picklable ``runner(spec, cell) -> CellResult``
callable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import os
import random
import signal
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import ScenarioFileError
from repro.graphs.digraph import DiGraph
from repro.runner.metrics import ConsensusOutcome

NodeId = Hashable

#: Placeholder axis value for cells where an axis does not apply (e.g. the
#: behaviour/placement axes of condition-check cells — no adversary involved).
NOT_APPLICABLE = "-"

#: Sentinel value for a topology's ``seed`` parameter meaning "use the cell's
#: derived seed".  A grid whose random-family topologies carry
#: ``seed = "cell"`` samples a *fresh* graph per seed cell — the per-cell
#: SHA-256 seed fully determines the sample, so serial, sharded and fabric
#: runs stay byte-identical — while the topology *label* keeps the sentinel,
#: so every sample of one recipe aggregates into a single group.
CELL_SEED = "cell"

#: Result of running one cell; implemented by ``repro.runner.scenarios.run_cell``.
CellRunner = Callable[["GridSpec", "SweepCell"], "CellResult"]


# ----------------------------------------------------------------------
# deterministic per-cell seeding
# ----------------------------------------------------------------------
def derive_cell_seed(scenario: str, index: int) -> int:
    """Stable 63-bit seed derived from ``(scenario, cell index)``.

    Uses SHA-256 rather than :func:`hash` so the value is identical across
    processes, platforms and ``PYTHONHASHSEED`` settings — the property that
    makes sharded sweeps reproduce serial sweeps exactly.
    """
    digest = hashlib.sha256(f"{scenario}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# input generators (unchanged public helpers)
# ----------------------------------------------------------------------
def random_inputs(
    graph: DiGraph, low: float, high: float, seed: Optional[int] = None
) -> Dict[NodeId, float]:
    """Uniform random inputs in ``[low, high]`` for every node (seeded)."""
    rng = random.Random(seed)
    return {node: rng.uniform(low, high) for node in sorted(graph.nodes, key=repr)}


def spread_inputs(graph: DiGraph, low: float, high: float) -> Dict[NodeId, float]:
    """Deterministic evenly spread inputs covering the whole range."""
    nodes = sorted(graph.nodes, key=repr)
    if len(nodes) == 1:
        return {nodes[0]: low}
    step = (high - low) / (len(nodes) - 1)
    return {node: low + index * step for index, node in enumerate(nodes)}


# ----------------------------------------------------------------------
# grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """A named graph family plus its construction parameters.

    Cells carry the *spec* rather than the built :class:`DiGraph` so workers
    rebuild graphs locally instead of unpickling them, and so artifacts can
    record the exact construction recipe.
    """

    family: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, family: str, **params: object) -> "TopologySpec":
        return cls(family=family, params=tuple(sorted(params.items())))

    @property
    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.family}({inner})"

    @property
    def is_cell_seeded(self) -> bool:
        """Whether the spec's ``seed`` parameter is the :data:`CELL_SEED`
        sentinel (resolved per cell from the derived seed)."""
        return any(key == "seed" and value == CELL_SEED for key, value in self.params)

    def resolve_cell_seed(self, derived_seed: int) -> "TopologySpec":
        """The concrete spec for one cell: the :data:`CELL_SEED` sentinel
        replaced by ``derived_seed``.  Identity for non-sentinel specs."""
        if not self.is_cell_seeded:
            return self
        params = {key: value for key, value in self.params}
        params["seed"] = derived_seed
        return TopologySpec.make(self.family, **params)

    def validate_params(self) -> None:
        """Check the params bind to the family's factory signature.

        Called from :meth:`GridSpec.validate_plugins` — i.e. before any
        worker pool forks — so an unknown or missing topology parameter
        raises one :class:`~repro.exceptions.GraphError` naming the family
        instead of a bare ``TypeError`` deep in a worker.
        """
        import inspect

        from repro.exceptions import GraphError
        from repro.registry import TOPOLOGIES

        factory = TOPOLOGIES.get(self.family)
        params = {key: value for key, value in self.params}
        if params.get("seed") == CELL_SEED:
            params["seed"] = 0
        try:
            inspect.signature(factory).bind(**params)
        except TypeError as error:
            raise GraphError(f"topology {self.family!r}: {error}") from None

    def build(self) -> DiGraph:
        """Construct the graph this spec describes, through the
        :data:`~repro.registry.TOPOLOGIES` registry."""
        from repro.exceptions import GraphError
        from repro.registry import TOPOLOGIES

        if self.is_cell_seeded:
            raise GraphError(
                f"topology {self.family!r} carries the per-cell seed sentinel "
                f"{CELL_SEED!r}; resolve it with resolve_cell_seed(derived_seed) "
                "before building"
            )
        factory = TOPOLOGIES.get(self.family)
        return factory(**{key: value for key, value in self.params})

    def as_dict(self) -> Dict[str, object]:
        return {"family": self.family, "params": {key: value for key, value in self.params}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TopologySpec":
        """Inverse of :meth:`as_dict`, with schema validation."""
        if not isinstance(payload, Mapping):
            raise ScenarioFileError(f"topology entry must be a table, got {payload!r}")
        unknown = set(payload) - {"family", "params"}
        if unknown:
            raise ScenarioFileError(f"unknown topology keys {sorted(unknown)}")
        family = payload.get("family")
        if not isinstance(family, str) or not family:
            raise ScenarioFileError(f"topology 'family' must be a non-empty string, got {family!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ScenarioFileError(f"topology 'params' must be a table, got {params!r}")
        for key, value in params.items():
            if not isinstance(key, str):
                raise ScenarioFileError(f"topology param names must be strings, got {key!r}")
            if not isinstance(value, (int, float, bool, str)):
                raise ScenarioFileError(f"topology param {key!r} must be a scalar, got {value!r}")
        return cls.make(family, **dict(params))


@dataclass(frozen=True)
class GridSpec:
    """Declarative sweep grid: the cross product of every axis below.

    Expansion order is fixed (algorithm × topology × f × behaviour ×
    placement × faults × seed, innermost last) so cell indexes — and
    therefore the per-cell derived seeds — are stable for a given spec.
    The ``faults`` axis defaults to the single value ``"none"``, which
    leaves the indexing of every pre-existing grid unchanged.
    """

    name: str
    algorithms: Tuple[str, ...]
    topologies: Tuple[TopologySpec, ...]
    f_values: Tuple[int, ...] = (1,)
    behaviors: Tuple[str, ...] = ("honest",)
    placements: Tuple[str, ...] = ("random",)
    seeds: Tuple[int, ...] = (1,)
    epsilon: float = 0.25
    input_low: float = 0.0
    input_high: float = 1.0
    inputs: str = "spread"
    path_policy: str = "simple"
    rounds: int = 15
    #: Network-fault axis (``FAULTS`` registry specs).  The default single
    #: value ``"none"`` keeps the expansion — cell indexes, derived seeds and
    #: serialized form — of every pre-existing grid unchanged.
    faults: Tuple[str, ...] = ("none",)

    def validate_plugins(self) -> None:
        """Resolve every plugin name the grid references, eagerly.

        Called from :meth:`expand` — i.e. in the parent process, before any
        worker pool forks — so a typo'd behaviour/placement/topology/
        algorithm surfaces as one
        :class:`~repro.exceptions.UnknownPluginError` listing the valid
        registered names instead of a bare ``KeyError`` deep in a worker.
        """
        from repro.registry import (
            ALGORITHMS,
            BEHAVIORS,
            FAULTS,
            PLACEMENTS,
            TOPOLOGIES,
            validate_plugin_args,
        )

        for algorithm in self.algorithms:
            ALGORITHMS.get(algorithm)
        for topology in self.topologies:
            TOPOLOGIES.get(topology.family)
            topology.validate_params()
        for behavior in self.behaviors:
            if behavior != NOT_APPLICABLE:
                validate_plugin_args(BEHAVIORS, behavior)
        for placement in self.placements:
            if placement != NOT_APPLICABLE:
                PLACEMENTS.get(placement)
        for fault_spec in self.faults:
            if fault_spec != NOT_APPLICABLE:
                validate_plugin_args(FAULTS, fault_spec)

    def expand(self) -> List["SweepCell"]:
        """Materialize every cell of the grid, with derived seeds attached.

        Plugin names are validated first (:meth:`validate_plugins`), so an
        unknown extension name fails here — before the pool forks — rather
        than inside a worker.
        """
        self.validate_plugins()
        cells: List[SweepCell] = []
        index = 0
        for algorithm in self.algorithms:
            for topology in self.topologies:
                for f in self.f_values:
                    for behavior in self.behaviors:
                        for placement in self.placements:
                            for fault_spec in self.faults:
                                for seed in self.seeds:
                                    cells.append(
                                        SweepCell(
                                            index=index,
                                            algorithm=algorithm,
                                            topology=topology,
                                            f=f,
                                            behavior=behavior,
                                            placement=placement,
                                            seed=seed,
                                            derived_seed=derive_cell_seed(self.name, index),
                                            faults=fault_spec,
                                        )
                                    )
                                    index += 1
        return cells

    @property
    def num_cells(self) -> int:
        return (
            len(self.algorithms)
            * len(self.topologies)
            * len(self.f_values)
            * len(self.behaviors)
            * len(self.placements)
            * len(self.faults)
            * len(self.seeds)
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "topologies": [topology.as_dict() for topology in self.topologies],
            "f_values": list(self.f_values),
            "behaviors": list(self.behaviors),
            "placements": list(self.placements),
            "seeds": list(self.seeds),
            "epsilon": self.epsilon,
            "input_low": self.input_low,
            "input_high": self.input_high,
            "inputs": self.inputs,
            "path_policy": self.path_policy,
            "rounds": self.rounds,
        }
        # Serialized only when the axis is in use: grids without faults keep
        # their pre-existing serialized form (and journal spec hashes).
        if self.faults != ("none",):
            payload["faults"] = list(self.faults)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "GridSpec":
        """Inverse of :meth:`as_dict`, with schema validation.

        Lists become the tuples the frozen dataclass expects, so
        ``GridSpec.from_dict(spec.as_dict()) == spec`` exactly — including
        the cell indexing (and therefore derived seeds) of :meth:`expand`.
        Unknown keys, wrong types and empty required axes raise
        :class:`~repro.exceptions.ScenarioFileError`; plugin *names* are
        validated later, at :meth:`expand` time.
        """
        if not isinstance(payload, Mapping):
            raise ScenarioFileError(f"grid spec must be a table, got {payload!r}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ScenarioFileError(f"unknown grid-spec keys {sorted(unknown)}")

        def strings(key: str, required: bool = False) -> Optional[Tuple[str, ...]]:
            if key not in payload:
                if required:
                    raise ScenarioFileError(f"grid spec is missing required key {key!r}")
                return None
            values = payload[key]
            if (
                not isinstance(values, Sequence)
                or isinstance(values, (str, bytes))
                or not values
                or not all(isinstance(value, str) for value in values)
            ):
                raise ScenarioFileError(
                    f"grid-spec {key!r} must be a non-empty list of strings, got {values!r}"
                )
            return tuple(values)

        def numbers(key: str, kind: type) -> Optional[Tuple]:
            if key not in payload:
                return None
            values = payload[key]
            if (
                not isinstance(values, Sequence)
                or isinstance(values, (str, bytes))
                or not values
                or not all(
                    isinstance(value, kind) and not isinstance(value, bool) for value in values
                )
            ):
                raise ScenarioFileError(
                    f"grid-spec {key!r} must be a non-empty list of {kind.__name__}s, "
                    f"got {values!r}"
                )
            return tuple(values)

        def scalar(key: str, kind: type):
            if key not in payload:
                return None
            value = payload[key]
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ScenarioFileError(
                    f"grid-spec {key!r} must be a {kind.__name__}, got {value!r}"
                )
            return value

        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioFileError(f"grid-spec 'name' must be a non-empty string, got {name!r}")
        raw_topologies = payload.get("topologies")
        if not isinstance(raw_topologies, Sequence) or not raw_topologies:
            raise ScenarioFileError(
                f"grid-spec 'topologies' must be a non-empty list, got {raw_topologies!r}"
            )
        fields: Dict[str, object] = {
            "name": name,
            "algorithms": strings("algorithms", required=True),
            "topologies": tuple(TopologySpec.from_dict(entry) for entry in raw_topologies),
        }
        for key, value in (
            ("f_values", numbers("f_values", int)),
            ("behaviors", strings("behaviors")),
            ("placements", strings("placements")),
            ("faults", strings("faults")),
            ("seeds", numbers("seeds", int)),
            ("epsilon", scalar("epsilon", float)),
            ("input_low", scalar("input_low", float)),
            ("input_high", scalar("input_high", float)),
            ("inputs", scalar("inputs", str)),
            ("path_policy", scalar("path_policy", str)),
            ("rounds", scalar("rounds", int)),
        ):
            if value is not None:
                fields[key] = value
        return cls(**fields)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SweepCell:
    """One concrete point of a grid, with its order-independent seed."""

    index: int
    algorithm: str
    topology: TopologySpec
    f: int
    behavior: str
    placement: str
    seed: int
    derived_seed: int
    faults: str = "none"

    @property
    def label(self) -> str:
        fault_part = "" if self.faults == "none" else f"|{self.faults}"
        return (
            f"{self.algorithm}|{self.topology.label}|f={self.f}"
            f"|{self.behavior}|{self.placement}{fault_part}|s={self.seed}"
        )

    @property
    def resolved_topology(self) -> TopologySpec:
        """The buildable topology spec for this cell: the :data:`CELL_SEED`
        sentinel (if any) resolved to the cell's derived seed.  Workers build
        and cache graphs under this spec; results keep reporting the
        sentinel-form :attr:`topology` label so seed cells group together."""
        return self.topology.resolve_cell_seed(self.derived_seed)


# ----------------------------------------------------------------------
# per-cell result + aggregation
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """Normalized, JSON-serializable outcome of one cell.

    ``output_range`` is ``None`` when some honest node never decided (the
    in-memory :class:`~repro.runner.metrics.ConsensusOutcome` uses ``inf``,
    which JSON cannot represent).  Condition-check cells report zero rounds
    and messages and put their facts into ``metrics``.
    """

    index: int
    algorithm: str
    topology: str
    n: int
    f: int
    behavior: str
    placement: str
    seed: int
    derived_seed: int
    success: bool
    output_range: Optional[float] = None
    rounds: int = 0
    messages: int = 0
    simulated_time: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)
    faults: str = "none"

    @classmethod
    def from_outcome(
        cls, cell: SweepCell, graph: DiGraph, outcome: ConsensusOutcome
    ) -> "CellResult":
        observed = outcome.output_range
        metrics: Dict[str, object] = {
            "epsilon_agreement": outcome.epsilon_agreement,
            "validity": outcome.validity,
            "termination": outcome.termination,
        }
        if outcome.fault_summary:
            metrics["faults"] = dict(outcome.fault_summary)
        return cls(
            index=cell.index,
            algorithm=cell.algorithm,
            topology=cell.topology.label,
            n=graph.num_nodes,
            f=cell.f,
            behavior=cell.behavior,
            placement=cell.placement,
            seed=cell.seed,
            derived_seed=cell.derived_seed,
            success=outcome.correct,
            output_range=None if observed == float("inf") else observed,
            rounds=outcome.rounds,
            messages=outcome.messages_delivered,
            simulated_time=outcome.simulated_time,
            metrics=metrics,
            faults=cell.faults,
        )

    @property
    def group_key(self) -> Tuple[str, str, int, str, str, str]:
        """Aggregation key: every axis except the seed."""
        return (
            self.algorithm,
            self.topology,
            self.f,
            self.behavior,
            self.placement,
            self.faults,
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "index": self.index,
            "algorithm": self.algorithm,
            "topology": self.topology,
            "n": self.n,
            "f": self.f,
            "behavior": self.behavior,
            "placement": self.placement,
            "seed": self.seed,
            "derived_seed": self.derived_seed,
            "success": self.success,
            "output_range": self.output_range,
            "rounds": self.rounds,
            "messages": self.messages,
            "simulated_time": self.simulated_time,
            "metrics": dict(self.metrics),
        }
        # Emitted only off the default, keeping fault-free cell records (and
        # therefore every committed artifact and journal) byte-identical.
        if self.faults != "none":
            payload["faults"] = self.faults
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CellResult":
        return cls(
            index=int(payload["index"]),
            algorithm=str(payload["algorithm"]),
            topology=str(payload["topology"]),
            n=int(payload["n"]),
            f=int(payload["f"]),
            behavior=str(payload["behavior"]),
            placement=str(payload["placement"]),
            seed=int(payload["seed"]),
            derived_seed=int(payload["derived_seed"]),
            success=bool(payload["success"]),
            output_range=payload.get("output_range"),  # type: ignore[arg-type]
            rounds=int(payload.get("rounds", 0)),
            messages=int(payload.get("messages", 0)),
            simulated_time=float(payload.get("simulated_time", 0.0)),
            metrics=dict(payload.get("metrics", {})),  # type: ignore[arg-type]
            faults=str(payload.get("faults", "none")),
        )


@dataclass
class GroupAggregate:
    """Incremental aggregate of every cell sharing one group key."""

    algorithm: str
    topology: str
    f: int
    behavior: str
    placement: str
    runs: int = 0
    successes: int = 0
    total_rounds: int = 0
    total_messages: int = 0
    worst_range: float = 0.0
    undecided: int = 0
    faults: str = "none"

    def fold(self, result: CellResult) -> None:
        self.runs += 1
        self.successes += 1 if result.success else 0
        self.total_rounds += result.rounds
        self.total_messages += result.messages
        if result.output_range is None:
            self.undecided += 1
        else:
            self.worst_range = max(self.worst_range, result.output_range)

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def mean_rounds(self) -> float:
        return self.total_rounds / self.runs if self.runs else 0.0

    @property
    def mean_messages(self) -> float:
        return self.total_messages / self.runs if self.runs else 0.0

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "f": self.f,
            "behavior": self.behavior,
            "placement": self.placement,
            "runs": self.runs,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "mean_rounds": self.mean_rounds,
            "mean_messages": self.mean_messages,
            "worst_range": None if self.undecided else self.worst_range,
        }
        # Same omit-at-default rule as CellResult.as_dict.
        if self.faults != "none":
            payload["faults"] = self.faults
        return payload


def _fold_into(
    groups: Dict[Tuple[str, str, int, str, str, str], GroupAggregate], result: CellResult
) -> None:
    """Fold one cell into the group map (creating its group on first sight)."""
    key = result.group_key
    if key not in groups:
        groups[key] = GroupAggregate(
            algorithm=result.algorithm,
            topology=result.topology,
            f=result.f,
            behavior=result.behavior,
            placement=result.placement,
            faults=result.faults,
        )
    groups[key].fold(result)


def aggregate_cells(cells: Sequence[CellResult]) -> List[GroupAggregate]:
    """Fold cell results into per-group aggregates, ordered by first occurrence."""
    groups: Dict[Tuple[str, str, int, str, str, str], GroupAggregate] = {}
    for result in cells:
        _fold_into(groups, result)
    return list(groups.values())


@dataclass
class SweepRunResult:
    """Everything a sweep produced: cells in index order plus aggregates.

    ``wall_seconds`` and ``workers`` are observational — they are *not*
    serialized into artifacts, so serial and sharded runs stay byte-identical.
    """

    spec: GridSpec
    cells: List[CellResult]
    groups: List[GroupAggregate]
    workers: int = 1
    wall_seconds: float = 0.0
    #: ``None`` for a completed sweep; the seal reason (``policy:<name>``)
    #: when a session stop policy ended the run early.  Like the timing
    #: fields, never serialized into artifacts.
    stop_reason: Optional[str] = None

    @property
    def success_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for cell in self.cells if cell.success) / len(self.cells)


# ----------------------------------------------------------------------
# the pool result source
# ----------------------------------------------------------------------
#: ``(spec, cells in dispatch order, runner, stop flag)`` of the pool this
#: worker process belongs to; set once per worker by :func:`_init_pool_worker`.
_pool_job: Optional[Tuple["GridSpec", List[SweepCell], CellRunner, Any]] = None
#: Whether this pool worker is inside :func:`_run_cell_range` (SIGINT
#: abandons the task only then).
_running_cells = False


class PoolTaskInterrupted(Exception):
    """A pool task abandoned by SIGINT.  The pool hands it to the parent as
    a failed task, so no task is ever lost with its worker."""


def _abandon_cells(signum: int, frame: Any) -> None:
    global _running_cells
    if _running_cells:
        _running_cells = False  # a repeat SIGINT must not raise again
        raise PoolTaskInterrupted(f"pool worker {os.getpid()} interrupted")


def _init_pool_worker(
    spec: GridSpec, cells: List[SweepCell], runner: CellRunner, stopping: Any
) -> None:
    global _pool_job
    # A terminal's Ctrl-C reaches the workers too: it abandons the cells of
    # the running task (see pool_results) and is ignored between tasks,
    # where an exception would kill the worker holding the pool's locks.
    signal.signal(signal.SIGINT, _abandon_cells)
    _pool_job = (spec, cells, runner, stopping)


def _run_cell_range(bounds: Tuple[int, int]) -> List[CellResult]:
    global _running_cells
    spec, cells, runner, stopping = _pool_job
    start, stop = bounds
    results = []
    _running_cells = True
    try:
        for cell in cells[start:stop]:
            if stopping.value:
                break  # the parent stopped consuming and discards this task
            results.append(runner(spec, cell))
    finally:
        _running_cells = False
    return results


def _drain(tasks: Iterator[List[CellResult]]) -> None:
    """Collect every outstanding task of an ``imap``, ignoring failures."""
    while True:
        try:
            next(tasks)
        except StopIteration:
            return
        except Exception:  # a failed or interrupted task; the rest still return
            continue


def pool_results(
    spec: GridSpec,
    cells: Sequence[SweepCell],
    runner: CellRunner,
    workers: int,
    chunk_size: Optional[int] = None,
) -> Iterator[CellResult]:
    """Run ``cells`` on a ``workers``-process pool, yielding results as
    their chunks complete (not in index order — the session holds back).

    Same-topology cells are dispatched contiguously so each chunk — and
    therefore each worker — builds a topology's graph, bitmask index and
    TopologyKnowledge at most once (the worker-global cache in
    :mod:`repro.runner.worker_cache` keeps them warm across chunks).

    The spec, the cells and the runner reach the workers once, through the
    pool initializer; a task is just a ``(start, stop)`` range into the
    dispatch order.  Tasks must stay tiny: a task of pickled cells (~62 KB
    per 1000 cells) can fill the pool's 64 KB input pipe, and
    ``Pool.terminate`` after an early stop then blocks forever in the task
    handler's pipe write.

    Closing the generator (or an exception in it) winds the pool down
    without ``Pool.terminate`` while tasks are in flight: a worker blocked
    writing a large result holds the result queue's lock, and once
    ``terminate`` stops the result handler reading, nothing releases it.
    Workers are told to skip their remaining cells, every outstanding task
    is collected, and only then are the workers joined.  The wind-down
    waits for the cells running at that moment, except after a terminal's
    Ctrl-C, which interrupts those cells in the workers as well.  A second
    interrupt during the wind-down terminates the workers instead.
    """
    dispatch = sorted(
        cells, key=lambda cell: (cell.topology.label, cell.f, cell.algorithm, cell.index)
    )
    chunk = chunk_size or max(1, math.ceil(len(dispatch) / (workers * 4)))
    bounds = [
        (start, min(start + chunk, len(dispatch))) for start in range(0, len(dispatch), chunk)
    ]
    stopping = multiprocessing.RawValue("b", 0)
    with multiprocessing.Pool(
        processes=workers,
        initializer=_init_pool_worker,
        initargs=(spec, dispatch, runner, stopping),
    ) as pool:
        tasks = pool.imap(_run_cell_range, bounds)
        try:
            for results in tasks:
                yield from results
        finally:
            stopping.value = 1
            try:
                _drain(tasks)
            except KeyboardInterrupt:
                pool.terminate()  # stop waiting for the running cells
                raise
            pool.close()
            pool.join()


__all__ = [
    "CELL_SEED",
    "NOT_APPLICABLE",
    "CellResult",
    "CellRunner",
    "GridSpec",
    "GroupAggregate",
    "SweepCell",
    "SweepRunResult",
    "TopologySpec",
    "aggregate_cells",
    "derive_cell_seed",
    "pool_results",
    "random_inputs",
    "spread_inputs",
]
