"""Outside-in layer tracer for the benchmark's traced run.

The tracer never edits the program: :func:`install` swaps the public entry
points of each layer (class methods, module functions, the per-process
``on_message`` handlers and the send callback the simulator binds into each
``Context``) for wrappers that record a span around the original call, and
returns a function that puts every original back.

Spans nest on one stack, so a span's *self* time is its duration minus the
time covered by the spans it caused (its children).  A traced ``bw-flood``
run delivers millions of messages, so spans are folded into per-name totals
as they close instead of being kept one by one: each name keeps its call
count, its total time and its self time.  Counts that are not durations
(simulator events, required paths) are recorded at the same boundaries.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

#: Methods of every registered bitset backend that the tracer times.
BITSET_KERNELS = (
    "closure",
    "closure_many",
    "scc_masks",
    "source_component",
    "has_f_cover",
    "any_f_cover",
    "find_disjoint_pair",
)

#: Bitset backends reported by name; a backend that is not registered (no
#: numpy) reports zero calls.
BITSET_BACKEND_NAMES = ("python", "numpy")

#: The reach-condition checkers, wrapped in every ``repro`` module that
#: imported them by name.
CONDITION_CHECKERS = ("check_one_reach", "check_two_reach", "check_three_reach")


class Tracer:
    """Span recorder with online self-time folding.

    ``spans`` maps a span name to ``[calls, total_seconds, self_seconds]``;
    ``counts`` holds the non-duration counters; ``cells`` holds one record
    per traced cell that delivered messages (see :func:`install`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.cells: List[Dict[str, object]] = []
        #: span names of message deliveries handled by protocol code.
        self.delivery_spans: set = set()
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stat = self.spans.get(name)
        if stat is None:
            stat = self.spans[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        stack, clock, exit_span = self._stack, self.clock, self.exit

        def traced(*args, **kwargs):
            stack.append([name, clock(), 0.0])
            try:
                return function(*args, **kwargs)
            finally:
                exit_span()

        return traced

    def wrap_handler(self, layer: str, handler: Callable) -> Callable:
        """A process's ``on_message`` with one span name per payload class
        (``ValueMessage`` becomes ``<layer>.value``)."""
        stack, clock, exit_span = self._stack, self.clock, self.exit
        names: Dict[type, str] = {}

        def on_message(sender, payload):
            cls = payload.__class__
            name = names.get(cls)
            if name is None:
                kind = cls.__name__
                if kind.endswith("Message"):
                    kind = kind[: -len("Message")]
                name = names[cls] = f"{layer}.{kind.lower()}"
                self.delivery_spans.add(name)
            stack.append([name, clock(), 0.0])
            try:
                handler(sender, payload)
            finally:
                exit_span()

        return on_message

    # -- reading ---------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def self_time_under(self, prefix: str) -> float:
        """Summed self time of every span named ``prefix`` or ``prefix.*``."""
        return sum(
            stat[2]
            for name, stat in self.spans.items()
            if name == prefix or name.startswith(prefix + ".")
        )


class _Patches:
    """Attribute swaps that :meth:`restore` undoes in reverse order."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        # An attribute the owner only inherited (a backend singleton's
        # methods) is deleted on restore, so the class's shows through again.
        self._undo.append((owner, name, vars(owner).get(name, self._MISSING)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


def _layer_of(process: object) -> str:
    """``repro.algorithms.bw.BWProcess`` -> ``algorithms.bw``."""
    module = type(process).__module__
    return module[len("repro."):] if module.startswith("repro.") else module


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer boundary; returns the function that undoes it.

    Call after the ``repro`` modules are imported and before the workload
    sets up, so the pre-dispatch topology builds are traced too.
    """
    from repro.adversary.adversary import ByzantineProcess
    from repro.algorithms.topology import TopologyKnowledge
    from repro.conditions import reach_conditions
    from repro.network.simulator import Simulator
    from repro.registry import BITSET_BACKENDS
    from repro.runner import scenarios
    from repro.runner.harness import TopologySpec
    from repro.runner.journal import JournalWriter
    from repro.store.store import ResultsStore

    patches = _Patches()

    # -- simulator and protocol handlers ---------------------------------
    original_run = Simulator.run
    original_add = Simulator.add_process

    def run(simulator, *args, **kwargs):
        tracer.enter("network.simulator.run")
        try:
            stats = original_run(simulator, *args, **kwargs)
        finally:
            tracer.exit()
        tracer.count("network.simulator.events", stats.delivered_messages + stats.timer_events)
        return stats

    def add_process(simulator, process):
        original_add(simulator, process)
        context = process.context
        if isinstance(process, ByzantineProcess):
            inner = process.inner
            process.on_message = tracer.wrap("adversary.on_message", process.on_message)
            inner.on_message = tracer.wrap_handler(_layer_of(inner), inner.on_message)
            inner.context._send = tracer.wrap("adversary.send", inner.context._send)
        else:
            process.on_message = tracer.wrap_handler(_layer_of(process), process.on_message)
        context._send = tracer.wrap("network.simulator.send", context._send)

    patches.set(Simulator, "run", run)
    patches.set(Simulator, "add_process", add_process)

    # -- topology precomputation and graph construction ------------------
    original_required_index = TopologyKnowledge.required_index
    indexes_seen: Dict[int, object] = {}

    def required_index(knowledge, node):
        tracer.enter("algorithms.topology.required_index")
        try:
            index = original_required_index(knowledge, node)
        finally:
            tracer.exit()
        if id(index) not in indexes_seen:
            indexes_seen[id(index)] = index  # held so the id is never reused
            tracer.count("algorithms.topology.required_paths", len(index))
        return index

    patches.set(TopologyKnowledge, "required_index", required_index)
    patches.set(TopologySpec, "build", tracer.wrap("graphs.generators.build", TopologySpec.build))

    # -- condition checkers, wherever they were imported by name ---------
    for name in CONDITION_CHECKERS:
        original = getattr(reach_conditions, name)
        traced = tracer.wrap(f"conditions.{name}", original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and getattr(module, name, None) is original:
                patches.set(module, name, traced)

    # -- bitset backends (stateless singletons: patch the instances) -----
    for backend_name in BITSET_BACKENDS.names():
        backend = BITSET_BACKENDS.get(backend_name)
        for kernel in BITSET_KERNELS:
            patches.set(
                backend,
                kernel,
                tracer.wrap(f"graphs.bitset.{backend_name}.{kernel}", getattr(backend, kernel)),
            )

    # -- the cell runner (resolved by the engine at stream time) ---------
    original_cell = scenarios.run_cell

    def run_cell(spec, cell):
        before_events = tracer.counts.get("network.simulator.events", 0)
        before = {name: tracer.calls(name) for name in tracer.delivery_spans}
        start = tracer.clock()
        tracer.enter("runner.cell")
        try:
            return original_cell(spec, cell)
        finally:
            tracer.exit()
            deliveries = tracer.counts.get("network.simulator.events", 0) - before_events
            if deliveries:
                handled = {
                    name: tracer.calls(name) - before.get(name, 0)
                    for name in tracer.delivery_spans
                }
                tracer.cells.append(
                    {
                        "label": cell.label,
                        "seconds": tracer.clock() - start,
                        "deliveries": deliveries,
                        "handled": handled,
                    }
                )

    patches.set(scenarios, "run_cell", run_cell)

    # -- journal and results store ---------------------------------------
    for method in ("append_cell", "checkpoint", "seal"):
        patches.set(
            JournalWriter,
            method,
            tracer.wrap(f"runner.journal.{method}", getattr(JournalWriter, method)),
        )
    for method in ("ingest", "trend", "group_variance"):
        patches.set(
            ResultsStore, method, tracer.wrap(f"store.{method}", getattr(ResultsStore, method))
        )
    return patches.restore


def _per_call(total: float, calls: float, scale: float) -> float:
    return total * scale / calls if calls else 0.0


def cell_breakdown(tracer: Tracer) -> List[Dict[str, object]]:
    """Per traced BW cell: µs per delivery (traced) and the COMPLETE share
    of the deliveries the protocol handled."""
    rows = []
    for record in tracer.cells:
        handled = record["handled"]
        protocol = sum(
            count for name, count in handled.items() if name.startswith("algorithms.bw.")
        )
        if not protocol:
            continue
        rows.append(
            {
                "label": record["label"],
                "us_per_delivery": record["seconds"] * 1e6 / record["deliveries"],
                "complete_share": handled.get("algorithms.bw.complete", 0) / protocol,
            }
        )
    return rows


def layer_metrics(tracer: Tracer, rounds: int, wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``rounds`` is the number of traced rounds: counts and totals are per
    round, that is per sweep of the workload's grid.  ``wall_s`` is the
    traced rounds' wall time, the base of ``tracer.attributed_share``.
    Layers a workload never enters report 0.
    """
    t = tracer
    cell_time = t.total("runner.cell")
    events = t.counts.get("network.simulator.events", 0)
    metrics: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (value, unit)

    def mean(span: str, scale: float) -> float:
        """Mean inclusive duration of one ``span`` call, times ``scale``."""
        return _per_call(t.total(span), t.calls(span), scale)

    for kind in ("value", "complete"):
        name = f"algorithms.bw.{kind}"
        put(f"{name}.deliveries", t.calls(name) / rounds, "count")
        put(f"{name}.self_us", _per_call(t.self_time(name), t.calls(name), 1e6), "us")
    bw_self = t.self_time_under("algorithms.bw")
    put("algorithms.bw.self_share", bw_self / cell_time if cell_time else 0.0, "ratio")
    breakdown = cell_breakdown(t)
    per_delivery = [row["us_per_delivery"] for row in breakdown]
    put(
        "algorithms.bw.cell.us_per_delivery.median",
        statistics.median(per_delivery) if per_delivery else 0.0,
        "us",
    )
    put("algorithms.bw.cell.us_per_delivery.max", max(per_delivery, default=0.0), "us")
    put(
        "algorithms.bw.cell.complete_share.median",
        statistics.median(row["complete_share"] for row in breakdown) if breakdown else 0.0,
        "ratio",
    )

    byzantine = t.calls("adversary.on_message")
    adversary_self = t.self_time("adversary.on_message") + t.self_time("adversary.send")
    put("adversary.deliveries", byzantine / rounds, "count")
    put("adversary.self_us", _per_call(adversary_self, byzantine, 1e6), "us")

    simulator_self = t.self_time("network.simulator.run")
    send_self = t.self_time("network.simulator.send")
    sends = t.calls("network.simulator.send")
    put("network.simulator.events", events / rounds, "count")
    put("network.simulator.self_us_per_event", _per_call(simulator_self, events, 1e6), "us")
    put("network.simulator.send_us", _per_call(send_self, sends, 1e6), "us")
    put(
        "network.simulator.self_share",
        (simulator_self + send_self) / cell_time if cell_time else 0.0,
        "ratio",
    )

    put("algorithms.topology.build_s", t.total("algorithms.topology.required_index") / rounds, "s")
    paths = t.counts.get("algorithms.topology.required_paths", 0)
    put("algorithms.topology.required_paths", paths / rounds, "count")

    for backend in BITSET_BACKEND_NAMES:
        for kernel in BITSET_KERNELS:
            name = f"graphs.bitset.{backend}.{kernel}"
            put(f"{name}.calls", t.calls(name) / rounds, "count")
            put(f"{name}.us", _per_call(t.self_time(name), t.calls(name), 1e6), "us")

    checks = t.calls("conditions.check_three_reach")
    put("conditions.check_three_reach.calls", checks / rounds, "count")
    put("conditions.self_s", t.self_time_under("conditions") / rounds, "s")
    put("graphs.generators.build_us", mean("graphs.generators.build", 1e6), "us")

    cells = t.calls("runner.cell")
    session_self = t.self_time("runner.session")
    put("runner.cell_us", mean("runner.cell", 1e6), "us")
    put("runner.session.self_us_per_cell", _per_call(session_self, cells, 1e6), "us")
    appends = t.calls("runner.journal.append_cell")
    journal_bytes = t.counts.get("runner.journal.bytes", 0)
    put("runner.journal.append_us", mean("runner.journal.append_cell", 1e6), "us")
    put("runner.journal.bytes_per_cell", _per_call(journal_bytes, appends, 1.0), "B")
    put("runner.journal.checkpoint_ms", mean("runner.journal.checkpoint", 1e3), "ms")

    stored_cells = t.counts.get("store.cells", 0)
    put("store.ingest_ms", mean("store.ingest", 1e3), "ms")
    put("store.ingest_us_per_cell", _per_call(t.total("store.ingest"), stored_cells, 1e6), "us")
    put("store.trend_ms", mean("store.trend", 1e3), "ms")
    put("store.variance_ms", mean("store.group_variance", 1e3), "ms")

    attributed = sum(stat[2] for stat in t.spans.values()) - t.self_time("runner.cell")
    put("tracer.attributed_share", attributed / wall_s if wall_s else 0.0, "ratio")
    return metrics


__all__ = [
    "BITSET_BACKEND_NAMES",
    "BITSET_KERNELS",
    "CONDITION_CHECKERS",
    "Tracer",
    "cell_breakdown",
    "install",
    "layer_metrics",
]
