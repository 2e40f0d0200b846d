"""The repository benchmark: one workload, end to end or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bw-flood --seed 1 --seconds 20 --trace 0

Workloads: ``bw-flood``, ``bw-complete``, ``check-large``, ``sweep-small``
(see ``perfbench/workloads.py`` and ``perfbench/METRICS.md``).  Every run
happens in fresh processes started from here, with ``PYTHONPATH=src``.

``--trace 0`` starts set-up samples and one measured run, and prints the
end-to-end metrics.  ``--trace 1`` starts one serial run whose rounds
alternate between untraced and traced, and prints the per-layer metrics
with the tracing overhead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; every
cell's outcome is checked (``perfbench/workloads.py:cell_failures``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

#: Set-up samples per untraced run: this many set-up-only processes plus
#: the measured run's own set-up; ``setup_s`` is their median.
SETUP_PROBES = 2

#: Every child must have finished this long after the benchmark started.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """A child process failed or overran; the run prints no result."""


def _child(args: argparse.Namespace, mode: str, deadline: float) -> Dict[str, object]:
    """Run one workload process; its report plus the ``started`` stamp."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--scratch", str(SCRATCH),
    ]
    # perf_counter is CLOCK_MONOTONIC, one clock for every process.
    started = time.perf_counter()
    command += ["--started", repr(started)]
    # A session of its own, so a timeout can stop the pool workers too.
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"{mode} run of {args.workload} overran the deadline") from None
    if process.returncode != 0:
        raise BenchmarkError(f"{mode} run of {args.workload} exited with {process.returncode}")
    lines = output.splitlines()
    if not lines:
        raise BenchmarkError(f"{mode} run of {args.workload} printed no report")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    report["started"] = started
    return report


def end_to_end(args: argparse.Namespace, deadline: float) -> Tuple[Dict, int, int]:
    setups = [_child(args, "setup", deadline) for _ in range(SETUP_PROBES)]
    run = _child(args, "run", deadline)
    rates = ", ".join(f"{rate:.4g}" for rate in run["round_cells_per_s"])
    print(f"cells/s of the {len(run['round_cells_per_s'])} rounds: {rates}")
    attempted, failed = run["cells"], run["failed"]
    metrics = {
        "setup_s": (
            statistics.median(r["first_dispatch"] - r["started"] for r in setups + [run]),
            "s",
        ),
        "cells_per_s": (run["cells_per_s"], "cells/s"),
        "wall_s": (run["wall_s"], "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "passed_cell_share": (1.0 - failed / attempted, "ratio"),
    }
    return metrics, attempted, failed


def per_layer(args: argparse.Namespace, deadline: float) -> Tuple[Dict, int, int]:
    traced = _child(args, "trace", deadline)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    return metrics, traced["cells"], traced["failed"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed = measure(args, deadline)
    except BenchmarkError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
