"""Record the per-cell reference outcomes the benchmark checks at its default seed.

Run from the root of a checkout, after a change that is meant to alter cell
outcomes (never to make a failing run pass)::

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Each workload runs its minimum number of rounds at the default seed; a run
with any failed cell writes nothing.  The result is
``perfbench/reference/<workload>.json.gz``: the grid's digest and every
cell's ``[success, rounds, messages, output_range]`` in cell-index order.
"""

from __future__ import annotations

import argparse
import gzip
import json
import pathlib
import sys

import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.names:
        workload = workloads.WORKLOADS[name]
        record = workloads.run_workload(
            workload,
            workloads.DEFAULT_SEED,
            0.0,
            workers=workload.workers,
            scratch=ROOT / ".perfbench_tmp",
        )
        problems = [line for round_ in record.rounds for line in round_.failures]
        if problems:
            for line in problems:
                print(f"FAILED {line}", file=sys.stderr)
            return 1
        path = workloads.reference_path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = workloads.reference_payload(record.spec, record.rounds[0].results)
        text = json.dumps(payload, separators=(",", ":"))
        with gzip.GzipFile(path, "wb", mtime=0) as handle:
            handle.write(text.encode("utf-8"))
        print(f"{path}: {len(record.rounds[0].results)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
