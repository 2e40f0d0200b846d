"""Fresh-process entry that runs one workload; ``perfbench/run.py`` starts it
with ``PYTHONPATH`` holding the checkout's ``src`` directory."""

import sys

import workloads

if __name__ == "__main__":
    sys.exit(workloads.child_main())
