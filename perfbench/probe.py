"""Set-up probe: times, in a fresh interpreter, importing collide (with
numpy) and building one workload's inputs, and prints the seconds.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKERS
"""

import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports collide and numpy)

workloads.make(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
print(time.perf_counter() - started)
