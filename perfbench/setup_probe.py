"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing ``pld``, loading the workload's scenario and making one
warm-up call.  Writing the generated inputs is not counted.  Prints the
seconds as the last line.  ``run.py`` starts this several times per run and
reports the median as ``setup_s``.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED TMPDIR [--tiny]
"""
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports pld; timed)

imported = time.perf_counter() - t0

name, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workload = workloads.WORKLOADS[name](seed, tmp, tiny="--tiny" in sys.argv[4:])
t1 = time.perf_counter()
workload.setup()
print(imported + time.perf_counter() - t1)
