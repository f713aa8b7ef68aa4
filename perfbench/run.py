"""pld benchmark: one workload per process, timed from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for inputs and output checks):

- ``mc-grid`` exercises the Monte Carlo chunk kernel (``montecarlo``,
  ``crypto``, ``channels``); ``strategy``, ``fbl`` and ``cli`` do no work.
- ``optimize-grid`` exercises ``fbl``, ``distortion.delta_terms``,
  ``strategy``, ``core`` and ``cli.write_csv``; ``montecarlo`` does none.
- ``validate-oracle`` exercises ``distortion.enumeration_oracle`` and
  one-chunk Monte Carlo calls, where per-call overhead dominates.

The run sets up the workload, then repeats passes until ``--seconds`` have
passed (and at least the workload's minimum number of passes ran).  Untraced
runs also time one cold set-up in a fresh interpreter before the first pass
and after each pass; ``setup_s`` is their median.  Spreading the set-ups
over the run keeps a short slow spell of a shared machine from deciding it.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
``setup_s``; ``wall_s``, the median pass time; ``cells_per_s`` and
``trials_per_s``, the median over passes; ``cell_ms_p50`` and
``cell_ms_p90``, per Monte Carlo call on ``mc-grid`` and per pass divided by
its cell count elsewhere; and ``peak_rss_mb`` of this process.  The result
line's ``attempted`` and ``failed`` are the ``ops`` and ``failed_ops`` counts.

``--trace 1`` runs the same untraced passes, then measures thread scaling on
one Monte Carlo cell, then repeats pass 0 with every layer boundary wrapped
by ``spans.Tracer``, and prints the per-layer metrics.  Each one should move
an end-to-end metric on one workload and leave the others flat:

==================================================  ========================
per-layer metric                                    should move
==================================================  ========================
core.Scenario.builds (5 per SNR cell)               cells_per_s, optimize-grid
fbl.packet_error_rate.calls / .self_s               cells_per_s, optimize-grid
distortion.delta_terms.calls / .self_s              cells_per_s, optimize-grid
distortion.enumeration_oracle.calls/.self_s/.terms  wall_s, validate-oracle
strategy.*.self_s                                   cells_per_s, optimize-grid
montecarlo.simulate_batch.calls / .self_s,          trials_per_s, cell_ms_p50,
  chunk_ms_p50, estimate_distortion.self_s,         peak_rss_mb on mc-grid;
  record_bytes_per_trial                            wall_s on validate-oracle
montecarlo.workers2_speedup                         none; records scaling
crypto.*.self_s, channels.delivery_mask.self_s      trials_per_s, mc-grid
cli.load_scenario_file/.write_csv/.run_validation   wall_s, optimize-grid and
  .self_s, cli.csv_bytes                            validate-oracle
==================================================  ========================

The last line of standard output is the JSON result.  Metric names and
units come from ``BENCHMARK.json`` at the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    import pld
    import workloads
    from pld import montecarlo
    from pld.core import Scenario
except ImportError as exc:
    sys.exit(f"perfbench: cannot import pld from {ROOT / 'src'}: {exc}")
if not Path(pld.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: pld was imported from {pld.__file__}, not {ROOT / 'src'}")

from stats import quantile  # noqa: E402
from spans import Tracer  # noqa: E402

#: Functions wrapped in the traced pass, as "module.name" inside ``pld``.
TRACED = (
    "core.Scenario",
    "fbl.packet_error_rate",
    "distortion.delta_terms",
    "distortion.enumeration_oracle",
    "strategy.optimize_deception",
    "strategy.receiver_value_of_alpha",
    "strategy.lower_envelope",
    "strategy.sublevel_intervals",
    "montecarlo.estimate_distortion",
    "montecarlo.simulate_batch",
    "crypto.sample_keys",
    "crypto.encrypt_batch",
    "crypto.decrypt_batch",
    "channels.delivery_mask",
    "cli.load_scenario_file",
    "cli.write_csv",
    "cli.run_validation",
)


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def setup_seconds(name: str, seed: int, tmp: Path, tiny: bool) -> float:
    """One cold set-up of the workload in its own interpreter."""
    probe_tmp = Path(tempfile.mkdtemp(dir=tmp))
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
            str(probe_tmp)] + (["--tiny"] if tiny else [])
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def run_passes(workload, seconds: float, probe=None) -> tuple[list, list[float]]:
    """Passes until ``seconds`` have passed; ``probe()`` before and after each."""
    passes = []
    setups = [probe()] if probe else []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(workload.inputs(len(passes))))
        if probe:
            setups.append(probe())
    return passes, setups


def end_to_end(passes: list, setups: list[float]) -> dict[str, float]:
    """Medians over passes, which a burst of load on a shared machine moves least."""
    cell_s = [s for p in passes for s in p.cell_s] or [p.seconds / p.cells for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.seconds for p in passes),
        "cells_per_s": statistics.median(p.cells / p.seconds for p in passes),
        "trials_per_s": statistics.median(p.trials / p.seconds for p in passes),
        "cell_ms_p50": quantile(cell_s, 0.5) * 1e3,
        "cell_ms_p90": quantile(cell_s, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def workers2_speedup(seed: int, chunks: int, repeats: int) -> tuple[float, bool]:
    """Speed-up of one cell at workers=2 over workers=1; same estimate both ways."""
    cell = Scenario(codebook_size=4, d_loss=1.0, d_conf=10.0, alpha=0.99)
    mix = workloads.STRATEGIES[3]
    trials = chunks * montecarlo.CHUNK_TRIALS
    times: dict[int, list[float]] = {1: [], 2: []}
    estimates = {}
    for _ in range(repeats):
        for workers in (1, 2):
            t0 = time.perf_counter()
            estimates[workers] = montecarlo.estimate_distortion(
                cell, 0.1, 0.1, mix, trials, seed, workers=workers
            )
            times[workers].append(time.perf_counter() - t0)
    speedup = statistics.median(times[1]) / statistics.median(times[2])
    return speedup, estimates[1] == estimates[2]


def layer_observers(counters: dict[str, float]) -> dict:
    """Tracer targets, with hooks that read sizes from calls and results."""

    def record_bytes(args, kwargs, result):
        fields = vars(result).values() if hasattr(result, "__dict__") else result
        arrays = [v for v in fields if isinstance(v, np.ndarray)]
        trials = max(len(a) for a in arrays)
        counters["record_bytes_per_trial"] = sum(a.nbytes for a in arrays) / trials

    def oracle_terms(args, kwargs, result):
        scenario = args[0] if args else kwargs["scenario"]
        counters["oracle_terms"] += scenario.codebook_size ** 2

    def csv_bytes(args, kwargs, result):
        out = args[2] if len(args) > 2 else kwargs.get("out")
        if out is not None:
            counters["csv_bytes"] += os.path.getsize(out)

    hooks = {
        "montecarlo.simulate_batch": record_bytes,
        "distortion.enumeration_oracle": oracle_terms,
        "cli.write_csv": csv_bytes,
    }
    return {name: hooks.get(name) for name in TRACED}


def per_layer(spans: dict, counters: dict, speedup: float, overhead: float) -> dict:
    metrics = {
        "core.Scenario.builds": spans["core.Scenario"]["calls"],
        "distortion.enumeration_oracle.terms": counters["oracle_terms"],
        "montecarlo.chunk_ms_p50": spans["montecarlo.simulate_batch"]["ms_p50"],
        "montecarlo.record_bytes_per_trial": counters["record_bytes_per_trial"],
        "montecarlo.workers2_speedup": speedup,
        "cli.csv_bytes": counters["csv_bytes"],
        "trace.overhead_frac": overhead,
    }
    for name, span in spans.items():
        metrics[f"{name}.calls"] = span["calls"]
        metrics[f"{name}.self_s"] = span["self_s"]
    return metrics


def traced_pass(workload, seed: int, tiny: bool, untraced_wall_s: float):
    """Thread scaling, then pass 0 with every layer boundary wrapped."""
    speedup, same = workers2_speedup(seed, 2 if tiny else 4, 1 if tiny else 3)
    counters = {"record_bytes_per_trial": 0.0, "oracle_terms": 0, "csv_bytes": 0}
    inputs = workload.inputs(0)
    tracer = Tracer()
    tracer.install(layer_observers(counters))
    try:
        result = workload.run_pass(inputs)
    finally:
        tracer.uninstall()
    overhead = result.seconds / untraced_wall_s - 1.0
    return per_layer(tracer.summary(), counters, speedup, overhead), result, same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    specs = metric_specs()

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp, args.tiny)
        workload.setup()
        probe = None if args.trace else partial(
            setup_seconds, args.workload, args.seed, tmp, args.tiny)
        passes, setups = run_passes(workload, args.seconds, probe)
        ops = sum(p.ops for p in passes)
        failed = sum(p.failed for p in passes)
        if args.trace:
            wall_s = statistics.median(p.seconds for p in passes)
            values, traced, same = traced_pass(workload, args.seed, args.tiny, wall_s)
            ops += traced.ops + 1
            failed += traced.failed + (not same)
            units = specs["per_layer"]
        else:
            values = end_to_end(passes, setups)
            units = specs["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    cells = sum(p.cells for p in passes)
    print(f"{args.workload}: seed {args.seed}, {len(passes)} passes, {cells} cells, workers=1")
    print("  pass_s " + " ".join(f"{p.seconds:.4f}" for p in passes))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'ops':40s} {ops:>14d}\n  {'failed_ops':40s} {failed:>14d}")
    print(json.dumps({"correct": failed == 0, "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
