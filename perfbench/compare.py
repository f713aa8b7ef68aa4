"""Collect result sets of the benchmark, check their steadiness, compare two.

    python3 perfbench/compare.py series OUT.jsonl [--runs 10] [--seed0 1]
        [--workload NAME ...] [--trace 0|1] [--root CHECKOUT]
    python3 perfbench/compare.py baseline OUT.json RESULTS.jsonl [...]
    python3 perfbench/compare.py compare PARENT.jsonl CHANGE.jsonl

``series`` runs ``perfbench/run.py`` once per seed and workload inside
``--root`` (default: this checkout), appends one JSON record per run and
prints each metric's median, quartiles and spread (interquartile distance
over the median) next to its bound.

``baseline`` writes those summaries, for untraced and traced result sets
alike, with the raw values and the machine's provenance: ``nproc``, CPU
model, Python and numpy versions and git SHA.

``compare`` prints one row per workload and metric: both sides' quartiles,
the share of pairs (the i-th run of each side) the change won, ties
counting for neither, and a verdict.  *improved*: the change won at least
9 in 10 pairs and the
medians differ by more than the parent's interquartile distance.  *no
worse*: the change's median is not worse than the parent's by more than the
metric's bound.  *worse*: it is.  *unresolved*: either side's spread is
wider than the bound, unless every change run beats every parent run.
Per-layer metrics have no bound; they are shown as *improved* or *-*.  A
gain does not count on a workload where the change failed more operations.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_table(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def read_results(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def grouped(records: list[dict]) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def summarize(records: list[dict], spec: dict) -> dict:
    table = metric_table(spec)
    summary: dict[str, dict] = {}
    for (workload, name), by_seed in sorted(grouped(records).items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        summary.setdefault(workload, {})[name] = {
            "runs": len(values),
            "q1": q1,
            "median": med,
            "q3": q3,
            "spread": spread(values) if med else None,  # a layer the workload skips
            "bound": table.get(name, {}).get("bound"),
            "values": values,
        }
    for workload in summary:
        runs = [r for r in records if r["workload"] == workload]
        summary[workload]["_ops"] = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
        }
    return summary


def print_summary(summary: dict) -> bool:
    steady = True
    print(f"{'workload':16s} {'metric':40s} {'n':>3s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload, metrics in summary.items():
        ops = metrics["_ops"]
        print(f"{workload:16s} {'ops / failed_ops':40s} {ops['attempted']:>12d} "
              f"{ops['failed']:>12d}")
        for name, s in metrics.items():
            if name == "_ops":
                continue
            bound = s["bound"]
            flag = ""
            if bound is not None and name != "setup_s":
                flag = " ok" if s["spread"] < bound / 3 else " WIDE"
                steady = steady and s["spread"] <= bound
            print(f"{workload:16s} {name:40s} {s['runs']:>3d} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{'-' if s['spread'] is None else format(s['spread'], '7.3f'):>7s} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return steady


def cmd_series(args) -> int:
    root = Path(args.root).resolve()
    spec = load_spec(root)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    records = []
    with open(args.out, "a", encoding="utf-8") as out:
        for i in range(args.runs):
            seed = args.seed0 + i
            for name in names:
                argv = [*spec["command"], "--workload", name, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                                      timeout=900)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    return done.returncode
                rec = {"workload": name, "seed": seed, "trace": args.trace,
                       "result": json.loads(done.stdout.splitlines()[-1])}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                records.append(rec)
                print(f"run {i + 1}/{args.runs} {name} seed {seed}: "
                      f"failed {rec['result']['failed']}", flush=True)
    return 0 if print_summary(summarize(records, spec)) else 1


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def cmd_baseline(args) -> int:
    spec = load_spec(HERE.parent)
    records = [rec for path in args.results for rec in read_results(Path(path))]
    summary = summarize(records, spec)
    steady = print_summary(summary)
    doc = {"provenance": provenance(), "run_seconds": spec["run_seconds"],
           "seeds": sorted({r["seed"] for r in records}), "workloads": summary}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


def verdict(metric: dict, parent: dict[int, float], change: dict[int, float]) -> tuple[str, float]:
    lower = metric["better"] == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p_vals, c_vals = list(parent.values()), list(change.values())
    pairs = list(zip(c_vals, p_vals))
    won = sum(beats(c, p) for c, p in pairs) / len(pairs)
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = quartiles(c_vals)[1]
    if won >= 0.9 and beats(c_med, p_med) and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", won
    bound = metric.get("bound")
    if bound is None:
        return "-", won
    if all(beats(c, p) for c in c_vals for p in p_vals):
        return "no worse", won
    if max(spread(p_vals), spread(c_vals)) > bound:
        return "unresolved", won
    worse_by = (c_med - p_med) / abs(p_med) if lower else (p_med - c_med) / abs(p_med)
    return ("worse" if worse_by > bound else "no worse"), won


def cmd_compare(args) -> int:
    spec = load_spec(HERE.parent)
    table = metric_table(spec)
    parent_runs, change_runs = read_results(Path(args.parent)), read_results(Path(args.change))
    parent, change = grouped(parent_runs), grouped(change_runs)
    parent_failed, change_failed = (
        {w: s["_ops"]["failed"] for w, s in summarize(runs, spec).items()}
        for runs in (parent_runs, change_runs)
    )
    for workload in sorted(set(parent_failed) & set(change_failed)):
        print(f"{workload:16s} {'failed_ops':40s} parent {parent_failed[workload]}, "
              f"change {change_failed[workload]}")
    print(f"{'workload':16s} {'metric':40s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'won':>5s} verdict")
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        if name not in table:
            continue
        result, won = verdict(table[name], parent[key], change[key])
        if result == "improved" and change_failed[workload] > parent_failed[workload]:
            result = "not counted: more failed ops"
        regressed = regressed or result == "worse"
        p = "/".join(f"{v:.4g}" for v in quartiles(list(parent[key].values())))
        c = "/".join(f"{v:.4g}" for v in quartiles(list(change[key].values())))
        print(f"{workload:16s} {name:40s} {p:>32s} {c:>32s} {won:>5.2f} {result}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("series", help="run the benchmark over several seeds")
    p.add_argument("out")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", default=str(HERE.parent))
    p.set_defaults(func=cmd_series)
    p = sub.add_parser("baseline", help="write summaries with provenance")
    p.add_argument("out")
    p.add_argument("results", nargs="+")
    p.set_defaults(func=cmd_baseline)
    p = sub.add_parser("compare", help="compare a parent and a change result set")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
