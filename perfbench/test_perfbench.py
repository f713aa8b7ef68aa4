"""Self-test of the benchmark at its smallest size.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that corrupted program output raises ``failed_ops``, and that the tracer
attributes self time and restores what it wrapped.
"""
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from pld import cli, distortion, montecarlo, strategy  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1])
        if not trace:
            assert got["value"] > 0


def test_flipped_csv_byte_is_a_failed_op(tmp_path, monkeypatch):
    grid = workloads.OptimizeGrid(7, tmp_path, tiny=True)
    grid.setup()
    assert grid.run_pass(grid.inputs(0)).failed == 0
    write_csv = cli.write_csv

    def corrupting(header, rows, out):
        write_csv(header, rows, out)
        data = bytearray(Path(out).read_bytes())
        data[len(data) // 2] ^= 0x01
        Path(out).write_bytes(bytes(data))

    monkeypatch.setattr(cli, "write_csv", corrupting)
    assert grid.run_pass(grid.inputs(0)).failed == 1


def test_closed_form_off_by_10_sigma_is_a_failed_cell(tmp_path, monkeypatch):
    grid = workloads.McGrid(7, tmp_path, tiny=True)
    grid.setup()
    target = se = None
    for sc, eps_p, eps_s, strat, _, seed, _ in grid.inputs(0):
        est = montecarlo.estimate_distortion(sc, eps_p, eps_s, strat, grid.trials, seed)
        if est.std_error > 0:
            target, se = (sc, eps_p, eps_s, strat), est.std_error
            break
    closed_form = distortion.opportunistic_distortion

    def offset(sc, eps_p, eps_s, strat):
        report = closed_form(sc, eps_p, eps_s, strat)
        if (sc, eps_p, eps_s, strat) == target:
            return replace(report, total=report.total + 10.0 * se)
        return report

    monkeypatch.setattr(distortion, "opportunistic_distortion", offset)
    result = grid.run_pass(grid.inputs(0))
    assert result.failed == 1
    assert result.trials == (result.cells + 1) * grid.trials  # one rerun


def test_failing_gate_is_a_failed_op(tmp_path, monkeypatch):
    oracle = workloads.ValidateOracle(7, tmp_path, tiny=True)
    oracle.setup()
    assert oracle.run_pass(oracle.inputs(0)).failed == 0
    enumerate_ = distortion.enumeration_oracle
    monkeypatch.setattr(distortion, "enumeration_oracle",
                        lambda *args: enumerate_(*args) + 1.0)
    result = oracle.run_pass(oracle.inputs(0))
    assert (result.ops, result.failed) == (6, 1)


def test_tracer_wraps_direct_imports_and_splits_self_time():
    original = strategy.delta_terms
    sc = cli.load_scenario_file(str(ROOT / "scenarios/small_codebook.json")).scenario
    tracer = Tracer()
    tracer.install({"strategy.receiver_value_of_alpha": None,
                    "distortion.delta_terms": None,
                    "core.Scenario": None})
    try:
        strategy.receiver_value_of_alpha(sc, 0.1, 0.2)
    finally:
        tracer.uninstall()
    assert strategy.delta_terms is original and distortion.delta_terms is original
    spans = tracer.summary()
    outer, inner = spans["strategy.receiver_value_of_alpha"], spans["distortion.delta_terms"]
    assert (outer["calls"], inner["calls"], spans["core.Scenario"]["calls"]) == (1, 2, 2)
    children = inner["s"] + spans["core.Scenario"]["s"]
    assert outer["self_s"] == pytest.approx(outer["s"] - children, abs=1e-9)
