"""The optimizer's reported values against the enumeration oracle.

For a feasible ``optimize-alpha`` row, the scenario is set to the row's
``alpha_opt`` and each receiver plays the strategy that
``optimal_receiver_strategy`` picks at its own error rate, the CLI's float
rate for its SNR.  ``enumeration_oracle``, which shares no code with
``pld.strategy``, then gives the distortion the row reports for Bob and Eve.
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pld.cli import load_scenario_file, main, snr_grid
from pld.distortion import delta_terms, enumeration_oracle
from pld.fbl import FblCode, error_rates
from pld.strategy import optimal_receiver_strategy

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

#: id -> (scenario file, codebook size or None for the file's, SNR step on
#: both -5..5 dB axes, every how many feasible rows, rows checked)
GRIDS = {
    "small-21x21": ("small_codebook", None, "0.5", 1, 126),
    "large-S=257-21x21": ("large_codebook", 257, "0.5", 1, 126),
    "small-201x201-every-third": ("small_codebook", None, "0.05", 3, 3953),
}


@pytest.fixture(scope="module", params=list(GRIDS))
def values(request, tmp_path_factory):
    """(reported, oracle): one row a checked CSV row, Bob's value then Eve's."""
    name, size, step, every, count = GRIDS[request.param]
    spec = json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))
    spec["codebook_size"] = size or spec["codebook_size"]
    path = tmp_path_factory.mktemp("grid") / "scenario.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    out = path.with_name("grid.csv")
    axes = []
    for axis in ("bob", "eve"):
        axes += [f"--{axis}-snr-lo", "-5", f"--{axis}-snr-hi", "5",
                 f"--{axis}-snr-step", step]
    assert main(["optimize-alpha", "--scenario", str(path), *axes, "--out", str(out)]) == 0
    scenario = load_scenario_file(str(path)).scenario
    grid = snr_grid(-5.0, 5.0, float(step))
    rate = dict(zip(grid, error_rates(FblCode.from_scenario(scenario), grid).tolist()))
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    rows = [line.split(",") for line in lines if line.endswith(",true")][::every]
    assert len(rows) == count
    reported, oracle = [], []
    for snr_bob, snr_eve, alpha, eve, bob in ([float(v) for v in r[:5]] for r in rows):
        sc = replace(scenario, alpha=alpha)
        pairs = [(rate[snr_bob],) * 2, (rate[snr_eve],) * 2]
        strategies = [optimal_receiver_strategy(delta_terms(sc, eps_s)).strategy
                      for _, eps_s in pairs]
        reported.append((bob, eve))
        oracle.append(enumeration_oracle(sc, pairs, strategies).diagonal())
    return np.array(reported), np.array(oracle)


def test_optimizer_values_match_the_oracle_at_the_validate_gates_tolerance(values):
    # the closed-form-vs-enumeration gate's measure: relative to max(1, |oracle|)
    reported, oracle = values
    assert np.all(np.abs(reported - oracle) <= 1e-10 * np.maximum(1.0, np.abs(oracle)))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: near alpha_opt = 1 the optimizer's intercept + slope*x "
    "cancels, so values of ~1e-8 are off by up to ~6e-9 relative"))
def test_optimizer_values_match_the_oracle_at_c01s_tolerance(values):
    # C01's measure: relative to |oracle| itself
    reported, oracle = values
    assert np.all(np.abs(reported - oracle) <= 1e-10 * np.abs(oracle))
