"""The benchmark's three workloads: inputs from a seed, timed passes, checks.

A workload runs in passes.  ``inputs(index)`` generates a pass's inputs and
anything its checks need; ``run_pass`` calls the program through its public
functions, times those calls and checks the outputs.  A pass reports how
many cells and trials it covered and how many of its operations were
attempted and failed.

- ``mc-grid``: C02-shaped Monte Carlo cells at one full chunk each, two per
  (codebook, strategy) stratum and pass, with alpha and the two error rates
  drawn from C02's grids.  An operation is one cell; it fails when the
  estimate lies outside 4 standard errors of the closed form on its seed and
  again on a fresh seed (C02's rule).
- ``optimize-grid``: ``pld optimize-alpha`` over a 201 x 201 Bob x Eve SNR
  grid on the large-codebook scenario.  An operation is one run; it fails
  when the CSV's SHA-256 differs from the digest recorded from the seed
  commit, or when a feasible row exceeds the distortion cap (C08's rule).
- ``validate-oracle``: ``pld validate`` on the small scenario with the
  codebook raised to the enumeration cap.  An operation is one gate; a gate
  fails unless it reports PASS.

A cell is the unit a workload's latency is quoted in: a Monte Carlo
estimate, an SNR cell, or a closed-form-vs-enumeration cell.  A trial is the
finest unit of input: a simulated pipeline walk where Monte Carlo runs, an
SNR cell on ``optimize-grid``, where none does.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pld import cli, distortion, montecarlo
from pld.core import ENUMERATION_CAP
from pld.distortion import DROPPING, EXCLUSION, PERCEPTION, ReceiverStrategy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = ROOT / "scenarios"

CODEBOOKS = (2, 3, 4, 1 << 64)
ALPHAS = (0.0, 0.5, 0.99, 1.0)
EPS_VALUES = (0.0, 0.01, 0.1, 0.5)
STRATEGIES = (PERCEPTION, DROPPING, EXCLUSION, ReceiverStrategy(1 / 3, 1 / 3, 1 / 3))

#: C08 and the strategy tests accept a plan whose Bob distortion exceeds the
#: cap by this much: the interval endpoint is a rounded crossing point.
CAP_SLACK = 1e-12


@dataclass
class PassResult:
    """What one pass did; ``cell_s`` holds per-cell times where measured."""

    seconds: float
    cells: int
    trials: int
    ops: int
    failed: int
    cell_s: list[float] = field(default_factory=list)


def outside_4sigma(est: montecarlo.McEstimate, closed: float) -> bool:
    """C02's per-seed test: is the estimate more than 4 standard errors off?"""
    return abs(est.mean - closed) > 4.0 * est.std_error


def grid_csv_ok(data: bytes, digest: str, d_max: float) -> bool:
    """The CSV matches the recorded digest and every feasible row meets the cap."""
    if hashlib.sha256(data).hexdigest() != digest:
        return False
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return all(
        float(row["bob_distortion"]) <= d_max + CAP_SLACK
        for row in rows
        if row["feasible"] == "true"
    )


def gate_verdicts(text: str) -> list[str]:
    """Status word of every gate line in ``pld validate`` output."""
    lines = text.splitlines()
    return [line.split(" ", 1)[0] for line in lines if not line.startswith("gates:")]


def _run_cli(argv: list[str]) -> tuple[int, float]:
    t0 = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - t0


class McGrid:
    """C02's cell loop at workers=1, one 2^19-trial chunk per cell."""

    name = "mc-grid"
    min_passes = 4  # 128 cells, so p90 has at least 12 samples beyond it

    def __init__(self, seed: int, tmp: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.trials = 1 << 12 if tiny else montecarlo.CHUNK_TRIALS
        self.per_stratum = 1 if tiny else 2

    def setup(self) -> None:
        self.base = cli.load_scenario_file(str(SCENARIOS / "small_codebook.json")).scenario
        warm = replace(self.base, codebook_size=4)
        montecarlo.estimate_distortion(warm, 0.1, 0.1, STRATEGIES[3], 4096, self.seed)

    def inputs(self, index: int) -> list[tuple]:
        """Pass ``index``'s cells: (scenario, eps_p, eps_s, strategy, closed form,
        seed, rerun seed)."""
        rng = np.random.default_rng([self.seed, index])
        cells = []
        for size in CODEBOOKS:
            for strat in STRATEGIES:
                for _ in range(self.per_stratum):
                    alpha, eps_p, eps_s = (
                        float(rng.choice(v)) for v in (ALPHAS, EPS_VALUES, EPS_VALUES)
                    )
                    seed, rerun = (int(s) for s in rng.integers(0, 1 << 63, size=2))
                    sc = replace(self.base, codebook_size=size, alpha=alpha)
                    closed = distortion.opportunistic_distortion(sc, eps_p, eps_s, strat)
                    cells.append((sc, eps_p, eps_s, strat, closed.total, seed, rerun))
        return [cells[i] for i in rng.permutation(len(cells))]

    def run_pass(self, cells: list[tuple]) -> PassResult:
        result = PassResult(0.0, len(cells), 0, len(cells), 0)
        start = time.perf_counter()
        for sc, eps_p, eps_s, strat, closed, seed, rerun in cells:
            t0 = time.perf_counter()
            est = montecarlo.estimate_distortion(sc, eps_p, eps_s, strat, self.trials, seed)
            result.cell_s.append(time.perf_counter() - t0)
            result.trials += self.trials
            if outside_4sigma(est, closed):
                est = montecarlo.estimate_distortion(
                    sc, eps_p, eps_s, strat, self.trials, rerun
                )
                result.trials += self.trials
                result.failed += outside_4sigma(est, closed)
        result.seconds = time.perf_counter() - start
        return result


class OptimizeGrid:
    """``pld optimize-alpha`` on a dense Bob x Eve SNR grid, CSV to a file."""

    name = "optimize-grid"
    min_passes = 3

    def __init__(self, seed: int, tmp: Path, tiny: bool = False) -> None:
        self.points = 11 if tiny else 201
        self.scenario = str(SCENARIOS / "large_codebook.json")
        self.out = tmp / "optimize.csv"
        self.warm_out = tmp / "warm.csv"
        digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        self.digest = digests[self.name][f"{self.points}x{self.points}"]

    def argv(self, points: int, out: Path) -> list[str]:
        step = str(10.0 / (points - 1))
        axes = []
        for axis in ("bob", "eve"):
            axes += [f"--{axis}-snr-lo", "-5", f"--{axis}-snr-hi", "5",
                     f"--{axis}-snr-step", step]
        return ["optimize-alpha", "--scenario", self.scenario, *axes, "--out", str(out)]

    def setup(self) -> None:
        self.d_max = cli.load_scenario_file(self.scenario).d_max
        code, _ = _run_cli(self.argv(3, self.warm_out))
        if code != 0:
            raise RuntimeError(f"optimize-alpha warm-up exited {code}")

    def inputs(self, index: int) -> list[str]:
        return self.argv(self.points, self.out)

    def run_pass(self, argv: list[str]) -> PassResult:
        code, seconds = _run_cli(argv)
        ok = code == 0 and grid_csv_ok(self.out.read_bytes(), self.digest, self.d_max)
        cells = self.points * self.points
        return PassResult(seconds, cells, cells, 1, int(not ok))


class ValidateOracle:
    """``pld validate`` with the codebook at the enumeration cap."""

    name = "validate-oracle"
    min_passes = 4
    #: 4 (eps_p, eps_s) pairs x 4 strategies checked against enumeration.
    oracle_cells = 16
    #: The Monte Carlo gate's estimates: the 4 strategies plus the optimum.
    mc_estimates = 5

    def __init__(self, seed: int, tmp: Path, tiny: bool = False) -> None:
        self.seed = seed
        spec = json.loads((SCENARIOS / "small_codebook.json").read_text(encoding="utf-8"))
        spec["codebook_size"] = 64 if tiny else ENUMERATION_CAP
        spec["mc_trials"] = 20_000 if tiny else spec["mc_trials"]
        spec["seed"] = seed
        self.mc_trials = spec["mc_trials"]
        self.scenario = tmp / "validate.json"
        self.scenario.write_text(json.dumps(spec), encoding="utf-8")
        self.out = tmp / "validate.txt"
        self.warm_out = tmp / "warm.txt"

    def setup(self) -> None:
        cli.load_scenario_file(str(self.scenario))
        small = str(SCENARIOS / "small_codebook.json")
        code, _ = _run_cli(["validate", "--scenario", small, "--trials", "4096",
                            "--out", str(self.warm_out)])
        if code != 0:
            raise RuntimeError(f"validate warm-up exited {code}")

    def inputs(self, index: int) -> list[str]:
        pass_seed = int(np.random.default_rng([self.seed, index]).integers(0, 1 << 63))
        return ["validate", "--scenario", str(self.scenario), "--seed", str(pass_seed),
                "--out", str(self.out)]

    def run_pass(self, argv: list[str]) -> PassResult:
        code, seconds = _run_cli(argv)
        verdicts = gate_verdicts(self.out.read_text(encoding="utf-8")) if code in (0, 1) else []
        trials = self.mc_estimates * self.mc_trials
        if not verdicts:  # no gate report at all: one failed operation
            return PassResult(seconds, self.oracle_cells, trials, 1, 1)
        failed = sum(v != "PASS" for v in verdicts)
        return PassResult(seconds, self.oracle_cells, trials, len(verdicts), failed)


WORKLOADS = {w.name: w for w in (McGrid, OptimizeGrid, ValidateOracle)}
