"""Command-line drivers: error-rate tables, receiver sweeps, activation-rate
optimization, and an oracle-based self-check suite.

All tabular output is CSV (comma, dot-decimal, UTF-8, LF) with a fixed
header; byte-identical for identical inputs and seed.  Exit codes: 0 on
success, 1 when a validation gate fails, 2 on bad input.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from . import distortion, montecarlo, strategy
from .channels import TransportChannel, primary_pmf, secondary_pmf
from .core import (
    ENUMERATION_CAP,
    NULL_KEY,
    NULL_MSG,
    Scenario,
    ScenarioError,
    _is_int,
    code_violations,
)
from .crypto import ShiftCipher, decrypt_batch, encrypt_batch
from .distortion import DROPPING, EXCLUSION, PERCEPTION, ReceiverStrategy
from .fbl import FblCode, packet_error_rate, snr_db_to_linear

SCENARIO_KEYS = frozenset(
    {
        "codebook_size",
        "d_loss",
        "d_conf",
        "alpha",
        "payload_bits",
        "code_rate",
        "snr_bob_db",
        "snr_eve_db",
        "d_max",
        "mc_trials",
        "seed",
    }
)

_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class ScenarioFile:
    """Model parameters plus run settings; bad settings raise ValueError."""

    scenario: Scenario
    d_max: float
    mc_trials: int
    seed: int

    def __post_init__(self) -> None:
        bad = []
        if not (math.isfinite(self.d_max) and self.d_max > 0):
            bad.append(f"d_max must be finite and > 0, got {self.d_max!r}")
        if self.mc_trials < 1:
            bad.append(f"mc_trials must be >= 1, got {self.mc_trials}")
        if not 0 <= self.seed <= _MAX_SEED:
            bad.append(f"seed must fit in 64 bits, got {self.seed}")
        if bad:
            raise ValueError("; ".join(bad))


def _is_real(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_scenario_file(path: str) -> ScenarioFile:
    """Parse and validate a scenario JSON document (strict keys)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    problems = []
    unknown = sorted(set(data) - SCENARIO_KEYS)
    if unknown:
        problems.append(f"unknown keys: {', '.join(unknown)}")
    missing = sorted(SCENARIO_KEYS - set(data))
    if missing:
        problems.append(f"missing keys: {', '.join(missing)}")
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))

    size = data["codebook_size"]
    if size == "2^64":
        size = 1 << 64
    elif not _is_int(size):
        problems.append(
            f"codebook_size must be an integer or the string \"2^64\", got {size!r}"
        )
    reals = {}
    for key in ("d_loss", "d_conf", "alpha", "code_rate", "snr_bob_db",
                "snr_eve_db", "d_max"):
        if not _is_real(data[key]):
            problems.append(f"{key} must be a number, got {data[key]!r}")
            continue
        try:
            reals[key] = float(data[key])
        except OverflowError:  # a JSON integer beyond the float range
            problems.append(f"{key} is too large for a float")
    for key in ("payload_bits", "mc_trials", "seed"):
        if not _is_int(data[key]):
            problems.append(f"{key} must be an integer, got {data[key]!r}")
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))

    d_max = reals.pop("d_max")
    scenario = Scenario(
        codebook_size=size, payload_bits=data["payload_bits"], **reals
    )
    try:
        return ScenarioFile(scenario, d_max, data["mc_trials"], data["seed"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_lines(rows: list[tuple]) -> str:
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def write_text(blocks: Iterable[str], out: str | None) -> None:
    """Write each text block in turn to ``out`` (stdout without one)."""
    if out is None:
        sys.stdout.writelines(blocks)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(blocks)


def write_csv(header: list[str], blocks: Iterable[str], out: str | None) -> None:
    """Write the header line, then each block of whole lines as it comes."""
    write_text(itertools.chain([",".join(header) + "\n"], blocks), out)


# points allowed on one SNR axis; a finer range is almost surely a typo
_MAX_SNR_POINTS = 10**7


def snr_grid(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive dB grid lo, lo+step, ...; index arithmetic avoids drift."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"SNR range values must be finite, got {(lo, hi, step)}")
    if step <= 0 or lo >= hi:
        raise ValueError(
            f"need lo < hi and step > 0, got lo={lo}, hi={hi}, step={step}"
        )
    points = (hi - lo) / step + 1e-9
    if not points < _MAX_SNR_POINTS:  # also inf: hi - lo or the quotient overflowed
        raise ValueError(
            f"SNR range {lo}..{hi} in steps of {step} has more than "
            f"{_MAX_SNR_POINTS} points"
        )
    count = int(math.floor(points)) + 1
    return [lo + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _error_table_code(args) -> FblCode:
    flagged = args.payload_bits is not None or args.code_rate is not None
    if args.scenario is not None:
        if flagged:
            raise ValueError(
                "--scenario and --payload-bits/--code-rate exclude each other"
            )
        return FblCode.from_scenario(load_scenario_file(args.scenario).scenario)
    payload_bits = 64 if args.payload_bits is None else args.payload_bits
    code_rate = 0.5 if args.code_rate is None else args.code_rate
    bad = code_violations(payload_bits, code_rate)
    if bad:
        raise ScenarioError(bad)
    return FblCode(round(payload_bits / code_rate), payload_bits)


def cmd_error_table(args) -> int:
    code = _error_table_code(args)
    rows = []
    for snr in snr_grid(args.snr_lo, args.snr_hi, args.snr_step):
        rows.append((snr, packet_error_rate(snr_db_to_linear(snr), code)))
    write_csv(["snr_db", "epsilon"], [_csv_lines(rows)], args.out)
    return 0


def cmd_sweep_receiver(args) -> int:
    scenario = load_scenario_file(args.scenario).scenario
    code = FblCode.from_scenario(scenario)
    rows = []
    for snr in snr_grid(args.snr_lo, args.snr_hi, args.snr_step):
        eps = packet_error_rate(snr_db_to_linear(snr), code)
        deltas = distortion.delta_terms(scenario, eps)
        sol = strategy.optimal_receiver_strategy(
            deltas, scenario=scenario, eps_p=eps
        )
        rows.append(
            (
                snr,
                eps,
                eps,
                deltas.delta1,
                deltas.delta2,
                deltas.delta3,
                sol.strategy.beta1,
                sol.strategy.beta2,
                sol.strategy.beta3,
                sol.value,
            )
        )
    write_csv(
        [
            "snr_db",
            "eps_p",
            "eps_s",
            "delta1",
            "delta2",
            "delta3",
            "beta1",
            "beta2",
            "beta3",
            "d_tilde_min",
        ],
        [_csv_lines(rows)],
        args.out,
    )
    return 0


class _Reprs(dict):
    """``repr`` of each float looked up, memoised.  Zeros are not kept:
    0.0 and -0.0 are one key but two strings."""

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x:
            self[x] = text
        return text


def _deception_blocks(
    bobs: list[float],
    value_bobs: list[strategy.PiecewiseLinear],
    intervals: list[tuple[tuple[float, float], ...]],
    eves: list[float],
    value_eves: np.ndarray,
) -> Iterator[str]:
    """The optimize-alpha CSV lines of each Bob SNR in turn, one block each."""
    eve_cells = [repr(snr) + "," for snr in eves]
    infeasible = [cell + "nan,nan,nan,false" for cell in eve_cells]
    reprs = _Reprs()  # alpha_opt and eve_distortion repeat; bob_distortion hardly
    for snr, value_bob, feasible in zip(bobs, value_bobs, intervals):
        head = repr(snr) + ","
        if not feasible:
            yield head + ("\n" + head).join(infeasible) + "\n"
            continue
        plans = strategy.deception_search(value_bob, feasible, value_eves)
        yield "".join([
            f"{head}{cell}{reprs[a]},{reprs[e]},{b!r},true\n"
            for cell, a, e, b in zip(eve_cells, *(v.tolist() for v in plans))
        ])


def cmd_optimize_alpha(args) -> int:
    # a curve depends on its own SNR only: evaluate each axis value once,
    # all of them before --out is opened, as only they can fail
    loaded = load_scenario_file(args.scenario)
    bobs = snr_grid(args.bob_snr_lo, args.bob_snr_hi, args.bob_snr_step)
    eves = snr_grid(args.eve_snr_lo, args.eve_snr_hi, args.eve_snr_step)
    code = FblCode.from_scenario(loaded.scenario)

    def value_of_alpha(snr: float) -> strategy.PiecewiseLinear:
        channel = TransportChannel.from_snr_db(snr, code)
        return strategy.receiver_value_of_alpha(
            loaded.scenario, channel.eps_primary, channel.eps_secondary
        )

    value_eves = strategy.stack_curves([value_of_alpha(snr) for snr in eves])
    value_bobs = [value_of_alpha(snr) for snr in bobs]
    intervals = [strategy.sublevel_intervals(v, loaded.d_max) for v in value_bobs]
    write_csv(
        [
            "snr_bob_db",
            "snr_eve_db",
            "alpha_opt",
            "eve_distortion",
            "bob_distortion",
            "feasible",
        ],
        _deception_blocks(bobs, value_bobs, intervals, eves, value_eves),
        args.out,
    )
    return 0


# ---------------------------------------------------------------------------
# validation gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateResult:
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str


def _gate_cipher_identities(scenario: Scenario, rng: np.random.Generator) -> GateResult:
    size = scenario.codebook_size
    cipher = ShiftCipher(size)
    violations = 0
    if size <= 256:
        checks = 0
        for w in range(size):
            if cipher.encrypt(w, NULL_KEY) != w:
                violations += 1
            if cipher.decrypt(w, NULL_KEY) != w:
                violations += 1
            checks += 2
            for k in range(1, size):
                s = cipher.encrypt(w, k)
                if s == w or cipher.decrypt(s, k) != w:
                    violations += 1
                checks += 1
        if cipher.decrypt(NULL_MSG, NULL_KEY) is not NULL_MSG:
            violations += 1
        checks += 1
        detail = f"{violations} violations in {checks} exhaustive checks (S={size})"
    else:
        n = 100_000
        w = rng.integers(0, size, size=n, dtype=np.uint64)
        k = rng.integers(0, size - 1, size=n, dtype=np.uint64) + np.uint64(1)
        active = np.ones(n, dtype=bool)
        s = encrypt_batch(w, k, active, size)
        violations += int((s == w).sum())
        violations += int((decrypt_batch(s, k, active, size) != w).sum())
        if cipher.decrypt(NULL_MSG, 1) is not NULL_MSG:
            violations += 1
        detail = f"{violations} violations in {n} randomized checks (S={size})"
    status = "PASS" if violations == 0 else "FAIL"
    return GateResult("cipher-identities", status, detail)


def _gate_channel_rows(eps_values: list[float]) -> GateResult:
    worst = 0.0
    for eps in eps_values:
        row_p = primary_pmf(7, 7, eps) + primary_pmf(NULL_MSG, 7, eps)
        row_s = secondary_pmf(3, 3, eps) + secondary_pmf(NULL_KEY, 3, eps)
        row_null = secondary_pmf(NULL_KEY, NULL_KEY, eps)
        for row in (row_p, row_s, row_null):
            worst = max(worst, abs(row - 1.0))
        for stray in (primary_pmf(8, 7, eps), secondary_pmf(4, 3, eps),
                      secondary_pmf(3, NULL_KEY, eps)):
            worst = max(worst, abs(stray))
    status = "PASS" if worst <= 1e-12 else "FAIL"
    return GateResult("channel-pmf-rows", status, f"max row-sum deviation {worst:.3e}")


def _rel_diff_gate(name: str, worst: float, tol: float) -> GateResult:
    status = "PASS" if worst <= tol else "FAIL"
    return GateResult(name, status, f"max rel diff {worst:.3e} (tol {tol:g})")


_GATE_STRATEGIES = (
    PERCEPTION,
    DROPPING,
    EXCLUSION,
    ReceiverStrategy(1 / 3, 1 / 3, 1 / 3),
)


def _gate_enumeration(
    scenario: Scenario, eps_pairs: list[tuple[float, float]]
) -> GateResult:
    if scenario.codebook_size > ENUMERATION_CAP:
        return GateResult(
            "closed-form-vs-enumeration",
            "SKIP",
            f"skipped: cardinality cap — S={scenario.codebook_size} exceeds "
            f"{ENUMERATION_CAP}",
        )
    worst = 0.0
    for eps_p, eps_s in eps_pairs:
        for strat in _GATE_STRATEGIES:
            closed = distortion.opportunistic_distortion(
                scenario, eps_p, eps_s, strat
            ).total
            oracle = distortion.enumeration_oracle(scenario, eps_p, eps_s, strat)
            worst = max(worst, abs(closed - oracle) / max(1.0, abs(oracle)))
    return _rel_diff_gate("closed-form-vs-enumeration", worst, 1e-10)


def _gate_perception_reduction(
    scenario: Scenario, rng: np.random.Generator
) -> GateResult:
    worst = 0.0
    for _ in range(200):
        alpha, eps_p, eps_s = rng.random(3)
        sc = replace(scenario, alpha=float(alpha))
        a = distortion.opportunistic_distortion(
            sc, float(eps_p), float(eps_s), PERCEPTION
        ).total
        b = distortion.deterministic_pipeline_distortion(
            sc, float(eps_p), float(eps_s)
        ).total
        worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return _rel_diff_gate("perception-vs-pipeline", worst, 1e-12)


def _gate_monte_carlo(
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    trials: int,
    seed: int,
    workers: int,
) -> GateResult:
    children = np.random.SeedSequence(seed).spawn(len(_GATE_STRATEGIES) + 1)
    best = strategy.optimal_receiver_strategy(
        distortion.delta_terms(scenario, eps_s)
    ).strategy
    worst_sigma = 0.0
    for child, strat in zip(children, _GATE_STRATEGIES + (best,)):
        est = montecarlo.estimate_distortion(
            scenario,
            eps_p,
            eps_s,
            strat,
            trials,
            int(child.generate_state(1, np.uint64)[0]),
            workers,
        )
        closed = distortion.opportunistic_distortion(
            scenario, eps_p, eps_s, strat
        ).total
        gap = abs(est.mean - closed)
        # distortion lives in {0, d_loss, d_conf}, so Var <= d_conf * mean;
        # the analytic bound keeps the gate meaningful when events are so
        # rare that the empirical standard error collapses to zero
        se_bound = math.sqrt(scenario.d_conf * max(closed, 0.0) / trials)
        tol = 4.0 * max(est.std_error, se_bound) + 1e-12
        if gap > tol:
            return GateResult(
                "closed-form-vs-monte-carlo",
                "FAIL",
                f"|{est.mean:.6g} - {closed:.6g}| = {gap:.3e} > "
                f"tol={tol:.3e} at {trials} trials",
            )
        if est.std_error > 0:
            worst_sigma = max(worst_sigma, gap / est.std_error)
    return GateResult(
        "closed-form-vs-monte-carlo",
        "PASS",
        f"max |mean-analytic| = {worst_sigma:.2f} sigma over "
        f"{len(_GATE_STRATEGIES) + 1} strategies at {trials} trials",
    )


def _gate_decomposition(
    scenario: Scenario, eps_pairs: list[tuple[float, float]]
) -> GateResult:
    worst = 0.0
    for eps_p, eps_s in eps_pairs:
        reports = [
            distortion.opportunistic_distortion(scenario, eps_p, eps_s, strat)
            for strat in _GATE_STRATEGIES
        ]
        reports.append(
            distortion.deterministic_pipeline_distortion(scenario, eps_p, eps_s)
        )
        for rep in reports:
            gap = abs(rep.total - (rep.loss_part + rep.confusion_part))
            worst = max(worst, gap / max(1.0, abs(rep.total)))
    return _rel_diff_gate("report-decomposition", worst, 1e-12)


def run_validation(loaded: ScenarioFile, workers: int = 1) -> list[GateResult]:
    """Run every self-check gate; FAIL on any discrepancy beyond tolerance."""
    scenario, trials, seed = loaded.scenario, loaded.mc_trials, loaded.seed
    code = FblCode.from_scenario(scenario)
    eps_bob = packet_error_rate(snr_db_to_linear(scenario.snr_bob_db), code)
    eps_eve = packet_error_rate(snr_db_to_linear(scenario.snr_eve_db), code)
    eps_pairs = [(eps_bob, eps_bob), (eps_eve, eps_eve), (0.1, 0.2), (0.5, 0.5)]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return [
        _gate_cipher_identities(scenario, rng),
        _gate_channel_rows([0.0, 0.25, 1.0, eps_bob, eps_eve]),
        _gate_enumeration(scenario, eps_pairs),
        _gate_perception_reduction(scenario, rng),
        _gate_monte_carlo(scenario, eps_bob, eps_bob, trials, seed, workers),
        _gate_decomposition(scenario, eps_pairs),
    ]


def cmd_validate(args) -> int:
    loaded = load_scenario_file(args.scenario)
    loaded = replace(
        loaded,
        mc_trials=loaded.mc_trials if args.trials is None else args.trials,
        seed=loaded.seed if args.seed is None else args.seed,
    )
    results = run_validation(loaded, args.workers)
    lines = [f"{r.status} {r.name}: {r.detail}" for r in results]
    counts = {s: sum(r.status == s for r in results) for s in ("PASS", "FAIL", "SKIP")}
    lines.append(
        f"gates: {counts['PASS']} passed, {counts['FAIL']} failed, "
        f"{counts['SKIP']} skipped"
    )
    write_text(["\n".join(lines) + "\n"], args.out)
    return 1 if counts["FAIL"] else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_snr_range(sub: argparse.ArgumentParser, prefix: str = "snr") -> None:
    sub.add_argument(f"--{prefix}-lo", type=float, default=-5.0)
    sub.add_argument(f"--{prefix}-hi", type=float, default=5.0)
    sub.add_argument(f"--{prefix}-step", type=float, default=0.5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pld",
        description="Semantic-distortion experiments for physical-layer "
        "deception over dual transport channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("error-table", help="packet error rate vs SNR")
    p.add_argument("--payload-bits", type=int, help="info bits k (default 64)")
    p.add_argument("--code-rate", type=float, help="k/n (default 0.5)")
    _add_snr_range(p)
    p.set_defaults(func=cmd_error_table)

    p = sub.add_parser(
        "sweep-receiver", help="optimal receiver strategy across an SNR sweep"
    )
    _add_snr_range(p)
    p.set_defaults(func=cmd_sweep_receiver)

    p = sub.add_parser(
        "optimize-alpha", help="best activation rate over an SNR grid"
    )
    _add_snr_range(p, "bob-snr")
    _add_snr_range(p, "eve-snr")
    p.set_defaults(func=cmd_optimize_alpha)

    p = sub.add_parser("validate", help="run the oracle self-check suite")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--trials", type=int, help="override scenario mc_trials")
    p.add_argument("--workers", type=int, default=1, help="Monte Carlo threads")
    p.set_defaults(func=cmd_validate)

    for name, p in sub.choices.items():
        p.add_argument(
            "--scenario",
            required=name != "error-table",
            help="scenario JSON file",
        )
        p.add_argument("--out", default=None, help="output path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
