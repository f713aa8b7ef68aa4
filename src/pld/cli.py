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
import os
import re
import sys
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace

import numpy as np

from . import distortion, montecarlo, strategy
from .channels import primary_pmf, secondary_pmf
from .core import (
    NULL_KEY,
    NULL_MSG,
    Scenario,
    ScenarioError,
    _is_int,
    code_violations,
)
from .crypto import ShiftCipher, decrypt_batch, encrypt_batch
from .distortion import DROPPING, EXCLUSION, PERCEPTION, ReceiverStrategy
from .fbl import FblCode, error_rates

def run_violations(d_max: float, mc_trials: int, seed: int) -> list[str]:
    """Every rule the run settings of a scenario file break (empty if none)."""
    bad = strategy.d_max_violations(d_max)
    bad += montecarlo.trials_violations(mc_trials, "mc_trials")
    if not (_is_int(seed) and 0 <= seed < 1 << 64):
        bad.append(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return bad


@dataclass(frozen=True)
class ScenarioFile:
    """Model parameters plus run settings; bad settings raise ValueError."""

    scenario: Scenario
    d_max: float
    mc_trials: int
    seed: int

    def __post_init__(self) -> None:
        if bad := run_violations(self.d_max, self.mc_trials, self.seed):
            raise ValueError("; ".join(bad))
        object.__setattr__(self, "d_max", float(self.d_max))


_RUN_KEYS = [f.name for f in fields(ScenarioFile) if f.name != "scenario"]
SCENARIO_KEYS = frozenset(f.name for f in fields(Scenario)).union(_RUN_KEYS)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a repeated key would silently keep its last value."""
    repeated = sorted(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    if repeated:
        raise ValueError(f"duplicate keys: {', '.join(repeated)}")
    return dict(pairs)


def load_scenario_file(path: str) -> ScenarioFile:
    """Parse a scenario JSON document (strict keys); the types check the values."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        except (ValueError, RecursionError) as exc:  # the hook, or deep nesting
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown, missing = set(data) - SCENARIO_KEYS, SCENARIO_KEYS - set(data)
    problems = [f"{label} keys: {', '.join(sorted(keys))}"
                for label, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))

    if data["codebook_size"] == "2^64":
        data["codebook_size"] = 1 << 64
    run = {key: data.pop(key) for key in _RUN_KEYS}
    try:
        try:
            scenario = Scenario(**data)
        except ScenarioError as exc:  # name the run settings' problems too
            raise ScenarioError(exc.violations + run_violations(**run)) from None
        return ScenarioFile(scenario, **run)
    except ValueError as exc:  # a ScenarioError keeps its type and violations
        exc.args = (f"{path}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _csv_lines(rows: list[tuple]) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in rows)


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
    snrs = snr_grid(args.snr_lo, args.snr_hi, args.snr_step)
    rows = list(zip(snrs, error_rates(code, snrs).tolist()))
    write_csv(["snr_db", "epsilon"], [_csv_lines(rows)], args.out)
    return 0


def cmd_sweep_receiver(args) -> int:
    scenario = load_scenario_file(args.scenario).scenario
    code = FblCode.from_scenario(scenario)
    snrs = snr_grid(args.snr_lo, args.snr_hi, args.snr_step)
    rows = []
    for snr, eps in zip(snrs, error_rates(code, snrs).tolist()):
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
    """``repr`` of each float looked up, memoised up to ``_BLOCK`` floats.  Zeros
    are not kept: 0.0 and -0.0 are one key but two strings."""

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x and len(self) < _BLOCK:
            self[x] = text
        return text


#: Eve SNRs per block of curves, and cells per search pass: bounds the scratch
_BLOCK = 1 << 15


def _eve_text(snrs: np.ndarray) -> tuple[list[str], list[str]]:
    """Each Eve SNR's CSV cell, and its infeasible line without the Bob cell."""
    cells = [repr(snr) + "," for snr in snrs.tolist()]
    return cells, [cell + "nan,nan,nan,false" for cell in cells]


def _deception_blocks(loaded: ScenarioFile, bobs: np.ndarray, bob_eps: np.ndarray,
                      eves: np.ndarray, eve_curves: list[np.ndarray]) -> Iterator[str]:
    """The optimize-alpha CSV lines, one block of Eve SNRs of one Bob SNR each.

    A search pass covers as many Bob rows as fit in ``_BLOCK`` cells.  An Eve
    axis longer than one block leaves room for one row a pass, so the rows
    still come out in order; its text is then made again for each row.
    """
    text = _eve_text(eves) if len(eve_curves) == 1 else None
    group = max(1, _BLOCK // len(eves))
    reprs = _Reprs()  # alpha_opt and eve_distortion repeat; bob_distortion hardly
    for rows in (slice(first, first + group) for first in range(0, len(bobs), group)):
        curves = strategy.receiver_curves(loaded.scenario, bob_eps[rows], bob_eps[rows])
        spans = strategy.sublevel_intervals(curves, loaded.d_max)
        heads = [repr(snr) + "," for snr in bobs[rows].tolist()]
        for block, eve_block in enumerate(eve_curves):
            cells, infeasible = text or _eve_text(eves[block * _BLOCK:][:_BLOCK])
            plans = strategy.deception_search(curves, spans, eve_block)
            for head, first, plan in zip(heads, spans[:, 0, 0].tolist(),
                                         plans.transpose(1, 0, 2)):
                if math.isnan(first):
                    yield head + ("\n" + head).join(infeasible) + "\n"
                    continue
                yield "".join([
                    f"{head}{cell}{reprs[a]},{reprs[e]},{b!r},true\n"
                    for cell, a, e, b in zip(cells, *plan.tolist())
                ])


def cmd_optimize_alpha(args) -> int:
    # a curve depends on its own SNR only: evaluate each axis value once,
    # all of them before --out is opened, as only they can fail
    loaded = load_scenario_file(args.scenario)
    code = FblCode.from_scenario(loaded.scenario)
    bobs = np.array(snr_grid(args.bob_snr_lo, args.bob_snr_hi, args.bob_snr_step))
    eves = np.array(snr_grid(args.eve_snr_lo, args.eve_snr_hi, args.eve_snr_step))
    eve_curves = [strategy.receiver_curves(loaded.scenario, eps, eps) for eps in
                  np.split(error_rates(code, eves), range(_BLOCK, len(eves), _BLOCK))]
    bob_eps = error_rates(code, bobs)
    header = ["snr_bob_db", "snr_eve_db", "alpha_opt", "eve_distortion",
              "bob_distortion", "feasible"]
    blocks = _deception_blocks(loaded, bobs, bob_eps, eves, eve_curves)
    write_csv(header, blocks, args.out)
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
    if size <= 256:  # every (word, key) pair, key 0 standing for NULL_KEY
        w, k = np.divmod(np.arange(size * size, dtype=np.uint64), np.uint64(size))
        kind, checks = "exhaustive", size * size + size + 1
    else:
        n = 100_000
        w = rng.integers(0, size, size=n, dtype=np.uint64)
        k = rng.integers(0, size - 1, size=n, dtype=np.uint64) + np.uint64(1)
        kind, checks = "randomized", n
    s = encrypt_batch(w, k, size)
    null = k == 0
    bad_shift = (s == w) != null  # a key moves its word, NULL_KEY leaves it
    bad_undo = decrypt_batch(s, k, size) != w  # decryption undoes both
    # one check a keyed pair, two a NULL_KEY pair (encryption, decryption)
    violations = (np.count_nonzero(bad_shift | bad_undo)
                  + np.count_nonzero(bad_shift & bad_undo & null))
    violations += ShiftCipher(size).decrypt(NULL_MSG, NULL_KEY) is not NULL_MSG
    status = "PASS" if violations == 0 else "FAIL"
    detail = f"{violations} violations in {checks} {kind} checks (S={size})"
    return GateResult("cipher-identities", status, detail)


def _worst_rel_diff(got, want) -> float:
    """Largest |got - want| / max(1, |want|) over the arrays; nan if any term is."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _gate_channel_rows(eps_values: list[float]) -> GateResult:
    rows, strays = [], []
    for eps in eps_values:
        rows += [primary_pmf(7, 7, eps) + primary_pmf(NULL_MSG, 7, eps),
                 secondary_pmf(3, 3, eps) + secondary_pmf(NULL_KEY, 3, eps),
                 secondary_pmf(NULL_KEY, NULL_KEY, eps)]
        strays += [primary_pmf(8, 7, eps), secondary_pmf(4, 3, eps),
                   secondary_pmf(3, NULL_KEY, eps)]
    worst = _worst_rel_diff(rows + strays, [1.0] * len(rows) + [0.0] * len(strays))
    status = "PASS" if worst <= 1e-12 else "FAIL"
    return GateResult("channel-pmf-rows", status, f"max row-sum deviation {worst:.3e}")


def _rel_diff_gate(name: str, got, want, tol: float) -> GateResult:
    worst = _worst_rel_diff(got, want)
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
    name = "closed-form-vs-enumeration"
    if reason := distortion.enumeration_limit(scenario):
        return GateResult(name, "SKIP", f"skipped: {reason}")
    oracles = distortion.enumeration_oracle(scenario, eps_pairs, _GATE_STRATEGIES)
    closed = [[distortion.opportunistic_distortion(scenario, eps_p, eps_s, strat).total
               for strat in _GATE_STRATEGIES] for eps_p, eps_s in eps_pairs]
    return _rel_diff_gate(name, closed, oracles, 1e-10)


def _gate_perception_reduction(
    scenario: Scenario, rng: np.random.Generator
) -> GateResult:
    perceived, pipelined = [], []
    for _ in range(200):
        alpha, eps_p, eps_s = rng.random(3)
        sc = replace(scenario, alpha=float(alpha))
        perceived.append(distortion.opportunistic_distortion(
            sc, float(eps_p), float(eps_s), PERCEPTION
        ).total)
        pipelined.append(distortion.deterministic_pipeline_distortion(
            sc, float(eps_p), float(eps_s)
        ).total)
    return _rel_diff_gate("perception-vs-pipeline", perceived, pipelined, 1e-12)


def _gate_monte_carlo(
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    trials: int,
    seed: int,
) -> GateResult:
    children = np.random.SeedSequence(seed).spawn(len(_GATE_STRATEGIES) + 1)
    best = strategy.optimal_receiver_strategy(
        distortion.delta_terms(scenario, eps_s)
    ).strategy
    sigmas = []
    for child, strat in zip(children, _GATE_STRATEGIES + (best,)):
        est = montecarlo.estimate_distortion(
            scenario,
            eps_p,
            eps_s,
            strat,
            trials,
            int(child.generate_state(1, np.uint64)[0]),
        )
        closed = distortion.opportunistic_distortion(
            scenario, eps_p, eps_s, strat
        ).total
        gap = abs(est.mean - closed)
        # distortion lives in {0, d_loss, d_conf}, so Var <= d_conf * mean;
        # the analytic bound keeps the gate meaningful when events are so
        # rare that the empirical standard error collapses to zero, and
        # judges one trial alone, whose standard error is nan.  Its root is
        # taken factor by factor, as d_conf * mean can overflow.
        se_bound = math.sqrt(scenario.d_conf / trials) * math.sqrt(max(closed, 0.0))
        empirical = est.std_error if trials > 1 else 0.0
        tol = 4.0 * max(empirical, se_bound) + 1e-12
        if not gap <= tol:
            return GateResult(
                "closed-form-vs-monte-carlo",
                "FAIL",
                f"|{est.mean:.6g} - {closed:.6g}| = {gap:.3e} > "
                f"tol={tol:.3e} at {trials} trials",
            )
        # a strategy without a positive empirical standard error is
        # measured in units of the bound it was judged by
        scale = est.std_error if est.std_error > 0 else se_bound
        if scale > 0:
            sigmas.append(gap / scale)
    return GateResult(
        "closed-form-vs-monte-carlo",
        "PASS",
        f"max |mean-analytic| = {max(sigmas, default=0.0):.2f} sigma over "
        f"{len(_GATE_STRATEGIES) + 1} strategies at {trials} trials",
    )


def _gate_decomposition(
    scenario: Scenario, eps_pairs: list[tuple[float, float]]
) -> GateResult:
    reports = [distortion.opportunistic_distortion(scenario, eps_p, eps_s, strat)
               for eps_p, eps_s in eps_pairs for strat in _GATE_STRATEGIES]
    reports += [distortion.deterministic_pipeline_distortion(scenario, eps_p, eps_s)
                for eps_p, eps_s in eps_pairs]
    return _rel_diff_gate("report-decomposition",
                          [rep.loss_part + rep.confusion_part for rep in reports],
                          [rep.total for rep in reports], 1e-12)


def run_validation(loaded: ScenarioFile) -> list[GateResult]:
    """Run every self-check gate; FAIL on any discrepancy beyond tolerance."""
    scenario, trials, seed = loaded.scenario, loaded.mc_trials, loaded.seed
    code = FblCode.from_scenario(scenario)
    snrs = (scenario.snr_bob_db, scenario.snr_eve_db)
    eps_bob, eps_eve = error_rates(code, snrs).tolist()
    eps_pairs = [(eps_bob, eps_bob), (eps_eve, eps_eve), (0.1, 0.2), (0.5, 0.5)]
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return [
        _gate_cipher_identities(scenario, rng),
        _gate_channel_rows([0.0, 0.25, 1.0, eps_bob, eps_eve]),
        _gate_enumeration(scenario, eps_pairs),
        _gate_perception_reduction(scenario, rng),
        _gate_monte_carlo(scenario, eps_bob, eps_bob, trials, seed),
        _gate_decomposition(scenario, eps_pairs),
    ]


def cmd_validate(args) -> int:
    loaded = load_scenario_file(args.scenario)
    loaded = replace(
        loaded,
        mc_trials=loaded.mc_trials if args.trials is None else args.trials,
        seed=loaded.seed if args.seed is None else args.seed,
    )
    results = run_validation(loaded)
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
    p.set_defaults(func=cmd_validate)

    # argparse on Python 3.10/3.11 reads "-1e1" and "-5." as unknown options,
    # not values; no public setting changes what it takes for a negative
    # number, so the private matcher each subparser checks is replaced
    negative_number = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    for name, p in sub.choices.items():
        p._negative_number_matcher = negative_number
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
    # argparse on Python 3.10/3.11 reads "--flag=--" as an empty list
    if empty := [name for name, value in vars(args).items() if value == []]:
        print(f"error: --{empty[0].replace('_', '-')} needs a value", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: exit 128 + SIGPIPE, not 2; flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
