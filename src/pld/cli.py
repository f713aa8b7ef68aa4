"""Command-line drivers: error-rate tables, receiver sweeps, activation-rate
optimization, and ``validate``, which runs the self-check suite of
``pld.checks``.

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
from .checks import run_validation
from .core import Scenario, ScenarioError, _is_int
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
    k = Scenario.payload_bits if args.payload_bits is None else args.payload_bits
    rate = Scenario.code_rate if args.code_rate is None else args.code_rate
    return FblCode.from_rate(k, rate)


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
        sol = strategy.optimal_receiver_strategy(deltas)
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
                distortion.opportunistic_distortion(scenario, eps, eps, sol.strategy).total,
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
    """``repr`` of each float looked up, memoised up to ``strategy.PLAN_BLOCK``
    floats.  Zeros are not kept: 0.0 and -0.0 are one key but two strings."""

    def __missing__(self, x: float) -> str:
        text = repr(x)
        if x and len(self) < strategy.PLAN_BLOCK:
            self[x] = text
        return text


def _deception_lines(bobs: np.ndarray, eves: np.ndarray,
                     plans: Iterable[tuple]) -> Iterator[str]:
    """The optimize-alpha CSV lines of ``strategy.deception_plans`` blocks, one
    block of Eve SNRs of one Bob SNR each.  Each block makes its Eve text; a
    Bob SNR without a feasible set is a row of nan plans."""
    reprs = _Reprs()  # alpha_opt and eve_distortion repeat; bob_distortion hardly
    for rows, cols, _, block in plans:
        cells = [repr(snr) + "," for snr in eves[cols].tolist()]
        infeasible = [cell + "nan,nan,nan,false" for cell in cells]
        for snr, plan in zip(bobs[rows].tolist(), block.transpose(1, 0, 2)):
            head = repr(snr) + ","
            if math.isnan(plan[0, 0]):
                yield head + ("\n" + head).join(infeasible) + "\n"
                continue
            yield "".join([
                f"{head}{cell}{reprs[a]},{reprs[e]},{b!r},true\n"
                for cell, a, e, b in zip(cells, *plan.tolist())
            ])


def cmd_optimize_alpha(args) -> int:
    # a plan depends on its cell's two error rates only: evaluate each axis
    # value once, all of them before --out is opened, as only they can fail
    loaded = load_scenario_file(args.scenario)
    code = FblCode.from_scenario(loaded.scenario)
    bobs = np.array(snr_grid(args.bob_snr_lo, args.bob_snr_hi, args.bob_snr_step))
    eves = np.array(snr_grid(args.eve_snr_lo, args.eve_snr_hi, args.eve_snr_step))
    eve_eps = error_rates(code, eves)
    plans = strategy.deception_plans(loaded.scenario, loaded.d_max,
                                     error_rates(code, bobs), eve_eps)
    header = ["snr_bob_db", "snr_eve_db", "alpha_opt", "eve_distortion",
              "bob_distortion", "feasible"]
    write_csv(header, _deception_lines(bobs, eves, plans), args.out)
    return 0


def cmd_validate(args) -> int:
    loaded = load_scenario_file(args.scenario)
    loaded = replace(
        loaded,
        mc_trials=loaded.mc_trials if args.trials is None else args.trials,
        seed=loaded.seed if args.seed is None else args.seed,
    )
    results = run_validation(loaded.scenario, loaded.mc_trials, loaded.seed)
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
    p.add_argument("--payload-bits", type=int, help=f"info bits k (default {Scenario.payload_bits})")
    p.add_argument("--code-rate", type=float, help=f"k/n (default {Scenario.code_rate})")
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
