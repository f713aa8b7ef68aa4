"""Seeded fuzzing of scenario files and flags through every subcommand.

Fuzz testing after Miller, Fredriksen & So, "An empirical study of the
reliability of UNIX utilities" (CACM 1990).  A file case replaces one field
of a shipped scenario file with a JSON value from a fixed pool plus draws
from a seeded ``random.Random``, or drops or repeats the field.  A flag case
sets one SNR range flag, ``--trials``, ``--seed`` or ``--out`` the same way.
Each case runs in-process with warnings raised as errors.  Whatever the
input, a run exits 0 with parseable output, 1 for a failed gate
(``validate`` only), or 2 with one ``error: `` line or argparse's usage
message on stderr.
"""
import csv
import io
import json
import math
import random
import warnings
from pathlib import Path

from pld.cli import main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SEED = 20261019
DRAWS = 10  # random values per field, on top of the fixed pool

#: JSON texts for one field's value: type swaps, sentinel-like strings,
#: signed zeros, subnormals, the float extremes, integers no float holds,
#: the NaN and Infinity tokens Python's json accepts, and deep nesting.
POOL = [
    "null", "true", "false", '""', '"x"', '"2^64"', '"2^63"', '" 2^64"', "[]",
    "{}", "[1]", "0", "-0", "-0.0", "1", "-1", "2", "0.5", "4096", "5e-324",
    "2.2250738585072014e-308", "1e308", "-1e308", "1.7976931348623157e308",
    "1e400", "1" + "0" * 400, str(2**64), str(2**64 + 1), "NaN", "Infinity",
    "-Infinity", "[" * 100_000 + "]" * 100_000,
]

COMMANDS = {
    "error-table": [],
    "sweep-receiver": [],
    "optimize-alpha": [],
    "validate": ["--trials", "2000"],
}


def random_value(rng: random.Random) -> str:
    """A JSON number: any binade of a float, an integer of up to 80 bits, or
    a value in a field's everyday range."""
    kind = rng.randrange(3)
    sign = rng.choice((-1, 1))
    if kind == 0:
        return repr(sign * math.ldexp(rng.random(), rng.randint(-1080, 1024)))
    if kind == 1:
        return str(sign * rng.getrandbits(rng.randint(1, 80)))
    return repr(rng.uniform(-10.0, 10.0))


def cases(rng: random.Random):
    """(base file, field, replacement text or None to drop, repeat) tuples."""
    bases = sorted(SCENARIO_DIR.glob("*.json"))
    fields = list(json.loads(bases[0].read_text(encoding="utf-8")))
    for field in fields:
        values = POOL + [random_value(rng) for _ in range(DRAWS)]
        mutations = [(text, False) for text in values] + [(None, False), ("1", True)]
        for text, repeat in mutations:
            yield rng.choice(bases), field, text, repeat


def mutated_text(base: Path, field: str, text: str | None, repeat: bool) -> str:
    doc = json.loads(base.read_text(encoding="utf-8"))
    items = [(key, json.dumps(value)) for key, value in doc.items()]
    if repeat:
        items.append((field, text))
    else:
        items = [(key, text if key == field else value)
                 for key, value in items if key != field or text is not None]
    return "{" + ", ".join(f'"{key}": {value}' for key, value in items) + "}"


def problems(command: str, code: int, out: str, err: str) -> list[str]:
    """What breaks the exit-code rule in one run (empty if nothing)."""
    if code == 2:
        one_line = err.startswith("error: ") and err.count("\n") == 1
        usage = (err.startswith(f"usage: pld {command} ")
                 and err.splitlines()[-1].startswith(f"pld {command}: error: "))
        if not ((one_line or usage) and err.endswith("\n")):
            return [f"exit 2 without one error line: {err[:300]!r}"]
        return []
    if err:
        return [f"exit {code} with stderr {err[:300]!r}"]
    if command == "validate":
        last = (out.splitlines() or [""])[-1]
        if code not in (0, 1) or not last.startswith("gates: "):
            return [f"exit {code} without a gate summary"]
        return []
    if code != 0:
        return [f"exit {code}"]
    rows = list(csv.reader(io.StringIO(out)))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return ["CSV rows do not match the header's column count"]
    return []


def run(argv: list[str], capsys, out_path: Path | None = None) -> list[str]:
    """Run one command line; what breaks the exit-code rule, labelled."""
    command, label = argv[0], " ".join(argv)[:200]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    except Exception as exc:  # any escape is a finding
        capsys.readouterr()
        return [f"{label}: raised {exc!r}"]
    out, err = capsys.readouterr()
    if code in (0, 1) and out_path is not None:
        out = out_path.read_text(encoding="utf-8")
    return [f"{label}: {problem}" for problem in problems(command, code, out, err)]


def test_mutated_scenario_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    failures, runs = [], 0
    for index, (base, field, text, repeat) in enumerate(cases(rng)):
        path = tmp_path / f"case{index}.json"
        path.write_text(mutated_text(base, field, text, repeat), encoding="utf-8")
        value = "<dropped>" if text is None else text[:40] + " <repeated>" * repeat
        for command, extra in COMMANDS.items():
            runs += 1
            failures += [f"{base.name} {field}={value} {problem}" for problem in
                         run([command, "--scenario", str(path), *extra], capsys)]
    assert runs == 11 * (len(POOL) + DRAWS + 2) * len(COMMANDS)
    assert failures == []


#: Flag texts for an SNR range end or step: exponent-form and trailing-dot
#: negatives, nan and inf, zeros, negative steps, the float extremes, SNRs
#: beyond the float range of 10^(dB/10), and text no float parses.
SNR_POOL = [
    "-1e1", "-5.", "-.5", "-1E+1", "-2.5e-1", "nan", "-nan", "inf", "-inf",
    "0", "-0", "-0.0", "-1e-1", "-5", "1e308", "-1e308", "5e-324", "1e400",
    "-1e400", "4000", "-4000", "1_0", "", "x", "-", "--",
]
SNR_AXES = [("error-table", "snr"), ("sweep-receiver", "snr"),
            ("optimize-alpha", "bob-snr"), ("optimize-alpha", "eve-snr")]
TRIALS_POOL = ["0", "-1", "1", "2", str(2**36 + 1), "1" + "0" * 19, "1.5", "-1e1",
               "", "x", "--"]
SEED_POOL = ["-1", "0", str(2**64 - 1), str(2**64), "-0", "1.5", "1e3", "x", "--"]


def flag(rng: random.Random, name: str, text: str) -> list[str]:
    """``--name=text`` or ``--name text``, whichever the draw picks."""
    return [f"{name}={text}"] if rng.random() < 0.5 else [name, text]


def random_snr_range(rng: random.Random) -> list[str]:
    """lo, hi and step as a user might type them, in any of four forms; the
    range may be empty or the step negative."""
    lo = rng.uniform(-60.0, 40.0)
    hi = lo + rng.uniform(-5.0, 40.0)
    step = rng.uniform(0.25, 10.0) * rng.choice((-1, 1, 1, 1))
    forms = (repr, "{:e}".format, "{:E}".format, "{:.0f}.".format)
    return [rng.choice(forms)(value) for value in (lo, hi, step)]


def flag_cases(rng: random.Random, tmp_path: Path):
    """(argv, the file its output goes to or None) for every flag case."""
    scenario = ["--scenario", str(SCENARIO_DIR / "small_codebook.json")]
    for command, prefix in SNR_AXES:
        names = [f"--{prefix}-{end}" for end in ("lo", "hi", "step")]
        for name in names:
            for text in SNR_POOL:
                yield [command, *scenario, *flag(rng, name, text)], None
        for _ in range(DRAWS):
            texts = random_snr_range(rng)
            argv = [part for name, text in zip(names, texts)
                    for part in flag(rng, name, text)]
            yield [command, *scenario, *argv], None
    validate = ["validate", *scenario]
    draws = [str(rng.randint(-5, 3000)) for _ in range(DRAWS // 2)]
    for text in TRIALS_POOL + draws:
        yield [*validate, *flag(rng, "--trials", text)], None
    draws = [str(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 70)))
             for _ in range(DRAWS // 2)]
    for text in SEED_POOL + draws:
        yield [*validate, "--trials", "2000", *flag(rng, "--seed", text)], None
    written = tmp_path / "out.csv"
    outs = [str(tmp_path), str(tmp_path / "missing" / "out.csv"), "", "--"]
    for command, extra in COMMANDS.items():
        for text in outs:
            yield [command, *scenario, *extra, *flag(rng, "--out", text)], None
        yield [command, *scenario, *extra, "--out", str(written)], written


def test_mutated_flags_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    failures, runs = [], 0
    for argv, out_path in flag_cases(rng, tmp_path):
        runs += 1
        failures += run(argv, capsys, out_path)
    snr_runs = len(SNR_AXES) * (3 * len(SNR_POOL) + DRAWS)
    validate_runs = len(TRIALS_POOL) + len(SEED_POOL) + 2 * (DRAWS // 2)
    assert runs == snr_runs + validate_runs + 5 * len(COMMANDS)
    assert failures == []
