"""Seeded fuzzing of scenario files through every subcommand.

Fuzz testing after Miller, Fredriksen & So, "An empirical study of the
reliability of UNIX utilities" (CACM 1990).  Each case replaces one field of
a shipped scenario file with a JSON value from a fixed pool plus draws from a
seeded ``random.Random``, or drops or repeats the field, and runs each
subcommand in-process with warnings raised as errors.  Whatever the input,
a run exits 0 with parseable output, 1 for a failed gate (``validate``
only), or 2 with one ``error: `` line on stderr.
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
        if not (err.startswith("error: ") and err.count("\n") == 1
                and err.endswith("\n")):
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


def test_mutated_scenario_files_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    failures, runs = [], 0
    for index, (base, field, text, repeat) in enumerate(cases(rng)):
        path = tmp_path / f"case{index}.json"
        path.write_text(mutated_text(base, field, text, repeat), encoding="utf-8")
        value = "<dropped>" if text is None else text[:40] + " <repeated>" * repeat
        label = f"{base.name} {field}={value}"
        for command, extra in COMMANDS.items():
            runs += 1
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([command, "--scenario", str(path), *extra])
            except Exception as exc:  # any escape is a finding
                capsys.readouterr()
                failures.append(f"{label} {command}: raised {exc!r}")
                continue
            out, err = capsys.readouterr()
            failures += [f"{label} {command}: {problem}"
                         for problem in problems(command, code, out, err)]
    assert runs == 11 * (len(POOL) + DRAWS + 2) * len(COMMANDS)
    assert failures == []
