"""Command-line interface: scenario parsing, CSV output, validation gates."""
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pld.checks
import pld.cli
import pld.distortion
import pld.fbl
import pld.montecarlo
import pld.strategy
from pld.cli import ScenarioFile, load_scenario_file, main, snr_grid
from pld.core import ScenarioError
from pld.distortion import DeltaTerms
from pld.fbl import EPS_CEIL, FblCode
from pld.montecarlo import MAX_TRIALS
from pld.strategy import optimize_deception
from test_golden import GOLDEN

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
SMALL_SCENARIO = str(SCENARIO_DIR / "small_codebook.json")

BASE_DOC = {
    "codebook_size": 2,
    "d_loss": 1.0,
    "d_conf": 10.0,
    "alpha": 0.99,
    "payload_bits": 64,
    "code_rate": 0.5,
    "snr_bob_db": 3.0,
    "snr_eve_db": 0.0,
    "d_max": 0.01,
    "mc_trials": 1000,
    "seed": 7,
}


FLOAT_KEYS = {"d_loss", "d_conf", "alpha", "code_rate", "snr_bob_db", "snr_eve_db",
              "d_max"}


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_load_round_trip(tmp_path):
    loaded = load_scenario_file(write_doc(tmp_path, BASE_DOC))
    assert isinstance(loaded, ScenarioFile)
    assert loaded.scenario.codebook_size == 2
    assert FblCode.from_scenario(loaded.scenario).blocklength_n == 128
    assert loaded.d_max == 0.01
    assert loaded.mc_trials == 1000
    assert loaded.seed == 7


def test_load_huge_codebook_token(tmp_path):
    doc = dict(BASE_DOC, codebook_size="2^64")
    loaded = load_scenario_file(write_doc(tmp_path, doc))
    assert loaded.scenario.codebook_size == 1 << 64


def test_shipped_scenarios_parse():
    small = load_scenario_file(str(SCENARIO_DIR / "small_codebook.json"))
    large = load_scenario_file(str(SCENARIO_DIR / "large_codebook.json"))
    assert small.scenario.codebook_size == 2
    assert large.scenario.codebook_size == 1 << 64


def test_unknown_and_missing_keys_rejected(tmp_path):
    doc = dict(BASE_DOC, extra=1)
    del doc["alpha"]
    with pytest.raises(ValueError) as err:
        load_scenario_file(write_doc(tmp_path, doc))
    assert "extra" in str(err.value)
    assert "alpha" in str(err.value)


@pytest.mark.parametrize(
    "key,value",
    [
        ("codebook_size", 4.0),
        ("codebook_size", "huge"),
        ("alpha", True),
        ("payload_bits", 64.0),
        ("mc_trials", 0),
        ("seed", 1 << 64),
        ("seed", -1),
        ("d_max", 0.0),
        ("d_max", "small"),
        pytest.param("d_loss", 10**400, id="d_loss-1e400"),
        pytest.param("d_max", 10**400, id="d_max-1e400"),
        pytest.param("payload_bits", 10**400, id="payload_bits-1e400"),
    ],
)
def test_bad_field_values_rejected(tmp_path, key, value):
    doc = dict(BASE_DOC)
    doc[key] = value
    with pytest.raises(ValueError) as err:
        load_scenario_file(write_doc(tmp_path, doc))
    assert key in str(err.value)


def test_invalid_model_parameters_listed(tmp_path):
    doc = dict(BASE_DOC, alpha=2.0, d_conf=0.5)
    with pytest.raises(ScenarioError) as err:
        load_scenario_file(write_doc(tmp_path, doc))
    assert "alpha" in str(err.value)
    assert "d_conf" in str(err.value)


def test_model_parameter_error_names_the_file(tmp_path, capsys):
    path = write_doc(tmp_path, dict(BASE_DOC, alpha=5))
    with pytest.raises(ScenarioError) as err:
        load_scenario_file(path)
    assert err.value.violations == ["alpha must lie in [0, 1], got 5.0"]
    assert main(["validate", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: alpha must lie in [0, 1], got 5.0\n"


def test_duplicate_keys_rejected(tmp_path, capsys):
    path = tmp_path / "twice.json"
    text = json.dumps(BASE_DOC)
    path.write_text(text[:-1] + ', "alpha": 0.5}', encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: duplicate keys: alpha\n"


def test_deeply_nested_json_exits_cleanly(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "bad", [{"d_loss": "x", "mc_trials": 0}, {"alpha": 5, "d_max": "x"},
            {"codebook_size": 4.0, "seed": None}]
)
def test_model_and_run_problems_share_one_line(tmp_path, capsys, bad):
    path = write_doc(tmp_path, dict(BASE_DOC, **bad))
    assert main(["validate", "--scenario", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert all(key in err for key in bad)


RUN_SETTINGS = {"d_max": 0.01, "mc_trials": 1000, "seed": 7}


@pytest.mark.parametrize(
    "key,value",
    [("d_max", "x"), ("d_max", None), ("d_max", True),
     pytest.param("d_max", 10**400, id="d_max-1e400")]
    + [(key, v) for key in ("mc_trials", "seed") for v in (1.5, "x", None, True)],
)
def test_run_setting_types_rejected(key, value):
    scenario = load_scenario_file(SMALL_SCENARIO).scenario
    with pytest.raises(ValueError, match=key):
        ScenarioFile(scenario, **dict(RUN_SETTINGS, **{key: value}))


def test_trial_count_bound(tmp_path, capsys, monkeypatch):
    scenario = load_scenario_file(SMALL_SCENARIO).scenario
    assert ScenarioFile(scenario, 0.01, MAX_TRIALS, 7).mc_trials == MAX_TRIALS
    with pytest.raises(ValueError, match="mc_trials"):
        ScenarioFile(scenario, 0.01, MAX_TRIALS + 1, 7)

    def no_gates(*args):
        raise AssertionError("a gate ran")

    monkeypatch.setattr(pld.cli, "run_validation", no_gates)
    path = write_doc(tmp_path, BASE_DOC)
    for trials in (str(MAX_TRIALS + 1), "99999999999999999999"):
        assert main(["validate", "--scenario", path, "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert err == f"error: mc_trials must be an integer in [1, 2^36], got {trials}\n"
    huge = write_doc(tmp_path, dict(BASE_DOC, mc_trials=10**20), "huge.json")
    assert main(["validate", "--scenario", huge]) == 2
    assert "mc_trials" in capsys.readouterr().err


def test_integer_valued_reals_give_the_same_bytes(tmp_path, capsys):
    whole = dict(BASE_DOC, d_loss=1, d_conf=10, code_rate=1, snr_bob_db=3,
                 snr_eve_db=0, d_max=1)
    twin = {key: float(v) if key in FLOAT_KEYS else v for key, v in whole.items()}
    paths = [write_doc(tmp_path, whole, "whole.json"),
             write_doc(tmp_path, twin, "twin.json")]
    for command in ("sweep-receiver", "optimize-alpha"):
        outputs = []
        for path in paths:
            assert main([command, "--scenario", path]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_malformed_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="broken.json"):
        load_scenario_file(str(path))


# ---------------------------------------------------------------------------
# grid helper
# ---------------------------------------------------------------------------

def test_snr_grid_endpoints():
    grid = snr_grid(-5.0, 5.0, 0.5)
    assert len(grid) == 21
    assert grid[0] == -5.0
    assert grid[-1] == 5.0


def test_snr_grid_partial_last_step():
    assert snr_grid(0.0, 1.0, 0.3) == pytest.approx([0.0, 0.3, 0.6, 0.9])


@pytest.mark.parametrize(
    "lo,hi,step", [(1.0, 0.0, 0.5), (0.0, 1.0, 0.0), (0.0, 1.0, -0.5),
                   (float("inf"), 1.0, 0.5)]
)
def test_snr_grid_rejects_bad_ranges(lo, hi, step):
    with pytest.raises(ValueError):
        snr_grid(lo, hi, step)


SNR_FLAGS = [("error-table", "snr"), ("sweep-receiver", "snr"),
             ("optimize-alpha", "bob-snr"), ("optimize-alpha", "eve-snr")]


# (hi - lo) / step overflows to inf, or counts 1e301 points: over the bound
ENDLESS_AXES = [("-5", "5", "5e-324"), ("-1e308", "1e308", "0.5"),
                ("-5", "5", "1e-300")]


@pytest.mark.parametrize("lo,hi,step", ENDLESS_AXES)
@pytest.mark.parametrize("command,prefix", SNR_FLAGS)
def test_endless_snr_axis_rejected(tmp_path, capsys, command, prefix, lo, hi, step):
    out = tmp_path / "out.csv"
    path = str(SCENARIO_DIR / "small_codebook.json")
    argv = [command, "--scenario", path, f"--{prefix}-lo={lo}",
            f"--{prefix}-hi={hi}", f"--{prefix}-step={step}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(float(lo)) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,prefix", SNR_FLAGS)
def test_snr_flags_take_negative_exponent_forms(capsys, command, prefix):
    # argparse on Python 3.10/3.11 took "-1e1" and "-5." for unknown options
    scenario = ["--scenario", SMALL_SCENARIO]
    values = {"lo": "-1e1", "hi": "-5.", "step": "2.5E+0"}
    joined = [f"--{prefix}-{end}={value}" for end, value in values.items()]
    spaced = [part for end, value in values.items()
              for part in (f"--{prefix}-{end}", value)]
    assert main([command, *scenario, *joined]) == 0
    want = capsys.readouterr().out
    assert main([command, *scenario, *spaced]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (want, "")
    assert "\n-10.0," in out or ",-10.0," in out


@pytest.mark.parametrize("argv", [["error-table", "--snr-lo=--"],
                                  ["error-table", "--out=--"],
                                  ["validate", "--scenario=--"]])
def test_flag_set_to_a_double_dash_exits_2(capsys, argv):
    # argparse on Python 3.10/3.11 hands "--flag=--" over as an empty list
    assert main(argv) == 2
    flag = argv[1].split("=")[0]
    assert capsys.readouterr().err == f"error: {flag} needs a value\n"


# ---------------------------------------------------------------------------
# error-table
# ---------------------------------------------------------------------------

def test_error_table_default_grid(tmp_path):
    out = str(tmp_path / "table.csv")
    assert main(["error-table", "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["snr_db", "epsilon"]
    assert len(rows) == 21
    by_snr = {row[0]: row[1] for row in rows}
    assert by_snr["0.0"] == "0.5"
    eps = [float(row[1]) for row in rows]
    assert all(0.0 < e < 1.0 for e in eps)
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_error_table_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["error-table", "--out", a]) == 0
    assert main(["error-table", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_error_table_to_stdout(capsys):
    assert main(["error-table", "--snr-lo", "0", "--snr-hi", "2",
                 "--snr-step", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "snr_db,epsilon"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "1.0", "2.0"]


def test_error_table_code_from_scenario(tmp_path):
    doc = dict(BASE_DOC, payload_bits=32, code_rate=0.25)
    out = str(tmp_path / "table.csv")
    args = ["error-table", "--scenario", write_doc(tmp_path, doc), "--out", out]
    assert main(args) == 0
    # n = 128 again, but k = 32: smaller rate, smaller epsilon at 0 dB
    _, rows = read_csv(out)
    assert float(dict(rows)["0.0"]) < 0.5


@pytest.mark.parametrize(
    "flags",
    [["--payload-bits", "32"], ["--code-rate", "0.25"],
     ["--payload-bits", "32", "--code-rate", "0.25"]],
)
def test_error_table_scenario_excludes_code_flags(tmp_path, capsys, flags):
    out = tmp_path / "table.csv"
    scenario = str(SCENARIO_DIR / "small_codebook.json")
    args = ["error-table", "--scenario", scenario, *flags, "--out", str(out)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--scenario" in err and "--payload-bits/--code-rate" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "one,both",
    [(["--payload-bits", "32"], ["--payload-bits", "32", "--code-rate", "0.5"]),
     (["--code-rate", "0.25"], ["--payload-bits", "64", "--code-rate", "0.25"])],
)
def test_error_table_one_code_flag_keeps_the_other_default(capsys, one, both):
    assert main(["error-table", *one]) == 0
    alone = capsys.readouterr().out
    assert main(["error-table", *both]) == 0
    assert capsys.readouterr().out == alone


def test_error_table_bad_inputs(tmp_path, capsys):
    assert main(["error-table", "--snr-lo", "5", "--snr-hi", "-5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["error-table", "--payload-bits", "63",
                 "--code-rate", "0.4"]) == 2
    assert main(["error-table", "--scenario", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    assert main(["error-table", "--snr-lo", "3990", "--snr-hi", "4000",
                 "--snr-step", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "3990" in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# sweep-receiver
# ---------------------------------------------------------------------------

def test_sweep_receiver_rows_are_consistent(tmp_path):
    out = str(tmp_path / "sweep.csv")
    path = write_doc(tmp_path, BASE_DOC)
    assert main(["sweep-receiver", "--scenario", path, "--out", out]) == 0
    header, rows = read_csv(out)
    assert header == ["snr_db", "eps_p", "eps_s", "delta1", "delta2", "delta3",
                      "beta1", "beta2", "beta3", "d_tilde_min"]
    assert len(rows) == 21
    for row in rows:
        (_, eps_p, eps_s, d1, d2, d3, b1, b2, b3, d_min) = map(float, row)
        assert eps_p == eps_s
        assert abs(b1 + b2 + b3 - 1.0) <= 1e-12
        recomputed = eps_p * 1.0 + (1 - eps_p) * (b1 * d1 + b2 * d2 + b3 * d3)
        assert abs(d_min - recomputed) <= 1e-12 * max(1.0, abs(d_min))
    # noisy end excludes, clean end trusts the codeword
    assert float(rows[0][8]) == 1.0
    assert float(rows[-1][6]) == 1.0


def test_sweep_receiver_huge_codebook_never_excludes(tmp_path):
    out = str(tmp_path / "sweep.csv")
    path = str(SCENARIO_DIR / "large_codebook.json")
    assert main(["sweep-receiver", "--scenario", path, "--out", out,
                 "--snr-lo", "-2", "--snr-hi", "2", "--snr-step", "1"]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 5
    assert all(float(row[8]) == 0.0 for row in rows)


def test_sweep_receiver_requires_scenario():
    assert main(["sweep-receiver"]) == 2


# ---------------------------------------------------------------------------
# optimize-alpha
# ---------------------------------------------------------------------------

def test_optimize_alpha_grid(tmp_path):
    out = str(tmp_path / "grid.csv")
    path = write_doc(tmp_path, BASE_DOC)
    assert main(["optimize-alpha", "--scenario", path, "--out", out,
                 "--bob-snr-lo", "2", "--bob-snr-hi", "3", "--bob-snr-step", "0.5",
                 "--eve-snr-lo", "0", "--eve-snr-hi", "1",
                 "--eve-snr-step", "0.5"]) == 0
    header, rows = read_csv(out)
    assert header == ["snr_bob_db", "snr_eve_db", "alpha_opt", "eve_distortion",
                      "bob_distortion", "feasible"]
    assert len(rows) == 9
    for row in rows:
        snr_bob = float(row[0])
        assert row[5] in ("true", "false")
        if row[5] == "true":
            assert snr_bob >= 2.5
            assert 0.0 <= float(row[2]) <= 1.0
            assert float(row[4]) <= 0.01 + 1e-12
        else:
            assert snr_bob == 2.0
            assert row[2] == "nan" and row[3] == "nan" and row[4] == "nan"


@pytest.mark.parametrize(
    "name,two_interval_bobs",
    [("small_codebook", [2.25, 2.5]), ("large_codebook", [2.5])],
)
def test_optimize_alpha_grid_matches_scalar_optimizer(
    tmp_path, name, two_interval_bobs
):
    """Every CSV row is the scalar optimizer's plan for that one cell."""
    path = str(SCENARIO_DIR / f"{name}.json")
    loaded = load_scenario_file(path)
    out = str(tmp_path / "grid.csv")
    axes = []
    for axis in ("bob", "eve"):
        axes += [f"--{axis}-snr-lo", "-5", f"--{axis}-snr-hi", "5",
                 f"--{axis}-snr-step", "0.25"]
    assert main(["optimize-alpha", "--scenario", path, *axes, "--out", out]) == 0
    _, rows = read_csv(out)
    grid = snr_grid(-5.0, 5.0, 0.25)
    assert len(rows) == len(grid) ** 2 == 41 * 41
    two_intervals = set()
    cells = ((b, e) for b in grid for e in grid)
    for row, (snr_bob, snr_eve) in zip(rows, cells):
        cell = replace(loaded.scenario, snr_bob_db=snr_bob, snr_eve_db=snr_eve)
        plan = optimize_deception(cell, loaded.d_max)
        expected = [repr(v) for v in (snr_bob, snr_eve, plan.alpha_opt,
                                      plan.eve_distortion, plan.bob_distortion)]
        assert row == expected + ["true" if plan.feasible else "false"]
        if len(plan.feasible_intervals) == 2:
            two_intervals.add(snr_bob)
    assert sorted(two_intervals) == two_interval_bobs


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: a plan's Bob distortion is read off a rounded crossing "
    "point, so 88 (large) and 61 (small) feasible rows report 0.010000000000000009"))
@pytest.mark.parametrize("name", ["small_codebook", "large_codebook"])
def test_optimize_alpha_feasible_rows_meet_bobs_cap(tmp_path, name):
    """On the benchmark's 201x201 grid, every feasible row's Bob distortion is
    at most d_max, exactly."""
    path = str(SCENARIO_DIR / f"{name}.json")
    axes = []
    for axis in ("bob", "eve"):
        axes += [f"--{axis}-snr-lo", "-5", f"--{axis}-snr-hi", "5",
                 f"--{axis}-snr-step", "0.05"]
    out = str(tmp_path / "grid.csv")
    assert main(["optimize-alpha", "--scenario", path, *axes, "--out", out]) == 0
    d_max = load_scenario_file(path).d_max
    _, rows = read_csv(out)
    over = [row for row in rows if row[5] == "true" and not float(row[4]) <= d_max]
    assert over == []


@pytest.mark.parametrize("block", [1, 40, 41, 42, 41 * 41])
@pytest.mark.parametrize("name", ["small_codebook", "large_codebook"])
def test_optimize_alpha_bytes_do_not_depend_on_the_block(tmp_path, monkeypatch, name, block):
    """A 41x41 grid in one-cell, two-block (40 + 1), one-row, one-row and
    one-pass blocks: the same bytes as the default block."""
    axes = []
    for axis in ("bob", "eve"):
        axes += [f"--{axis}-snr-lo", "-5", f"--{axis}-snr-hi", "5",
                 f"--{axis}-snr-step", "0.25"]
    argv = ["optimize-alpha", "--scenario", str(SCENARIO_DIR / f"{name}.json"), *axes]
    outs = [tmp_path / "default.csv", tmp_path / "blocked.csv"]
    assert main([*argv, "--out", str(outs[0])]) == 0
    monkeypatch.setattr(pld.strategy, "PLAN_BLOCK", block)
    assert main([*argv, "--out", str(outs[1])]) == 0
    assert outs[1].read_bytes() == outs[0].read_bytes()


@pytest.mark.parametrize("name", ["small_codebook", "large_codebook"])
def test_optimize_alpha_text_reads_only_the_plans(tmp_path, monkeypatch, name):
    """With the feasible sets withheld from the CLI, each default 21x21 grid
    still writes its golden bytes: an infeasible row shows in its plan."""
    plans = pld.strategy.deception_plans

    def without_spans(*args):
        for rows, cols, _, block in plans(*args):
            yield rows, cols, None, block

    monkeypatch.setattr(pld.strategy, "deception_plans", without_spans)
    argv = ["optimize-alpha", "--scenario", str(SCENARIO_DIR / f"{name}.json")]
    [digest] = [digest for golden, digest in GOLDEN if golden == argv]
    out = tmp_path / "grid.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_optimize_alpha_streams_a_large_grid(tmp_path):
    """A 1001x1001 grid is written row by row, not held in memory at once."""
    out = tmp_path / "grid.csv"
    axes = []
    for axis in ("bob", "eve"):
        axes += [f"--{axis}-snr-lo", "-5", f"--{axis}-snr-hi", "5",
                 f"--{axis}-snr-step", "0.01"]
    argv = ["optimize-alpha", "--scenario", str(SCENARIO_DIR / "large_codebook.json"),
            *axes, "--out", str(out)]
    child = (
        "import resource; from pld.cli import main; "
        f"print(main({argv!r}), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    code, max_rss_kib = done.stdout.split()  # ru_maxrss is in KiB on Linux
    assert code == "0" and out.exists()
    peak_mb = int(max_rss_kib) / 1024
    assert peak_mb < 150


def test_optimize_alpha_long_axis_memory_is_bounded():
    """2 Bob x 2,000,001 Eve SNRs: curves, search and text go block by block."""
    argv = ["optimize-alpha", "--scenario", str(SCENARIO_DIR / "large_codebook.json"),
            "--bob-snr-lo", "4", "--bob-snr-hi", "4.5", "--bob-snr-step", "0.5",
            "--eve-snr-lo", "-5", "--eve-snr-hi", "5", "--eve-snr-step", "0.000005",
            "--out", os.devnull]
    child = (
        "import resource; from pld.cli import main; "
        f"print(main({argv!r}), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, env=env, timeout=600)
    assert done.returncode == 0 and done.stderr == "", done.stderr
    code, max_rss_kib = done.stdout.split()  # ru_maxrss is in KiB on Linux
    assert code == "0"
    assert int(max_rss_kib) / 1024 < 300


@pytest.mark.parametrize("axis", ["bob", "eve"])
def test_optimize_alpha_snr_overflow(tmp_path, capsys, axis):
    out = tmp_path / "grid.csv"
    path = str(SCENARIO_DIR / "small_codebook.json")
    argv = ["optimize-alpha", "--scenario", path, f"--{axis}-snr-lo", "3990",
            f"--{axis}-snr-hi", "4000", f"--{axis}-snr-step", "10",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "3990" in err and err.count("\n") == 1
    assert not out.exists()


LOW_SNR = {
    "error-table": ["--snr-lo", "-200", "--snr-hi", "-199", "--snr-step", "1"],
    "optimize-alpha": ["--scenario", SMALL_SCENARIO,
                       "--bob-snr-lo", "-200", "--bob-snr-hi", "-199",
                       "--bob-snr-step", "1", "--eve-snr-lo", "-200",
                       "--eve-snr-hi", "-199", "--eve-snr-step", "1"],
}


@pytest.mark.parametrize("command", ["error-table", "optimize-alpha", "validate"])
def test_snr_below_the_dispersion_floor_runs(tmp_path, capsys, command):
    # below about -159.5 dB the channel dispersion is 0; eps is then EPS_CEIL
    if command == "validate":
        doc = dict(BASE_DOC, snr_bob_db=-200.0, mc_trials=20000)
        assert main([command, "--scenario", write_doc(tmp_path, doc)]) in (0, 1)
    else:
        assert main([command, *LOW_SNR[command]]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == "error-table":
        assert out.splitlines()[1:] == [f"-200.0,{EPS_CEIL!r}", f"-199.0,{EPS_CEIL!r}"]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_small_scenario_passes(tmp_path, capsys):
    path = write_doc(tmp_path, dict(BASE_DOC, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "gates: 6 passed, 0 failed, 0 skipped"


def test_validate_evaluates_each_closed_form_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = pld.distortion.opportunistic_distortion

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pld.distortion, "opportunistic_distortion", counted)
    path = write_doc(tmp_path, dict(BASE_DOC, mc_trials=2000))
    assert main(["validate", "--scenario", path]) == 0
    assert capsys.readouterr().out.endswith("gates: 6 passed, 0 failed, 0 skipped\n")
    # 16 reports shared by three gates, the perception gate's 200 draws, and
    # the Monte Carlo gate's optimal strategy
    assert len(calls) == 16 + 200 + 1


def test_validate_skips_enumeration_on_huge_codebook(tmp_path, capsys):
    path = str(SCENARIO_DIR / "large_codebook.json")
    assert main(["validate", "--scenario", path, "--trials", "20000",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    skip_lines = [l for l in out.splitlines() if l.startswith("SKIP")]
    assert len(skip_lines) == 1
    assert "cardinality cap" in skip_lines[0]
    assert "gates: 5 passed, 0 failed, 1 skipped" in out


def test_validate_detects_closed_form_corruption(tmp_path, capsys, monkeypatch):
    original = pld.distortion.delta_terms

    def skewed(scenario, eps_s):
        d = original(scenario, eps_s)
        return DeltaTerms(d.delta1, d.delta2 + 0.05, d.delta3)

    monkeypatch.setattr(pld.distortion, "delta_terms", skewed)
    path = write_doc(tmp_path, dict(BASE_DOC, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("FAIL") for line in out.splitlines())
    assert "0 failed" not in out.splitlines()[-1]


def test_validate_fails_a_nan_oracle(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pld.distortion, "enumeration_oracle",
                        lambda scenario, channels, strategies:
                        np.full((len(channels), len(strategies)), np.nan))
    path = write_doc(tmp_path, dict(BASE_DOC, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 1
    assert ("FAIL closed-form-vs-enumeration: max rel diff nan (tol 1e-10)"
            in capsys.readouterr().out.splitlines())


def test_validate_fails_a_nan_in_every_judged_gate(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pld.checks, "_worst_rel_diff", lambda got, want: float("nan"))
    path = write_doc(tmp_path, dict(BASE_DOC, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL channel-pmf-rows: max row-sum deviation nan",
        "FAIL closed-form-vs-enumeration: max rel diff nan (tol 1e-10)",
        "FAIL perception-vs-pipeline: max rel diff nan (tol 1e-12)",
        "FAIL report-decomposition: max rel diff nan (tol 1e-12)",
    ]
    assert lines[-1] == "gates: 2 passed, 4 failed, 0 skipped"


def test_validate_checks_the_batch_cipher_at_small_codebooks(tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(pld.checks, "encrypt_batch",
                        lambda words, keys, size, out=None: words.copy())
    path = write_doc(tmp_path, dict(BASE_DOC, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 1
    # both keyed pairs of S=2 break the rule; the NULL_KEY pairs hold
    assert ("FAIL cipher-identities: 2 violations in 7 exhaustive checks (S=2)"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("codebook_size, line", [
    (2, "FAIL cipher-identities: 1 violations in 7 exhaustive checks (S=2)"),
    (4096, "FAIL cipher-identities: 1 violations in 300001 randomized checks (S=4096)"),
], ids=["exhaustive", "randomized"])
def test_validate_catches_a_cipher_that_overwrites_its_keys(tmp_path, capsys, monkeypatch,
                                                            codebook_size, line):
    # each result is right, so no pair check sees the fault; only the keys,
    # which the Monte Carlo walk reads again after each cipher call, are wrong
    decrypt = pld.checks.decrypt_batch
    monkeypatch.setattr(pld.checks, "decrypt_batch",
                        lambda codewords, keys, size, out=None:
                        decrypt(codewords, keys, size, out=keys if out is None else out))
    path = write_doc(tmp_path, dict(BASE_DOC, codebook_size=codebook_size, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 1
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("codebook_size, shown, skipped", [(4096, 4096, 0),
                                                          ("2^64", 1 << 64, 1)],
                         ids=["4096", "2^64"])
def test_validate_checks_each_drawn_word_under_the_null_key(tmp_path, capsys, monkeypatch,
                                                            codebook_size, shown, skipped):
    # the drawn keys are all active, so only the gate's NULL_KEY pass can see
    # a cipher that moves a word under key 0 alone: each word then fails
    # both its encryption and its decryption check
    encrypt = pld.checks.encrypt_batch
    monkeypatch.setattr(pld.checks, "encrypt_batch",
                        lambda words, keys, size, out=None:
                        encrypt(words, keys, size) ^ (keys == 0).astype(np.uint64))
    path = write_doc(tmp_path, dict(BASE_DOC, codebook_size=codebook_size, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("FAIL cipher-identities: 200000 violations in 300001 "
                        f"randomized checks (S={shown})")
    # S=2^64 skips the enumeration gate
    assert lines[-1] == f"gates: {5 - skipped} passed, 1 failed, {skipped} skipped"


def break_the_monte_carlo_kernel(monkeypatch):
    """Make every Monte Carlo mean 2 * mean + 1, far off the closed form."""
    original = pld.montecarlo.estimate_distortions

    def doubled(*args, **kwargs):
        return [replace(est, mean=2.0 * est.mean + 1.0) for est in original(*args, **kwargs)]

    monkeypatch.setattr(pld.montecarlo, "estimate_distortions", doubled)


def test_validate_monte_carlo_gate_fails_at_huge_distortion(tmp_path, capsys,
                                                            monkeypatch):
    # the analytic bound d_conf * mean overflowed above d_conf ~ 1e154, which
    # made the tolerance inf and let any estimate pass
    break_the_monte_carlo_kernel(monkeypatch)
    path = write_doc(tmp_path, dict(BASE_DOC, d_conf=1e200, mc_trials=20000))
    assert main(["validate", "--scenario", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[4].startswith("FAIL closed-form-vs-monte-carlo: ")
    assert lines[-1] == "gates: 5 passed, 1 failed, 0 skipped"


@pytest.mark.parametrize("codebook_size, trials, pairs", [(4096, 1 << 19, 1), ("2^64", 20000, 4)],
                         ids=["4096", "2^64"])
def test_validate_walks_once_per_judged_channel_pair(tmp_path, capsys, monkeypatch,
                                                     codebook_size, trials, pairs):
    # every gate strategy shares its pair's walk; above the enumeration cap the
    # gate judges all four pairs, Bob's first
    walks = []
    count = pld.montecarlo._count_outcomes

    def counted(scenario, eps_p, eps_s, strategies, size, seed):
        walks.append(((eps_p, eps_s), len(strategies)))
        return count(scenario, eps_p, eps_s, strategies, size, seed)

    monkeypatch.setattr(pld.montecarlo, "_count_outcomes", counted)
    path = write_doc(tmp_path, dict(BASE_DOC, codebook_size=codebook_size, mc_trials=trials))
    assert main(["validate", "--scenario", path]) == 0
    eps_bob, eps_eve = pld.fbl.receiver_error_rates(load_scenario_file(path).scenario)
    judged = [(eps_bob, eps_bob), (eps_eve, eps_eve), (0.1, 0.2), (0.5, 0.5)][:pairs]
    assert walks == [(pair, 5) for pair in judged]
    assert capsys.readouterr().out.splitlines()[4].endswith(
        f"sigma over {pairs} pairs x 5 strategies at {trials} trials")


def test_a_monte_carlo_fault_on_bobs_pair_ends_the_walks(capsys, monkeypatch):
    # the gate judges each walk's strategies before it walks the next pair, so
    # a fault that shows on Bob's pair, the first, leaves the other three unwalked
    break_the_monte_carlo_kernel(monkeypatch)
    walks = []
    count = pld.montecarlo._count_outcomes

    def counted(scenario, eps_p, eps_s, strategies, size, seed):
        walks.append((eps_p, eps_s))
        return count(scenario, eps_p, eps_s, strategies, size, seed)

    monkeypatch.setattr(pld.montecarlo, "_count_outcomes", counted)
    path = str(SCENARIO_DIR / "large_codebook.json")  # S = 2^64: four judged pairs
    argv = ["validate", "--scenario", path, "--trials", "20000", "--seed", "3"]
    assert main(argv) == 1
    eps_bob, _ = pld.fbl.receiver_error_rates(load_scenario_file(path).scenario)
    assert walks == [(eps_bob, eps_bob)]
    assert capsys.readouterr().out.splitlines()[4] == (
        "FAIL closed-form-vs-monte-carlo: |1 - 1.42793e-05| = 1.000e+00 > tol=3.380e-04 "
        "at 20000 trials, (eps_p, eps_s) = (1.31003e-06, 1.31003e-06), strategy (1, 0, 0)")


def test_validate_decides_the_oracle_split_once(tmp_path, capsys, monkeypatch):
    # run_validation asks enumeration_limit once, and both gates follow its
    # answer: the enumeration gate skips with its reason, and the Monte Carlo
    # gate judges all four pairs at a codebook that enumeration could run
    calls = []

    def limit(scenario):
        calls.append(scenario.codebook_size)
        return "planted reason"

    monkeypatch.setattr(pld.distortion, "enumeration_limit", limit)
    path = write_doc(tmp_path, dict(BASE_DOC, codebook_size=64, mc_trials=20000))
    assert main(["validate", "--scenario", path, "--seed", "3"]) == 0
    assert calls == [64]
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "SKIP closed-form-vs-enumeration: skipped: planted reason"
    assert lines[4].startswith("PASS closed-form-vs-monte-carlo: ")
    assert lines[4].endswith("sigma over 4 pairs x 5 strategies at 20000 trials")


def test_validate_judges_one_trial_by_the_analytic_bound(capsys):
    # the standard error of one trial is nan (the gate once made tol nan), so
    # the analytic bound both judges the gap of 3.3e-3 and measures it
    argv = ["validate", "--scenario", SMALL_SCENARIO, "--trials", "1", "--seed", "3"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4] == ("PASS closed-form-vs-monte-carlo: max |mean-analytic| = "
                        "0.10 sigma over 1 pairs x 5 strategies at 1 trials")


def test_validate_fails_a_faulty_kernel_at_one_trial(capsys, monkeypatch):
    break_the_monte_carlo_kernel(monkeypatch)
    argv = ["validate", "--scenario", SMALL_SCENARIO, "--trials", "1", "--seed", "3"]
    assert main(argv) == 1
    line = capsys.readouterr().out.splitlines()[4]
    assert line.startswith("FAIL closed-form-vs-monte-carlo: ")
    tol = float(line.split("tol=")[1].split()[0])
    # 4 * sqrt(d_conf * closed / 1) at d_conf = 10, closed ~ 0.0033
    assert 0.5 < tol < 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size,d_conf", [(2, 1e308), (4096, 1e307)])
def test_validate_skips_enumeration_beyond_the_float_range(tmp_path, capsys,
                                                           size, d_conf):
    doc = dict(BASE_DOC, codebook_size=size, mc_trials=20000)
    admitted = sys.float_info.max / 2 / size  # exact: S is a power of two
    skipped = ("SKIP closed-form-vs-enumeration: skipped: float range — "
               f"S={size} times d_conf={d_conf!r} exceeds half the largest float")
    for value, expected in ((d_conf, skipped),
                            (admitted, "PASS closed-form-vs-enumeration: ")):
        path = write_doc(tmp_path, dict(doc, d_conf=value))
        assert main(["validate", "--scenario", path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[2].startswith(expected)


def test_validate_writes_report_file(tmp_path):
    out = str(tmp_path / "report.txt")
    path = write_doc(tmp_path, dict(BASE_DOC, mc_trials=20000))
    assert main(["validate", "--scenario", path, "--out", out]) == 0
    text = Path(out).read_text(encoding="utf-8")
    assert text.endswith("skipped\n")


def test_validate_bad_overrides(tmp_path, capsys):
    path = write_doc(tmp_path, BASE_DOC)
    assert main(["validate", "--scenario", path, "--trials", "0"]) == 2
    assert main(["validate", "--scenario", path, "--seed", "-1"]) == 2
    capsys.readouterr()
    assert main(["validate", "--scenario", path, "--workers", "2"]) == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    loud = write_doc(tmp_path, dict(BASE_DOC, snr_bob_db=4000.0), "loud.json")
    assert main(["validate", "--scenario", loud]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4000" in err and err.count("\n") == 1
    huge = write_doc(tmp_path, dict(BASE_DOC, d_loss=10**400), "huge.json")
    assert main(["validate", "--scenario", huge]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "d_loss" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "optimize-alpha", "sweep-receiver"])
def test_snr_whose_linear_value_overflows_is_rejected_on_load(tmp_path, capsys, command):
    path = write_doc(tmp_path, dict(BASE_DOC, snr_bob_db=1e308), "overflow.json")
    argv = [command, "--scenario", path, "--out", str(tmp_path / "out.txt")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "overflow.json" in err and "snr_bob_db" in err
    assert not (tmp_path / "out.txt").exists()


# ---------------------------------------------------------------------------
# top-level parsing
# ---------------------------------------------------------------------------

def test_unknown_command_exits_with_usage_error():
    assert main(["no-such-command"]) == 2


def test_help_exits_cleanly():
    assert main(["--help"]) == 0


@pytest.mark.parametrize(
    "command", ["error-table", "sweep-receiver", "optimize-alpha"]
)
def test_monte_carlo_flags_only_on_validate(command, capsys):
    path = str(SCENARIO_DIR / "small_codebook.json")
    argv = [command, "--scenario", path, "--seed", "1", "--trials", "7",
            "--workers", "9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --seed 1 --trials 7 --workers 9" in err


def test_module_runs_as_script():
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(
        [sys.executable, "-m", "pld.cli", "error-table", "--snr-lo", "0",
         "--snr-hi", "1", "--snr-step", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:2] == ["snr_db,epsilon", "0.0,0.5"]


def test_closed_stdout_pipe_exits_141_quietly():
    # a 201x201 grid writes ~2 MB, far past the 64 KB pipe buffer, so the
    # writer is still writing when the reader goes away
    argv = [sys.executable, "-m", "pld.cli", "optimize-alpha", "--scenario",
            str(SCENARIO_DIR / "large_codebook.json")]
    for axis in ("bob", "eve"):
        argv += [f"--{axis}-snr-lo", "-5", f"--{axis}-snr-hi", "5",
                 f"--{axis}-snr-step", "0.05"]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert stderr == b""
    assert first.startswith(b"snr_bob_db,snr_eve_db,")
