"""Golden outputs: the CLI's bytes for fixed inputs and seed never change.

Each digest is the SHA-256 of one subcommand's output file.  A refactor
that keeps behaviour keeps these digests; a deliberate change to an output
format or a numeric result must update them and say why.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pld.cli import main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SRC_DIR = SCENARIO_DIR.parent / "src"
SMALL = str(SCENARIO_DIR / "small_codebook.json")
LARGE = str(SCENARIO_DIR / "large_codebook.json")


def _axes(axis, lo, hi, step):
    return [f"--{axis}-snr-lo", lo, f"--{axis}-snr-hi", hi,
            f"--{axis}-snr-step", step]


GOLDEN = [
    (["error-table"],
     "68c8d94dd12372f8e7ca8ef2df427374d8eb1afa4a6c221c3d206ccdec3ec298"),
    (["sweep-receiver", "--scenario", SMALL],
     "fe86d39531a433765927a888cc060221f058cf4044f095d553e3505236cd78d9"),
    (["sweep-receiver", "--scenario", LARGE],
     "be9451b36813925817a252d11e9f6c84b046971114371cb82a94439b9c302743"),
    # default axes: -5..5 dB in 0.5 dB steps, a 21x21 grid
    (["optimize-alpha", "--scenario", SMALL],
     "3dfb65e4384b5c0bd5158af7f67152f0670d8c79b761725e42dd1b37dd43b7ff"),
    (["optimize-alpha", "--scenario", LARGE],
     "d4afd9d5fe132f94a6aa109febdf424020e3ee8d17c1a115e55ba32847bc31d8"),
    # the benchmark's grid: -5..5 dB in 0.05 dB steps on both axes, 201x201
    (["optimize-alpha", "--scenario", LARGE,
      *_axes("bob", "-5", "5", "0.05"), *_axes("eve", "-5", "5", "0.05")],
     "2c2d99411714566dd994b8a19a35b55ca9e7cddf3af639f402bf84a435ddc6d0"),
    # 1001x1001 in 0.01 dB steps; pins as they are the 1,852 feasible rows
    # whose bob_distortion rounds above d_max (0.010000000000000002 or ...09)
    (["optimize-alpha", "--scenario", LARGE,
      *_axes("bob", "-5", "5", "0.01"), *_axes("eve", "-5", "5", "0.01")],
     "9f0db3b443875d41c391ce126f97ee587d85a8ddc9fc6e2c83b41a4317d53d52"),
    (["validate", "--scenario", SMALL, "--trials", "20000", "--seed", "3"],
     "6190942e24dd4726ba36fc718e1dbb68e42f6ce535338f8651b21ddbf7545938"),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN,
    ids=["error-table", "sweep-receiver-small", "sweep-receiver-large",
         "optimize-alpha-small", "optimize-alpha-large",
         "optimize-alpha-large-201x201", "optimize-alpha-large-1001x1001",
         "validate-small"],
)
def test_cli_output_digest(tmp_path, argv, digest):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "size,digest",
    [(257, "442912d9d806e6ce43f953c038adc63f9e0840bb58b7dc92d0fa95bb354daddd"),
     (4096, "cf182ea81741b459df3bf62fac23ce9c80cdade649bf829d7a890277c24105f1"),
     (1 << 64, "bee45626b75e9f9ff1ea37b61d83434f2becf0338039899914ac89ec7a9beb4c")],
    ids=["S=257", "S=4096", "S=2^64"],
)
def test_validate_digest_at_enumerated_codebook(tmp_path, size, digest):
    # small_codebook.json has S=2, one key to enumerate; S=257 gives the
    # enumeration gate 256 keys per channel pair, S=4096 is the cap (the
    # benchmark's validate input), and S=2^64 takes the gate's SKIP line
    spec = json.loads(Path(SMALL).read_text(encoding="utf-8"))
    spec["codebook_size"] = size
    scenario = tmp_path / "small_codebook.json"
    scenario.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out.txt"
    argv = ["validate", "--scenario", str(scenario), "--trials", "20000",
            "--seed", "3", "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_optimize_alpha_digest_at_extreme_magnitudes(tmp_path):
    # distortions near the largest float, and a 33,334-point Eve axis that
    # spans more than one block of curves
    spec = json.loads(Path(LARGE).read_text(encoding="utf-8"))
    spec.update(d_loss=1e307, d_conf=1.7e308, d_max=1e305)
    scenario = tmp_path / "extreme.json"
    scenario.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-m", "pld.cli", "optimize-alpha",
            "--scenario", str(scenario),
            *_axes("bob", "-40", "60", "20"), *_axes("eve", "-40", "60", "0.003"),
            "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "117278ae4056181ee31fccf4bacd365268c6b3f7ed7721042dcac8620d65e965")
