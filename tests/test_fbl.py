"""Finite-blocklength error model against high-precision oracles.

Frozen expected values were computed with mpmath at 50 significant digits;
the q_function test also recomputes its oracle in-process.
"""
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from pld import core
from pld.cli import load_scenario_file
from pld.core import Scenario, ScenarioError, code_violations
from pld.fbl import (
    EPS_CEIL,
    EPS_FLOOR,
    LOG2_E,
    FblCode,
    channel_dispersion,
    error_rates,
    packet_error_rate,
    q_function,
    shannon_capacity,
    snr_db_to_linear,
)

CODE = FblCode(blocklength_n=128, info_bits_k=64)
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def rel_err(got, want):
    return abs(got - want) / abs(want)


def test_snr_conversion():
    assert snr_db_to_linear(0.0) == 1.0
    assert math.isclose(snr_db_to_linear(10.0), 10.0, rel_tol=1e-15)
    assert math.isclose(snr_db_to_linear(-10.0), 0.1, rel_tol=1e-15)


@pytest.mark.parametrize("kind", [float, np.float64])
def test_snr_conversion_range(kind):
    for db in (-120.0, -10.0, 3.0, 3080.0):
        assert snr_db_to_linear(kind(db)) == 10.0 ** (db / 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="4000"):
            snr_db_to_linear(kind(4000.0))


def test_capacity_landmarks():
    assert shannon_capacity(1.0) == 1.0
    assert shannon_capacity(3.0) == 2.0
    # 5 dB, oracle value from 50-digit log evaluation
    assert rel_err(shannon_capacity(10.0 ** 0.5), 2.0573732086067950) < 1e-12


def test_capacity_rejects_nonpositive():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            shannon_capacity(bad)
        with pytest.raises(ValueError):
            channel_dispersion(bad)


def test_dispersion_landmarks():
    assert channel_dispersion(1.0) == 0.75 * LOG2_E * LOG2_E
    assert rel_err(channel_dispersion(1.0), 1.5610267357542058) < 1e-12
    assert rel_err(channel_dispersion(1e6), LOG2_E * LOG2_E) < 1e-5
    assert channel_dispersion(1e-9) < 1e-8


def test_dispersion_increasing():
    grid = [10.0 ** (db / 10.0) for db in range(-20, 21)]
    values = [channel_dispersion(g) for g in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_q_function_landmarks():
    assert q_function(0.0) == 0.5
    assert rel_err(q_function(0.5), 0.3085375387259869) < 1e-12
    assert rel_err(q_function(1.0), 0.15865525393145705) < 1e-12
    assert rel_err(q_function(2.0), 0.022750131948179207) < 1e-12
    assert rel_err(q_function(4.528), 2.9772290871554922e-06) < 1e-12


def test_q_function_symmetry_and_monotonicity():
    xs = [i * 0.5 for i in range(-16, 17)]
    for x in xs:
        assert abs(q_function(x) + q_function(-x) - 1.0) <= 1e-12
    values = [q_function(x) for x in xs]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert q_function(float("inf")) == 0.0
    assert q_function(float("-inf")) == 1.0


def test_q_function_against_mpmath_oracle():
    mpmath.mp.dps = 40
    for i in range(-32, 33):
        x = i / 4.0  # covers |x| <= 8
        oracle = float(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2)
        assert rel_err(q_function(x), oracle) < 1e-12


def test_code_validation():
    with pytest.raises(ValueError):
        FblCode(128, 200)
    with pytest.raises(ValueError):
        FblCode(0, 0)
    # a float or bool dimension names no code, yet would have an error rate
    for dims in [(128.5, 64), (128, 64.0), (True, True), (np.int64(128), 64)]:
        with pytest.raises(ValueError, match="must be positive integers"):
            FblCode(*dims)
    sc = Scenario(codebook_size=2, d_loss=1.0, d_conf=10.0, alpha=0.5,
                  payload_bits=64, code_rate=0.5)
    assert FblCode.from_scenario(sc) == CODE


def test_code_from_rate():
    assert FblCode.from_rate(64, 0.5) == FblCode(128, 64)
    with pytest.raises(ScenarioError) as err:
        FblCode.from_rate(63, 0.4)  # n = 157.5
    assert err.value.violations == code_violations(63, 0.4)
    assert "integer blocklength" in str(err.value)
    for name in ("small_codebook", "large_codebook"):
        sc = load_scenario_file(str(SCENARIO_DIR / f"{name}.json")).scenario
        assert FblCode.from_scenario(sc) == FblCode.from_rate(sc.payload_bits, sc.code_rate)


def test_error_rate_landmark_at_zero_db():
    # rate k/n = 1/2 matches half the capacity at 0 dB: argument exactly 0
    assert packet_error_rate(1.0, CODE) == 0.5


def test_error_rate_frozen_values():
    assert rel_err(
        packet_error_rate(snr_db_to_linear(-5.0), CODE), 0.9999998680274103
    ) < 1e-10
    assert rel_err(
        packet_error_rate(snr_db_to_linear(-2.5), CODE), 0.9949362163022527
    ) < 1e-10
    assert rel_err(
        packet_error_rate(snr_db_to_linear(2.5), CODE), 0.0024133943989489404
    ) < 1e-10
    assert rel_err(
        packet_error_rate(snr_db_to_linear(5.0), CODE), 7.694309028960261e-10
    ) < 1e-10
    assert packet_error_rate(snr_db_to_linear(-5.0), CODE) > 0.9
    assert packet_error_rate(snr_db_to_linear(5.0), CODE) < 1e-6


def test_error_rate_monotone_in_snr_and_rate():
    grid = [snr_db_to_linear(-5.0 + 0.5 * i) for i in range(21)]
    values = [packet_error_rate(g, CODE) for g in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert packet_error_rate(1.0, FblCode(128, 80)) > packet_error_rate(1.0, CODE)


def test_error_rate_clamped_into_open_interval():
    assert packet_error_rate(1e12, CODE) == EPS_FLOOR
    assert packet_error_rate(1e-12, CODE) == EPS_CEIL
    assert EPS_CEIL < 1.0


@pytest.mark.parametrize("code", [CODE, FblCode(10**9, 1)])
def test_error_rate_is_its_limit_where_the_dispersion_vanishes(code):
    # below about -159.5 dB, 1 + g rounds to 1: no capacity and no dispersion
    assert channel_dispersion(snr_db_to_linear(-160.0)) == 0.0
    assert packet_error_rate(snr_db_to_linear(-200.0), code) == EPS_CEIL
    # continuous in value from -159 dB, where the dispersion is positive
    grid = [snr_db_to_linear(-159.0 - 0.01 * i) for i in range(101)]
    assert channel_dispersion(grid[0]) > 0.0
    assert {packet_error_rate(g, code) for g in grid} == {EPS_CEIL}


def test_error_rate_is_its_limit_where_the_snr_underflows():
    # below about -3233 dB, 10^(dB/10) is 0.0, which the capacity rejects
    assert snr_db_to_linear(-4000.0) == 0.0
    assert packet_error_rate(snr_db_to_linear(-4000.0), CODE) == EPS_CEIL
    with pytest.raises(ValueError):
        packet_error_rate(-1.0, CODE)


SNRS_DB = [-4000.0, -200.0, -5.0, -2.5, 0.0, 0.1, 2.5, 5.0, 37.25]


@pytest.mark.parametrize("kind", [list, tuple, np.array])
def test_error_rates_are_the_scalar_map_bit_for_bit(kind):
    got = error_rates(CODE, kind(SNRS_DB))
    want = [packet_error_rate(snr_db_to_linear(x), CODE) for x in SNRS_DB]
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()
    assert got[0] == got[1] == EPS_CEIL  # -4000 dB underflows, -200 dB has V = 0


def test_error_rates_one_half_at_zero_db():
    # both of a receiver's channels use the scenario's code: one rate for both
    assert error_rates(FblCode(128, 64), [0.0]).tolist() == [0.5]


def test_error_rates_reject_a_nan_snr():
    # NaN fails every comparison, so only a test that it is > 0 catches it
    with pytest.raises(ValueError, match="nan"):
        packet_error_rate(math.nan, CODE)
    with pytest.raises(ValueError, match="nan"):
        error_rates(CODE, [0.0, math.nan])


def test_error_rates_reject_an_snr_past_the_float_range():
    with pytest.raises(ValueError, match="overflows"):
        error_rates(CODE, (0.0, 4000.0))


def test_one_snr_range_rule(monkeypatch):
    # fbl's snr_db_to_linear is core's one function: a rule that refuses
    # 7 dB there is refused by a Scenario and by error_rates alike
    def refuse_7_db(snr_db):
        if snr_db == 7.0:
            raise ValueError(f"SNR {snr_db!r} dB refused")
        return 10.0 ** (snr_db / 10.0)

    monkeypatch.setattr(core.snr_db_to_linear, "__code__", refuse_7_db.__code__)
    base = dict(codebook_size=2, d_loss=1.0, d_conf=10.0, alpha=0.5)
    assert Scenario(**base, snr_bob_db=6.0).snr_bob_db == 6.0
    with pytest.raises(ScenarioError, match="snr_bob_db must be at most"):
        Scenario(**base, snr_bob_db=7.0)
    with pytest.raises(ValueError, match="refused"):
        error_rates(CODE, [6.0, 7.0])
