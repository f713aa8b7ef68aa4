"""Domain types, semantic distance, and scenario validation."""
from dataclasses import replace

import pytest

from pld.core import (
    NULL_KEY,
    NULL_MSG,
    Scenario,
    ScenarioError,
    code_violations,
    scenario_violations,
)
from pld.fbl import FblCode
from reference import distance


def make_scenario(**kw):
    base = dict(
        codebook_size=2,
        d_loss=1.0,
        d_conf=10.0,
        alpha=0.99,
        payload_bits=64,
        code_rate=0.5,
    )
    base.update(kw)
    return Scenario(**base)


SCENARIO = make_scenario()  # d_loss 1, d_conf 10


def test_sentinels_are_distinct_markers():
    assert NULL_MSG is not NULL_KEY
    assert repr(NULL_MSG) == "NULL_MSG"
    assert repr(NULL_KEY) == "NULL_KEY"
    for value in range(10):
        assert NULL_MSG != value
        assert NULL_KEY != value


def test_distance_levels():
    assert distance(3, 3, SCENARIO) == 0.0
    assert distance(3, NULL_MSG, SCENARIO) == 1.0
    assert distance(3, 5, SCENARIO) == 10.0


def test_distance_zero_on_diagonal():
    for w in range(8):
        assert distance(w, w, SCENARIO) == 0.0


def test_distance_rejects_null_truth():
    with pytest.raises(ValueError):
        distance(NULL_MSG, 3, SCENARIO)


def test_validate_accepts_reference_parameters():
    sc = make_scenario()
    assert scenario_violations(sc) == []
    assert replace(sc, alpha=0.0).alpha == 0.0


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: make_scenario(alpha=1.5), "alpha"),
        (lambda: replace(make_scenario(), alpha=1.5), "alpha"),
        (lambda: make_scenario(payload_bits=64, code_rate=0.3), "blocklength"),
        (lambda: make_scenario(d_loss=10.0, d_conf=1.0), "d_conf"),
        (lambda: make_scenario(codebook_size=1), "codebook_size"),
        (lambda: make_scenario(codebook_size=(1 << 64) + 1), "codebook_size"),
        (lambda: make_scenario(snr_bob_db=1e308), "snr_bob_db"),
        (lambda: make_scenario(snr_eve_db=3083.0), "snr_eve_db"),
    ],
    ids=["alpha-out-of-range", "replace-alpha-out-of-range",
         "non-integer-blocklength", "bad-distortion-ordering", "codebook-size-1",
         "codebook-size-above-2^64", "snr-bob-overflows", "snr-eve-overflows"],
)
def test_validate_rejects_bad_parameters(build, field):
    with pytest.raises(ScenarioError, match=field) as err:
        build()
    assert len(err.value.violations) == 1


def test_largest_snr_whose_linear_value_fits_a_float_is_kept():
    sc = make_scenario(snr_bob_db=3082.0, snr_eve_db=3082.0)
    assert (sc.snr_bob_db, sc.snr_eve_db) == (3082.0, 3082.0)


def test_validate_collects_every_violation():
    with pytest.raises(ScenarioError) as err:
        make_scenario(codebook_size=1, alpha=-0.2, d_loss=-1.0, code_rate=2.0)
    violations = err.value.violations
    assert len(violations) >= 4
    text = " ".join(violations)
    for name in ("codebook_size", "alpha", "d_loss", "code_rate"):
        assert name in text


REAL_FIELDS = ["d_loss", "d_conf", "alpha", "code_rate", "snr_bob_db", "snr_eve_db"]


@pytest.mark.parametrize("value", ["x", None, True, 10**400],
                         ids=["str", "None", "bool", "1e400"])
@pytest.mark.parametrize("field", REAL_FIELDS)
def test_real_field_that_is_not_a_float_rejected(field, value):
    with pytest.raises(ScenarioError, match=field) as err:
        make_scenario(**{field: value})
    assert len(err.value.violations) == 1


def test_real_fields_stored_as_floats():
    sc = make_scenario(d_loss=1, d_conf=10, alpha=1, code_rate=1, snr_bob_db=3)
    assert all(type(getattr(sc, field)) is float for field in REAL_FIELDS)
    assert sc == make_scenario(d_loss=1.0, d_conf=10.0, alpha=1.0, code_rate=1.0,
                               snr_bob_db=3.0)


def test_every_type_problem_listed():
    with pytest.raises(ScenarioError) as err:
        make_scenario(codebook_size=4.0, payload_bits="64", d_loss=None, alpha=1.5)
    assert err.value.violations == [
        "codebook_size must be an integer, got 4.0",
        "payload_bits must be an integer, got '64'",
        "d_loss must be a number, got None",
    ]


def test_code_rules_skip_the_blocklength_of_a_non_integer():
    assert code_violations("x", 0.5) == [
        "payload_bits must be a positive integer, got 'x'"
    ]


def test_blocklength_arithmetic():
    code = FblCode.from_scenario
    assert code(make_scenario(payload_bits=64, code_rate=0.5)).blocklength_n == 128
    assert code(make_scenario(payload_bits=64, code_rate=1.0)).blocklength_n == 64
