"""Erasure / one-sided key channel pmfs and delivery draws."""
import numpy as np
import pytest

from pld.channels import delivery_mask, primary_pmf, secondary_pmf
from pld.core import NULL_KEY, NULL_MSG


def test_primary_pmf_branches():
    assert primary_pmf(2, 2, 0.1) == 0.9
    assert primary_pmf(NULL_MSG, 2, 0.1) == 0.1
    assert primary_pmf(3, 2, 0.7) == 0.0


def test_secondary_pmf_branches():
    assert secondary_pmf(7, 7, 0.2) == 0.8
    assert secondary_pmf(NULL_KEY, 7, 0.2) == 0.2
    assert secondary_pmf(5, 7, 0.9) == 0.0
    assert secondary_pmf(NULL_KEY, NULL_KEY, 0.2) == 1.0
    assert secondary_pmf(5, NULL_KEY, 0.2) == 0.0


def test_rows_sum_to_one():
    for eps in (0.0, 0.3, 1.0):
        assert abs(primary_pmf(4, 4, eps) + primary_pmf(NULL_MSG, 4, eps) - 1.0) <= 1e-12
        assert abs(secondary_pmf(4, 4, eps) + secondary_pmf(NULL_KEY, 4, eps) - 1.0) <= 1e-12
        assert secondary_pmf(NULL_KEY, NULL_KEY, eps) == 1.0


def test_pmf_validation():
    with pytest.raises(ValueError):
        primary_pmf(2, 2, 1.5)
    with pytest.raises(ValueError):
        secondary_pmf(2, 2, -0.1)
    with pytest.raises(ValueError):
        primary_pmf(2, NULL_MSG, 0.1)


def test_erasure_frequency():
    rng = np.random.default_rng(5)
    n = 1_000_000
    delivered = delivery_mask(rng, 0.3, n)
    freq = 1.0 - delivered.mean()
    assert abs(freq - 0.3) <= 4.0 * np.sqrt(0.3 * 0.7 / n)

