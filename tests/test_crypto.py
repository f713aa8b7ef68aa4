"""Shift cipher identities and key-prior sampling."""
import numpy as np
import pytest

from pld.core import NULL_KEY, NULL_MSG, Scenario
from pld.crypto import (
    ShiftCipher,
    add_mod,
    decrypt_batch,
    encrypt_batch,
    sample_keys,
    sub_mod,
)

FULL = 1 << 64


def scenario_with(codebook_size, alpha):
    return Scenario(codebook_size=codebook_size, d_loss=1.0, d_conf=10.0,
                    alpha=alpha)


def test_encrypt_identities():
    cipher = ShiftCipher(8)
    assert cipher.encrypt(5, NULL_KEY) == 5
    assert cipher.encrypt(5, 3) == 0


def test_decrypt_identities():
    cipher = ShiftCipher(8)
    assert cipher.decrypt(NULL_MSG, 7) is NULL_MSG
    assert cipher.decrypt(NULL_MSG, NULL_KEY) is NULL_MSG
    assert cipher.decrypt(4, NULL_KEY) == 4


def test_exhaustive_small_codebook():
    cipher = ShiftCipher(6)
    for w in range(6):
        assert cipher.decrypt(cipher.encrypt(w, NULL_KEY), NULL_KEY) == w
        for k in range(1, 6):
            s = cipher.encrypt(w, k)
            assert s != w  # an active key always moves the codeword
            assert cipher.decrypt(s, k) == w


@pytest.mark.parametrize("size", [2, 3, 5, 8, 16])
def test_bijectivity(size):
    cipher = ShiftCipher(size)
    for k in range(1, size):
        image = {cipher.encrypt(w, k) for w in range(size)}
        assert image == set(range(size))


def test_input_validation():
    cipher = ShiftCipher(8)
    with pytest.raises(ValueError):
        cipher.encrypt(8, 1)
    with pytest.raises(ValueError):
        cipher.encrypt(NULL_MSG, 1)
    with pytest.raises(ValueError):
        cipher.encrypt(3, 0)
    with pytest.raises(ValueError):
        cipher.encrypt(3, 8)
    with pytest.raises(ValueError):
        cipher.decrypt(3, 9)
    with pytest.raises(ValueError):
        ShiftCipher(1)


def test_sample_keys_degenerate_rates():
    rng = np.random.default_rng(0)
    values, active = sample_keys(rng, scenario_with(8, 0.0), 50)
    assert not active.any()
    assert np.all(values == 0)
    values, active = sample_keys(rng, scenario_with(2, 1.0), 50)
    assert active.all()
    assert np.all(values == 1)


def test_sample_keys_activation_frequency():
    rng = np.random.default_rng(7)
    n = 1_000_000
    values, active = sample_keys(rng, scenario_with(FULL, 0.99), n)
    freq_null = 1.0 - active.mean()
    assert abs(freq_null - 0.01) <= 4.0 * np.sqrt(0.01 * 0.99 / n)
    assert values[~active].max(initial=0) == 0
    assert values[active].min() >= 1


def test_sample_keys_uniform_over_keyspace():
    rng = np.random.default_rng(11)
    n = 300_000
    values, active = sample_keys(rng, scenario_with(4, 1.0), n)
    assert active.all()
    for k in (1, 2, 3):
        freq = (values == k).mean()
        assert abs(freq - 1 / 3) <= 4.0 * np.sqrt((1 / 3) * (2 / 3) / n)


def test_batch_matches_scalar_cipher():
    rng = np.random.default_rng(3)
    for size in (7, 2**63, 2**63 + 11, FULL):
        cipher = ShiftCipher(size)
        w = rng.integers(0, size, size=200, dtype=np.uint64)
        k = rng.integers(0, size - 1, size=200, dtype=np.uint64) + np.uint64(1)
        active = np.ones(200, dtype=bool)
        s = encrypt_batch(w, k, active, size)
        back = decrypt_batch(s, k, active, size)
        assert np.array_equal(back, w)
        for i in range(0, 200, 37):
            assert int(s[i]) == cipher.encrypt(int(w[i]), int(k[i]))


def test_batch_wraparound_edges():
    # sums that overflow uint64 and differences that underflow it
    for size in (2**63 + 3, FULL):
        top = size - 1
        w = np.array([top, 0, top - 1], dtype=np.uint64)
        k = np.array([top, top, 1], dtype=np.uint64)
        expect = np.array(
            [(int(a) + int(b)) % size for a, b in zip(w, k)], dtype=np.uint64
        )
        got = add_mod(w, k, size)
        assert np.array_equal(got, expect)
        back = sub_mod(got, k, size)
        assert np.array_equal(back, w)


def test_inactive_keys_pass_through():
    w = np.array([5, 6], dtype=np.uint64)
    k = np.array([0, 3], dtype=np.uint64)
    active = np.array([False, True])
    s = encrypt_batch(w, k, active, 8)
    assert s[0] == 5 and s[1] == 1
    assert np.array_equal(decrypt_batch(s, k, active, 8), w)
