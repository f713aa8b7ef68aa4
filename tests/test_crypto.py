"""Shift cipher identities, scalar and on uint64 batches."""
import numpy as np
import pytest

from pld.core import NULL_KEY, NULL_MSG
from pld.crypto import decrypt_batch, encrypt_batch
from reference import ShiftCipher

FULL = 1 << 64


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


def test_batch_matches_scalar_cipher():
    rng = np.random.default_rng(3)
    for size in (7, 2**63, 2**63 + 11, FULL):
        cipher = ShiftCipher(size)
        w = rng.integers(0, size, size=200, dtype=np.uint64)
        k = rng.integers(0, size - 1, size=200, dtype=np.uint64) + np.uint64(1)
        k[::5] = 0  # key 0 encodes NULL_KEY
        w[0] = size - 1
        s = encrypt_batch(w, k, size)
        assert np.array_equal(s[::5], w[::5])
        back = decrypt_batch(s, k, size)
        assert np.array_equal(back, w)
        for i in range(0, 200, 37):
            key = int(k[i]) or NULL_KEY
            assert int(s[i]) == cipher.encrypt(int(w[i]), key)


def test_batch_wraparound_edges():
    # sums that overflow uint64 and differences that underflow it
    for size in (2**63 + 3, FULL):
        top = size - 1
        w = np.array([top, 0, top - 1], dtype=np.uint64)
        k = np.array([top, top, 1], dtype=np.uint64)
        expect = np.array(
            [(int(a) + int(b)) % size for a, b in zip(w, k)], dtype=np.uint64
        )
        got = encrypt_batch(w, k, size)
        assert np.array_equal(got, expect)
        back = decrypt_batch(got, k, size)
        assert np.array_equal(back, w)


def test_inactive_keys_pass_through():
    w = np.array([5, 6], dtype=np.uint64)
    k = np.array([0, 3], dtype=np.uint64)  # key 0 is NULL_KEY
    s = encrypt_batch(w, k, 8)
    assert s[0] == 5 and s[1] == 1
    assert np.array_equal(decrypt_batch(s, k, 8), w)
