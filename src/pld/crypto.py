"""Shift cipher over the codebook and the deception key prior.

Encryption shifts a codeword by a key drawn from {1, ..., S-1}, so an active
key always moves the codeword (f_k(w) != w), while NULL_KEY leaves it alone.
Batch helpers operate on uint64 arrays with an explicit (values, active-mask)
encoding for NULL_KEY, and stay exact all the way up to S = 2**64 by doing
modular arithmetic through native uint64 wraparound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NULL_KEY, NULL_MSG, Key, Scenario, Symbol

_FULL_UINT64 = 1 << 64
_HALF_UINT64 = 1 << 63


@dataclass(frozen=True)
class ShiftCipher:
    """f_k(w) = (w + k) mod S with identity behaviour on the sentinels."""

    codebook_size: int

    def __post_init__(self) -> None:
        if self.codebook_size < 2:
            raise ValueError(
                f"codebook_size must be >= 2, got {self.codebook_size}"
            )

    @property
    def keyspace_size(self) -> int:
        return self.codebook_size - 1

    def _check_word(self, w: int) -> None:
        if w is NULL_MSG:
            raise ValueError("cannot encrypt the error flag NULL_MSG")
        if not 0 <= w < self.codebook_size:
            raise ValueError(f"codeword {w} outside [0, {self.codebook_size})")

    def _check_key(self, k: int) -> None:
        if not 1 <= k < self.codebook_size:
            raise ValueError(f"key {k} outside [1, {self.codebook_size})")

    def encrypt(self, w: int, k: Key) -> int:
        """Shift w by k; NULL_KEY means no encryption."""
        self._check_word(w)
        if k is NULL_KEY:
            return w
        self._check_key(k)
        return (w + k) % self.codebook_size

    def decrypt(self, s_hat: Symbol, k_hat: Key) -> Symbol:
        """Invert the shift; erasures pass through, NULL_KEY shifts by zero."""
        if s_hat is NULL_MSG:
            return NULL_MSG
        self._check_word(s_hat)
        if k_hat is NULL_KEY:
            return s_hat
        self._check_key(k_hat)
        return (s_hat - k_hat) % self.codebook_size


# ---------------------------------------------------------------------------
# uint64 batch arithmetic
# ---------------------------------------------------------------------------

def add_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """(a + b) mod modulus elementwise for uint64 arrays, a, b < modulus."""
    wrapped = a + b  # wraps mod 2**64
    if modulus == _FULL_UINT64:
        return wrapped
    m = np.uint64(modulus)
    # Reduce when the true sum reached the modulus: either the uint64 add
    # carried (wrapped < a, possible only when modulus > 2**63) or the
    # in-range sum did (wrapped >= m).
    need = wrapped >= m
    if modulus > _HALF_UINT64:
        need |= wrapped < a
    wrapped -= need * m
    return wrapped


def sub_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """(a - b) mod modulus elementwise for uint64 arrays, a, b < modulus."""
    diff = a - b  # wraps mod 2**64
    if modulus == _FULL_UINT64:
        return diff
    diff += (a < b) * np.uint64(modulus)
    return diff


def encrypt_batch(
    words: np.ndarray,
    keys: np.ndarray,
    active: np.ndarray,
    codebook_size: int,
) -> np.ndarray:
    """Vectorized cipher: shift where the key is active, identity elsewhere."""
    return add_mod(words, keys * active, codebook_size)


def decrypt_batch(
    codewords: np.ndarray,
    keys: np.ndarray,
    active: np.ndarray,
    codebook_size: int,
) -> np.ndarray:
    """Vectorized inverse cipher on delivered codewords (no erasure handling)."""
    return sub_mod(codewords, keys * active, codebook_size)


# ---------------------------------------------------------------------------
# key prior
# ---------------------------------------------------------------------------

def sample_keys(
    rng: np.random.Generator,
    scenario: Scenario,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch key draws as (uint64 values, active mask); inactive slots hold 0."""
    active = rng.random(size) < scenario.alpha
    values = rng.integers(0, scenario.codebook_size - 1, size=size, dtype=np.uint64)
    values += np.uint64(1)
    values *= active
    return values, active
