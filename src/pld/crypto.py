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

def add_mod(
    a: np.ndarray, b: np.ndarray, modulus: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(a + b) mod modulus elementwise for uint64 arrays, a, b < modulus.

    The result goes to ``out`` when given, which may be ``b`` but not ``a``.
    """
    total = np.add(a, b, out=out)  # wraps mod 2**64
    if modulus == _FULL_UINT64:
        return total
    m = np.uint64(modulus)
    if modulus > _HALF_UINT64:
        # Reduce where the true sum reached the modulus: either the uint64
        # add carried (total < a) or the in-range sum did (total >= m).
        need = total < a
        need |= total >= m
        total -= need * m
    else:
        # a + b < 2m <= 2**64: total - m wraps above total exactly when
        # total < m, so the smaller of the two is the residue.
        np.minimum(total, total - m, out=total)
    return total


def sub_mod(
    a: np.ndarray, b: np.ndarray, modulus: int, out: np.ndarray | None = None
) -> np.ndarray:
    """(a - b) mod modulus elementwise for uint64 arrays, a, b < modulus.

    The result goes to ``out`` when given, which may be ``a`` or ``b``.
    """
    if modulus == _FULL_UINT64:
        return np.subtract(a, b, out=out)  # wraps mod 2**64
    m = np.uint64(modulus)
    if modulus > _HALF_UINT64:
        borrow = a < b  # before ``out`` overwrites a or b
        diff = np.subtract(a, b, out=out)
        diff += borrow * m
    else:
        # a - b + m < 2m <= 2**64 never wraps, while a - b wraps above it
        # exactly when a < b, so the smaller of the two is the residue.
        diff = np.subtract(a, b, out=out)
        np.minimum(diff, diff + m, out=diff)
    return diff


def encrypt_batch(
    words: np.ndarray,
    keys: np.ndarray,
    active: np.ndarray | None,
    codebook_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized cipher: shift where the key is active, identity elsewhere.

    ``active=None`` takes ``keys`` as already 0 in every inactive slot, the
    encoding ``sample_keys`` returns, and skips the masking.
    """
    if active is not None:
        keys = keys * active
    return add_mod(words, keys, codebook_size, out)


def decrypt_batch(
    codewords: np.ndarray,
    keys: np.ndarray,
    active: np.ndarray | None,
    codebook_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized inverse cipher on delivered codewords (no erasure handling).

    ``active`` and ``out`` work as in ``encrypt_batch``.
    """
    if active is not None:
        keys = keys * active
    return sub_mod(codewords, keys, codebook_size, out)


# ---------------------------------------------------------------------------
# key prior
# ---------------------------------------------------------------------------

def sample_keys(
    rng: np.random.Generator,
    scenario: Scenario,
    size: int,
    uniform: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch key draws as (uint64 values, active mask); inactive slots hold 0.

    The activation draw lands in ``uniform`` when given (float64, ``size``
    long), so a caller can reuse one buffer for all its uniform draws.
    """
    active = rng.random(size, out=uniform) < scenario.alpha
    values = rng.integers(0, scenario.codebook_size - 1, size=size, dtype=np.uint64)
    values += np.uint64(1)
    values *= active
    return values, active
