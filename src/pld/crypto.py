"""Shift cipher over the codebook.

Encryption shifts a codeword by a key drawn from {1, ..., S-1}, so an active
key always moves the codeword (f_k(w) != w), while NULL_KEY leaves it alone.
The batch cipher works on uint64 arrays, where key 0 encodes NULL_KEY, and
stays exact all the way up to S = 2**64 by doing modular arithmetic through
native uint64 wraparound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NULL_KEY, NULL_MSG, Key, Symbol

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
# uint64 batch cipher
# ---------------------------------------------------------------------------

def encrypt_batch(
    words: np.ndarray,
    keys: np.ndarray,
    codebook_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(words + keys) mod S elementwise for uint64 arrays below S.

    Key 0 is NULL_KEY and leaves its word alone.  The result goes to ``out``
    when given, which may be ``keys`` but not ``words``.
    """
    total = np.add(words, keys, out=out)  # wraps mod 2**64
    if codebook_size == _FULL_UINT64:
        return total
    m = np.uint64(codebook_size)
    if codebook_size > _HALF_UINT64:
        # Reduce where the true sum reached the modulus: either the uint64
        # add carried (total < words) or the in-range sum did (total >= m).
        need = total < words
        need |= total >= m
        total -= need * m
    else:
        # words + keys < 2m <= 2**64: total - m wraps above total exactly
        # when total < m, so the smaller of the two is the residue.
        np.minimum(total, total - m, out=total)
    return total


def decrypt_batch(
    codewords: np.ndarray,
    keys: np.ndarray,
    codebook_size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """(codewords - keys) mod S elementwise for uint64 arrays below S.

    Key 0 is NULL_KEY and leaves its codeword alone; erasures are not handled
    here.  The result goes to ``out`` when given, which may be ``codewords``
    or ``keys``.
    """
    if codebook_size == _FULL_UINT64:
        return np.subtract(codewords, keys, out=out)  # wraps mod 2**64
    m = np.uint64(codebook_size)
    if codebook_size > _HALF_UINT64:
        borrow = codewords < keys  # before ``out`` overwrites an input
        diff = np.subtract(codewords, keys, out=out)
        diff += borrow * m
    else:
        # codewords - keys + m < 2m <= 2**64 never wraps, while codewords -
        # keys wraps above it exactly when codewords < keys, so the smaller
        # of the two is the residue.
        diff = np.subtract(codewords, keys, out=out)
        np.minimum(diff, diff + m, out=diff)
    return diff

