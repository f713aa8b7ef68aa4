"""The shift cipher f_k(w) = (w + k) mod S on uint64 arrays.

Encryption shifts a codeword by a key drawn from {1, ..., S-1}, so an active
key always moves the codeword, while key 0, which encodes NULL_KEY, leaves
it alone.  Both directions stay exact all the way up to S = 2**64 by doing
modular arithmetic through native uint64 wraparound, and neither writes to
an input unless it is passed as ``out``.
"""
from __future__ import annotations

import numpy as np

_FULL_UINT64 = 1 << 64
_HALF_UINT64 = 1 << 63


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

