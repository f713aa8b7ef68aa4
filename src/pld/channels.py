"""Dual transport channels between transmitter and receiver.

The primary channel carries the (possibly encrypted) codeword and behaves as
an erasure channel: the codeword arrives intact with probability 1 - eps or
collapses to NULL_MSG.  The secondary channel carries the key side
information and is one-sided: a real key may be lost to NULL_KEY, but
NULL_KEY is never mistaken for a key.  Error events on the two channels are
independent.
"""
from __future__ import annotations

import numpy as np

from .core import NULL_KEY, NULL_MSG, Key, Symbol


def _check_eps(eps: float, label: str) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"{label} must lie in [0, 1], got {eps!r}")


def primary_pmf(s_hat: Symbol, s: int, eps_p: float) -> float:
    """P(s_hat | s) for the erasure channel on codewords."""
    if s is NULL_MSG:
        raise ValueError("channel input cannot be the error flag NULL_MSG")
    _check_eps(eps_p, "eps_p")
    if s_hat is NULL_MSG:
        return eps_p
    if s_hat == s:
        return 1.0 - eps_p
    return 0.0


def secondary_pmf(k_hat: Key, k: Key, eps_s: float) -> float:
    """P(k_hat | k) for the one-sided key channel (NULL_KEY is absorbing)."""
    _check_eps(eps_s, "eps_s")
    if k is NULL_KEY:
        return 1.0 if k_hat is NULL_KEY else 0.0
    if k_hat is NULL_KEY:
        return eps_s
    if k_hat == k:
        return 1.0 - eps_s
    return 0.0


def delivery_mask(
    rng: np.random.Generator, eps: float, size: int, uniform: np.ndarray | None = None
) -> np.ndarray:
    """Batch of independent survive/fail indicators (True = delivered).

    The uniform draw lands in ``uniform`` when given (float64, ``size`` long).
    """
    return rng.random(size, out=uniform) >= eps
