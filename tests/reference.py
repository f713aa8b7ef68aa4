"""Scalar per-trial references for the paper's model, for tests only.

The shift cipher f_k(w), the semantic distance d(w, w_hat) and the
exact-key and mismatched-key conditionals, one symbol or one key pair at a
time, validation included.  The package computes these quantities through
the batch cipher, the delta-term closed forms and the enumeration oracle;
the tests check those against the literal definitions here.
"""
from __future__ import annotations

from dataclasses import dataclass

from pld.channels import _check_eps
from pld.core import NULL_KEY, NULL_MSG, Key, Scenario, Symbol


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


def distance(w: int, w_hat: Symbol, scenario: Scenario) -> float:
    """Semantic distance d(w, w_hat): 0 exact, d_loss erased, d_conf wrong."""
    if w is NULL_MSG:
        raise ValueError("true meaning cannot be the error flag NULL_MSG")
    if w_hat is NULL_MSG:
        return scenario.d_loss
    if w_hat == w:
        return 0.0
    return scenario.d_conf


def _check_key(k: Key, codebook_size: int, label: str) -> None:
    if k is NULL_KEY:
        return
    if not 1 <= k < codebook_size:
        raise ValueError(f"{label}={k!r} outside [1, {codebook_size})")


def distortion_synchronized_key(scenario: Scenario, eps_p: float, k: Key) -> float:
    """Expected distortion when the receiver holds exactly the key in use.

    Decryption then undoes encryption on every delivered codeword, so only
    erasures cost anything: eps_p * d_loss, for every k including NULL_KEY.
    """
    _check_eps(eps_p, "eps_p")
    _check_key(k, scenario.codebook_size, "k")
    return eps_p * scenario.d_loss


def distortion_mismatched_key(
    scenario: Scenario, eps_p: float, k: Key, k_hat: Key
) -> float:
    """Expected distortion decrypting with k_hat what was encrypted with k.

    Any wrong key (or wrongly assumed absence/presence of one) shifts every
    delivered codeword to a wrong valid meaning, adding (1-eps_p)*d_conf on
    top of the erasure loss.
    """
    _check_eps(eps_p, "eps_p")
    _check_key(k, scenario.codebook_size, "k")
    _check_key(k_hat, scenario.codebook_size, "k_hat")
    same = (k is NULL_KEY) == (k_hat is NULL_KEY) and k == k_hat
    base = eps_p * scenario.d_loss
    if same:
        return base
    return base + (1.0 - eps_p) * scenario.d_conf
