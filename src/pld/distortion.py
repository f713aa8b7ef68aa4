"""Closed-form semantic distortion quantities and a full-enumeration oracle.

The closed forms give the end-to-end expected distortion for a receiver that
decrypts with whatever key material arrives: exact-key and mismatched-key
conditionals, the deterministic decrypt-always pipeline, and the
opportunistic receiver that mixes its three fallback options (perception /
dropping / exclusion) when no key is decoded.  ``enumeration_oracle``
recomputes the opportunistic distortion by brute-force summation over every
(key, meaning, delivery, key-decode, estimate) combination, sharing nothing
with the closed forms, so the two can police each other in tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _check_eps, primary_pmf, secondary_pmf
from .core import ENUMERATION_CAP, NULL_KEY, NULL_MSG, Key, Scenario


def _check_key(k: Key, codebook_size: int, label: str) -> None:
    if k is NULL_KEY:
        return
    if not 1 <= k < codebook_size:
        raise ValueError(f"{label}={k!r} outside [1, {codebook_size})")


@dataclass(frozen=True)
class ReceiverStrategy:
    """Mixing weights over perception / dropping / exclusion; a simplex point."""

    beta1: float
    beta2: float
    beta3: float

    def __post_init__(self) -> None:
        for b in (self.beta1, self.beta2, self.beta3):
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"strategy weights must lie in [0, 1], got {b!r}")
        if abs(self.beta1 + self.beta2 + self.beta3 - 1.0) > 1e-12:
            raise ValueError(
                f"strategy weights must sum to 1, got "
                f"{self.beta1 + self.beta2 + self.beta3!r}"
            )


PERCEPTION = ReceiverStrategy(1.0, 0.0, 0.0)
DROPPING = ReceiverStrategy(0.0, 1.0, 0.0)
EXCLUSION = ReceiverStrategy(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class DeltaTerms:
    """Conditional expected distortion of each option given primary delivery."""

    delta1: float
    delta2: float
    delta3: float

    def __post_init__(self) -> None:
        for d in (self.delta1, self.delta2, self.delta3):
            if not (np.isfinite(d) and d >= 0.0):
                raise ValueError(f"delta terms must be finite and >= 0, got {d!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.delta1, self.delta2, self.delta3)


@dataclass(frozen=True)
class DistortionReport:
    """Expected distortion split into loss-flavored and confusion-flavored mass."""

    total: float
    loss_part: float
    confusion_part: float
    strategy_used: ReceiverStrategy | str


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


def deterministic_pipeline_distortion(
    scenario: Scenario, eps_p: float, eps_s: float
) -> DistortionReport:
    """Distortion of the decrypt-with-whatever-arrived receiver.

    A lost key only hurts when a key was actually in use (rate alpha) and the
    codeword still arrived; then the plaintext reading is off by the key
    shift: D = eps_p*d_loss + alpha*(1-eps_p)*eps_s*d_conf.
    """
    _check_eps(eps_p, "eps_p")
    _check_eps(eps_s, "eps_s")
    loss = eps_p * scenario.d_loss
    confusion = scenario.alpha * (1.0 - eps_p) * eps_s * scenario.d_conf
    return DistortionReport(loss + confusion, loss, confusion, "deterministic")


def delta_terms(scenario: Scenario, eps_s: float) -> DeltaTerms:
    """Per-option expected distortion given the codeword was delivered.

    Conditioning on delivery, the receiver sees no key either because the key
    was erased (prob eps_s*alpha) or none was sent (prob 1-alpha):

    - perception keeps the ciphertext, wrong only in the erased-key case;
    - dropping always discards, costing d_loss whenever meaning was present;
    - exclusion rules out the received codeword and guesses uniformly among
      the other S-1, recovering the truth with chance 1/(S-1) if a key was
      in use, never if the codeword already was the plaintext.
    """
    return _delta_terms_at(scenario, eps_s, scenario.alpha)


def _delta_terms_at(scenario: Scenario, eps_s: float, a: float) -> DeltaTerms:
    """``delta_terms`` at activation rate ``a``; the scenario's alpha is unused."""
    _check_eps(eps_s, "eps_s")
    # (S-2)/(S-1), exactly 0 at S=2 and stable (rounds to 1.0) at S=2**64.
    wrong_ratio = 1.0 - 1.0 / (scenario.codebook_size - 1)
    delta1 = eps_s * a * scenario.d_conf
    delta2 = (eps_s * a + (1.0 - a)) * scenario.d_loss
    delta3 = (eps_s * a * wrong_ratio + (1.0 - a)) * scenario.d_conf
    return DeltaTerms(delta1, delta2, delta3)


def opportunistic_distortion(
    scenario: Scenario, eps_p: float, eps_s: float, strategy: ReceiverStrategy
) -> DistortionReport:
    """Distortion of the opportunistic receiver mixing its three options.

    Decoded keys always decrypt; the strategy only governs the no-key branch:
    D = eps_p*d_loss + (1-eps_p)*(beta1*delta1 + beta2*delta2 + beta3*delta3).
    Dropping's contribution counts as loss alongside the erasures; the
    perception and exclusion contributions count as confusion.
    """
    _check_eps(eps_p, "eps_p")
    d = delta_terms(scenario, eps_s)
    deliver = 1.0 - eps_p
    loss = eps_p * scenario.d_loss + deliver * strategy.beta2 * d.delta2
    confusion = deliver * (strategy.beta1 * d.delta1 + strategy.beta3 * d.delta3)
    return DistortionReport(loss + confusion, loss, confusion, strategy)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def _distance_rows(words: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Literal per-meaning sums of d(w, w_hat) over all valid estimates w_hat."""
    size = scenario.codebook_size
    rowsum = np.zeros(size)
    chunk = 512
    for lo in range(0, size, chunk):
        w_hat = np.arange(lo, min(lo + chunk, size))
        rowsum += np.where(
            words[:, None] == w_hat[None, :], 0.0, scenario.d_conf
        ).sum(axis=1)
    return rowsum


def enumeration_oracle(
    scenario: Scenario, eps_p: float, eps_s: float, strategy: ReceiverStrategy
) -> float:
    """Opportunistic distortion by exhaustive summation over the pipeline.

    Sums p(k) p(w) c_p(s_hat|s) c_s(k_hat|k) v(w_hat|s_hat,k_hat) d(w,w_hat)
    over every combination, using the channel pmfs and the cipher definition
    directly — no delta-term algebra.  Cost O(S^2); refuses oversized
    codebooks.
    """
    size = scenario.codebook_size
    if size > ENUMERATION_CAP:
        raise ValueError(
            f"codebook_size {size} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    _check_eps(eps_p, "eps_p")
    _check_eps(eps_s, "eps_s")

    alpha = scenario.alpha
    d_loss, d_conf = scenario.d_loss, scenario.d_conf
    b1, b2, b3 = strategy.beta1, strategy.beta2, strategy.beta3

    words = np.arange(size)
    rowsum = _distance_rows(words, scenario)
    # The channels treat all valid symbols alike, so representative symbols
    # pin the branch probabilities.
    p_deliver = primary_pmf(0, 0, eps_p)
    p_erase = primary_pmf(NULL_MSG, 0, eps_p)

    def no_key_mix(ciphertexts: np.ndarray) -> np.ndarray:
        """E[d | delivered, no key decoded] per meaning, mixing the options."""
        d_seen = np.where(ciphertexts == words, 0.0, d_conf)
        d_perception = d_seen
        d_dropping = np.full(size, d_loss)
        d_exclusion = (rowsum - d_seen) / (size - 1)
        return b1 * d_perception + b2 * d_dropping + b3 * d_exclusion

    total = 0.0
    # Inactive deception: plaintext codeword, key channel pinned at NULL_KEY.
    p_no_key = secondary_pmf(NULL_KEY, NULL_KEY, eps_s)
    per_w = p_erase * d_loss + p_deliver * p_no_key * no_key_mix(words)
    total += (1.0 - alpha) * per_w.mean()

    key_weight = alpha / (size - 1)
    for k in range(1, size):
        ciphertexts = (words + k) % size
        p_decoded = secondary_pmf(k, k, eps_s)
        p_lost = secondary_pmf(NULL_KEY, k, eps_s)
        decrypted = (ciphertexts - k) % size
        d_decoded = np.where(decrypted == words, 0.0, d_conf)
        per_w = p_erase * d_loss + p_deliver * (
            p_decoded * d_decoded + p_lost * no_key_mix(ciphertexts)
        )
        total += key_weight * per_w.mean()
    return total
