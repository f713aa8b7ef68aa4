"""Closed-form semantic distortion quantities and a full-enumeration oracle.

The closed forms give the end-to-end expected distortion for a receiver that
decrypts with whatever key material arrives: exact-key and mismatched-key
conditionals, the deterministic decrypt-always pipeline, and the
opportunistic receiver that mixes its three fallback options (perception /
dropping / exclusion) when no key is decoded.  ``enumeration_oracle``
recomputes the opportunistic distortion by brute-force summation over every
(key, meaning, delivery, key-decode, estimate) combination, sharing nothing
with the closed forms, so the two can police each other in tests.  It makes
one O(S^2) pass per call, shared by every channel pair and strategy asked
about: every key's cipher runs, a block of keys at a time on narrow
integers, and its arithmetic is reused when its masks and key-channel
probabilities repeat the previous key's.
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
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
    _check_eps(eps_s, "eps_s")
    return DeltaTerms(*_delta_terms_at(scenario, eps_s, scenario.alpha))


def _delta_terms_at(scenario: Scenario, eps_s, a: float) -> tuple:
    """The three delta terms at activation rate ``a``, for one ``eps_s`` or an
    array of them; the scenario's alpha is unused and nothing is checked."""
    # (S-2)/(S-1), exactly 0 at S=2 and stable (rounds to 1.0) at S=2**64.
    wrong_ratio = 1.0 - 1.0 / (scenario.codebook_size - 1)
    delta1 = eps_s * a * scenario.d_conf
    delta2 = (eps_s * a + (1.0 - a)) * scenario.d_loss
    delta3 = (eps_s * a * wrong_ratio + (1.0 - a)) * scenario.d_conf
    return delta1, delta2, delta3


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

#: Keys whose cipher and masks the oracle computes as one 2-D pass.
KEY_BLOCK = 64


def enumeration_limit(scenario: Scenario) -> str | None:
    """Why ``enumeration_oracle`` refuses the scenario, or None if it does not.

    The oracle's literal sums reach S * d_conf; keeping that below half the
    largest float leaves the other half for their rounding.
    """
    size = scenario.codebook_size
    if size > ENUMERATION_CAP:
        return f"cardinality cap — S={size} exceeds {ENUMERATION_CAP}"
    if not size * scenario.d_conf <= sys.float_info.max / 2:
        return (f"float range — S={size} times d_conf={scenario.d_conf!r} "
                "exceeds half the largest float")
    return None


def _distance_rows(words: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Literal per-meaning sums of d(w, w_hat) over all valid estimates w_hat."""
    size = scenario.codebook_size
    rowsum = np.zeros(size)
    chunk = 512
    for lo in range(0, size, chunk):
        w_hat = np.arange(lo, min(lo + chunk, size), dtype=words.dtype)
        rowsum += np.where(
            words[:, None] == w_hat[None, :], 0.0, scenario.d_conf
        ).sum(axis=1)
    return rowsum


def _no_key_mixes(
    seen: np.ndarray, rowsum: np.ndarray, weights: tuple, d_conf: float
) -> np.ndarray:
    """E[d | delivered, no key decoded], one row a strategy; seen: s == w."""
    b1, b2_dropping, b3 = weights
    d_seen = np.where(seen, 0.0, d_conf)
    d_exclusion = (rowsum - d_seen) / (seen.size - 1)
    return b1 * d_seen + b2_dropping + b3 * d_exclusion


def enumeration_oracle(
    scenario: Scenario,
    channels: Sequence[tuple[float, float]],
    strategies: Sequence[ReceiverStrategy],
) -> np.ndarray:
    """Opportunistic distortion of each channel pair and strategy, exhaustively.

    Sums p(k) p(w) c_p(s_hat|s) c_s(k_hat|k) v(w_hat|s_hat,k_hat) d(w,w_hat)
    over every combination, using the channel pmfs and the cipher definition
    directly — no delta-term algebra.  One O(S^2) pass per call, shared by
    every (eps_p, eps_s) pair and strategy; each total keeps its own
    expression and accumulator, so it does not depend on the others.

    Every key's cipher runs, as the definition s = (w + k) mod S and its
    inverse w = (s - k) mod S, with each residue in its floor-division form
    x - S*(x // S), right for a negative s - k too.  The integers are the
    narrowest signed dtype holding -(S-1) .. 2(S-1),
    ``np.min_scalar_type(-2 * S)``: int16 at the cap.  ``KEY_BLOCK`` keys
    run as one 2-D pass, one row a key.  A key's terms are reused when its
    two masks and key-channel pmfs repeat the previous key's bit for bit,
    and they join the totals one key at a time, in key order.
    Returns a (len(channels), len(strategies)) array in the order given;
    refuses what ``enumeration_limit`` names, and bad pairs, before the pass.
    """
    if reason := enumeration_limit(scenario):
        raise ValueError(reason)
    size = scenario.codebook_size
    for eps_p, eps_s in channels:
        _check_eps(eps_p, "eps_p")
        _check_eps(eps_s, "eps_s")
    totals = np.zeros((len(channels), len(strategies)))
    if totals.size == 0:
        return totals

    d_loss, d_conf = scenario.d_loss, scenario.d_conf

    words = np.arange(size, dtype=np.min_scalar_type(-2 * size))
    rowsum = _distance_rows(words, scenario)
    # The channels treat all valid symbols alike, so representative symbols
    # pin the branch probabilities.
    branches = [
        (primary_pmf(0, 0, eps_p), primary_pmf(NULL_MSG, 0, eps_p) * d_loss, eps_s)
        for eps_p, eps_s in channels
    ]
    betas = np.reshape([(s.beta1, s.beta2, s.beta3) for s in strategies], (-1, 3, 1))
    b1, b2, b3 = betas.transpose(1, 0, 2)  # (n, 1) columns broadcast over meanings
    weights = (b1, b2 * np.full(size, d_loss), b3)
    block = np.empty((len(strategies), size))  # scratch, one row a strategy

    # Inactive deception: plaintext codeword, key channel pinned at NULL_KEY.
    mix = _no_key_mixes(words == words, rowsum, weights, d_conf)
    for row, (deliver, erasure, eps_s) in zip(totals, branches):
        np.multiply(deliver * secondary_pmf(NULL_KEY, NULL_KEY, eps_s), mix, out=block)
        block += erasure
        row += (1.0 - scenario.alpha) * block.mean(axis=1)

    key_weight = scenario.alpha / (size - 1)
    terms, last = np.empty_like(totals), None
    for lo in range(1, size, KEY_BLOCK):
        keys = range(lo, min(lo + KEY_BLOCK, size))
        shift = np.array(keys, dtype=words.dtype)[:, None]
        ciphertexts = words + shift
        ciphertexts -= size * (ciphertexts // size)
        decrypted = ciphertexts - shift
        decrypted -= size * (decrypted // size)
        seen, decoded = ciphertexts == words, decrypted == words
        pmfs = [[(secondary_pmf(k, k, eps_s), secondary_pmf(NULL_KEY, k, eps_s))
                 for *_, eps_s in branches] for k in keys]
        # one row a key: its two masks, then the bits of its pmfs
        pmf_bits = np.array(pmfs).reshape(len(keys), -1).view(np.uint8)
        rows = np.hstack((seen, decoded, pmf_bits))
        changed = np.empty(len(keys), dtype=bool)
        changed[0] = last is None or (rows[0] != last).any()
        (rows[1:] != rows[:-1]).any(axis=1, out=changed[1:])
        last = rows[-1]
        for i, key_pmfs in enumerate(pmfs):
            if changed[i]:
                d_decoded = np.where(decoded[i], 0.0, d_conf)
                mix = _no_key_mixes(seen[i], rowsum, weights, d_conf)
                for j, (p_decoded, p_lost) in enumerate(key_pmfs):
                    deliver, erasure, _ = branches[j]
                    np.multiply(p_lost, mix, out=block)
                    block += p_decoded * d_decoded
                    block *= deliver
                    block += erasure
                    np.multiply(key_weight, block.mean(axis=1), out=terms[j])
            totals += terms
    return totals
