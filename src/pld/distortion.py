"""Closed-form semantic distortion quantities and a full-enumeration oracle.

The closed forms give the end-to-end expected distortion of two receivers:
the deterministic pipeline, which decrypts with whatever key material
arrives, and the opportunistic receiver, which decrypts with a decoded key
and otherwise mixes its three fallback options (perception / dropping /
exclusion), each option's cost given delivery being a delta term.
``enumeration_oracle`` recomputes the opportunistic distortion by
brute-force summation over every (key, meaning, delivery, key-decode,
estimate) combination, sharing nothing with the closed forms, so the two can
police each other in tests.  It makes one O(S^2) pass per call, shared by
every channel pair and strategy asked about: every key's cipher runs,
NULL_KEY as key 0, a block of keys at a time on narrow integers, and its
arithmetic is reused when its masks repeat the previous key's; each channel
is read once per channel pair.  The pass runs in scratch of fixed size,
~3 MB at the 4096 cap: one 512x512 distance block at a time, and buffers for
a block of keys that every block reuses.
"""
from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channels import _check_eps, primary_pmf, secondary_pmf
from .core import ENUMERATION_CAP, NULL_KEY, NULL_MSG, Scenario


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
    return DistortionReport(loss + confusion, loss, confusion)


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
    return DistortionReport(loss + confusion, loss, confusion)


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
    """Literal per-meaning sums of d(w, w_hat) over all valid estimates w_hat.

    The estimates run 512 at a time, each chunk one addend a meaning, added
    in chunk order.  A meaning outside the chunk matches none of its
    estimates, so each of theirs is one all-``d_conf`` row's sum; only the
    chunk's own meanings take a 512x512 block (2 MB of float64).
    """
    size, d_conf = scenario.codebook_size, scenario.d_conf
    rowsum = np.zeros(size)
    chunk = 512
    for lo in range(0, size, chunk):
        hi = min(lo + chunk, size)
        w_hat = np.arange(lo, hi, dtype=words.dtype)
        addend = np.full(size, np.full((1, hi - lo), d_conf).sum(axis=1))
        addend[lo:hi] = np.where(
            words[lo:hi, None] == w_hat[None, :], 0.0, d_conf
        ).sum(axis=1)
        rowsum += addend
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

    Keys 0 .. S-1 run in one loop, key 0 standing for NULL_KEY: prior
    1 - alpha, shift 0 and never decoded, where a key k >= 1 has prior
    alpha/(S-1).  Each key's cipher runs, as the definition s = (w + k) mod S
    and its inverse w = (s - k) mod S, with each residue in its
    floor-division form x - S*(x // S), right for a negative s - k too.  The
    integers are the narrowest signed dtype holding -(S-1) .. 2(S-1),
    ``np.min_scalar_type(-2 * S)``: int16 at the cap.  ``KEY_BLOCK`` keys
    run as one 2-D pass, one row a key, in buffers allocated once a call
    and reused by every block: the three integer arrays and the two masks
    take ~2 MB at the cap, and ``_distance_rows`` one 2 MB block at a time.
    The key channel, like the codeword channel, is read once per pair: for
    NULL_KEY, and at key 1 for every real key.  A key's terms are recomputed
    at keys 0 and 1, which switch between those reads, and where its two
    masks differ from the previous key's, else reused; they join the totals
    one key at a time.
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
    # The channels treat all valid symbols, and all real keys, alike, so
    # representative symbols and key 1 pin the branch probabilities.
    branches = [
        (primary_pmf(0, 0, eps_p), primary_pmf(NULL_MSG, 0, eps_p) * d_loss)
        for eps_p, _ in channels
    ]
    # (p(k), p(k decoded), p(k lost)) a pair, for NULL_KEY and for real keys
    null_key = [(1.0 - scenario.alpha, 0.0, secondary_pmf(NULL_KEY, NULL_KEY, eps_s))
                for _, eps_s in channels]
    real_key = [(scenario.alpha / (size - 1), secondary_pmf(1, 1, eps_s),
                 secondary_pmf(NULL_KEY, 1, eps_s)) for _, eps_s in channels]
    betas = np.reshape([(s.beta1, s.beta2, s.beta3) for s in strategies], (-1, 3, 1))
    b1, b2, b3 = betas.transpose(1, 0, 2)  # (n, 1) columns broadcast over meanings
    weights = (b1, b2 * np.full(size, d_loss), b3)
    block = np.empty((len(strategies), size))  # scratch, one row a strategy

    ciphertexts, decrypted, quotient = (
        np.empty((KEY_BLOCK, size), words.dtype) for _ in range(3))
    # Row 0 holds the key before the block, row i the block's i-th key.
    seen, decoded = np.zeros((2, KEY_BLOCK + 1, size), dtype=bool)
    terms = np.empty_like(totals)
    for lo in range(0, size, KEY_BLOCK):
        keys = range(lo, min(lo + KEY_BLOCK, size))
        n = len(keys)
        shift = np.array(keys, dtype=words.dtype)[:, None]
        c, d, q = ciphertexts[:n], decrypted[:n], quotient[:n]
        np.add(words, shift, out=c)
        c -= np.multiply(np.floor_divide(c, size, out=q), size, out=q)
        np.subtract(c, shift, out=d)
        d -= np.multiply(np.floor_divide(d, size, out=q), size, out=q)
        np.equal(c, words, out=seen[1:n + 1])
        np.equal(d, words, out=decoded[1:n + 1])
        changed = (seen[1:n + 1] != seen[:n]).any(axis=1)
        changed |= (decoded[1:n + 1] != decoded[:n]).any(axis=1)
        for i, k in enumerate(keys, 1):
            # keys 0 and 1 switch the reads, whatever their masks
            if k <= 1 or changed[i - 1]:
                d_decoded = np.where(decoded[i], 0.0, d_conf)
                mix = _no_key_mixes(seen[i], rowsum, weights, d_conf)
                for (deliver, erasure), (prior, p_decoded, p_lost), row in zip(
                        branches, real_key if k else null_key, terms):
                    np.multiply(p_lost, mix, out=block)
                    block += p_decoded * d_decoded
                    block *= deliver
                    block += erasure
                    np.multiply(prior, block.mean(axis=1), out=row)
            totals += terms
        seen[0], decoded[0] = seen[n], decoded[n]
    return totals
