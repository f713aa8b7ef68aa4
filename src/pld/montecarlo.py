"""End-to-end stochastic simulation of the deception pipeline.

Every trial walks the whole chain — draw meaning and key, encrypt, push
through both transport channels, let the receiver decrypt or fall back on
its perception/dropping/exclusion mix — and scores the realized semantic
distortion.  The kernel (``simulate_batch``) draws one chunk of trials on
uint64 arrays, and each chunk reduces to two integer outcome counts, lost
and confused, since distortion only takes the values 0, ``d_loss`` and
``d_conf``.  The mean and standard error follow exactly from the summed
counts, so a given seed yields bit-identical results for any worker count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import channels, crypto
from .core import Scenario, _is_int
from .distortion import ReceiverStrategy

#: Trials per reduction chunk; one substream and one pair of counts per chunk.
CHUNK_TRIALS = 1 << 19

#: Most trials one estimate takes: 2^17 chunks, about 64 MB of substream seeds.
MAX_TRIALS = 1 << 36


def trials_violations(trials: int, name: str = "trials") -> list[str]:
    """The trial-count rule: an integer in [1, MAX_TRIALS]."""
    if _is_int(trials) and 1 <= trials <= MAX_TRIALS:
        return []
    return [f"{name} must be an integer in [1, 2^36], got {trials!r}"]


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and provenance."""

    mean: float
    std_error: float
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if bad := trials_violations(self.trials):
            raise ValueError(bad[0])


@dataclass(frozen=True)
class TrialBatch:
    """One chunk's draws; a NULL_KEY slot holds key 0 with key_active False."""

    message: np.ndarray
    key: np.ndarray
    key_active: np.ndarray
    ciphertext: np.ndarray
    delivered: np.ndarray
    key_decoded: np.ndarray
    branch_u: np.ndarray
    exclusion_pick: np.ndarray


def simulate_batch(
    rng: np.random.Generator,
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    size: int,
) -> TrialBatch:
    """One chunk of pipeline draws on uint64 arrays, in a fixed draw order.

    Branch and exclusion randomness is drawn for every trial (and discarded
    where unused) to keep the stream layout independent of the outcomes.
    """
    cardinality = scenario.codebook_size
    w = rng.integers(0, cardinality, size=size, dtype=np.uint64)
    key_vals, key_active = crypto.sample_keys(rng, scenario, size)
    s = crypto.encrypt_batch(w, key_vals, key_active, cardinality)
    delivered = channels.delivery_mask(rng, eps_p, size)
    key_arrived = channels.delivery_mask(rng, eps_s, size)
    key_decoded = key_active & key_arrived
    branch_u = rng.random(size)
    excl = rng.integers(0, cardinality - 1, size=size, dtype=np.uint64)
    excl += excl >= s  # uniform over the codewords other than s
    return TrialBatch(
        w, key_vals, key_active, s, delivered, key_decoded, branch_u, excl
    )


def _count_outcomes(
    batch: TrialBatch, codebook_size: int, strategy: ReceiverStrategy
) -> tuple[int, int]:
    """(n_loss, n_conf): trials whose estimate is NULL_MSG, and wrong ones."""
    w, s, u = batch.message, batch.ciphertext, batch.branch_u
    synced = batch.delivered & batch.key_decoded
    fallback = batch.delivered ^ synced
    seen = fallback & (u < strategy.beta1)
    excluded = fallback & (u >= strategy.beta1 + strategy.beta2)
    dropped = fallback ^ seen ^ excluded
    decrypted = crypto.decrypt_batch(s, batch.key, synced, codebook_size)
    n_loss = batch.delivered.size - np.count_nonzero(batch.delivered)
    n_loss += np.count_nonzero(dropped)
    n_conf = np.count_nonzero(synced & (decrypted != w))
    n_conf += np.count_nonzero(seen & (s != w))
    n_conf += np.count_nonzero(excluded & (batch.exclusion_pick != w))
    return int(n_loss), int(n_conf)


def estimate_distortion(
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    strategy: ReceiverStrategy,
    trials: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Mean realized distortion over ``trials`` seeded pipeline walks.

    The trial stream is split into fixed-size chunks, each with its own
    substream spawned from ``seed``.  Only integer outcome counts cross
    chunks, and the mean and standard error are computed from them in exact
    rational arithmetic and rounded once, so the estimate is bit-identical
    for any ``workers`` value.
    """
    if bad := trials_violations(trials):
        raise ValueError(bad[0])
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full + [rest] * (rest > 0)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))

    def run_chunk(idx: int) -> tuple[int, int]:
        rng = np.random.default_rng(seeds[idx])
        batch = simulate_batch(rng, scenario, eps_p, eps_s, sizes[idx])
        return _count_outcomes(batch, scenario.codebook_size, strategy)

    if workers == 1 or len(sizes) == 1:
        counts = [run_chunk(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_chunk, range(len(sizes))))

    n_loss = sum(c[0] for c in counts)
    n_conf = sum(c[1] for c in counts)
    n_zero = trials - n_loss - n_conf
    d_loss, d_conf = Fraction(scenario.d_loss), Fraction(scenario.d_conf)
    mean = (n_loss * d_loss + n_conf * d_conf) / trials
    if trials > 1:
        # sum of (d - mean)^2: each pair of trials from two different
        # outcome classes adds its squared gap over trials, so every term is
        # non-negative and nothing cancels
        spread = (
            n_zero * n_loss * d_loss**2
            + n_zero * n_conf * d_conf**2
            + n_loss * n_conf * (d_conf - d_loss) ** 2
        ) / trials
        # scaled by d_conf so that the conversion to float cannot overflow
        scaled = spread / (d_conf**2 * trials * (trials - 1))
        std_error = scenario.d_conf * math.sqrt(scaled)
    else:
        std_error = float("nan")
    return McEstimate(float(mean), std_error, trials, seed)
