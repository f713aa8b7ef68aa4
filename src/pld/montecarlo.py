"""End-to-end stochastic simulation of the deception pipeline.

Every trial walks the whole chain — draw meaning and key, encrypt, push
through both transport channels, let the receiver decrypt or fall back on
its perception/dropping/exclusion mix — and scores the realized semantic
distortion.  The kernel (``simulate_batch``) draws one chunk of trials on
uint64 arrays, and ``_count_outcomes`` reduces it, in cache-sized blocks, to
two integer outcome counts, lost and confused, since distortion only takes
the values 0, ``d_loss`` and ``d_conf``.  The mean and standard error follow
exactly from the summed counts, so a given seed yields bit-identical results
for any worker count.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import channels, crypto
from .core import Scenario, _is_int
from .distortion import ReceiverStrategy

#: Trials per reduction chunk; one substream and one pair of counts per chunk.
CHUNK_TRIALS = 1 << 19

#: Trials per block of ``_count_outcomes``; its scratch, about 0.3 MB, stays
#: in cache.  The counts do not depend on it.
BLOCK_TRIALS = 1 << 14

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
    """One chunk's draws; a NULL_KEY slot holds key 0 with key_active False.

    ``exclusion_draw`` is uniform over [0, S-2]; ``exclusion_pick`` shifts it
    past the ciphertext.  ``ciphertext`` and ``exclusion_pick`` are computed
    from the stored draws on first use; ``_count_outcomes`` never needs them
    whole.
    """

    codebook_size: int
    message: np.ndarray
    key: np.ndarray
    key_active: np.ndarray
    delivered: np.ndarray
    key_decoded: np.ndarray
    branch_u: np.ndarray
    exclusion_draw: np.ndarray

    @cached_property
    def ciphertext(self) -> np.ndarray:
        return crypto.encrypt_batch(self.message, self.key, None, self.codebook_size)

    @cached_property
    def exclusion_pick(self) -> np.ndarray:
        return self.exclusion_draw + (self.exclusion_draw >= self.ciphertext)


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
    The four uniform draws take turns in one buffer, each turned into its
    mask before the next; the last one stays as ``branch_u``.
    """
    cardinality = scenario.codebook_size
    uniform = np.empty(size)
    w = rng.integers(0, cardinality, size=size, dtype=np.uint64)
    key_vals, key_active = crypto.sample_keys(rng, scenario, size, uniform)
    delivered = channels.delivery_mask(rng, eps_p, size, uniform)
    key_decoded = channels.delivery_mask(rng, eps_s, size, uniform)
    key_decoded &= key_active
    branch_u = rng.random(size, out=uniform)
    excl = rng.integers(0, cardinality - 1, size=size, dtype=np.uint64)
    return TrialBatch(
        cardinality, w, key_vals, key_active, delivered, key_decoded, branch_u, excl
    )


def _count_outcomes(batch: TrialBatch, strategy: ReceiverStrategy) -> tuple[int, int]:
    """(n_loss, n_conf): trials whose estimate is NULL_MSG, and wrong ones.

    The chunk is walked in blocks of ``BLOCK_TRIALS`` with scratch arrays of
    one block, so the cipher and branch arithmetic stays in cache and the
    whole-chunk ciphertext and exclusion picks are never built.
    """
    size, cardinality = batch.message.size, batch.codebook_size
    b1, b12 = strategy.beta1, strategy.beta1 + strategy.beta2
    block = min(BLOCK_TRIALS, size)
    s, t = np.empty(block, np.uint64), np.empty(block, np.uint64)
    synced, fallback, seen, excluded, wrong = np.empty((5, block), dtype=bool)
    n_loss = n_conf = 0
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        if hi - lo < block:  # the last, short block
            s, t, synced, fallback, seen, excluded, wrong = (
                a[: hi - lo] for a in (s, t, synced, fallback, seen, excluded, wrong)
            )
        w, k, x = batch.message[lo:hi], batch.key[lo:hi], batch.exclusion_draw[lo:hi]
        delivered, u = batch.delivered[lo:hi], batch.branch_u[lo:hi]
        # branch masks; seen and excluded are disjoint parts of fallback
        np.logical_and(delivered, batch.key_decoded[lo:hi], out=synced)
        np.logical_xor(delivered, synced, out=fallback)
        np.less(u, b1, out=seen)
        seen &= fallback
        np.greater_equal(u, b12, out=excluded)
        excluded &= fallback
        n_loss += hi - lo - np.count_nonzero(delivered)
        n_loss += (
            np.count_nonzero(fallback)
            - np.count_nonzero(seen)
            - np.count_nonzero(excluded)
        )
        # perception keeps the ciphertext
        crypto.encrypt_batch(w, k, None, cardinality, out=s)
        np.not_equal(s, w, out=wrong)
        wrong &= seen
        n_conf += np.count_nonzero(wrong)
        # exclusion picks a codeword other than the ciphertext
        np.greater_equal(x, s, out=wrong)
        np.add(x, wrong, out=t)
        np.not_equal(t, w, out=wrong)
        wrong &= excluded
        n_conf += np.count_nonzero(wrong)
        # a synced receiver decrypts with the key it decoded; synced trials
        # are a subset of the active ones, so ``k`` is already that key
        crypto.decrypt_batch(s, k, None, cardinality, out=t)
        np.not_equal(t, w, out=wrong)
        wrong &= synced
        n_conf += np.count_nonzero(wrong)
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
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full + [rest] * (rest > 0)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))

    def run_chunk(idx: int) -> tuple[int, int]:
        rng = np.random.default_rng(seeds[idx])
        batch = simulate_batch(rng, scenario, eps_p, eps_s, sizes[idx])
        return _count_outcomes(batch, strategy)

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
