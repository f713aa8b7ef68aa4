"""End-to-end stochastic simulation of the deception pipeline.

Every trial walks the whole chain — draw meaning and key, encrypt, push
through both transport channels, let the receiver decrypt or fall back on
its perception/dropping/exclusion mix — and scores the realized semantic
distortion.  Each chunk of trials draws from seven independent substreams,
the children that its ``SeedSequence`` spawns, in this order: messages,
activation, keys, delivery, key decoding, branch and exclusion.
``_draw_blocks`` draws all seven ``BLOCK_TRIALS`` trials at a time, and
``_count_outcomes`` reduces each block to two integer outcome counts, lost
and confused, since distortion only takes the values 0, ``d_loss`` and
``d_conf``; no array spans the chunk.  A stream drawn block by block gives
the bytes of one whole draw, so the counts do not depend on the block size.
A draw or count term whose result the cell's parameters fix (a rate at 0 or
1, a corner strategy) is skipped; that leaves its own generator untouched
and moves no other draw, so the counts stay bit for bit those of the full
walk.  The mean and standard error follow exactly from the summed counts,
so a given seed yields bit-identical results for any worker count.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import channels, crypto
from .core import Scenario, _is_int
from .distortion import ReceiverStrategy

#: Trials per reduction chunk; one seed and one pair of counts per chunk.
CHUNK_TRIALS = 1 << 19

#: Trials per block of ``_count_outcomes``; its draws and scratch, about
#: 1.2 MB, stay in cache.  The counts do not depend on it.
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
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float


def _draw_blocks(
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    strategy: ReceiverStrategy,
    size: int,
    seed: np.random.SeedSequence,
) -> Iterator[tuple[np.ndarray, ...]]:
    """One chunk's draws, ``BLOCK_TRIALS`` trials at a time.

    ``seed`` spawns the chunk's seven substreams, in the order the module
    names them, each on its own PCG64 generator; as ``spawn`` moves on at
    every call, a walk needs a fresh ``seed``.  Yields (message, key,
    delivered, key_decoded, branch_u, exclusion_draw) per block.  A NULL_KEY
    slot holds key 0, the cipher's encoding of NULL_KEY, and ``key_decoded``
    False; ``exclusion_draw`` is uniform over [0, S-2].  The yielded blocks
    may be buffers that the next block overwrites, and are read only.

    As ``random()`` lies in [0, 1), the cell's parameters fix some results,
    and their draws are skipped: activation at alpha 0 or 1, the keys at
    alpha 0, delivery at eps_p 0 or 1, key decoding at eps_s 0 or 1 or alpha
    0, the branch uniform when both ``u < beta1`` and ``u >= beta1 + beta2``
    are constant, and the exclusion draw when the latter never holds.  Their
    blocks are filled once per chunk, zeros for ``key``, ``branch_u`` and
    ``exclusion_draw``; every mask and value read is the full walk's.
    """
    cardinality, alpha = scenario.codebook_size, scenario.alpha
    b1, b12 = strategy.beta1, strategy.beta1 + strategy.beta2
    messages, activation, keys, delivery, decoding, branch, exclusion = (
        np.random.default_rng(child) for child in seed.spawn(7)
    )
    block = min(BLOCK_TRIALS, size)
    uniform, key = np.empty(block), np.zeros(block, np.uint64)
    active, delivered = np.full(block, alpha >= 1), np.full(block, eps_p <= 0)
    key_decoded = active if eps_s <= 0 else np.zeros(block, bool)
    draws_branch = 0 < b1 < 1 or 0 < b12 < 1
    branch_u = uniform if draws_branch else np.zeros(block)
    excl = np.zeros(block, np.uint64)
    for lo in range(0, size, block):
        n = min(block, size - lo)
        if n < block:  # the last, short block
            uniform, key, active, delivered, key_decoded, branch_u, excl = (
                a[:n]
                for a in (uniform, key, active, delivered, key_decoded, branch_u, excl)
            )
        message = messages.integers(0, cardinality, size=n, dtype=np.uint64)
        if alpha > 0:  # at alpha 0 every slot holds key 0
            key = keys.integers(1, cardinality, size=n, dtype=np.uint64)
        if 0 < alpha < 1:
            np.less(activation.random(out=uniform), alpha, out=active)
            key *= active
        if 0 < eps_p < 1:
            delivered = channels.delivery_mask(delivery, eps_p, n, uniform)
        if 0 < eps_s < 1 and alpha > 0:
            key_decoded = channels.delivery_mask(decoding, eps_s, n, uniform)
            key_decoded &= active
        if draws_branch:
            branch.random(out=uniform)
        if b12 < 1:
            excl = exclusion.integers(0, cardinality - 1, size=n, dtype=np.uint64)
        yield message, key, delivered, key_decoded, branch_u, excl


def _count_outcomes(
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    strategy: ReceiverStrategy,
    size: int,
    seed: np.random.SeedSequence,
) -> tuple[int, int]:
    """(n_loss, n_conf) of one chunk of ``size`` trials drawn from ``seed``:
    trials whose estimate is NULL_MSG, and wrong ones.

    The chunk is drawn and counted in blocks of ``BLOCK_TRIALS`` with scratch
    arrays of one block, so the draws, the cipher and the branch arithmetic
    stay in cache and no array spans the chunk.  A confusion term whose mask
    the cell's parameters make all False adds 0 and is skipped: perception
    at beta1 = 0, exclusion at beta1 + beta2 >= 1, and decryption where no
    trial can be synced (alpha 0, eps_s 1 or eps_p 1).  Every trial is still
    encrypted.
    """
    cardinality = scenario.codebook_size
    b1, b12 = strategy.beta1, strategy.beta1 + strategy.beta2
    syncs = scenario.alpha > 0 and eps_s < 1 and eps_p < 1
    block = min(BLOCK_TRIALS, size)
    s, t = np.empty(block, np.uint64), np.empty(block, np.uint64)
    synced, fallback, seen, excluded, wrong = np.empty((5, block), dtype=bool)
    n_loss = n_conf = 0
    draws = _draw_blocks(scenario, eps_p, eps_s, strategy, size, seed)
    for w, k, delivered, key_decoded, u, x in draws:
        if w.size < block:  # the last, short block
            s, t, synced, fallback, seen, excluded, wrong = (
                a[: w.size] for a in (s, t, synced, fallback, seen, excluded, wrong)
            )
        # branch masks; seen and excluded are disjoint parts of fallback
        np.logical_and(delivered, key_decoded, out=synced)
        np.logical_xor(delivered, synced, out=fallback)
        np.less(u, b1, out=seen)
        seen &= fallback
        np.greater_equal(u, b12, out=excluded)
        excluded &= fallback
        n_loss += w.size - np.count_nonzero(delivered)
        n_loss += (
            np.count_nonzero(fallback)
            - np.count_nonzero(seen)
            - np.count_nonzero(excluded)
        )
        crypto.encrypt_batch(w, k, cardinality, out=s)
        if b1 > 0:  # perception keeps the ciphertext
            np.not_equal(s, w, out=wrong)
            wrong &= seen
            n_conf += np.count_nonzero(wrong)
        if b12 < 1:  # exclusion picks a codeword other than the ciphertext
            np.greater_equal(x, s, out=wrong)
            np.add(x, wrong, out=t)
            np.not_equal(t, w, out=wrong)
            wrong &= excluded
            n_conf += np.count_nonzero(wrong)
        if syncs:
            # a synced receiver decrypts with the key it decoded; synced
            # trials are a subset of the active ones, so ``k`` is that key
            crypto.decrypt_batch(s, k, cardinality, out=t)
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
    rational arithmetic, the spread as the second moment less trials*mean^2,
    and rounded once, so the estimate is bit-identical for any ``workers``
    value.
    """
    if bad := trials_violations(trials):
        raise ValueError(bad[0])
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    channels._check_eps(eps_p, "eps_p")
    channels._check_eps(eps_s, "eps_s")
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full + [rest] * (rest > 0)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))

    def run_chunk(idx: int) -> tuple[int, int]:
        return _count_outcomes(scenario, eps_p, eps_s, strategy, sizes[idx], seeds[idx])

    if workers == 1 or len(sizes) == 1:
        counts = [run_chunk(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_chunk, range(len(sizes))))

    n_loss = sum(c[0] for c in counts)
    n_conf = sum(c[1] for c in counts)
    d_loss, d_conf = Fraction(scenario.d_loss), Fraction(scenario.d_conf)
    mean = (n_loss * d_loss + n_conf * d_conf) / trials
    if trials > 1:
        # sum of (d - mean)^2, exactly: the second moment less trials*mean^2
        spread = n_loss * d_loss**2 + n_conf * d_conf**2 - trials * mean**2
        # scaled by d_conf so that the conversion to float cannot overflow
        scaled = spread / (d_conf**2 * trials * (trials - 1))
        std_error = scenario.d_conf * math.sqrt(scaled)
    else:
        std_error = float("nan")
    return McEstimate(float(mean), std_error)
