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
One walk counts several strategies on the same draws (common random
numbers).  A draw or count term whose result the cell's parameters fix (a
rate at 0 or 1, every strategy at a corner) is skipped; that leaves its own
generator untouched and moves no other draw, so each strategy's counts stay
bit for bit those of the full walk and of its own one-strategy walk.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
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

#: Most trials one estimate takes: 2^17 chunks, about 40 minutes at 20-34 M trials/s.
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
    strategies: Sequence[ReceiverStrategy],
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
    0, the branch uniform when every strategy's ``u < beta1`` and ``u >=
    beta1 + beta2`` are constant, and the exclusion draw when the latter
    never holds for any strategy.  Their blocks are filled once per chunk,
    zeros for ``key``, ``branch_u`` and ``exclusion_draw``; every mask and
    value a strategy reads is the full walk's.
    """
    cardinality, alpha = scenario.codebook_size, scenario.alpha
    b1s, b12s = [st.beta1 for st in strategies], [st.beta1 + st.beta2 for st in strategies]
    messages, activation, keys, delivery, decoding, branch, exclusion = (
        np.random.default_rng(child) for child in seed.spawn(7)
    )
    block = min(BLOCK_TRIALS, size)
    uniform, key = np.empty(block), np.zeros(block, np.uint64)
    active, delivered = np.full(block, alpha >= 1), np.full(block, eps_p <= 0)
    key_decoded = active if eps_s <= 0 else np.zeros(block, bool)
    draws_branch = any(0 < b < 1 for b in b1s + b12s)
    draws_exclusion = any(b < 1 for b in b12s)
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
        if draws_exclusion:
            excl = exclusion.integers(0, cardinality - 1, size=n, dtype=np.uint64)
        yield message, key, delivered, key_decoded, branch_u, excl


def _count_outcomes(
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    strategies: Sequence[ReceiverStrategy],
    size: int,
    seed: np.random.SeedSequence,
) -> list[tuple[int, int]]:
    """Each strategy's (n_loss, n_conf) over one chunk of ``size`` trials
    drawn from ``seed``: trials whose estimate is NULL_MSG, and wrong ones.

    The chunk is drawn and counted in blocks of ``BLOCK_TRIALS`` with scratch
    arrays of one block, so the draws, the cipher and the branch arithmetic
    stay in cache and no array spans the chunk.  The cipher and the
    strategy-free masks and counts are formed once a block; each strategy
    adds its seen and excluded masks.  A confusion term whose mask the
    cell's parameters make all False is skipped: perception at beta1 = 0,
    exclusion at beta1 + beta2 >= 1, and decryption where no trial can be
    synced (alpha 0, eps_s 1 or eps_p 1).  Every trial is still encrypted.
    """
    cardinality = scenario.codebook_size
    betas = [(st.beta1, st.beta1 + st.beta2) for st in strategies]
    perceives, excludes = any(b1 > 0 for b1, _ in betas), any(b12 < 1 for _, b12 in betas)
    syncs = scenario.alpha > 0 and eps_s < 1 and eps_p < 1
    block = min(BLOCK_TRIALS, size)
    s, t = np.empty(block, np.uint64), np.empty(block, np.uint64)
    synced, fallback, kept_wrong, shifted_wrong, mask = np.empty((5, block), dtype=bool)
    shared_loss = shared_conf = 0
    n_loss, n_conf = [0] * len(betas), [0] * len(betas)
    draws = _draw_blocks(scenario, eps_p, eps_s, strategies, size, seed)
    for w, k, delivered, key_decoded, u, x in draws:
        if w.size < block:  # the last, short block
            s, t, synced, fallback, kept_wrong, shifted_wrong, mask = (
                a[: w.size] for a in (s, t, synced, fallback, kept_wrong, shifted_wrong, mask)
            )
        # a trial is lost unless synced or, on fallback, seen or excluded
        np.logical_and(delivered, key_decoded, out=synced)
        np.logical_xor(delivered, synced, out=fallback)
        shared_loss += w.size - np.count_nonzero(synced)
        crypto.encrypt_batch(w, k, cardinality, out=s)
        if perceives:  # perception keeps the ciphertext
            np.not_equal(s, w, out=kept_wrong)
        if excludes:  # exclusion picks a codeword other than the ciphertext
            np.greater_equal(x, s, out=shifted_wrong)
            np.add(x, shifted_wrong, out=t)
            np.not_equal(t, w, out=shifted_wrong)
        if syncs:
            # a synced receiver decrypts with the key it decoded; synced
            # trials are a subset of the active ones, so ``k`` is that key
            crypto.decrypt_batch(s, k, cardinality, out=t)
            np.not_equal(t, w, out=mask)
            mask &= synced
            shared_conf += np.count_nonzero(mask)
        for i, (b1, b12) in enumerate(betas):  # seen and excluded split fallback
            if b1 > 0:
                np.less(u, b1, out=mask)
                mask &= fallback
                n_loss[i] -= np.count_nonzero(mask)
                mask &= kept_wrong
                n_conf[i] += np.count_nonzero(mask)
            if b12 < 1:
                np.greater_equal(u, b12, out=mask)
                mask &= fallback
                n_loss[i] -= np.count_nonzero(mask)
                mask &= shifted_wrong
                n_conf[i] += np.count_nonzero(mask)
    return [(int(shared_loss + lost), int(shared_conf + wrong))
            for lost, wrong in zip(n_loss, n_conf)]


def _estimates(
    scenario: Scenario, eps_p: float, eps_s: float, strategies: tuple[ReceiverStrategy, ...],
    trials: int, seed: int, workers: int,
) -> list[McEstimate]:
    """The chunk loop of both estimators, on ``workers`` threads."""
    if bad := trials_violations(trials):
        raise ValueError(bad[0])
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    channels._check_eps(eps_p, "eps_p")
    channels._check_eps(eps_s, "eps_s")
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full + [rest] * (rest > 0)

    def run_chunk(idx: int) -> list[tuple[int, int]]:  # seeded by SeedSequence(seed)'s child idx
        return _count_outcomes(scenario, eps_p, eps_s, strategies, sizes[idx],
                               np.random.SeedSequence(seed, spawn_key=(idx,)))

    if workers == 1 or len(sizes) == 1:
        counts = [run_chunk(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run_chunk, range(len(sizes))))

    d_loss, d_conf = Fraction(scenario.d_loss), Fraction(scenario.d_conf)
    estimates = []
    for chunks in zip(*counts):  # one strategy's counts, chunk by chunk
        n_loss, n_conf = map(sum, zip(*chunks))
        mean = (n_loss * d_loss + n_conf * d_conf) / trials
        if trials > 1:
            # sum of (d - mean)^2, exactly: the second moment less trials*mean^2
            spread = n_loss * d_loss**2 + n_conf * d_conf**2 - trials * mean**2
            # scaled by d_conf so that the conversion to float cannot overflow
            scaled = spread / (d_conf**2 * trials * (trials - 1))
            std_error = scenario.d_conf * math.sqrt(scaled)
        else:
            std_error = float("nan")
        estimates.append(McEstimate(float(mean), std_error))
    return estimates


def estimate_distortions(
    scenario: Scenario, eps_p: float, eps_s: float, strategies: Sequence[ReceiverStrategy],
    trials: int, seed: int,
) -> list[McEstimate]:
    """Mean realized distortion of each strategy over the same ``trials``
    seeded pipeline walks, split into chunks of substreams spawned from
    ``seed``.  The mean and standard error come from the chunks' integer
    counts in exact rational arithmetic, the spread as the second moment
    less trials*mean^2, rounded once, so each estimate is bit for bit its
    strategy's ``estimate_distortion`` at the same seed and any ``workers``.
    """
    return _estimates(scenario, eps_p, eps_s, tuple(strategies), trials, seed, 1)


def estimate_distortion(
    scenario: Scenario, eps_p: float, eps_s: float, strategy: ReceiverStrategy,
    trials: int, seed: int, workers: int = 1,
) -> McEstimate:
    """The one-strategy ``estimate_distortions``, on ``workers`` threads."""
    return _estimates(scenario, eps_p, eps_s, (strategy,), trials, seed, workers)[0]
