"""End-to-end stochastic simulation of the deception pipeline.

Every trial walks the whole chain — draw meaning and key, encrypt, push
through both transport channels, let the receiver decrypt or fall back on
its perception/dropping/exclusion mix — and scores the realized semantic
distortion.  The kernel (``simulate_batch``) draws one chunk's messages and
keys on uint64 arrays and places the PCG64 streams of its other five draws
by jumping ahead; ``_count_outcomes`` draws those in cache-sized blocks and
reduces each block to two integer outcome counts, lost and confused, since
distortion only takes the values 0, ``d_loss`` and ``d_conf``.  Every output
lands where the whole-chunk draw order puts it, so the stream does not
depend on the block size.  A draw or count term whose result the cell's
parameters fix (a rate at 0 or 1, a corner strategy) is skipped; as every
draw starts at a fixed place in the stream, that moves no other draw, and
the counts stay bit for bit those of the full walk.  The mean and standard
error follow exactly from the summed counts, so a given seed yields
bit-identical results for any worker count.
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

#: Trials per reduction chunk; one substream and one pair of counts per chunk.
CHUNK_TRIALS = 1 << 19

#: Trials per block of ``_count_outcomes``; its draws and scratch, about
#: 0.8 MB, stay in cache.  The counts do not depend on it.
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


@dataclass(frozen=True)
class TrialBatch:
    """One chunk: the two draws held whole, and where the other five start.

    ``key`` holds every trial's key in [1, S-1] before the activation draw
    masks it.  ``after_message`` and ``after_key`` are the PCG64 states at
    the end of the message and key draws; ``_draw_blocks`` places the other
    five draws from them, so a batch can be walked more than once.
    """

    codebook_size: int
    alpha: float
    eps_p: float
    eps_s: float
    message: np.ndarray
    key: np.ndarray
    after_message: dict
    after_key: dict


def _generator(state: dict, ahead: int = 0) -> np.random.Generator:
    """A generator ``ahead`` 64-bit outputs past ``state``, with its spare half.

    ``advance`` clears the spare 32-bit half that ``integers`` keeps for
    ranges up to 2^32.  Uniform draws never read it, so a segment starts
    with the half left by the last integer draw before it.
    """
    bitgen = np.random.PCG64(0)  # a fixed seed skips OS entropy; the state replaces it
    bitgen.state = state
    if ahead:
        bitgen.advance(ahead)
        spare = {"has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
        bitgen.state = {**bitgen.state, **spare}
    return np.random.Generator(bitgen)


def simulate_batch(
    rng: np.random.Generator,
    scenario: Scenario,
    eps_p: float,
    eps_s: float,
    size: int,
) -> TrialBatch:
    """One chunk's messages and keys on uint64 arrays, in a fixed draw order.

    The stream holds, in order: the messages, the activation uniforms, the
    keys, then the delivery, key-decoding and branch uniforms and the
    exclusion draws.  Each segment spans every trial, read or not, so the
    layout depends on neither the outcomes nor which segments
    ``_draw_blocks`` skips.  A uniform takes one output, so each later
    segment starts a known number of outputs past the end of an integer
    draw; an integer draw can reject and take more, so only ``message`` and
    ``key`` are drawn here, whole.  ``rng`` itself draws only ``message``, and must run
    on PCG64, whose ``advance`` counts the outputs that the layout counts.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(
            f"simulate_batch needs a PCG64 bit generator, got {type(bitgen).__name__}"
        )
    cardinality = scenario.codebook_size
    message = rng.integers(0, cardinality, size=size, dtype=np.uint64)
    after_message = bitgen.state
    key_rng = _generator(after_message, size)  # past the activation uniforms
    key = key_rng.integers(1, cardinality, size=size, dtype=np.uint64)
    return TrialBatch(cardinality, scenario.alpha, eps_p, eps_s, message, key,
                      after_message, key_rng.bit_generator.state)


def _draw_blocks(
    batch: TrialBatch, strategy: ReceiverStrategy
) -> Iterator[tuple[np.ndarray, ...]]:
    """The chunk's draws, ``BLOCK_TRIALS`` trials at a time.

    Yields (message, key, delivered, key_decoded, branch_u, exclusion_draw)
    per block.  A NULL_KEY slot holds key 0, the cipher's encoding of
    NULL_KEY, and ``key_decoded`` False; ``exclusion_draw`` is uniform over
    [0, S-2].  The yielded blocks are buffers that the next block overwrites
    or views of the batch, and are read only.

    As ``random()`` lies in [0, 1), the cell's parameters fix some results,
    and their draws are skipped: activation at alpha 0 or 1, delivery at
    eps_p 0 or 1, key decoding at eps_s 0 or 1 or alpha 0, the branch
    uniform when both ``u < beta1`` and ``u >= beta1 + beta2`` are
    constant, and the exclusion draw when the latter never holds.  Their
    blocks are filled once per chunk, zeros for ``branch_u`` and
    ``exclusion_draw``; every mask and value read is the full walk's.
    """
    size, cardinality = batch.message.size, batch.codebook_size
    alpha, eps_p, eps_s = batch.alpha, batch.eps_p, batch.eps_s
    b1, b12 = strategy.beta1, strategy.beta1 + strategy.beta2
    activation = _generator(batch.after_message)
    delivery, decoding, branch, exclusion = (
        _generator(batch.after_key, i * size) for i in range(4)
    )
    block = min(BLOCK_TRIALS, size)
    uniform, key = np.empty(block), np.zeros(block, np.uint64)
    active, delivered = np.full(block, alpha >= 1), np.full(block, eps_p <= 0)
    key_decoded = active if eps_s <= 0 else np.zeros(block, bool)
    draws_branch = 0 < b1 < 1 or 0 < b12 < 1
    branch_u = uniform if draws_branch else np.zeros(block)
    excl = np.zeros(block, np.uint64)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        if hi - lo < block:  # the last, short block
            uniform, key, active, delivered, key_decoded, branch_u, excl = (
                a[: hi - lo]
                for a in (uniform, key, active, delivered, key_decoded, branch_u, excl)
            )
        if 0 < alpha < 1:
            np.less(activation.random(out=uniform), alpha, out=active)
            np.multiply(batch.key[lo:hi], active, out=key)
        elif alpha >= 1:  # every key active; at alpha 0 every slot holds key 0
            key = batch.key[lo:hi]
        if 0 < eps_p < 1:
            delivered = channels.delivery_mask(delivery, eps_p, hi - lo, uniform)
        if 0 < eps_s < 1 and alpha > 0:
            key_decoded = channels.delivery_mask(decoding, eps_s, hi - lo, uniform)
            key_decoded &= active
        if draws_branch:
            branch.random(out=uniform)
        if b12 < 1:
            excl = exclusion.integers(0, cardinality - 1, size=hi - lo, dtype=np.uint64)
        yield batch.message[lo:hi], key, delivered, key_decoded, branch_u, excl


def _count_outcomes(batch: TrialBatch, strategy: ReceiverStrategy) -> tuple[int, int]:
    """(n_loss, n_conf): trials whose estimate is NULL_MSG, and wrong ones.

    The chunk is drawn and counted in blocks of ``BLOCK_TRIALS`` with scratch
    arrays of one block, so the draws, the cipher and the branch arithmetic
    stay in cache and no whole-chunk mask, ciphertext or exclusion pick is
    ever built.  A confusion term whose mask the cell's parameters make all
    False adds 0 and is skipped: perception at beta1 = 0, exclusion at
    beta1 + beta2 >= 1, and decryption where no trial can be synced (alpha
    0, eps_s 1 or eps_p 1).  Every trial is still encrypted.
    """
    cardinality = batch.codebook_size
    b1, b12 = strategy.beta1, strategy.beta1 + strategy.beta2
    syncs = batch.alpha > 0 and batch.eps_s < 1 and batch.eps_p < 1
    block = min(BLOCK_TRIALS, batch.message.size)
    s, t = np.empty(block, np.uint64), np.empty(block, np.uint64)
    synced, fallback, seen, excluded, wrong = np.empty((5, block), dtype=bool)
    n_loss = n_conf = 0
    for w, k, delivered, key_decoded, u, x in _draw_blocks(batch, strategy):
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
