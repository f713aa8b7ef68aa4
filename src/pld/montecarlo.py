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
depend on the block size.  The mean and standard error follow exactly from
the summed counts, so a given seed yields bit-identical results for any
worker count.
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
    exclusion draws.  Branch and exclusion randomness is drawn for every
    trial (and discarded where unused) to keep that layout independent of
    the outcomes.  A uniform takes one output, so each later segment starts
    a known number of outputs past the end of an integer draw; an integer
    draw can reject and take more, so only ``message`` and ``key`` are
    drawn here, whole.  ``rng`` itself draws only ``message``, and must run
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
    key = key_rng.integers(0, cardinality - 1, size=size, dtype=np.uint64)
    key += np.uint64(1)
    return TrialBatch(cardinality, scenario.alpha, eps_p, eps_s, message, key,
                      after_message, key_rng.bit_generator.state)


def _draw_blocks(batch: TrialBatch) -> Iterator[tuple[np.ndarray, ...]]:
    """The chunk's draws, ``BLOCK_TRIALS`` trials at a time.

    Yields (message, key, delivered, key_decoded, branch_u, exclusion_draw)
    per block.  A NULL_KEY slot holds key 0, the cipher's encoding of
    NULL_KEY, and ``key_decoded`` False; ``exclusion_draw`` is uniform over
    [0, S-2].  The key and uniform blocks are buffers that the next block
    overwrites.
    """
    size, cardinality = batch.message.size, batch.codebook_size
    activation = _generator(batch.after_message)
    delivery, decoding, branch, exclusion = (
        _generator(batch.after_key, i * size) for i in range(4)
    )
    block = min(BLOCK_TRIALS, size)
    uniform, key, active = np.empty(block), np.empty(block, np.uint64), np.empty(block, bool)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        if hi - lo < block:  # the last, short block
            uniform, key, active = uniform[: hi - lo], key[: hi - lo], active[: hi - lo]
        np.less(activation.random(out=uniform), batch.alpha, out=active)
        np.multiply(batch.key[lo:hi], active, out=key)
        delivered = channels.delivery_mask(delivery, batch.eps_p, hi - lo, uniform)
        key_decoded = channels.delivery_mask(decoding, batch.eps_s, hi - lo, uniform)
        key_decoded &= active
        branch.random(out=uniform)
        excl = exclusion.integers(0, cardinality - 1, size=hi - lo, dtype=np.uint64)
        yield batch.message[lo:hi], key, delivered, key_decoded, uniform, excl


def _count_outcomes(batch: TrialBatch, strategy: ReceiverStrategy) -> tuple[int, int]:
    """(n_loss, n_conf): trials whose estimate is NULL_MSG, and wrong ones.

    The chunk is drawn and counted in blocks of ``BLOCK_TRIALS`` with scratch
    arrays of one block, so the draws, the cipher and the branch arithmetic
    stay in cache and no whole-chunk mask, ciphertext or exclusion pick is
    ever built.
    """
    cardinality = batch.codebook_size
    b1, b12 = strategy.beta1, strategy.beta1 + strategy.beta2
    block = min(BLOCK_TRIALS, batch.message.size)
    s, t = np.empty(block, np.uint64), np.empty(block, np.uint64)
    synced, fallback, seen, excluded, wrong = np.empty((5, block), dtype=bool)
    n_loss = n_conf = 0
    for w, k, delivered, key_decoded, u, x in _draw_blocks(batch):
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
        # perception keeps the ciphertext
        crypto.encrypt_batch(w, k, cardinality, out=s)
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
