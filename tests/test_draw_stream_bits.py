"""The block walk makes every per-trial draw of the whole-chunk draw order.

``type_major_batch`` below is a frozen copy of the kernel that drew each of
a chunk's seven draws whole, one after another from one generator: the
messages, the activation uniforms, the keys, the delivery, key-decoding and
branch uniforms, and the exclusion draws.  It shares no code with
``pld.montecarlo`` and ``pld.crypto``, so the two can police each other.
"""
import numpy as np
import pytest

from pld import montecarlo
from pld.core import Scenario
from pld.distortion import ReceiverStrategy
from pld.montecarlo import CHUNK_TRIALS, _draw_blocks, simulate_batch

FIELDS = ("message", "key", "delivered", "key_decoded", "branch_u", "exclusion_draw")
ALPHA, EPS_P, EPS_S = 0.6, 0.3, 0.4
CENTER = ReceiverStrategy(1 / 3, 1 / 3, 1 / 3)  # with these rates, reads every draw


def type_major_batch(rng, codebook_size, alpha, eps_p, eps_s, size):
    """The seven draws of one chunk, each over the whole chunk, in stream order."""
    uniform = np.empty(size)
    message = rng.integers(0, codebook_size, size=size, dtype=np.uint64)
    active = rng.random(size, out=uniform) < alpha
    key = rng.integers(0, codebook_size - 1, size=size, dtype=np.uint64)
    key += np.uint64(1)
    key *= active
    delivered = rng.random(size, out=uniform) >= eps_p
    key_decoded = rng.random(size, out=uniform) >= eps_s
    key_decoded &= active
    branch_u = rng.random(size, out=uniform)
    exclusion_draw = rng.integers(0, codebook_size - 1, size=size, dtype=np.uint64)
    return dict(zip(FIELDS, (message, key, delivered, key_decoded, branch_u,
                             exclusion_draw)))


def walked(batch):
    """The block walk's draws, each field joined over the chunk."""
    blocks = [[a.copy() for a in drawn] for drawn in _draw_blocks(batch, CENTER)]
    return {name: np.concatenate(parts) for name, parts in zip(FIELDS, zip(*blocks))}


# The codebook sizes cover every integer path: 32-bit halves under Lemire's
# rejection step (3 to 4096) and without it (2^32 for messages, 2^32 + 1 for
# keys and exclusion draws); the 64-bit path rejecting about half its
# outputs (2^63 + 7), rarely (2^32 + 1 for messages, 2^64 - 3) and without
# the step (2^64 for messages); and S = 2, whose one-value key and
# exclusion ranges draw nothing.  Odd trial counts leave a spare 32-bit
# half to carry into the next segment.
@pytest.mark.parametrize("trials", [1, 7, 1000, 200_000, CHUNK_TRIALS])
@pytest.mark.parametrize("codebook", [2, 3, 4, 5, 4096, 1 << 32, (1 << 32) + 1,
                                      (1 << 63) + 7, (1 << 64) - 3, 1 << 64])
def test_block_walk_matches_the_type_major_draws(monkeypatch, codebook, trials):
    scenario = Scenario(codebook_size=codebook, d_loss=1.0, d_conf=10.0, alpha=ALPHA)
    seed = codebook % 1009 + trials
    want = type_major_batch(np.random.default_rng(seed), codebook, ALPHA, EPS_P,
                            EPS_S, trials)
    for block in (montecarlo.BLOCK_TRIALS, 1000):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block)
        batch = simulate_batch(np.random.default_rng(seed), scenario, EPS_P, EPS_S,
                               trials)
        got = walked(batch)
        for name in FIELDS:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), (name, block)
