"""The block walk makes every per-trial draw of the whole-stream draw order.

``stream_major_draws`` below is a frozen reference for a chunk's draws: the
chunk's ``SeedSequence`` spawns seven children, in this order, and each
seeds one PCG64 generator that draws its stream over the whole chunk: the
messages, the activation uniforms, the keys, the delivery, key-decoding and
branch uniforms, and the exclusion draws.  It shares no code with
``pld.montecarlo`` and ``pld.crypto``, so the two can police each other.
"""
import numpy as np
import pytest

from pld import montecarlo
from pld.core import Scenario
from pld.distortion import EXCLUSION, ReceiverStrategy
from pld.montecarlo import CHUNK_TRIALS, _draw_blocks

FIELDS = ("message", "key", "delivered", "key_decoded", "branch_u", "exclusion_draw")
ALPHA, EPS_P, EPS_S = 0.6, 0.3, 0.4
CENTER = ReceiverStrategy(1 / 3, 1 / 3, 1 / 3)  # with these rates, reads every draw


def stream_major_draws(seed, codebook_size, alpha, eps_p, eps_s, size):
    """The seven draws of one chunk, each over the whole chunk from its own
    child of ``seed``."""
    (message_rng, activation_rng, key_rng, delivery_rng, decoding_rng, branch_rng,
     exclusion_rng) = (np.random.Generator(np.random.PCG64(c)) for c in seed.spawn(7))
    message = message_rng.integers(0, codebook_size, size=size, dtype=np.uint64)
    active = activation_rng.random(size) < alpha
    key = key_rng.integers(0, codebook_size - 1, size=size, dtype=np.uint64)
    key += np.uint64(1)
    key *= active
    delivered = delivery_rng.random(size) >= eps_p
    key_decoded = decoding_rng.random(size) >= eps_s
    key_decoded &= active
    branch_u = branch_rng.random(size)
    exclusion_draw = exclusion_rng.integers(0, codebook_size - 1, size=size,
                                            dtype=np.uint64)
    return dict(zip(FIELDS, (message, key, delivered, key_decoded, branch_u,
                             exclusion_draw)))


def walked(scenario, eps_p, eps_s, strategy, size, seed):
    """The block walk's draws, each field joined over the chunk."""
    blocks = [[a.copy() for a in drawn] for drawn in
              _draw_blocks(scenario, eps_p, eps_s, (strategy,), size, seed)]
    return {name: np.concatenate(parts) for name, parts in zip(FIELDS, zip(*blocks))}


# The codebook sizes cover every integer path: 32-bit halves under Lemire's
# rejection step (3 to 4096) and without it (2^32 for messages, 2^32 + 1 for
# keys and exclusion draws); the 64-bit path rejecting about half its
# outputs (2^63 + 7), rarely (2^32 + 1 for messages, 2^64 - 3) and without
# the step (2^64 for messages); and S = 2, whose one-value key and
# exclusion ranges draw nothing.  Odd trial counts and odd blocks leave a
# spare 32-bit half to carry into the stream's next block.
@pytest.mark.parametrize("trials", [1, 7, 1000, 200_000, CHUNK_TRIALS])
@pytest.mark.parametrize("codebook", [2, 3, 4, 5, 4096, 1 << 32, (1 << 32) + 1,
                                      (1 << 63) + 7, (1 << 64) - 3, 1 << 64])
def test_block_walk_matches_the_stream_major_draws(monkeypatch, codebook, trials):
    scenario = Scenario(codebook_size=codebook, d_loss=1.0, d_conf=10.0, alpha=ALPHA)
    seed = codebook % 1009 + trials
    want = stream_major_draws(np.random.SeedSequence(seed), codebook, ALPHA, EPS_P,
                              EPS_S, trials)
    for block in (montecarlo.BLOCK_TRIALS, 1000):
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block)
        got = walked(scenario, EPS_P, EPS_S, CENTER, trials,
                     np.random.SeedSequence(seed))
        for name in FIELDS:
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), (name, block)


#: (alpha, eps_p, eps_s, strategy, fields the skipped draws fix): one cell
#: per skip rule.  A field that a skipped stream feeds is read through the
#: masks the count takes of it; every other field keeps its bytes.
SKIP_RULES = {
    "activation": (1.0, EPS_P, EPS_S, CENTER, ()),
    "keys": (0.0, EPS_P, EPS_S, CENTER, ()),
    "delivery": (ALPHA, 1.0, EPS_S, CENTER, ()),
    "key-decoding": (ALPHA, EPS_P, 0.0, CENTER, ()),
    "branch": (ALPHA, EPS_P, EPS_S, EXCLUSION, ("branch_u",)),
    "exclusion": (ALPHA, EPS_P, EPS_S, ReceiverStrategy(0.5, 0.5, 0.0),
                  ("exclusion_draw",)),
}


@pytest.mark.parametrize("rule", SKIP_RULES)
def test_a_skipped_draw_leaves_the_other_streams_alone(monkeypatch, rule):
    alpha, eps_p, eps_s, strategy, fixed = SKIP_RULES[rule]
    codebook, trials, seed = (1 << 63) + 7, 2500, 41
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 1000)
    scenario = Scenario(codebook_size=codebook, d_loss=1.0, d_conf=10.0, alpha=alpha)
    want = stream_major_draws(np.random.SeedSequence(seed), codebook, alpha, eps_p,
                              eps_s, trials)
    got = walked(scenario, eps_p, eps_s, strategy, trials, np.random.SeedSequence(seed))
    for name in FIELDS:
        if name not in fixed:
            assert got[name].tobytes() == want[name].tobytes(), name
    b1, b12 = strategy.beta1, strategy.beta1 + strategy.beta2
    for mask in (lambda u: u < b1, lambda u: u >= b12):
        assert np.array_equal(mask(got["branch_u"]), mask(want["branch_u"]))
    if b12 >= 1:
        assert not got["exclusion_draw"].any()
