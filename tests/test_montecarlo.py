"""Stochastic pipeline simulation: laws, invariants, and reproducibility."""
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pld import montecarlo
from pld.core import NULL_MSG, Scenario, distance
from pld.crypto import ShiftCipher
from pld.distortion import (
    DROPPING,
    EXCLUSION,
    PERCEPTION,
    ReceiverStrategy,
    delta_terms,
    opportunistic_distortion,
)
from pld.montecarlo import (
    CHUNK_TRIALS,
    MAX_TRIALS,
    McEstimate,
    _count_outcomes,
    estimate_distortion,
    simulate_batch,
)
from pld.strategy import optimal_receiver_strategy

CENTER = ReceiverStrategy(1 / 3, 1 / 3, 1 / 3)


def make_scenario(size=2, alpha=0.99):
    return Scenario(codebook_size=size, d_loss=1.0, d_conf=10.0, alpha=alpha)


# ---------------------------------------------------------------------------
# degenerate laws
# ---------------------------------------------------------------------------

def test_total_erasure_costs_exactly_the_loss():
    est = estimate_distortion(make_scenario(size=4), 1.0, 0.3, CENTER, 5000, seed=1)
    assert est.mean == 1.0
    assert est.std_error == 0.0


def test_perfect_channels_cost_nothing():
    sc = make_scenario(size=4, alpha=1.0)
    est = estimate_distortion(sc, 0.0, 0.0, CENTER, 5000, seed=2)
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_single_trial_has_no_error_bar():
    est = estimate_distortion(make_scenario(size=4), 0.5, 0.5, CENTER, 1, seed=3)
    assert math.isnan(est.std_error)
    assert est.mean in (0.0, 1.0, 10.0)


def test_argument_validation():
    sc = make_scenario()
    with pytest.raises(ValueError):
        estimate_distortion(sc, 0.1, 0.1, CENTER, 0, seed=1)
    for workers in (0, 2.5, True):
        with pytest.raises(ValueError, match="workers"):
            estimate_distortion(sc, 0.1, 0.1, CENTER, 100, seed=1, workers=workers)
    with pytest.raises(ValueError):
        McEstimate(0.0, 0.0, 0, 1)


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**20 - 1, 1.5, True])
def test_trial_count_rejected_before_any_draw(monkeypatch, trials):
    def no_draws(*args):
        raise AssertionError("drew a chunk")

    monkeypatch.setattr(montecarlo, "simulate_batch", no_draws)
    with pytest.raises(ValueError, match="trials"):
        estimate_distortion(make_scenario(), 0.1, 0.1, CENTER, trials, seed=1)


@pytest.mark.parametrize("bad", [1.5, -0.2, float("nan")])
@pytest.mark.parametrize("label", ["eps_p", "eps_s"])
def test_impossible_channel_rejected_before_any_draw(monkeypatch, label, bad):
    def no_draws(*args):
        raise AssertionError("drew a chunk")

    monkeypatch.setattr(montecarlo, "simulate_batch", no_draws)
    eps = {"eps_p": 0.1, "eps_s": 0.1, label: bad}
    with pytest.raises(ValueError, match=label):
        estimate_distortion(make_scenario(), eps["eps_p"], eps["eps_s"], CENTER,
                            100, seed=1)


# ---------------------------------------------------------------------------
# per-trial structure of the vectorized kernel
# ---------------------------------------------------------------------------

def test_batch_pipeline_invariants():
    sc = make_scenario(size=4, alpha=0.6)
    rng = np.random.default_rng(99)
    batch = simulate_batch(rng, sc, 0.3, 0.4, 20000)

    assert batch.message.max() < 4
    assert batch.ciphertext.max() < 4
    active = batch.key_active
    assert np.all(batch.key[active] >= 1)
    assert np.all(batch.key[active] <= 3)
    assert np.all(batch.key[~active] == 0)
    expect_s = np.where(active, (batch.message + batch.key) % 4, batch.message)
    assert np.array_equal(batch.ciphertext, expect_s)

    # a key can only be decoded if one was actually sent
    assert not np.any(batch.key_decoded & ~active)

    # exclusion guesses among the codewords other than the one received
    assert np.all(batch.exclusion_pick != batch.ciphertext)
    assert batch.exclusion_pick.max() < 4


@pytest.mark.parametrize("size", [2, 4, 2**63 + 11, 1 << 64])
def test_outcome_counts_match_per_trial_scoring(size):
    """The counting scorer agrees with the scalar cipher and distance per trial."""
    sc = make_scenario(size=size, alpha=0.6)
    strat = ReceiverStrategy(0.2, 0.3, 0.5)
    batch = simulate_batch(np.random.default_rng(17), sc, 0.3, 0.4, 5000)
    cipher = ShiftCipher(size)
    n_loss = n_conf = 0
    for i in range(batch.message.size):
        w, s = int(batch.message[i]), int(batch.ciphertext[i])
        u = batch.branch_u[i]
        if not batch.delivered[i]:
            w_hat = NULL_MSG
        elif batch.key_decoded[i]:
            w_hat = cipher.decrypt(s, int(batch.key[i]))
        elif u < strat.beta1:
            w_hat = s
        elif u < strat.beta1 + strat.beta2:
            w_hat = NULL_MSG
        else:
            w_hat = int(batch.exclusion_pick[i])
        d = distance(w, w_hat, sc)
        n_loss += d == sc.d_loss
        n_conf += d == sc.d_conf
    assert _count_outcomes(batch, strat) == (n_loss, n_conf)


BATCH_FIELDS = (
    "message", "key", "key_active", "ciphertext", "delivered", "key_decoded",
    "branch_u", "exclusion_pick",
)


@pytest.mark.parametrize("size", [1, 20000, CHUNK_TRIALS + 12345])
@pytest.mark.parametrize("codebook", [3, 2**63 + 7, 1 << 64])
def test_counts_do_not_depend_on_the_block_size(monkeypatch, size, codebook):
    """A short last block and a block edge inside the chunk count the same."""
    sc = make_scenario(size=codebook, alpha=0.6)
    strat = ReceiverStrategy(0.2, 0.3, 0.5)

    def run():
        batch = simulate_batch(np.random.default_rng(31), sc, 0.3, 0.4, size)
        return _count_outcomes(batch, strat), batch

    want, ref = run()
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 1000)
    got, batch = run()
    assert got == want
    for field in BATCH_FIELDS:
        assert np.array_equal(getattr(batch, field), getattr(ref, field)), field


@pytest.mark.parametrize("codebook", [4, 2**63 + 7, 1 << 64])
def test_chunk_allocates_at_most_40_bytes_per_trial(codebook):
    """The draws (35 B/trial) plus block scratch; no whole-chunk temporaries."""
    sc = make_scenario(size=codebook, alpha=0.6)
    tracemalloc.start()
    try:
        batch = simulate_batch(np.random.default_rng(5), sc, 0.3, 0.4, CHUNK_TRIALS)
        _count_outcomes(batch, CENTER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / CHUNK_TRIALS <= 40


def test_branch_frequencies_match_their_probabilities():
    """Branch shares checked one by one: errors that cancel in the mean show here."""
    alpha, eps_p, eps_s = 0.6, 0.3, 0.4
    strat = ReceiverStrategy(0.2, 0.3, 0.5)
    batch = simulate_batch(
        np.random.default_rng(23), make_scenario(size=4, alpha=alpha), eps_p, eps_s,
        CHUNK_TRIALS,
    )

    def within_4_sigma(mask, p):
        n = mask.size
        return abs(np.count_nonzero(mask) / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    assert within_4_sigma(~batch.delivered, eps_p)
    assert within_4_sigma(batch.key_active, alpha)
    assert within_4_sigma(batch.key_decoded, alpha * (1 - eps_s))
    u = batch.branch_u[batch.delivered & ~batch.key_decoded]
    b1, b12 = strat.beta1, strat.beta1 + strat.beta2
    assert within_4_sigma(u < b1, strat.beta1)
    assert within_4_sigma((u >= b1) & (u < b12), strat.beta2)
    assert within_4_sigma(u >= b12, strat.beta3)


# ---------------------------------------------------------------------------
# agreement with closed forms
# ---------------------------------------------------------------------------

def test_reference_cell_perception():
    sc = make_scenario(size=2, alpha=0.99)
    est = estimate_distortion(sc, 0.1, 0.2, PERCEPTION, 10**6, seed=20250801)
    assert abs(est.mean - 1.882) < 4 * est.std_error


def test_huge_codebook_matches_closed_form():
    sc = make_scenario(size=1 << 64, alpha=0.99)
    est = estimate_distortion(sc, 0.1, 0.2, PERCEPTION, 2 * 10**5, seed=5)
    want = opportunistic_distortion(sc, 0.1, 0.2, PERCEPTION).total
    assert abs(est.mean - want) < 4 * est.std_error


def test_optimal_strategy_not_beaten_by_pure_options():
    sc = make_scenario(size=4, alpha=0.7)
    eps_p, eps_s = 0.2, 0.35
    sol = optimal_receiver_strategy(delta_terms(sc, eps_s))
    best = estimate_distortion(sc, eps_p, eps_s, sol.strategy, 2 * 10**5, seed=11)
    for pure in (PERCEPTION, DROPPING, EXCLUSION):
        other = estimate_distortion(sc, eps_p, eps_s, pure, 2 * 10**5, seed=12)
        slack = 4 * (best.std_error + other.std_error)
        assert best.mean <= other.mean + slack


def test_std_error_does_not_cancel():
    """Every trial is lost or confused: a huge mean over a tiny spread."""
    sc = Scenario(codebook_size=4, d_loss=1e8, d_conf=1e8 + 1, alpha=1.0)
    trials = 1 << 20
    est = estimate_distortion(sc, 0.5, 1.0, PERCEPTION, trials, seed=5)
    # mean = d_loss + n_conf / trials, and a float near 1e8 resolves 1 / trials
    n_conf = round((est.mean - 1e8) * trials)
    n_loss = trials - n_conf
    d_loss, d_conf = Fraction(sc.d_loss), Fraction(sc.d_conf)
    assert est.mean == float((n_loss * d_loss + n_conf * d_conf) / trials)
    spread = n_loss * n_conf * (d_conf - d_loss) ** 2 / trials
    want = math.sqrt(spread / (trials * (trials - 1)))
    assert want == pytest.approx(4.88e-4, rel=1e-3)
    assert est.std_error == pytest.approx(want, rel=1e-12)


def test_std_error_stays_finite_near_the_float_limit():
    sc = Scenario(codebook_size=4, d_loss=1.0, d_conf=1e200, alpha=0.5)
    est = estimate_distortion(sc, 0.3, 0.3, CENTER, 10000, seed=1)
    assert math.isfinite(est.mean)
    assert math.isfinite(est.std_error) and est.std_error > 0


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_same_seed_bit_identical():
    sc = make_scenario(size=4, alpha=0.5)
    a = estimate_distortion(sc, 0.2, 0.3, CENTER, 50000, seed=42)
    b = estimate_distortion(sc, 0.2, 0.3, CENTER, 50000, seed=42)
    assert a == b
    c = estimate_distortion(sc, 0.2, 0.3, CENTER, 50000, seed=43)
    assert c.mean != a.mean


#: (codebook, alpha, eps_p, eps_s, strategy, trials, seed) -> (exact mean,
#: std_error), recorded before the kernel reduced chunks to outcome counts.
#: Integer distortions make every partial sum exact, so the mean pins the
#: draw stream bit for bit; the standard error only to rounding.
PINNED = [
    ((2, 0.99, 0.1, 0.2, PERCEPTION, CHUNK_TRIALS, 101),
     (1.5511837005615234, 0.0037189315859180692)),
    ((2, 0.5, 0.3, 0.4, CENTER, 2 * CHUNK_TRIALS, 102),
     (2.533461570739746, 0.0023430350873762107)),
    ((3, 0.7, 0.2, 0.35, EXCLUSION, CHUNK_TRIALS + 12345, 103),
     (2.9703652216691854, 0.004222985032337395)),
    ((3, 1.0, 0.5, 0.1, DROPPING, CHUNK_TRIALS, 104),
     (1.6474113464355469, 0.0020615760097724037)),
    ((4, 0.6, 0.3, 0.4, CENTER, CHUNK_TRIALS + 12345, 105),
     (2.6541621555141037, 0.003388037597548125)),
    ((4, 0.99, 0.01, 0.5, EXCLUSION, 2 * CHUNK_TRIALS, 106),
     (2.38851261138916, 0.0032234558246175284)),
    ((1 << 64, 0.99, 0.1, 0.2, DROPPING, CHUNK_TRIALS + 12345, 107),
     (0.8605322445693798, 0.0018522438588318157)),
    ((1 << 64, 0.5, 0.5, 0.5, EXCLUSION, CHUNK_TRIALS, 108),
     (4.123319625854492, 0.0033448356955655257)),
]


@pytest.mark.parametrize("cell, pinned", PINNED)
def test_draw_stream_is_pinned(cell, pinned):
    size, alpha, eps_p, eps_s, strat, trials, seed = cell
    sc = Scenario(codebook_size=size, d_loss=3.0, d_conf=7.0, alpha=alpha)
    est = estimate_distortion(sc, eps_p, eps_s, strat, trials, seed)
    mean, std_error = pinned
    assert est.mean == mean
    assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)


def test_worker_count_does_not_change_the_estimate():
    sc = make_scenario(size=4, alpha=0.5)
    trials = 3 * CHUNK_TRIALS + 1000
    solo = estimate_distortion(sc, 0.2, 0.3, CENTER, trials, seed=9, workers=1)
    pooled = estimate_distortion(sc, 0.2, 0.3, CENTER, trials, seed=9, workers=3)
    assert solo.mean == pooled.mean
    assert solo.std_error == pooled.std_error
