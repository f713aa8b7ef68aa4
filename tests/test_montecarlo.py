"""Stochastic pipeline simulation: laws, invariants, and reproducibility."""
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from pld import montecarlo
from pld.core import NULL_KEY, NULL_MSG, Scenario
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
)
from pld.strategy import optimal_receiver_strategy
from reference import ShiftCipher, distance
from test_draw_stream_bits import FIELDS, stream_major_draws, walked

CENTER = ReceiverStrategy(1 / 3, 1 / 3, 1 / 3)


def make_scenario(size=2, alpha=0.99):
    return Scenario(codebook_size=size, d_loss=1.0, d_conf=10.0, alpha=alpha)


chunk = np.random.SeedSequence  # a chunk's seed; a walk spawns from a fresh one


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


@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**20 - 1, 1.5, True])
def test_trial_count_rejected_before_any_draw(monkeypatch, trials):
    def no_draws(*args):
        raise AssertionError("drew a chunk")

    monkeypatch.setattr(montecarlo, "_count_outcomes", no_draws)
    with pytest.raises(ValueError, match="trials"):
        estimate_distortion(make_scenario(), 0.1, 0.1, CENTER, trials, seed=1)


@pytest.mark.parametrize("bad", [1.5, -0.2, float("nan")])
@pytest.mark.parametrize("label", ["eps_p", "eps_s"])
def test_impossible_channel_rejected_before_any_draw(monkeypatch, label, bad):
    def no_draws(*args):
        raise AssertionError("drew a chunk")

    monkeypatch.setattr(montecarlo, "_count_outcomes", no_draws)
    eps = {"eps_p": 0.1, "eps_s": 0.1, label: bad}
    with pytest.raises(ValueError, match=label):
        estimate_distortion(make_scenario(), eps["eps_p"], eps["eps_s"], CENTER,
                            100, seed=1)


# ---------------------------------------------------------------------------
# per-trial structure of the vectorized kernel
# ---------------------------------------------------------------------------

def test_records_hold_results_only():
    assert [f.name for f in fields(McEstimate)] == ["mean", "std_error"]


def test_batch_pipeline_invariants():
    sc = make_scenario(size=4, alpha=0.6)
    batch = walked(sc, 0.3, 0.4, CENTER, 20000, chunk(99))

    assert batch["message"].max() < 4
    assert batch["key"].max() <= 3
    # a key can only be decoded if one was actually sent (key 0 is NULL_KEY)
    assert not np.any(batch["key_decoded"] & (batch["key"] == 0))
    # exclusion guesses among the S-1 codewords other than the one received
    assert batch["exclusion_draw"].max() < 3


def scored(draws, sc, strat):
    """(n_loss, n_conf) of per-trial draws, scored one trial at a time with the
    scalar cipher and distance; the exclusion rule is written out here, not
    taken from the kernel."""
    cipher = ShiftCipher(sc.codebook_size)
    n_loss = n_conf = 0
    for i in range(draws["message"].size):
        w, k = int(draws["message"][i]), int(draws["key"][i])
        s = cipher.encrypt(w, NULL_KEY if k == 0 else k)
        u = draws["branch_u"][i]
        if not draws["delivered"][i]:
            w_hat = NULL_MSG
        elif draws["key_decoded"][i]:
            w_hat = cipher.decrypt(s, k)
        elif u < strat.beta1:
            w_hat = s
        elif u < strat.beta1 + strat.beta2:
            w_hat = NULL_MSG
        else:
            # the draw numbers the codewords other than s in increasing order
            draw = int(draws["exclusion_draw"][i])
            w_hat = draw if draw < s else draw + 1
        d = distance(w, w_hat, sc)
        n_loss += d == sc.d_loss
        n_conf += d == sc.d_conf
    return n_loss, n_conf


@pytest.mark.parametrize("size", [2, 4, 2**63 + 11, 1 << 64])
def test_outcome_counts_match_per_trial_scoring(size):
    """The counting scorer agrees with the scalar cipher and distance per trial."""
    sc = make_scenario(size=size, alpha=0.6)
    strat = ReceiverStrategy(0.2, 0.3, 0.5)
    [counts] = _count_outcomes(sc, 0.3, 0.4, (strat,), 5000, chunk(17))
    assert counts == scored(walked(sc, 0.3, 0.4, strat, 5000, chunk(17)), sc, strat)


#: Beta1 + beta2 = 1 - 1e-13: the branch uniform and the exclusion integers
#: are both drawn, though an exclusion is all but never picked.
NEAR_DROPPING = ReceiverStrategy(0.5, 0.5 - 1e-13, 1e-13)

#: (alpha, eps_p, eps_s, strategy): cells whose parameters fix some masks.
SKIPPING_CELLS = [
    (0.0, 0.3, 0.4, CENTER),
    (1.0, 0.3, 0.4, CENTER),
    (0.6, 0.0, 0.4, CENTER),
    (0.6, 1.0, 0.4, CENTER),
    (0.6, 0.3, 0.0, CENTER),
    (0.6, 0.3, 1.0, CENTER),
    (0.6, 0.3, 0.4, PERCEPTION),
    (0.6, 0.3, 0.4, DROPPING),
    (0.6, 0.3, 0.4, EXCLUSION),
    (0.6, 0.3, 0.4, NEAR_DROPPING),
    (0.0, 0.0, 0.0, PERCEPTION),
    (1.0, 0.0, 1.0, EXCLUSION),
    (1.0, 0.3, 0.0, DROPPING),
]


@pytest.mark.parametrize("cell", SKIPPING_CELLS)
@pytest.mark.parametrize("size", [4, 1 << 64])
def test_outcome_counts_match_per_trial_scoring_where_draws_are_skipped(
    monkeypatch, size, cell
):
    """The skipping walk counts what the frozen full walk's draws score to, over
    several blocks and a short last one."""
    alpha, eps_p, eps_s, strat = cell
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 1000)
    sc = make_scenario(size=size, alpha=alpha)
    full = stream_major_draws(chunk(19), size, alpha, eps_p, eps_s, 2500)
    [counts] = _count_outcomes(sc, eps_p, eps_s, (strat,), 2500, chunk(19))
    assert counts == scored(full, sc, strat)


#: Each rate at 0, at 1, at their float neighbours and in between.
RATES = [0.0, 5e-324, 0.6, 1 - 2**-53, 1.0]


@pytest.mark.parametrize("strat", [PERCEPTION, DROPPING, EXCLUSION, CENTER,
                                   NEAR_DROPPING],
                         ids=["perception", "dropping", "exclusion", "center",
                              "near-dropping"])
def test_skipping_walk_matches_the_full_walk_trial_by_trial(monkeypatch, strat):
    """Every mask the count reads, and the exclusion draw wherever it can be
    read, is the frozen full walk's, on every cell of the rate grid."""
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 1000)
    b1, b12 = strat.beta1, strat.beta1 + strat.beta2
    size, codebook = 2500, 5
    for alpha in RATES:
        sc = make_scenario(size=codebook, alpha=alpha)
        for eps_p in RATES:
            for eps_s in RATES:
                cell = (alpha, eps_p, eps_s)
                want = stream_major_draws(chunk(29), codebook, *cell, size)
                got = walked(sc, eps_p, eps_s, strat, size, chunk(29))
                for name in ("message", "key", "delivered", "key_decoded"):
                    assert np.array_equal(got[name], want[name]), (cell, name)
                for mask in (lambda u: u < b1, lambda u: u >= b12):
                    assert np.array_equal(mask(got["branch_u"]),
                                          mask(want["branch_u"])), cell
                if b12 < 1:
                    assert np.array_equal(got["exclusion_draw"],
                                          want["exclusion_draw"]), cell


@pytest.mark.parametrize("size", [1, 20000, CHUNK_TRIALS + 12345])
@pytest.mark.parametrize("codebook", [3, 2**63 + 7, 1 << 64])
def test_counts_do_not_depend_on_the_block_size(monkeypatch, size, codebook):
    """A short last block and a block edge inside the chunk count the same."""
    sc = make_scenario(size=codebook, alpha=0.6)
    strat = ReceiverStrategy(0.2, 0.3, 0.5)

    def run():
        return (_count_outcomes(sc, 0.3, 0.4, (strat,), size, chunk(31)),
                walked(sc, 0.3, 0.4, strat, size, chunk(31)))

    want, ref = run()
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 1000)
    got, draws = run()
    assert got == want
    for name in FIELDS:
        assert np.array_equal(draws[name], ref[name]), name


@pytest.mark.parametrize("codebook, alpha, eps_p, strat", [
    *(pytest.param(c, 0.6, 0.3, CENTER, id=str(c)) for c in (4, 2**63 + 7, 1 << 64)),
    # the skipped draws' constant masks are block buffers too
    pytest.param(4, 0.0, 0.0, PERCEPTION, id="4-alpha0-eps_p0-perception"),
])
def test_chunk_allocates_at_most_96_bytes_per_block_trial(codebook, alpha, eps_p, strat):
    """Every draw and scratch array spans one block, so an estimate's peak does
    not grow with its trials.  A one-trial estimate first loads numpy.random's
    lazily imported modules (~0.75 MB), which are no part of a chunk's cost."""
    sc = make_scenario(size=codebook, alpha=alpha)
    estimate_distortion(sc, eps_p, 0.4, strat, 1, seed=5)
    for trials in (CHUNK_TRIALS, 2 * CHUNK_TRIALS):
        tracemalloc.start()
        try:
            estimate_distortion(sc, eps_p, 0.4, strat, trials, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 96 * montecarlo.BLOCK_TRIALS, trials


def test_estimate_memory_does_not_grow_with_the_chunk_count(monkeypatch):
    """Each chunk's counts join a running sum as they arrive: with the chunk
    kernel stubbed, 2^14 chunks peak where 2^11 do."""
    monkeypatch.setattr(montecarlo, "_count_outcomes", lambda *args: [(0, 0)])
    sc = make_scenario(size=4, alpha=0.6)
    estimate_distortion(sc, 0.3, 0.4, CENTER, 1, seed=5)  # lazy imports
    peaks = []
    for trials in (1 << 30, 1 << 33):
        tracemalloc.start()
        try:
            estimate_distortion(sc, 0.3, 0.4, CENTER, trials, seed=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


def test_branch_frequencies_match_their_probabilities():
    """Branch shares checked one by one: errors that cancel in the mean show here."""
    alpha, eps_p, eps_s = 0.6, 0.3, 0.4
    strat = ReceiverStrategy(0.2, 0.3, 0.5)
    batch = walked(make_scenario(size=4, alpha=alpha), eps_p, eps_s, strat,
                   CHUNK_TRIALS, chunk(23))

    def within_4_sigma(mask, p):
        n = mask.size
        return abs(np.count_nonzero(mask) / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    assert within_4_sigma(~batch["delivered"], eps_p)
    assert within_4_sigma(batch["key"] != 0, alpha)
    assert within_4_sigma(batch["key_decoded"], alpha * (1 - eps_s))
    u = batch["branch_u"][batch["delivered"] & ~batch["key_decoded"]]
    b1, b12 = strat.beta1, strat.beta1 + strat.beta2
    assert within_4_sigma(u < b1, strat.beta1)
    assert within_4_sigma((u >= b1) & (u < b12), strat.beta2)
    assert within_4_sigma(u >= b12, strat.beta3)


def walked_keys(codebook, alpha, size, seed):
    """The keys of one chunk's trials, 0 in NULL_KEY slots, and the raw keys:
    the same key stream walked at alpha 1, where every key is active."""
    def keys(a):
        sc = make_scenario(size=codebook, alpha=a)
        return walked(sc, 0.0, 0.0, CENTER, size, chunk(seed))["key"]

    return keys(alpha), keys(1.0)


def test_key_draws_degenerate_rates():
    keys, _ = walked_keys(8, 0.0, 50, 0)
    assert np.all(keys == 0)
    keys, _ = walked_keys(2, 1.0, 50, 0)
    assert np.all(keys == 1)


def test_key_draws_activation_frequency():
    n = 1_000_000
    keys, raw = walked_keys(1 << 64, 0.99, n, 7)
    active = keys != 0
    freq_null = 1.0 - active.mean()
    assert abs(freq_null - 0.01) <= 4.0 * np.sqrt(0.01 * 0.99 / n)
    assert raw.min() >= 1
    assert np.array_equal(keys[active], raw[active])


def test_key_draws_uniform_over_keyspace():
    n = 300_000
    keys, _ = walked_keys(4, 1.0, n, 11)
    assert np.all(keys != 0)
    for k in (1, 2, 3):
        freq = (keys == k).mean()
        assert abs(freq - 1 / 3) <= 4.0 * np.sqrt((1 / 3) * (2 / 3) / n)


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
#: std_error), recorded when each chunk first drew from seven substreams.
#: Integer distortions make every partial sum exact, so the mean pins the
#: draw stream bit for bit; the standard error only to rounding.
PINNED = [
    ((2, 0.99, 0.1, 0.2, PERCEPTION, CHUNK_TRIALS, 101),
     (1.5406551361083984, 0.0037083177381511453)),
    ((2, 0.5, 0.3, 0.4, CENTER, 2 * CHUNK_TRIALS, 102),
     (2.5302791595458984, 0.0023430783102366235)),
    ((3, 0.7, 0.2, 0.35, EXCLUSION, CHUNK_TRIALS + 12345, 103),
     (2.968153281665496, 0.0042234290559590906)),
    ((3, 1.0, 0.5, 0.1, DROPPING, CHUNK_TRIALS, 104),
     (1.6490306854248047, 0.002061353933320897)),
    ((4, 0.6, 0.3, 0.4, CENTER, CHUNK_TRIALS + 12345, 105),
     (2.659951959719212, 0.0033879976490219744)),
    ((4, 0.99, 0.01, 0.5, EXCLUSION, 2 * CHUNK_TRIALS, 106),
     (2.3882369995117188, 0.0032234887626399443)),
    ((1 << 64, 0.99, 0.1, 0.2, DROPPING, CHUNK_TRIALS + 12345, 107),
     (0.8620360656165387, 0.0018532099450232673)),
    ((1 << 64, 0.5, 0.5, 0.5, EXCLUSION, CHUNK_TRIALS, 108),
     (4.125175476074219, 0.003345088679421999)),
    # At S = 4096 the integer draws take 32-bit halves; at 2^32 + 1 the
    # messages take the 64-bit path and the keys and exclusion draws whole
    # 32-bit halves; at 2^63 + 7 every integer draw takes the 64-bit path
    # and rejects about half its outputs.  The odd trial counts leave a
    # spare 32-bit half.
    ((4096, 0.6, 0.3, 0.4, CENTER, 200_001, 109),
     (2.7826910865445673, 0.00562862102057085)),
    ((4096, 0.99, 0.1, 0.2, EXCLUSION, CHUNK_TRIALS + 4097, 110),
     (1.617820339335901, 0.0037681056877755695)),
    (((1 << 32) + 1, 0.7, 0.2, 0.35, CENTER, CHUNK_TRIALS + 12_347, 111),
     (2.5112599811790135, 0.003644222810983636)),
    (((1 << 63) + 7, 0.5, 0.3, 0.4, CENTER, 99_999, 112),
     (2.859828598285983, 0.007911870806875441)),
]


@pytest.mark.parametrize("cell, pinned", PINNED)
def test_draw_stream_is_pinned(cell, pinned):
    size, alpha, eps_p, eps_s, strat, trials, seed = cell
    sc = Scenario(codebook_size=size, d_loss=3.0, d_conf=7.0, alpha=alpha)
    est = estimate_distortion(sc, eps_p, eps_s, strat, trials, seed)
    mean, std_error = pinned
    assert est.mean == mean
    assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)


#: (codebook, d_loss, d_conf, trials, (n_loss, n_conf) a chunk) -> float.hex()
#: of (mean, std_error), recorded before the spread became the exact second
#: moment less trials*mean^2 (it was a pairwise sum over outcome classes).
PINNED_COUNTS = [
    ((2, 1.3, 5.0, 1000, (137, 211)),  # all three outcome classes
     ("0x1.3bac710cb295fp+0", "0x1.02bab0befcb3bp-4")),
    ((2, 1.3, 5.0, 2, (1, 1)), ("0x1.9333333333333p+1", "0x1.d99999999999ap+0")),
    ((2, 1.3, 5.0, 2, (0, 1)), ("0x1.4000000000000p+1", "0x1.4000000000000p+1")),
    ((2, 1.3, 5.0, 500, (0, 0)), ("0x0.0p+0", "0x0.0p+0")),  # every trial alike
    ((2, 1.3, 5.0, 500, (500, 0)), ("0x1.4cccccccccccdp+0", "0x0.0p+0")),
    ((2, 1.0, 1e200, 1000, (300, 7)),
     ("0x1.2ba953c461aafp+657", "0x1.c3aed6607f5cep+655")),
    ((3, 0.1, 1e200, CHUNK_TRIALS, (123456, 98765)),
     ("0x1.f80496b7fc263p+661", "0x1.71e165c5d4de1p+653")),
    ((5, 1.3, 5.0, 2 * CHUNK_TRIALS, (1000, 2000)),  # two chunks' counts
     ("0x1.6120000000000p-6", "0x1.40c4f6868e9e9p-12")),
    ((17, 0.1, 1 / 3, 999_983, (123_457, 33_331)),
     ("0x1.804f682e02785p-5", "0x1.6f768ede0a6c9p-14")),
]


@pytest.mark.parametrize("cell, pinned", PINNED_COUNTS)
def test_std_error_is_pinned_bit_for_bit(monkeypatch, cell, pinned):
    size, d_loss, d_conf, trials, counts = cell
    monkeypatch.setattr(montecarlo, "_count_outcomes", lambda *chunk: [counts])
    sc = Scenario(codebook_size=size, d_loss=d_loss, d_conf=d_conf, alpha=0.5)
    est = estimate_distortion(sc, 0.1, 0.2, PERCEPTION, trials, seed=1)
    assert (est.mean.hex(), est.std_error.hex()) == pinned


def test_worker_count_does_not_change_the_estimate():
    sc = make_scenario(size=4, alpha=0.5)
    trials = 3 * CHUNK_TRIALS + 1000
    solo = estimate_distortion(sc, 0.2, 0.3, CENTER, trials, seed=9, workers=1)
    pooled = estimate_distortion(sc, 0.2, 0.3, CENTER, trials, seed=9, workers=3)
    assert solo.mean == pooled.mean
    assert solo.std_error == pooled.std_error


#: Corner, mixed and repeated strategies in one walk: the corners read
#: neither the branch uniform nor, but for exclusion, the exclusion draw.
SHARED = (PERCEPTION, DROPPING, CENTER, EXCLUSION, NEAR_DROPPING,
          ReceiverStrategy(0.5, 0.5, 0.0), PERCEPTION, ReceiverStrategy(0.0, 0.25, 0.75))


def assert_shared_walk_is_each_solo_walk(sc, eps_p, eps_s, strategies, trials, seed):
    shared = montecarlo.estimate_distortions(sc, eps_p, eps_s, strategies, trials, seed)
    assert len(shared) == len(strategies)
    for strat, est in zip(strategies, shared):
        solo = estimate_distortion(sc, eps_p, eps_s, strat, trials, seed)
        assert (est.mean.hex(), est.std_error.hex()) == (solo.mean.hex(),
                                                         solo.std_error.hex()), strat


@pytest.mark.parametrize("block", [montecarlo.BLOCK_TRIALS, 1000])
@pytest.mark.parametrize("codebook", [3, 1 << 64])
def test_a_shared_walk_counts_each_strategy_as_its_solo_walk(monkeypatch, codebook, block):
    """Every skip rule: alpha, eps_p and eps_s at 0, inside and at 1 (alpha 0
    draws no keys and decodes none), so each draw is skipped in some cell, for
    one strategy and not another, or for all of them."""
    monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", block)
    for alpha in (0.0, 0.6, 1.0):
        sc = make_scenario(size=codebook, alpha=alpha)
        for eps_p in (0.0, 0.3, 1.0):
            for eps_s in (0.0, 0.4, 1.0):
                assert_shared_walk_is_each_solo_walk(sc, eps_p, eps_s, SHARED, 2500, 53)
    # one strategy alone, and the corners alone, which draw no branch uniform
    sc = make_scenario(size=codebook, alpha=0.6)
    assert_shared_walk_is_each_solo_walk(sc, 0.3, 0.4, (CENTER,), 2500, 54)
    assert_shared_walk_is_each_solo_walk(sc, 0.3, 0.4, (PERCEPTION, DROPPING), 2500, 55)
    assert_shared_walk_is_each_solo_walk(sc, 0.3, 0.4, (DROPPING, EXCLUSION), 2500, 56)


def test_a_shared_walk_over_several_chunks_counts_each_strategy_as_its_solo_walk():
    sc = make_scenario(size=5, alpha=0.6)
    assert_shared_walk_is_each_solo_walk(sc, 0.3, 0.4, SHARED, CHUNK_TRIALS + 12345, 57)
