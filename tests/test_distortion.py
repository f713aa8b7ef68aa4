"""Closed-form distortion quantities against literal-summation oracles.

The oracles in this file re-derive expectations straight from the channel
pmfs, the cipher, and the distance function — no delta-term algebra — so
they stay independent of the formulas under test.
"""
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pld import distortion
from pld.channels import primary_pmf
from pld.cli import load_scenario_file
from pld.core import ENUMERATION_CAP, NULL_KEY, NULL_MSG, Scenario, distance
from pld.crypto import ShiftCipher
from pld.distortion import (
    DROPPING,
    EXCLUSION,
    PERCEPTION,
    DeltaTerms,
    ReceiverStrategy,
    delta_terms,
    deterministic_pipeline_distortion,
    distortion_mismatched_key,
    distortion_synchronized_key,
    enumeration_oracle,
    opportunistic_distortion,
)
from pld.fbl import FblCode, packet_error_rate, snr_db_to_linear

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
CENTER = ReceiverStrategy(1 / 3, 1 / 3, 1 / 3)


def make_scenario(size=4, alpha=0.5, d_loss=1.0, d_conf=10.0):
    return Scenario(codebook_size=size, d_loss=d_loss, d_conf=d_conf, alpha=alpha)


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(b))


def keyed_distortion_oracle(scenario, eps_p, k, k_hat):
    """Literal sum over meanings and primary-channel outcomes for fixed keys."""
    size = scenario.codebook_size
    cipher = ShiftCipher(size)
    total = 0.0
    for w in range(size):
        s = cipher.encrypt(w, k)
        for s_hat in list(range(size)) + [NULL_MSG]:
            p = primary_pmf(s_hat, s, eps_p)
            total += (
                p * distance(w, cipher.decrypt(s_hat, k_hat), scenario)
            )
    return total / size


# ---------------------------------------------------------------------------
# fixed-key closed forms
# ---------------------------------------------------------------------------

def test_synchronized_key_examples():
    sc = make_scenario()
    assert distortion_synchronized_key(sc, 0.0, 2) == 0.0
    assert distortion_synchronized_key(sc, 0.2, 2) == pytest.approx(0.2, rel=1e-12)
    assert distortion_synchronized_key(sc, 0.2, NULL_KEY) == pytest.approx(
        0.2, rel=1e-12
    )


def test_synchronized_key_matches_oracle():
    sc = make_scenario(size=4)
    for k in (1, 2, 3, NULL_KEY):
        for eps_p in (0.0, 0.2, 0.7, 1.0):
            got = distortion_synchronized_key(sc, eps_p, k)
            want = keyed_distortion_oracle(sc, eps_p, k, k)
            assert rel_gap(got, want) < 1e-12


def test_mismatched_key_examples():
    sc = make_scenario(size=8)
    assert distortion_mismatched_key(sc, 0.3, 5, 5) == pytest.approx(
        0.3, rel=1e-12
    )
    assert distortion_mismatched_key(sc, 0.0, 1, 2) == 10.0
    assert distortion_mismatched_key(sc, 0.0, 1, NULL_KEY) == 10.0


def test_mismatched_key_matches_oracle_for_all_pairs():
    sc = make_scenario(size=8)
    keys = [NULL_KEY] + list(range(1, 8))
    for k in keys:
        for k_hat in keys:
            got = distortion_mismatched_key(sc, 0.25, k, k_hat)
            want = keyed_distortion_oracle(sc, 0.25, k, k_hat)
            assert rel_gap(got, want) < 1e-12


def test_key_arguments_validated():
    sc = make_scenario(size=8)
    with pytest.raises(ValueError):
        distortion_synchronized_key(sc, 0.1, 0)
    with pytest.raises(ValueError):
        distortion_mismatched_key(sc, 0.1, 8, 1)
    with pytest.raises(ValueError):
        distortion_synchronized_key(sc, 1.2, 1)


# ---------------------------------------------------------------------------
# pipeline and delta terms
# ---------------------------------------------------------------------------

def test_pipeline_limits():
    sc = make_scenario(alpha=0.99)
    assert deterministic_pipeline_distortion(sc, 1.0, 0.3).total == 1.0
    assert deterministic_pipeline_distortion(sc, 0.0, 0.0).total == 0.0


def test_pipeline_reference_value():
    sc = make_scenario(alpha=0.99)
    report = deterministic_pipeline_distortion(sc, 0.1, 0.2)
    assert report.total == pytest.approx(1.882, rel=1e-12)
    assert report.loss_part == pytest.approx(0.1, rel=1e-12)
    assert report.confusion_part == pytest.approx(1.782, rel=1e-12)
    assert report.strategy_used == "deterministic"


def test_delta_terms_reference_values():
    sc = make_scenario(size=2, alpha=0.99)
    d = delta_terms(sc, 0.05)
    assert d.delta1 == pytest.approx(0.495, rel=1e-12)
    assert d.delta2 == pytest.approx(0.0595, rel=1e-12)
    assert d.delta3 == pytest.approx(0.1, rel=1e-12)


def test_delta_terms_degenerate_rates():
    sc = make_scenario(size=2, alpha=0.0)
    assert delta_terms(sc, 0.4).as_tuple() == (0.0, 1.0, 10.0)
    d = delta_terms(make_scenario(size=2, alpha=0.99), 0.0)
    assert d.delta1 == 0.0
    assert d.delta2 == pytest.approx(0.01, rel=1e-12)
    assert d.delta3 == pytest.approx(0.1, rel=1e-12)


def test_delta3_exclusion_success_vanishes_at_two_codewords():
    # with two codewords, excluding the received one always leaves the truth
    sc = make_scenario(size=2, alpha=1.0)
    for eps_s in (0.0, 0.3, 1.0):
        assert delta_terms(sc, eps_s).delta3 == 0.0


def test_delta3_at_huge_codebook_uses_full_confusion():
    sc = make_scenario(size=1 << 64, alpha=0.5)
    d = delta_terms(sc, 0.3)
    # (S-2)/(S-1) rounds to 1 at this cardinality
    assert d.delta3 == pytest.approx((0.3 * 0.5 + 0.5) * 10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# opportunistic receiver
# ---------------------------------------------------------------------------

def test_perception_reduces_to_pipeline():
    rng = np.random.default_rng(12)
    for _ in range(100):
        alpha, eps_p, eps_s = rng.random(3)
        sc = make_scenario(size=16, alpha=float(alpha))
        a = opportunistic_distortion(sc, eps_p, eps_s, PERCEPTION).total
        b = deterministic_pipeline_distortion(sc, eps_p, eps_s).total
        assert rel_gap(a, b) < 1e-12


def test_pure_dropping_value():
    sc = make_scenario(size=4, alpha=0.7)
    got = opportunistic_distortion(sc, 0.0, 0.4, DROPPING).total
    assert got == pytest.approx((0.4 * 0.7 + 0.3) * 1.0, rel=1e-12)


def test_exclusion_perfect_at_two_codewords():
    sc = make_scenario(size=2, alpha=1.0)
    report = opportunistic_distortion(sc, 0.0, 0.3, EXCLUSION)
    assert report.total == 0.0
    assert report.confusion_part == 0.0


def test_distortion_affine_in_strategy():
    sc = make_scenario(size=4, alpha=0.8)
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.dirichlet((1.0, 1.0, 1.0))
        v = rng.dirichlet((1.0, 1.0, 1.0))
        lam = float(rng.random())
        mix = lam * u + (1.0 - lam) * v
        d_mix = opportunistic_distortion(sc, 0.2, 0.3, ReceiverStrategy(*mix)).total
        d_sep = lam * opportunistic_distortion(
            sc, 0.2, 0.3, ReceiverStrategy(*u)
        ).total + (1.0 - lam) * opportunistic_distortion(
            sc, 0.2, 0.3, ReceiverStrategy(*v)
        ).total
        assert rel_gap(d_mix, d_sep) < 1e-12


def test_report_decomposition_and_parts():
    sc = make_scenario(size=4, alpha=0.5)
    report = opportunistic_distortion(sc, 0.3, 0.4, CENTER)
    assert abs(report.total - (report.loss_part + report.confusion_part)) <= 1e-12
    d = delta_terms(sc, 0.4)
    assert report.loss_part == pytest.approx(
        0.3 * 1.0 + 0.7 * (1 / 3) * d.delta2, rel=1e-12
    )
    assert report.confusion_part == pytest.approx(
        0.7 * (1 / 3) * (d.delta1 + d.delta3), rel=1e-12
    )


def test_distortion_nondecreasing_in_error_rates():
    sc = make_scenario(size=4, alpha=0.8)
    eps_grid = [0.0, 0.1, 0.3, 0.6, 1.0]
    # any fixed mix degrades as the key channel worsens
    for strat in (PERCEPTION, DROPPING, EXCLUSION, CENTER):
        for eps_p in eps_grid:
            values = [
                opportunistic_distortion(sc, eps_p, e, strat).total
                for e in eps_grid
            ]
            assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
    # the best achievable cost also degrades as the data channel worsens
    # (a fixed mix need not: losing a packet can beat a costly fallback)
    for eps_s in eps_grid:
        d = delta_terms(sc, eps_s)
        best = [
            min(e * 1.0 + (1.0 - e) * dd for dd in d.as_tuple())
            for e in eps_grid
        ]
        assert all(b - a >= -1e-12 for a, b in zip(best, best[1:]))


def test_strategy_weight_validation():
    with pytest.raises(ValueError):
        ReceiverStrategy(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        ReceiverStrategy(-0.1, 0.6, 0.5)
    with pytest.raises(ValueError):
        DeltaTerms(-1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def test_enumeration_matches_closed_form_reference_point():
    sc = make_scenario(size=4, alpha=0.5)
    strat = ReceiverStrategy(0.2, 0.5, 0.3)
    closed = opportunistic_distortion(sc, 0.3, 0.4, strat).total
    ((oracle,),) = enumeration_oracle(sc, [(0.3, 0.4)], [strat])
    assert abs(closed - oracle) / abs(oracle) < 1e-10


def test_enumeration_perfect_channels():
    sc = make_scenario(size=5, alpha=0.4)
    assert enumeration_oracle(sc, [(0.0, 0.0)], [PERCEPTION]).tolist() == [[0.0]]


def test_enumeration_exclusion_reference_point():
    sc = make_scenario(size=2, alpha=0.99)
    ((got,),) = enumeration_oracle(sc, [(0.0, 0.05)], [EXCLUSION])
    assert got == pytest.approx(0.1, rel=1e-10)


def test_enumeration_rejects_oversized_codebook():
    sc = make_scenario(size=8192)
    with pytest.raises(ValueError, match="cap"):
        enumeration_oracle(sc, [(0.1, 0.1)], [PERCEPTION])


def largest_admitted_d_conf(size):
    """The largest d_conf whose S * d_conf stays within half the largest float."""
    d_conf = sys.float_info.max / 2 / size
    while size * float(np.nextafter(d_conf, np.inf)) <= sys.float_info.max / 2:
        d_conf = float(np.nextafter(d_conf, np.inf))
    while not size * d_conf <= sys.float_info.max / 2:
        d_conf = float(np.nextafter(d_conf, 0.0))
    return d_conf


@pytest.mark.parametrize("size,d_conf", [(2, 1e308), (4096, 1e307)])
def test_enumeration_rejects_sums_beyond_the_float_range(size, d_conf):
    sc = make_scenario(size=size, d_conf=d_conf)
    assert distortion.enumeration_limit(sc).startswith("float range")
    with pytest.raises(ValueError, match="float range"):
        enumeration_oracle(sc, [(0.1, 0.1)], [PERCEPTION])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [2, 3, 257, 4095, ENUMERATION_CAP])
def test_enumeration_is_finite_at_the_largest_admitted_d_conf(size):
    # at S = 257 and 4095, S * d_conf just below the largest float overflows
    # the sums' rounding; half of it leaves room
    d_conf = largest_admitted_d_conf(size)
    for d_loss in (d_conf / 3, float(np.nextafter(d_conf, 0.0))):
        sc = make_scenario(size=size, alpha=0.99, d_loss=d_loss, d_conf=d_conf)
        assert distortion.enumeration_limit(sc) is None
        pairs = [(0.0, 0.0), (0.1, 0.2), (0.5, 0.5), (1e-9, 1e-9), (1.0, 0.0),
                 (0.0, 1.0)]
        totals = enumeration_oracle(sc, pairs, PINNED_STRATEGIES)
        assert np.isfinite(totals).all()


# Oracle totals at d_loss=1.3, d_conf=5, alpha=0.7, recorded from the
# one-strategy-per-call oracle that preceded the grouped one:
# (S, eps_p, eps_s) -> the four validate-gate strategies, then
# ReceiverStrategy(0.2, 0.5, 0.3).  These levels, unlike d_loss=1 and
# d_conf=10, make a reordered mix expression round differently.
PINNED_STRATEGIES = (PERCEPTION, DROPPING, EXCLUSION, CENTER,
                     ReceiverStrategy(0.2, 0.5, 0.3))
PINNED_ORACLE = {
    (3, 0.0, 0.0): (
        0.0, 0.39000000000000007, 1.5000000000000002, 0.63, 0.645,
    ),
    (3, 0.1, 0.2): (
        0.76, 0.6448, 1.7950000000000004, 1.0665999999999998,
        1.0129000000000001,
    ),
    (3, 0.5, 0.5): (
        1.5249999999999997, 1.0725, 1.8375, 1.4783333333333333, 1.3925,
    ),
    (3, 1.0, 1.0): (
        1.2999999999999998, 1.2999999999999998, 1.2999999999999998,
        1.2999999999999998, 1.2999999999999998,
    ),
    (16, 0.0, 0.0): (
        0.0, 0.39000000000000007, 1.5000000000000002, 0.63, 0.645,
    ),
    (16, 0.1, 0.2): (
        0.76, 0.6448000000000004, 2.0679999999999987, 1.1576,
        1.0947999999999998,
    ),
    (16, 0.5, 0.5): (
        1.525, 1.0725, 2.2166666666666672, 1.6047222222222224,
        1.5062499999999994,
    ),
    (16, 1.0, 1.0): (
        1.2999999999999998, 1.2999999999999998, 1.2999999999999998,
        1.2999999999999998, 1.2999999999999998,
    ),
    (257, 0.0, 0.0): (
        0.0, 0.39000000000000007, 1.5000000000000002, 0.6300000000000001,
        0.645,
    ),
    (257, 0.1, 0.2): (
        0.760000000000002, 0.6447999999999952, 2.1075390624999857,
        1.1707796874999927, 1.1066617187499959,
    ),
    (257, 0.5, 0.5): (
        1.5249999999999981, 1.0725000000000044, 2.271582031249997,
        1.623027343749991, 1.5227246093749909,
    ),
    (257, 1.0, 1.0): (
        1.300000000000006, 1.300000000000006, 1.300000000000006,
        1.300000000000006, 1.300000000000006,
    ),
}


@pytest.mark.parametrize("size,eps_p,eps_s", PINNED_ORACLE)
def test_grouped_oracle_keeps_pinned_bits(size, eps_p, eps_s):
    sc = make_scenario(size=size, alpha=0.7, d_loss=1.3, d_conf=5.0)
    # a repeated strategy and a reversed order ride along
    strategies = PINNED_STRATEGIES + PINNED_STRATEGIES[:1]
    (grouped,) = enumeration_oracle(sc, [(eps_p, eps_s)], strategies)
    assert isinstance(grouped, np.ndarray) and grouped.shape == (6,)
    pinned = PINNED_ORACLE[size, eps_p, eps_s]
    want = [repr(x) for x in pinned + pinned[:1]]
    assert [repr(float(x)) for x in grouped] == want
    singles = [enumeration_oracle(sc, [(eps_p, eps_s)], [s])[0, 0] for s in strategies]
    assert [repr(float(x)) for x in singles] == want
    (backwards,) = enumeration_oracle(sc, [(eps_p, eps_s)], strategies[::-1])
    assert [repr(float(x)) for x in backwards] == want[::-1]
    # one call over this size's four pinned pairs, forwards and reversed
    pairs = [cell[1:] for cell in PINNED_ORACLE if cell[0] == size]
    for order in (pairs, pairs[::-1]):
        rows = enumeration_oracle(sc, order, PINNED_STRATEGIES)
        assert rows.shape == (4, 5)
        assert [[repr(float(x)) for x in row] for row in rows] == [
            [repr(x) for x in PINNED_ORACLE[(size, *pair)]] for pair in order
        ]


# Oracle totals of `pld validate` on scenarios/small_codebook.json with the
# codebook at the enumeration cap, recorded from the one-call-per-pair oracle
# that preceded the one-call-per-validate one: the pairs (eps_bob, eps_bob),
# (eps_eve, eps_eve), (0.1, 0.2), (0.5, 0.5), then the four gate strategies.
GATE_PAIR_ORACLE = (
    (0.0033159465832839088, 0.010602421111640505, 0.10328478119971478,
     0.03906771629823144),
    (2.974999999999705, 0.752499999999925, 3.024395604395398,
     2.250631868131866),
    (1.8820000000000783, 0.28719999999999163, 1.971564835164777,
     1.3802549450550161),
    (2.974999999999705, 0.752499999999925, 3.024395604395398,
     2.250631868131866),
)


def test_oracle_keeps_pinned_bits_at_validate_size():
    loaded = load_scenario_file(str(SCENARIO_DIR / "small_codebook.json"))
    sc = replace(loaded.scenario, codebook_size=ENUMERATION_CAP)
    code = FblCode.from_scenario(sc)
    eps_bob = packet_error_rate(snr_db_to_linear(sc.snr_bob_db), code)
    eps_eve = packet_error_rate(snr_db_to_linear(sc.snr_eve_db), code)
    assert (repr(eps_bob), repr(eps_eve)) == ("0.0003042993857462194", "0.5")
    pairs = [(eps_bob, eps_bob), (eps_eve, eps_eve), (0.1, 0.2), (0.5, 0.5)]
    rows = enumeration_oracle(sc, pairs, PINNED_STRATEGIES[:4])
    assert [[repr(float(x)) for x in row] for row in rows] == [
        [repr(x) for x in pinned] for pinned in GATE_PAIR_ORACLE
    ]


@pytest.mark.parametrize(
    "n_pairs,n_strategies", [(0, 5), (3, 0), (1, 1), (4, 5), (9, 2)]
)
def test_oracle_builds_distance_rows_once_per_call(monkeypatch, n_pairs, n_strategies):
    calls = []
    original = distortion._distance_rows

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(distortion, "_distance_rows", counted)
    sc = make_scenario(size=16)
    pairs = [(0.1 * i, 0.05 * i) for i in range(n_pairs)]
    rows = enumeration_oracle(sc, pairs, PINNED_STRATEGIES[:n_strategies])
    assert rows.shape == (n_pairs, n_strategies)
    # nothing to fill, no pass
    assert len(calls) == (1 if n_pairs and n_strategies else 0)


@pytest.mark.parametrize("bad", [
    (-0.1, 0.2), (0.1, 1.5), (float("nan"), 0.2), (0.1, float("nan")),
])
def test_oracle_checks_every_pair_before_the_pass(monkeypatch, bad):
    def no_pass(*args):
        raise AssertionError("the O(S^2) pass started")

    monkeypatch.setattr(distortion, "_distance_rows", no_pass)
    sc = make_scenario(size=ENUMERATION_CAP)
    for pairs in ([bad], [(0.1, 0.2), (0.5, 0.5), bad], [bad, (0.1, 0.2)]):
        with pytest.raises(ValueError, match="must lie in"):
            enumeration_oracle(sc, pairs, PINNED_STRATEGIES)


def test_oracle_on_no_pairs_is_empty():
    rows = enumeration_oracle(make_scenario(size=5), [], PINNED_STRATEGIES)
    assert isinstance(rows, np.ndarray) and rows.shape == (0, 5)


# The oracle reuses a key's terms while its cipher masks and key-channel pmfs
# repeat the previous key's; under the shift cipher every key k >= 1 repeats
# key 1.  A key-dependent change must still reach that key's terms.

def _key_channel_patch(monkeypatch, eps_of_key):
    """Serve each key k >= 1 the key channel at eps_of_key(k, eps_s)."""
    original = distortion.secondary_pmf

    def patched(k_hat, k, eps_s):
        return original(k_hat, k, eps_s if k is NULL_KEY else eps_of_key(k, eps_s))

    monkeypatch.setattr(distortion, "secondary_pmf", patched)


# eps_s / 2, then a change below float32 resolution: pmfs compare exactly
@pytest.mark.parametrize("factor", [0.5, 1.0 + 2.0**-30])
def test_oracle_sees_a_change_to_one_keys_channel(monkeypatch, factor):
    pairs = [(0.1, 0.2), (0.5, 0.5)]
    # a key inside the first block of keys, the first key of a later block,
    # and the last key, in a short block
    for size, key in [(16, 2), (ENUMERATION_CAP, 1 + 3 * distortion.KEY_BLOCK),
                      (ENUMERATION_CAP, ENUMERATION_CAP - 1)]:
        sc = make_scenario(size=size, alpha=0.7, d_loss=1.3, d_conf=5.0)
        plain = enumeration_oracle(sc, pairs, PINNED_STRATEGIES)
        moved = enumeration_oracle(sc, [(0.5, 0.5 * factor)], PINNED_STRATEGIES)[0]
        # only this key of the second pair sees eps_s * factor
        with monkeypatch.context() as patch:
            _key_channel_patch(
                patch,
                lambda k, eps_s: eps_s * factor if (k, eps_s) == (key, 0.5) else eps_s,
            )
            patched = enumeration_oracle(sc, pairs, PINNED_STRATEGIES)
        assert [repr(float(x)) for x in patched[0]] == [
            repr(float(x)) for x in plain[0]
        ]
        assert all(patched[1] != plain[1])
        # the key carries 1/(S-1) of the active mass; the inactive term has no key
        share = (moved - plain[1]) / (size - 1)
        assert patched[1] == pytest.approx(plain[1] + share, rel=1e-12)


def test_oracle_with_every_keys_channel_changed_is_that_channel(monkeypatch):
    sc = make_scenario(size=16, alpha=0.7, d_loss=1.3, d_conf=5.0)
    pairs = [(0.1, 0.2), (0.5, 0.5)]
    want = enumeration_oracle(sc, [(0.1, 0.1), (0.5, 0.25)], PINNED_STRATEGIES)
    _key_channel_patch(monkeypatch, lambda k, eps_s: eps_s / 2)
    got = enumeration_oracle(sc, pairs, PINNED_STRATEGIES)
    assert [[repr(float(x)) for x in row] for row in got] == [
        [repr(float(x)) for x in row] for row in want
    ]


@pytest.mark.parametrize("size", [3, 16, ENUMERATION_CAP])
@pytest.mark.parametrize("n_pairs", [1, 4])
def test_oracle_runs_key_arithmetic_for_the_inactive_term_and_key_one(
    monkeypatch, size, n_pairs
):
    calls = []
    original = distortion._no_key_mixes

    def counted(seen, *args):
        calls.append(seen.copy())
        return original(seen, *args)

    monkeypatch.setattr(distortion, "_no_key_mixes", counted)
    sc = make_scenario(size=size)
    pairs = [(0.1 * i, 0.05 * i) for i in range(n_pairs)]
    enumeration_oracle(sc, pairs, PINNED_STRATEGIES)
    # the inactive term's plaintext codewords, then key 1's ciphertexts
    assert [seen.all() for seen in calls] == [True, False]
    assert not calls[1].any()
