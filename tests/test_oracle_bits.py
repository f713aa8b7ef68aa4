"""The enumeration oracle keeps every bit of its per-key ``%`` loop.

``per_key_oracle`` below is a frozen copy of the key loop the oracle ran
when each key's cipher was two int64 ``%`` passes: ``(w + k) % S`` and
``(s - k) % S``, one key at a time, with a one-entry memo on the two masks
and the key-channel pmfs.  It shares no code with ``pld.distortion`` beyond
the public channel pmfs, so the two can police each other.
"""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pld.channels import primary_pmf, secondary_pmf
from pld.cli import load_scenario_file
from pld.core import ENUMERATION_CAP, NULL_KEY, NULL_MSG, Scenario
from pld.distortion import (
    DROPPING,
    EXCLUSION,
    PERCEPTION,
    ReceiverStrategy,
    enumeration_oracle,
)
from pld.fbl import FblCode, packet_error_rate, snr_db_to_linear

PINNED_STRATEGIES = (PERCEPTION, DROPPING, EXCLUSION,
                     ReceiverStrategy(1 / 3, 1 / 3, 1 / 3),
                     ReceiverStrategy(0.2, 0.5, 0.3))


def distance_rows(words, d_conf):
    size = words.size
    rowsum = np.zeros(size)
    for lo in range(0, size, 512):
        w_hat = np.arange(lo, min(lo + 512, size))
        rowsum += np.where(words[:, None] == w_hat[None, :], 0.0, d_conf).sum(axis=1)
    return rowsum


def no_key_mixes(seen, rowsum, weights, d_conf):
    b1, b2_dropping, b3 = weights
    d_seen = np.where(seen, 0.0, d_conf)
    d_exclusion = (rowsum - d_seen) / (seen.size - 1)
    return b1 * d_seen + b2_dropping + b3 * d_exclusion


def per_key_oracle(scenario, channels, strategies):
    """Totals of every pair and strategy, one key's ``%`` cipher at a time."""
    size = scenario.codebook_size
    totals = np.zeros((len(channels), len(strategies)))
    d_loss, d_conf = scenario.d_loss, scenario.d_conf
    words = np.arange(size)
    rowsum = distance_rows(words, d_conf)
    branches = [
        (primary_pmf(0, 0, eps_p), primary_pmf(NULL_MSG, 0, eps_p) * d_loss, eps_s)
        for eps_p, eps_s in channels
    ]
    betas = np.reshape([(s.beta1, s.beta2, s.beta3) for s in strategies], (-1, 3, 1))
    b1, b2, b3 = betas.transpose(1, 0, 2)
    weights = (b1, b2 * np.full(size, d_loss), b3)
    block = np.empty((len(strategies), size))

    mix = no_key_mixes(words == words, rowsum, weights, d_conf)
    for row, (deliver, erasure, eps_s) in zip(totals, branches):
        np.multiply(deliver * secondary_pmf(NULL_KEY, NULL_KEY, eps_s), mix, out=block)
        block += erasure
        row += (1.0 - scenario.alpha) * block.mean(axis=1)

    key_weight = scenario.alpha / (size - 1)
    terms, last = np.empty_like(totals), b""
    for k in range(1, size):
        ciphertexts = (words + k) % size
        seen, decoded = ciphertexts == words, (ciphertexts - k) % size == words
        pmfs = [(secondary_pmf(k, k, eps_s), secondary_pmf(NULL_KEY, k, eps_s))
                for *_, eps_s in branches]
        signature = seen.tobytes() + decoded.tobytes() + np.array(pmfs).tobytes()
        if signature != last:
            last = signature
            d_decoded = np.where(decoded, 0.0, d_conf)
            mix = no_key_mixes(seen, rowsum, weights, d_conf)
            for i, (p_decoded, p_lost) in enumerate(pmfs):
                deliver, erasure, _ = branches[i]
                np.multiply(p_lost, mix, out=block)
                block += p_decoded * d_decoded
                block *= deliver
                block += erasure
                np.multiply(key_weight, block.mean(axis=1), out=terms[i])
        totals += terms
    return totals


SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def shipped_pairs():
    """(eps, eps) at each shipped scenario's Bob and Eve SNR."""
    pairs = []
    for name in ("large_codebook.json", "small_codebook.json"):
        scenario = load_scenario_file(str(SCENARIO_DIR / name)).scenario
        code = FblCode.from_scenario(scenario)
        for snr in (scenario.snr_bob_db, scenario.snr_eve_db):
            eps = packet_error_rate(snr_db_to_linear(snr), code)
            pairs.append((eps, eps))
    return pairs


PAIRS = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.1, 0.2), (0.5, 0.5),
         *shipped_pairs()]
BASE = Scenario(codebook_size=2, d_loss=1.3, d_conf=5.0, alpha=0.7)


@pytest.mark.parametrize("size",
                         [2, 3, 4, 5, 17, 63, 64, 65, 257, 4095, ENUMERATION_CAP])
def test_oracle_matches_per_key_loop_bit_for_bit(size):
    scenario = replace(BASE, codebook_size=size)
    got = enumeration_oracle(scenario, PAIRS, PINNED_STRATEGIES)
    want = per_key_oracle(scenario, PAIRS, PINNED_STRATEGIES)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
