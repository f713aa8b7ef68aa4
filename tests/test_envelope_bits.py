"""The array envelope builder keeps every bit of the pairwise-knot envelope.

``pairwise_value_of_alpha`` below is a frozen copy of the scalar algorithm
the optimizer used before its curves were built as arrays: the delta terms
at alpha 0 and 1, every pairwise knot inside (0, 1), the sorted distinct
cuts, the first line lowest at each midpoint, and equal neighbours merged.
It shares no code with ``pld.strategy``, so the two can police each other.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from pld.cli import snr_grid
from pld.core import Scenario
from pld.fbl import FblCode, packet_error_rate, snr_db_to_linear
from pld.strategy import lower_envelopes, receiver_curves


def pairwise_envelope(lines):
    """Pieces ``(start, intercept, slope)`` of the minimum of lines on [0, 1]."""
    knots = {0.0, 1.0}
    for i, (ci, mi) in enumerate(lines):
        for cj, mj in lines[i + 1:]:
            if mi != mj:
                x = (cj - ci) / (mi - mj)
                if 0.0 < x < 1.0:
                    knots.add(x)
    cuts = sorted(knots)
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        c, m = min(lines, key=lambda t: t[0] + t[1] * mid)
        if not (pieces and pieces[-1][1] == c and pieces[-1][2] == m):
            pieces.append((a, c, m))
    return pieces


def pairwise_value_of_alpha(scenario, eps_p, eps_s):
    """Pieces of the optimized receiver value, from its three option lines."""
    wrong_ratio = 1.0 - 1.0 / (scenario.codebook_size - 1)

    def deltas(a):
        return (
            eps_s * a * scenario.d_conf,
            (eps_s * a + (1.0 - a)) * scenario.d_loss,
            (eps_s * a * wrong_ratio + (1.0 - a)) * scenario.d_conf,
        )

    deliver = 1.0 - eps_p
    floor = eps_p * scenario.d_loss
    return pairwise_envelope([(floor + deliver * c0, deliver * (c1 - c0))
                              for c0, c1 in zip(deltas(0.0), deltas(1.0))])


def padded(curves):
    """Pieces of several curves as one ``(3, n, w)`` stack padded with +inf."""
    width = max(map(len, curves))
    rows = [c + [(math.inf,) * 3] * (width - len(c)) for c in curves]
    counts = [len(c) for c in curves]
    return np.array(rows, dtype=np.float64).transpose(2, 0, 1), counts


def pairwise_stack(scenario, eps_p, eps_s):
    return padded([pairwise_value_of_alpha(scenario, p, s)
                   for p, s in zip(eps_p, eps_s)])


LARGE = Scenario(codebook_size=1 << 64, d_loss=1.0, d_conf=10.0, alpha=0.99)
SMALL = replace(LARGE, codebook_size=2)
EXTREME = replace(LARGE, d_loss=1e307, d_conf=1.7e308)


def axis_eps(scenario):
    """FBL error rates on a 10,001-point -40..60 dB axis, then 0, 0.5 and 1."""
    code = FblCode.from_scenario(scenario)
    rates = [packet_error_rate(snr_db_to_linear(snr), code)
             for snr in snr_grid(-40.0, 60.0, 0.01)]
    return np.array(rates + [0.0, 0.5, 1.0])


@pytest.mark.parametrize("base", [LARGE, SMALL, EXTREME],
                         ids=["large", "small", "extreme"])
@pytest.mark.parametrize("size", [2, 3, 4096, 1 << 64],
                         ids=["S2", "S3", "S4096", "S2^64"])
def test_axis_builder_matches_pairwise_envelope_bit_for_bit(base, size):
    scenario = replace(base, codebook_size=size)
    eps = axis_eps(scenario)
    expected, counts = pairwise_stack(scenario, eps, eps)
    got = receiver_curves(scenario, eps, eps)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    assert ((got[0] < math.inf).sum(axis=1) == counts).all()


def test_axis_builder_matches_on_unequal_channels():
    rng = np.random.default_rng(2024)
    eps_p = np.concatenate([rng.random(3000), [0.0, 0.5, 1.0, 0.0, 1.0]])
    eps_s = np.concatenate([rng.random(3000), [0.0, 0.5, 1.0, 1.0, 0.0]])
    for scenario in (LARGE, replace(SMALL, d_loss=3.0, d_conf=3.5), EXTREME):
        expected, _ = pairwise_stack(scenario, eps_p, eps_s)
        assert receiver_curves(scenario, eps_p, eps_s).tobytes() == expected.tobytes()


def test_axis_covers_one_two_and_three_piece_envelopes():
    counts = set()
    for scenario in (LARGE, SMALL):
        eps = axis_eps(scenario)
        counts.update(pairwise_stack(scenario, eps, eps)[1])
    assert counts == {1, 2, 3}


DEGENERATE = [
    [(0.5, 0.0), (0.0, 1.0), (1.0, -1.0)],  # three lines through one point
    [(0.0, 1.0), (0.5, 1.0), (1.0, -1.0)],  # two parallel lines
    [(0.2, 0.3), (0.2, 0.3), (1.0, -1.0)],  # two equal lines
    [(1.0, 0.0), (1.0, 0.0), (2.0, 0.0)],  # all flat
    [(0.0, 1.0), (0.0, -1.0), (1.0, -2.0)],  # knots at the domain's ends
    [(0.0, -1.0), (0.0, 1.0), (1.0, -2.0)],  # a knot at -0.0
    [(0.1, 0.3), (0.1 + 1e-17, 0.3 - 1e-16), (0.7, -0.3)],  # near-equal lines
]


def test_builder_matches_pairwise_envelope_on_degenerate_lines():
    lines = np.array(DEGENERATE).transpose(1, 2, 0)  # (k, 2, n)
    expected, _ = padded([pairwise_envelope(case) for case in DEGENERATE])
    assert lower_envelopes(lines[:, 0], lines[:, 1]).tobytes() == expected.tobytes()
