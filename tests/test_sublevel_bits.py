"""The array feasible-set builder keeps every bit of the scalar interval walk.

``scalar_sublevel_intervals`` below is a frozen copy of the walk the
optimizer used before its feasible sets were built as arrays: a piece ends
at the next start (1.0 for the last), its values at both ends are
``c + m*x``, a crossing is ``(level - c)/m`` clamped to the piece, and a
piece's part joins the interval before it when it starts at or before that
interval's end.  It shares no code with ``pld.strategy``, so the two can
police each other.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from pld.cli import load_scenario_file, snr_grid
from pld.fbl import FblCode, error_rates
from pld.strategy import receiver_curves, sublevel_intervals

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
LEVELS = (0.001, 0.01, 0.1, 1.0, 5.0)


def scalar_sublevel_intervals(pieces, level):
    """Intervals where the curve of ``(start, intercept, slope)`` pieces is <= level."""
    found = []
    for k, (lo, c, m) in enumerate(pieces):
        hi = pieces[k + 1][0] if k + 1 < len(pieces) else 1.0
        v_lo, v_hi = c + m * lo, c + m * hi
        if v_lo <= level and v_hi <= level:
            seg = (lo, hi)
        elif v_lo > level and v_hi > level:
            continue
        else:
            x = min(max((level - c) / m, lo), hi)
            seg = (lo, x) if v_lo <= level else (x, hi)
        if found and seg[0] <= found[-1][1]:
            found[-1] = (found[-1][0], max(found[-1][1], seg[1]))
        else:
            found.append(seg)
    return found


def scalar_stack(curves, level):
    """The scalar walk on every row of a ``(3, n, w)`` stack, padded with nan,
    and each row's interval count."""
    n, width = curves.shape[1:]
    out = np.full((n, width, 2), math.nan)
    counts = []
    for i in range(n):
        row = curves[:, i]
        found = scalar_sublevel_intervals(row[:, row[0] < math.inf].T.tolist(), level)
        out[i, :len(found)] = np.reshape(found, (-1, 2))
        counts.append(len(found))
    return out, counts


def assert_same_bits(curves, level):
    expected, counts = scalar_stack(curves, level)
    got = sublevel_intervals(curves, level)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    return counts


def shipped_axis_curves(name):
    """Curves on a 20,001-point -40..60 dB axis of a shipped scenario."""
    scenario = load_scenario_file(str(SCENARIO_DIR / name)).scenario
    eps = error_rates(FblCode.from_scenario(scenario), snr_grid(-40.0, 60.0, 0.005))
    assert len(eps) == 20001
    return receiver_curves(scenario, eps, eps)


@pytest.mark.parametrize("name", ["large_codebook.json", "small_codebook.json"])
def test_shipped_axes_match_scalar_walk_bit_for_bit(name):
    curves = shipped_axis_curves(name)
    counts = set()
    for level in LEVELS:
        counts.update(assert_same_bits(curves, level))
    assert counts == {0, 1, 2}


# one curve as a stack: rising to 1 at 0.5 and falling back to 0 at 1
TENT = np.array([[[0.0, 0.5]], [[0.0, 2.0]], [[2.0, -2.0]]])


@pytest.mark.parametrize(
    "level,intervals",
    [(0.0, [(0.0, 0.0), (1.0, 1.0)]),
     (0.5, [(0.0, 0.25), (0.75, 1.0)]),
     (1.0, [(0.0, 1.0)]),  # the value at the breakpoint
     (1.5, [(0.0, 1.0)]),
     (-1.0, [])],
)
def test_tent_matches_scalar_walk(level, intervals):
    assert scalar_sublevel_intervals(TENT[:, 0].T.tolist(), level) == intervals
    assert assert_same_bits(TENT, level) == [len(intervals)]


def test_flat_curves_match_scalar_walk():
    # nothing is delivered at eps_p = 1: every line is the erasure floor d_loss
    scenario = load_scenario_file(str(SCENARIO_DIR / "small_codebook.json")).scenario
    curves = receiver_curves(scenario, np.ones(3), np.array([0.0, 0.5, 1.0]))
    assert (curves[2] == 0.0).all()
    counts = [assert_same_bits(curves, level) for level in (0.5, 1.0, 1.5)]
    assert counts == [[0] * 3, [1] * 3, [1] * 3]


def test_level_at_a_breakpoint_value_matches_scalar_walk():
    curves = shipped_axis_curves("small_codebook.json")
    row = np.flatnonzero(curves[0, :, 1] < math.inf)[0]
    starts, intercepts, slopes = curves[:, row]
    for k in (1, 2):
        if starts[k] < math.inf:
            level = float(intercepts[k] + slopes[k] * starts[k])
            assert_same_bits(curves[:, row:row + 1], level)
            assert_same_bits(curves, level)
