"""Receiver strategy selection and deception-rate optimization."""
import dataclasses
import math

import numpy as np
import pytest

from pld.core import Scenario
from pld.distortion import DeltaTerms, ReceiverStrategy, delta_terms
from pld.fbl import FblCode, error_rates
from pld.strategy import (
    OPTION_LABELS,
    DeceptionPlan,
    _values_at,
    deception_search,
    lower_envelopes,
    optimal_receiver_strategy,
    optimize_deception,
    receiver_curves,
    sublevel_intervals,
)


def make_scenario(size=2, alpha=0.99, **kw):
    return Scenario(codebook_size=size, d_loss=1.0, d_conf=10.0, alpha=alpha, **kw)


def receiver_value_of_alpha(scenario, eps_p, eps_s):
    """``receiver_curves`` at one channel pair, as its ``(3, w)`` row."""
    return receiver_curves(scenario, np.array([eps_p]), np.array([eps_s]))[:, 0]


def value_curve(scenario, snr_db):
    """The envelope the optimizer sees for one party at its default pair."""
    eps = error_rates(FblCode.from_scenario(scenario), [snr_db])[0]
    return receiver_value_of_alpha(scenario, eps, eps)


def value_at(curve, x):
    """A curve (a ``(3, w)`` row or one-curve stack) at x, in Python floats: the
    last piece that starts at or before x, and its intercept + slope*x."""
    starts, intercepts, slopes = np.reshape(curve, (3, -1)).tolist()
    k = max([0] + [i for i, start in enumerate(starts) if start <= x])
    return intercepts[k] + slopes[k] * x


# ---------------------------------------------------------------------------
# single-point strategy choice
# ---------------------------------------------------------------------------

def test_reference_deltas_select_dropping():
    sol = optimal_receiver_strategy(DeltaTerms(0.495, 0.0595, 0.1))
    assert sol.active_option == "dropping"
    assert sol.strategy == ReceiverStrategy(0.0, 1.0, 0.0)
    assert sol.value == pytest.approx(0.0595, rel=1e-12)


def test_three_way_tie_splits_evenly():
    sol = optimal_receiver_strategy(DeltaTerms(0.2, 0.2, 0.2))
    assert sol.active_option == "tie-set"
    s = sol.strategy
    assert s.beta1 == s.beta2 == s.beta3
    assert s.beta1 + s.beta2 + s.beta3 == 1.0
    assert sol.value == pytest.approx(0.2, rel=1e-12)


def test_two_way_tie_within_tolerance():
    sol = optimal_receiver_strategy(DeltaTerms(0.1, 0.1 + 1e-14, 0.5))
    assert sol.active_option == "tie-set"
    assert sol.strategy.beta1 == sol.strategy.beta2 == 0.5
    assert sol.strategy.beta3 == 0.0


def test_solver_beats_simplex_grid():
    rng = np.random.default_rng(77)
    steps = 50
    grid = [
        (i / steps, j / steps, (steps - i - j) / steps)
        for i in range(steps + 1)
        for j in range(steps + 1 - i)
    ]
    for _ in range(20):
        deltas = DeltaTerms(*(10.0 * rng.random(3)))
        sol = optimal_receiver_strategy(deltas)
        best_grid = min(
            b1 * deltas.delta1 + b2 * deltas.delta2 + b3 * deltas.delta3
            for b1, b2, b3 in grid
        )
        assert sol.value <= best_grid + 1e-12


def test_strategy_choice_scale_invariant():
    deltas = DeltaTerms(0.7, 0.3, 0.9)
    base = optimal_receiver_strategy(deltas)
    scaled = optimal_receiver_strategy(DeltaTerms(7.0, 3.0, 9.0))
    assert scaled.strategy == base.strategy
    assert scaled.value == pytest.approx(10.0 * base.value, rel=1e-12)


# ---------------------------------------------------------------------------
# piecewise-linear machinery
# ---------------------------------------------------------------------------

def curve(*pieces):
    """A one-curve stack from (start, intercept, slope) pieces."""
    return np.array(pieces, dtype=np.float64).T[:, None]


def stack(curves):
    """Curves as one ``(3, n, w)`` stack, padded with pieces that start at +inf."""
    out = np.full((3, len(curves), max(c.shape[-1] for c in curves)), math.inf)
    for i, c in enumerate(curves):
        out[:, i, :c.shape[-1]] = c[:, 0]
    return out


def lower_envelope(*lines):
    """The envelope on [0, 1] of (intercept, slope) lines, as a one-curve stack."""
    intercepts, slopes = np.array(lines).T[:, :, None]
    return lower_envelopes(intercepts, slopes)


def pieces_of(curve):
    """A curve's (start, intercept, slope) pieces, without the padding."""
    row = np.reshape(curve, (3, -1))
    return [tuple(p) for p in row[:, row[0] < math.inf].T.tolist()]


def lines_of(curve):
    return [(c, m) for _, c, m in pieces_of(curve)]


def breakpoints(curve):
    return [start for start, _, _ in pieces_of(curve)[1:]]


def intervals_of(spans):
    """The intervals of a one-row ``sublevel_intervals`` result, as tuples."""
    return tuple(map(tuple, spans[0, ~np.isnan(spans[0, :, 0])].tolist()))


def test_lower_envelope_of_crossing_lines():
    env = lower_envelope((1.0, -1.0), (0.0, 1.0))
    assert lines_of(env) == [(0.0, 1.0), (1.0, -1.0)]
    assert breakpoints(env) == pytest.approx([0.5])
    assert value_at(env, 0.25) == pytest.approx(0.25)
    assert value_at(env, 0.75) == pytest.approx(0.25)


def test_lower_envelope_drops_dominated_line():
    env = lower_envelope((0.0, 0.5), (2.0, 0.0), (0.6, -0.5))
    assert lines_of(env) == [(0.0, 0.5), (0.6, -0.5)]


def test_piece_lookup_and_domain():
    env = lower_envelope((0.0, 1.0))
    assert pieces_of(env) == [(0.0, 0.0, 1.0)]
    assert _values_at(env, np.array([[0.5]])).tolist() == [[0.5]]


TENT = curve((0.0, 0.0, 2.0), (0.5, 2.0, -2.0))


def test_sublevel_intervals_of_tent():
    assert intervals_of(sublevel_intervals(TENT, 0.5)) == ((0.0, 0.25), (0.75, 1.0))
    assert intervals_of(sublevel_intervals(TENT, 1.5)) == ((0.0, 1.0),)
    assert intervals_of(sublevel_intervals(TENT, 0.0)) == ((0.0, 0.0), (1.0, 1.0))
    assert intervals_of(sublevel_intervals(TENT, -1.0)) == ()
    assert sublevel_intervals(TENT, 1.5).shape == (1, 2, 2)


# ---------------------------------------------------------------------------
# distortion as a function of the deception rate
# ---------------------------------------------------------------------------

def test_envelope_matches_pointwise_solver():
    for size in (2, 4, 1 << 64):
        sc = make_scenario(size=size)
        row = receiver_value_of_alpha(sc, 0.1, 0.05)
        for alpha in np.linspace(0.0, 1.0, 2001):
            sc_a = dataclasses.replace(sc, alpha=float(alpha))
            sol = optimal_receiver_strategy(delta_terms(sc_a, 0.05))
            direct = 0.1 * sc_a.d_loss + (1.0 - 0.1) * sol.value
            assert abs(value_at(row, float(alpha)) - direct) <= 1e-9 * max(
                1.0, abs(direct)
            )


def test_envelope_is_concave():
    for eps_p, eps_s in ((0.1, 0.05), (0.3, 0.4), (0.0, 0.9)):
        row = receiver_value_of_alpha(make_scenario(size=4), eps_p, eps_s)
        slopes = [m for _, m in lines_of(row)]
        assert all(b <= a + 1e-12 for a, b in zip(slopes, slopes[1:]))


def test_envelope_structure():
    sc = make_scenario(size=2)
    row = receiver_value_of_alpha(sc, 0.1, 0.05)
    at0, at1 = (delta_terms(dataclasses.replace(sc, alpha=a), 0.05).as_tuple()
                for a in (0.0, 1.0))
    options = dict(zip([(0.1 * 1.0 + 0.9 * c0, 0.9 * (c1 - c0))
                        for c0, c1 in zip(at0, at1)], OPTION_LABELS))
    pieces = pieces_of(row)
    assert pieces[0][0] == 0.0 and all(0.0 < x < 1.0 for x in breakpoints(row))
    assert len(pieces) <= 3
    labels = [options[line] for line in lines_of(row)]
    assert labels[0] == "perception"
    assert labels[-1] == "exclusion"
    for (_, c0, m0), (x, c1, m1) in zip(pieces, pieces[1:]):
        assert c0 + m0 * x == pytest.approx(c1 + m1 * x)


def test_envelope_floor_at_zero_deception():
    # without deception the best option costs exactly the erasure floor
    row = receiver_value_of_alpha(make_scenario(size=8), 0.25, 0.3)
    assert value_at(row, 0.0) == 0.25 * 1.0


# ---------------------------------------------------------------------------
# transmitter optimization
# ---------------------------------------------------------------------------

def search_one(value_bob, spans, value_eve):
    """``deception_search`` of one Bob curve and one Eve curve, as a plan."""
    plan = deception_search(value_bob, spans, value_eve)
    intervals = intervals_of(spans)
    return DeceptionPlan(*plan[:, 0, 0].tolist(), intervals, bool(intervals))


def test_deception_search_searches_second_interval():
    spans = sublevel_intervals(TENT, 0.5)
    assert intervals_of(spans) == ((0.0, 0.25), (0.75, 1.0))
    # Eve peaks at her breakpoint 0.9, inside Bob's second interval only
    eve = curve((0.0, 0.0, 1.0), (0.9, 1.8, -1.0))
    plan = search_one(TENT, spans, eve)
    assert plan.feasible
    assert plan.feasible_intervals == intervals_of(spans)
    assert plan.alpha_opt == 0.9
    assert plan.eve_distortion == 0.9
    assert plan.bob_distortion == value_at(TENT, 0.9)


def test_deception_search_without_intervals_is_nan():
    plan = search_one(TENT, sublevel_intervals(TENT, -1.0), TENT)
    assert not plan.feasible
    assert plan.feasible_intervals == ()
    assert all(math.isnan(v) for v in
               (plan.alpha_opt, plan.eve_distortion, plan.bob_distortion))


def test_deception_search_tie_takes_larger_alpha():
    # Eve's curve is flat on [0.5, 1]: the breakpoint and the right end tie
    eve = curve((0.0, 0.0, 1.0), (0.5, 0.5, 0.0))
    plan = search_one(TENT, np.array([[(0.0, 1.0)]]), eve)
    assert plan.alpha_opt == 1.0
    assert plan.eve_distortion == 0.5
    assert plan.bob_distortion == 0.0


def scalar_search(value_bob, intervals, value_eve):
    """Reference: the ascending ``>=`` scan over the set of candidates."""
    if not intervals:
        return (math.nan,) * 3
    candidates = set()
    for lo, hi in intervals:
        candidates.update((lo, hi))
        candidates.update(x for x in breakpoints(value_eve) if lo < x < hi)
    best_alpha, best_value = None, -math.inf
    for alpha in sorted(candidates):
        value = value_at(value_eve, alpha)
        if value >= best_value:
            best_alpha, best_value = alpha, value
    return best_alpha, best_value, value_at(value_bob, best_alpha)


SEARCH_EVES = [
    curve((0.0, 0.2, 0.5)),  # one piece: padded in the stack
    # jumps at 0.25, an endpoint of Bob's tent intervals: the right piece counts
    curve((0.0, 0.0, 1.0), (0.25, 1.0, -1.0)),
    # equal at 0.25 and 0.75, one in each tent interval: 0.75 wins
    curve((0.0, 0.0, 1.0), (0.5, 1.0, -1.0)),
    curve((0.0, 0.0, 1.0), (0.9, 1.8, -1.0)),
    curve((0.0, 0.0, 3.0), (0.1, 0.2, 1.0), (0.8, 1.8, -1.0)),
    curve((0.0, 0.0, 1.0), (0.5, 0.5, 0.0)),  # flat: ties to alpha 1
]


def test_values_at_matches_scalar_lookup():
    # a breakpoint belongs to the piece it starts; x < 0 takes the first piece
    curves = stack([TENT, *SEARCH_EVES])
    xs = np.array([-0.5, -0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.8, 0.9, 0.95, 1.0])
    got = _values_at(curves, np.broadcast_to(xs, (len(curves[0]), len(xs))))
    expected = [[value_at(c, x) for x in xs.tolist()] for c in [TENT, *SEARCH_EVES]]
    assert repr(got.tolist()) == repr(expected)


@pytest.mark.parametrize(
    "level,intervals",
    [(0.5, ((0.0, 0.25), (0.75, 1.0))),  # two intervals
     (0.0, ((0.0, 0.0), (1.0, 1.0))),  # degenerate intervals (x, x)
     (1.5, ((0.0, 1.0),)),
     (-1.0, ())],  # no interval: the nan plan
)
def test_stacked_search_matches_one_curve_and_scalar_scan(level, intervals):
    spans = sublevel_intervals(TENT, level)
    assert intervals_of(spans) == intervals
    stacked = deception_search(TENT, spans, stack(SEARCH_EVES))[:, 0]
    for i, eve in enumerate(SEARCH_EVES):
        plan = search_one(TENT, spans, eve)
        one = (plan.alpha_opt, plan.eve_distortion, plan.bob_distortion)
        row = tuple(float(v[i]) for v in stacked)
        assert repr(row) == repr(one) == repr(scalar_search(TENT, intervals, eve))


def test_search_over_bob_rows_matches_each_row_alone():
    # rows with two, one and no intervals, and curves of one to three pieces
    bobs = [TENT, curve((0.0, 0.0, 1.0)), TENT, SEARCH_EVES[4]]
    levels = [0.5, 0.6, -1.0, 1.0]
    spans = np.full((len(bobs), 3, 2), math.nan)
    for i, (bob, level) in enumerate(zip(bobs, levels)):
        found = sublevel_intervals(bob, level)[0]
        spans[i, :len(found)] = found
    assert (~np.isnan(spans[:, :, 0])).sum(axis=1).tolist() == [2, 1, 0, 1]
    together = deception_search(stack(bobs), spans, stack(SEARCH_EVES))
    for i, bob in enumerate(bobs):
        alone = deception_search(bob, spans[i:i + 1], stack(SEARCH_EVES))[:, 0]
        assert repr(together[:, i].tolist()) == repr(alone.tolist())
    assert np.isnan(together[:, 2]).all() and not np.isnan(together[:, [0, 1, 3]]).any()


def test_stacked_search_edge_cases():
    alpha, eve, _ = deception_search(
        TENT, np.array([[(0.0, 0.25), (0.75, 1.0)]]), stack(SEARCH_EVES[:3])
    )[:, 0]
    # single piece: its right end; breakpoint at an endpoint: 0.25 on the
    # right piece (1 - 0.25), not the left (0.25), which would tie with 0.75
    # and lose; a tie across the intervals: the larger alpha
    assert alpha.tolist() == [1.0, 0.25, 0.75]
    assert eve.tolist() == [0.7, 0.75, 0.25]


def test_optimizer_finds_interior_peak():
    sc = make_scenario(size=1 << 64, snr_bob_db=4.0, snr_eve_db=0.0)
    plan = optimize_deception(sc, 10.0)
    assert plan.feasible
    assert plan.feasible_intervals == ((0.0, 1.0),)
    assert plan.alpha_opt == pytest.approx(1.0 / 5.5, rel=1e-12)
    assert plan.eve_distortion == pytest.approx(21.0 / 22.0, rel=1e-12)


def test_optimizer_respects_bob_constraint():
    sc = make_scenario(size=1 << 64, snr_bob_db=4.0, snr_eve_db=0.0)
    plan = optimize_deception(sc, 0.01)
    vb = value_curve(sc, 4.0)
    assert plan.feasible
    assert value_at(vb, plan.alpha_opt) <= 0.01 + 1e-12


def test_optimizer_reports_infeasible():
    sc = make_scenario(size=1 << 64, snr_bob_db=0.0, snr_eve_db=0.0)
    plan = optimize_deception(sc, 1e-9)
    assert not plan.feasible
    assert plan.feasible_intervals == ()
    assert math.isnan(plan.alpha_opt)
    assert math.isnan(plan.eve_distortion)
    assert math.isnan(plan.bob_distortion)


def test_flat_eve_curve_prefers_largest_alpha():
    # a lossless secondary channel for Eve makes her curve constant, so the
    # ascending tie-break should land on the right edge of the feasible set
    sc = make_scenario(size=4, snr_bob_db=4.0, snr_eve_db=0.0)
    value_bob = receiver_curves(sc, np.array([0.1]), np.array([0.1]))
    value_eve = receiver_curves(sc, np.array([0.5]), np.array([0.0]))
    plan = search_one(value_bob, sublevel_intervals(value_bob, 10.0), value_eve)
    assert plan.feasible
    assert plan.alpha_opt == 1.0
    assert plan.eve_distortion == pytest.approx(0.5, rel=1e-12)


def test_optimizer_input_validation():
    sc = make_scenario(size=4)
    with pytest.raises(ValueError):
        optimize_deception(sc, 0.0)
    with pytest.raises(ValueError):
        optimize_deception(sc, float("nan"))


@pytest.mark.parametrize("d_max", ["x", None, True, 10**400],
                         ids=["str", "None", "bool", "1e400"])
def test_optimizer_rejects_a_cap_that_is_not_a_number(d_max):
    with pytest.raises(ValueError, match="d_max"):
        optimize_deception(make_scenario(size=4), d_max)


def test_optimizer_agrees_with_dense_grid():
    rng = np.random.default_rng(1234)
    grid = np.linspace(0.0, 1.0, 5001)
    for _ in range(20):
        size = int(rng.choice([2, 4, 1 << 16]))
        sc = make_scenario(
            size=size,
            snr_bob_db=float(rng.uniform(-2.0, 5.0)),
            snr_eve_db=float(rng.uniform(-5.0, 3.0)),
        )
        d_max = float(rng.uniform(5e-3, 2.0))
        plan = optimize_deception(sc, d_max)
        vb = value_curve(sc, sc.snr_bob_db)
        ve = value_curve(sc, sc.snr_eve_db)
        feasible = [a for a in grid if value_at(vb, float(a)) <= d_max]
        if not plan.feasible:
            assert not feasible
            continue
        assert value_at(vb, plan.alpha_opt) <= d_max + 1e-12
        assert plan.bob_distortion == pytest.approx(value_at(vb, plan.alpha_opt),
                                                    rel=1e-12)
        assert plan.eve_distortion == pytest.approx(value_at(ve, plan.alpha_opt),
                                                    rel=1e-12)
        if feasible:
            best_grid = max(value_at(ve, float(a)) for a in feasible)
            assert plan.eve_distortion >= best_grid - 1e-9
