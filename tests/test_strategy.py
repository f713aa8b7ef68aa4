"""Receiver strategy selection and deception-rate optimization."""
import dataclasses
import math

import numpy as np
import pytest

from pld.channels import TransportChannel
from pld.core import Scenario
from pld.distortion import DeltaTerms, ReceiverStrategy, delta_terms
from pld.fbl import FblCode
from pld.strategy import (
    OPTION_LABELS,
    DeceptionPlan,
    LinearPiece,
    PiecewiseLinear,
    deception_search,
    lower_envelope,
    optimal_receiver_strategy,
    optimize_deception,
    receiver_value_of_alpha,
    stack_curves,
    sublevel_intervals,
)


def make_scenario(size=2, alpha=0.99, **kw):
    return Scenario(codebook_size=size, d_loss=1.0, d_conf=10.0, alpha=alpha, **kw)


def value_curve(scenario, snr_db):
    """The (envelope, channel) pair the optimizer sees for one party."""
    code = FblCode.from_scenario(scenario)
    channel = TransportChannel.from_snr_db(snr_db, code)
    pwl = receiver_value_of_alpha(scenario, channel.eps_primary, channel.eps_secondary)
    return pwl, channel


# ---------------------------------------------------------------------------
# single-point strategy choice
# ---------------------------------------------------------------------------

def test_reference_deltas_select_dropping():
    sol = optimal_receiver_strategy(DeltaTerms(0.495, 0.0595, 0.1))
    assert sol.active_option == "dropping"
    assert sol.strategy == ReceiverStrategy(0.0, 1.0, 0.0)
    assert sol.value == pytest.approx(0.0595, rel=1e-12)


def test_value_with_channel_context():
    sc = make_scenario()
    sol = optimal_receiver_strategy(
        DeltaTerms(0.495, 0.0595, 0.1), scenario=sc, eps_p=0.1
    )
    assert sol.value == pytest.approx(0.1 * 1.0 + 0.9 * 0.0595, rel=1e-12)
    with pytest.raises(ValueError):
        optimal_receiver_strategy(DeltaTerms(1.0, 2.0, 3.0), scenario=sc)


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

def test_lower_envelope_of_crossing_lines():
    pwl = lower_envelope([(1.0, -1.0, "down"), (0.0, 1.0, "up")], 0.0, 1.0)
    assert [p.label for p in pwl.pieces] == ["up", "down"]
    assert pwl.breakpoints == pytest.approx([0.5])
    assert pwl(0.25) == pytest.approx(0.25)
    assert pwl(0.75) == pytest.approx(0.25)


def test_lower_envelope_drops_dominated_line():
    pwl = lower_envelope(
        [(0.0, 0.5, "a"), (2.0, 0.0, "never"), (0.6, -0.5, "b")], 0.0, 1.0
    )
    assert "never" not in {p.label for p in pwl.pieces}


def test_piece_lookup_and_domain():
    pwl = lower_envelope([(0.0, 1.0, "up")], 0.0, 1.0)
    assert pwl.piece_at(0.5).label == "up"
    with pytest.raises(ValueError):
        pwl(1.5)
    with pytest.raises(ValueError):
        pwl.piece_at(-0.1)


TENT = PiecewiseLinear(
    (LinearPiece(0.0, 0.5, 0.0, 2.0, "a"), LinearPiece(0.5, 1.0, 2.0, -2.0, "b"))
)


def test_sublevel_intervals_of_tent():
    assert sublevel_intervals(TENT, 0.5) == ((0.0, 0.25), (0.75, 1.0))
    assert sublevel_intervals(TENT, 1.5) == ((0.0, 1.0),)
    assert sublevel_intervals(TENT, 0.0) == ((0.0, 0.0), (1.0, 1.0))
    assert sublevel_intervals(TENT, -1.0) == ()


# ---------------------------------------------------------------------------
# distortion as a function of the deception rate
# ---------------------------------------------------------------------------

def test_envelope_matches_pointwise_solver():
    for size in (2, 4, 1 << 64):
        sc = make_scenario(size=size)
        pwl = receiver_value_of_alpha(sc, 0.1, 0.05)
        for alpha in np.linspace(0.0, 1.0, 2001):
            sc_a = dataclasses.replace(sc, alpha=float(alpha))
            direct = optimal_receiver_strategy(
                delta_terms(sc_a, 0.05), scenario=sc_a, eps_p=0.1
            )
            assert abs(pwl(float(alpha)) - direct.value) <= 1e-9 * max(
                1.0, abs(direct.value)
            )


def test_envelope_is_concave():
    for eps_p, eps_s in ((0.1, 0.05), (0.3, 0.4), (0.0, 0.9)):
        pwl = receiver_value_of_alpha(make_scenario(size=4), eps_p, eps_s)
        slopes = [p.slope for p in pwl.pieces]
        assert all(b <= a + 1e-12 for a, b in zip(slopes, slopes[1:]))


def test_envelope_structure():
    pwl = receiver_value_of_alpha(make_scenario(size=2), 0.1, 0.05)
    assert pwl.lo == 0.0 and pwl.hi == 1.0
    assert len(pwl.breakpoints) <= 2
    assert all(p.label in OPTION_LABELS for p in pwl.pieces)
    assert [p.label for p in pwl.pieces][0] == "perception"
    assert [p.label for p in pwl.pieces][-1] == "exclusion"
    for left, right in zip(pwl.pieces, pwl.pieces[1:]):
        assert left.hi == right.lo
        assert left.value_at(left.hi) == pytest.approx(right.value_at(right.lo))


def test_envelope_floor_at_zero_deception():
    # without deception the best option costs exactly the erasure floor
    pwl = receiver_value_of_alpha(make_scenario(size=8), 0.25, 0.3)
    assert pwl(0.0) == 0.25 * 1.0


# ---------------------------------------------------------------------------
# transmitter optimization
# ---------------------------------------------------------------------------

def search_one(value_bob, intervals, value_eve):
    """``deception_search`` on a stack of one Eve curve, as a plan."""
    alpha, eve, bob = deception_search(value_bob, intervals, stack_curves([value_eve]))
    return DeceptionPlan(
        float(alpha[0]), float(eve[0]), float(bob[0]), intervals, bool(intervals)
    )


def test_deception_search_searches_second_interval():
    intervals = sublevel_intervals(TENT, 0.5)
    assert intervals == ((0.0, 0.25), (0.75, 1.0))
    # Eve peaks at her breakpoint 0.9, inside Bob's second interval only
    eve = PiecewiseLinear(
        (
            LinearPiece(0.0, 0.9, 0.0, 1.0, "up"),
            LinearPiece(0.9, 1.0, 1.8, -1.0, "down"),
        )
    )
    plan = search_one(TENT, intervals, eve)
    assert plan.feasible
    assert plan.feasible_intervals == intervals
    assert plan.alpha_opt == 0.9
    assert plan.eve_distortion == 0.9
    assert plan.bob_distortion == TENT(0.9)


def test_deception_search_without_intervals_is_nan():
    plan = search_one(TENT, (), TENT)
    assert not plan.feasible
    assert plan.feasible_intervals == ()
    assert all(math.isnan(v) for v in
               (plan.alpha_opt, plan.eve_distortion, plan.bob_distortion))


def test_deception_search_tie_takes_larger_alpha():
    # Eve's curve is flat on [0.5, 1]: the breakpoint and the right end tie
    eve = PiecewiseLinear(
        (LinearPiece(0.0, 0.5, 0.0, 1.0, "up"), LinearPiece(0.5, 1.0, 0.5, 0.0, "flat"))
    )
    plan = search_one(TENT, ((0.0, 1.0),), eve)
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
        candidates.update(x for x in value_eve.breakpoints if lo < x < hi)
    best_alpha, best_value = None, -math.inf
    for alpha in sorted(candidates):
        value = value_eve(alpha)
        if value >= best_value:
            best_alpha, best_value = alpha, value
    return best_alpha, best_value, value_bob(best_alpha)


def curve(*pieces):
    """A piecewise-linear curve from (lo, hi, intercept, slope) pieces."""
    return PiecewiseLinear(tuple(LinearPiece(*p, "p") for p in pieces))


SEARCH_EVES = [
    curve((0.0, 1.0, 0.2, 0.5)),  # one piece: padded in the stack
    # jumps at 0.25, an endpoint of Bob's tent intervals: the right piece counts
    curve((0.0, 0.25, 0.0, 1.0), (0.25, 1.0, 1.0, -1.0)),
    # equal at 0.25 and 0.75, one in each tent interval: 0.75 wins
    curve((0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 1.0, -1.0)),
    curve((0.0, 0.9, 0.0, 1.0), (0.9, 1.0, 1.8, -1.0)),
    curve((0.0, 0.1, 0.0, 3.0), (0.1, 0.8, 0.2, 1.0), (0.8, 1.0, 1.8, -1.0)),
    curve((0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 0.5, 0.0)),  # flat: ties to alpha 1
]


@pytest.mark.parametrize(
    "level,intervals",
    [(0.5, ((0.0, 0.25), (0.75, 1.0))),  # two intervals
     (0.0, ((0.0, 0.0), (1.0, 1.0))),  # degenerate intervals (x, x)
     (1.5, ((0.0, 1.0),)),
     (-1.0, ())],  # no interval: the nan plan
)
def test_stacked_search_matches_one_curve_and_scalar_scan(level, intervals):
    assert sublevel_intervals(TENT, level) == intervals
    stacked = deception_search(TENT, intervals, stack_curves(SEARCH_EVES))
    for i, eve in enumerate(SEARCH_EVES):
        plan = search_one(TENT, intervals, eve)
        one = (plan.alpha_opt, plan.eve_distortion, plan.bob_distortion)
        row = tuple(float(v[i]) for v in stacked)
        assert repr(row) == repr(one) == repr(scalar_search(TENT, intervals, eve))


def test_stacked_search_edge_cases():
    alpha, eve, _ = deception_search(
        TENT, ((0.0, 0.25), (0.75, 1.0)), stack_curves(SEARCH_EVES[:3])
    )
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
    vb, _ = value_curve(sc, 4.0)
    assert plan.feasible
    assert vb(plan.alpha_opt) <= 0.01 + 1e-12


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
    bob = TransportChannel(0.1, 0.1)
    eve = TransportChannel(0.5, 0.0)
    plan = optimize_deception(sc, 10.0, bob_channel=bob, eve_channel=eve)
    assert plan.feasible
    assert plan.alpha_opt == 1.0
    assert plan.eve_distortion == pytest.approx(0.5, rel=1e-12)


def test_optimizer_input_validation():
    sc = make_scenario(size=4)
    with pytest.raises(ValueError):
        optimize_deception(sc, 0.0)
    with pytest.raises(ValueError):
        optimize_deception(sc, float("nan"))


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
        vb, _ = value_curve(sc, sc.snr_bob_db)
        ve, _ = value_curve(sc, sc.snr_eve_db)
        feasible = [a for a in grid if vb(float(a)) <= d_max]
        if not plan.feasible:
            assert not feasible
            continue
        assert vb(plan.alpha_opt) <= d_max + 1e-12
        assert plan.bob_distortion == pytest.approx(vb(plan.alpha_opt), rel=1e-12)
        assert plan.eve_distortion == pytest.approx(ve(plan.alpha_opt), rel=1e-12)
        if feasible:
            best_grid = max(ve(float(a)) for a in feasible)
            assert plan.eve_distortion >= best_grid - 1e-9
