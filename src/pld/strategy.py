"""Optimal play on both sides: receiver option choice and activation rate.

The receiver's expected distortion is affine in its option weights, so the
optimum puts all mass on the option(s) with the smallest delta term.  Seen
as a function of the activation rate alpha, each delta term is affine, so
the optimized distortion is a concave piecewise-linear envelope with at most
two breakpoints.  The transmitter's problem — push the eavesdropper's
distortion as high as possible while keeping the intended receiver's below a
cap — then reduces to candidate enumeration over interval endpoints and
envelope breakpoints, no grid search needed.  ``deception_plans`` is the one
planner: it solves a whole grid of (Bob, Eve) error-rate pairs a block of
cells at a time, and ``optimize_deception`` is its one-cell call.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import Scenario, real_violations
from .distortion import DeltaTerms, ReceiverStrategy, _delta_terms_at
from .fbl import receiver_error_rates

OPTION_LABELS = ("perception", "dropping", "exclusion")

#: Delta values this close (relative to the largest delta) count as tied.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class ReceiverSolution:
    """An optimal corner (or tie-splitting mix) of the receiver simplex, and
    the option it puts its mass on ("tie-set" for a mix)."""

    strategy: ReceiverStrategy
    active_option: str


def lower_envelopes(intercepts: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Pointwise minimum on [0, 1] of the k lines ``intercepts[:, j] + slopes[:, j]*x``
    at each point j, as one ``(3, n, w)`` stack of piece starts, intercepts and
    slopes; a curve of fewer than w pieces is padded with pieces that start at
    +inf, which no point in the domain reaches.  Knots of lines with different
    slopes strictly inside cut the domain; between distinct cuts, the first
    line lowest at the midpoint is active, and neighbours on equal lines merge.
    """
    c, m = intercepts.T, slopes.T
    i, j = np.triu_indices(c.shape[1], 1)
    # equal slopes (all lines are flat at eps_p = 1) give inf or nan knots, and
    # intervals past the last cut infinite midpoints: neither makes a piece
    with np.errstate(all="ignore"):
        knots = (c[:, j] - c[:, i]) / (m[:, i] - m[:, j])
        knots[~((0.0 < knots) & (knots < 1.0))] = math.inf
        cuts = np.sort(np.column_stack((np.zeros(len(c)), np.ones(len(c)), knots)))
        cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = math.inf  # a repeated cut
        cuts.sort()
        a, b = cuts[:, :-1], cuts[:, 1:]  # intervals with b <= 1 lead, in order
        line = (c[:, None] + m[:, None] * (0.5 * (a + b))[:, :, None]).argmin(axis=2)
    c, m = np.take_along_axis(c, line, 1), np.take_along_axis(m, line, 1)
    new = b <= 1.0
    new[:, 1:] &= (c[:, 1:] != c[:, :-1]) | (m[:, 1:] != m[:, :-1])
    order = np.argsort(~new, axis=1, kind="stable")[:, : new.sum(axis=1).max()]
    stack = np.stack([np.take_along_axis(v, order, 1) for v in (a, c, m)])
    stack[:, ~np.take_along_axis(new, order, 1)] = math.inf
    return stack


def optimal_receiver_strategy(deltas: DeltaTerms) -> ReceiverSolution:
    """Minimize expected distortion over the option simplex.

    All mass goes to the smallest delta term; deltas tied within TIE_TOL
    (relative to the largest term) share the mass equally and are reported
    as the "tie-set".  The distortion the mix attains is
    ``distortion.opportunistic_distortion`` of its strategy.
    """
    values = deltas.as_tuple()
    tol = TIE_TOL * max(values)
    d_min = min(values)
    tied = [i for i, v in enumerate(values) if v - d_min <= tol]
    share = 1.0 / len(tied)
    strategy = ReceiverStrategy(*(share if i in tied else 0.0 for i in range(3)))
    label = OPTION_LABELS[tied[0]] if len(tied) == 1 else "tie-set"
    return ReceiverSolution(strategy, label)


def receiver_curves(
    scenario: Scenario, eps_p: np.ndarray, eps_s: np.ndarray
) -> np.ndarray:
    """Optimized receiver distortion in the activation rate at each pair of
    ``eps_p`` and ``eps_s`` (arrays), as a ``lower_envelopes`` stack.

    Each delta term is exactly affine in alpha, so evaluating the closed
    forms at alpha=0 and alpha=1 recovers intercepts and slopes without
    duplicating any formula; the envelope is scaled by the delivery
    probability on top of the erasure floor.  The scenario's alpha is unused.
    """
    at0 = np.array(_delta_terms_at(scenario, eps_s, 0.0))
    at1 = np.array(_delta_terms_at(scenario, eps_s, 1.0))
    deliver = 1.0 - eps_p
    intercepts = eps_p * scenario.d_loss + deliver * at0
    return lower_envelopes(intercepts, deliver * (at1 - at0))


def sublevel_intervals(curves: np.ndarray, level: float) -> np.ndarray:
    """Closed intervals of [0, 1] where each curve of a ``lower_envelopes``
    stack is <= level, as an ``(n, w, 2)`` array of (start, end) pairs in
    order, padded with nan.

    A piece ends at the next start (1.0 for the last) and its values there
    are ``c + m*x``; where it crosses the level, at ``(level - c)/m`` clamped
    to the piece, only the side at or below the level counts.  A piece's
    part joins the interval before it when it starts at or before that
    interval's end.  Padding pieces start at +inf, so they stay above it.
    """
    starts, c, m = curves
    ends = np.ones_like(starts)
    ends[:, :-1] = np.minimum(starts[:, 1:], 1.0)
    with np.errstate(all="ignore"):
        low, high = c + m * starts <= level, c + m * ends <= level
        x = (level - c) / m
    x = np.where(starts > x, starts, x)  # min(max(x, start), end), as Python picks
    x = np.where(ends < x, ends, x)
    a, b, part = np.where(low, starts, x), np.where(high, ends, x), low | high
    # each part's end is at least the ends before it, so the end of the
    # interval before a part is the largest end so far
    run = np.maximum.accumulate(np.where(part, b, -math.inf), axis=1)
    before = np.column_stack((np.full(len(a), -math.inf), run))
    # a part that starts an interval, then a stand-in after the last part
    new = np.column_stack((part & ~(a <= before[:, :-1]),
                           np.ones(len(a), dtype=bool)))
    # interval j runs from the start of its first part to the end before the
    # next interval's first part, or before the stand-in
    order = np.argsort(~new, axis=1, kind="stable")
    a = np.take_along_axis(np.column_stack((a, np.full(len(a), math.nan))), order, 1)
    b = np.take_along_axis(before, order, 1)
    found = np.stack((a[:, :-1], b[:, 1:]), axis=-1)
    found[np.arange(starts.shape[1]) >= new.sum(axis=1, keepdims=True) - 1] = math.nan
    return found


def d_max_violations(d_max: float) -> list[str]:
    """The rule for Bob's distortion cap: a finite number > 0."""
    bad = real_violations(d_max=d_max)
    if not bad and not (math.isfinite(d_max) and d_max > 0):
        bad.append(f"d_max must be finite and > 0, got {float(d_max)!r}")
    return bad


@dataclass(frozen=True)
class DeceptionPlan:
    """Best activation rate under the intended receiver's distortion cap."""

    alpha_opt: float
    eve_distortion: float
    bob_distortion: float
    feasible_intervals: tuple[tuple[float, float], ...]
    feasible: bool


def _values_at(curves: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x[..., i, :]`` evaluated on stacked curve i.

    The piece is the last one whose start is <= x, so a breakpoint belongs to
    the piece it starts (the first piece for an x before every start), and
    its value is ``intercept + slope*x``.
    """
    starts, intercepts, slopes = curves
    piece = (starts[:, None, 1:] <= x[..., None]).sum(axis=-1)
    shape = piece.shape[:-1] + starts.shape[-1:]
    c, m = (np.take_along_axis(np.broadcast_to(v, shape), piece, -1)
            for v in (intercepts, slopes))
    return c + m * x


def deception_search(bobs: np.ndarray, spans: np.ndarray, eves: np.ndarray) -> np.ndarray:
    """Maximize every stacked Eve curve on each Bob curve's feasible set.

    ``bobs`` and ``eves`` are ``lower_envelopes`` stacks, and ``spans`` is
    the bobs' ``sublevel_intervals``.  Returns alpha_opt, eve_distortion and
    bob_distortion as one ``(3, len(spans), n)`` array, nan on a row
    without an interval.  Only interval endpoints and Eve's breakpoints
    strictly inside an interval can be maximal; ties go to the larger alpha
    (more deception, same objective).
    """
    out = np.full((3, len(spans), eves.shape[1]), math.nan)
    rows = ~np.isnan(spans[:, 0, 0])
    spans = spans[rows]
    # a row's first interval stands in for the intervals it lacks
    spans = np.where(np.isnan(spans), spans[:, :1], spans)
    breaks = eves[0, None, :, None, 1:]
    lo, hi = spans[:, None, :, :1], spans[:, None, :, 1:]
    inside = ((lo < breaks) & (breaks < hi)).any(axis=2)
    ends = spans.reshape(len(spans), 1, 2 * spans.shape[1])
    # a breakpoint outside every interval stands in as a repeated endpoint
    x = np.concatenate((np.broadcast_to(ends, inside.shape[:2] + ends.shape[2:]),
                        np.where(inside, breaks[:, :, 0], ends[:, :, :1])), axis=2)
    values = _values_at(eves, x)
    best = values.max(axis=2)
    alpha = np.where(values == best[..., None], x, -math.inf).max(axis=2)
    out[:, rows] = alpha, best, _values_at(bobs[:, rows], alpha)
    return out


#: Eve rates per block of curves, and cells per search pass: bounds the scratch
PLAN_BLOCK = 1 << 15


def deception_plans(scenario: Scenario, d_max: float, bob_eps: np.ndarray,
                    eve_eps: np.ndarray) -> Iterator[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """Plans for every (Bob, Eve) pair of error rates, a block of cells at a time.

    Each receiver's ``(eps_p, eps_s)`` is (e, e), and ``d_max`` a cap that
    ``d_max_violations`` accepts.  Each block of up to ``PLAN_BLOCK`` Eve
    rates has its curves built once; a pass takes as many Bob rows as fit in
    ``PLAN_BLOCK`` cells, one if the Eve axis spans blocks, so the passes
    come in row-major order.  Yields ``(rows, cols, spans, plans)``: slices
    of ``bob_eps`` and ``eve_eps``, the rows' ``sublevel_intervals`` and the
    cells' ``(3, rows, cols)`` ``deception_search``; an empty axis yields none.
    """
    block, n = PLAN_BLOCK, len(eve_eps)
    cols = [slice(i, min(i + block, n)) for i in range(0, n, block)]
    eves = [receiver_curves(scenario, eve_eps[col], eve_eps[col]) for col in cols]
    group = max(1, block // max(n, 1))
    for first in range(0, len(bob_eps), group):
        rows = slice(first, min(first + group, len(bob_eps)))
        bobs = receiver_curves(scenario, bob_eps[rows], bob_eps[rows])
        spans = sublevel_intervals(bobs, d_max)
        for col, curves in zip(cols, eves):
            yield rows, col, spans, deception_search(bobs, spans, curves)


def optimize_deception(scenario: Scenario, d_max: float) -> DeceptionPlan:
    """Choose alpha maximizing Eve's distortion subject to Bob's cap.

    The one-cell ``deception_plans``: e is each receiver's rate from
    ``fbl.receiver_error_rates`` (Eve's at her expected SNR).
    """
    if bad := d_max_violations(d_max):
        raise ValueError(bad[0])
    rates = receiver_error_rates(scenario)
    [(_, _, spans, plan)] = deception_plans(scenario, d_max, rates[:1], rates[1:])
    intervals = tuple(map(tuple, spans[0, ~np.isnan(spans[0, :, 0])].tolist()))
    return DeceptionPlan(*plan[:, 0, 0].tolist(), intervals, bool(intervals))
