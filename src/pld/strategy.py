"""Optimal play on both sides: receiver option choice and activation rate.

The receiver's expected distortion is affine in its option weights, so the
optimum puts all mass on the option(s) with the smallest delta term.  Seen
as a function of the activation rate alpha, each delta term is affine, so
the optimized distortion is a concave piecewise-linear envelope with at most
two breakpoints.  The transmitter's problem — push the eavesdropper's
distortion as high as possible while keeping the intended receiver's below a
cap — then reduces to candidate enumeration over interval endpoints and
envelope breakpoints, no grid search needed.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .channels import TransportChannel
from .core import Scenario, real_violations
from .distortion import DeltaTerms, ReceiverStrategy, _delta_terms_at
from .fbl import FblCode

OPTION_LABELS = ("perception", "dropping", "exclusion")

#: Delta values this close (relative to the largest delta) count as tied.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class ReceiverSolution:
    """An optimal corner (or tie-splitting mix) of the receiver simplex."""

    strategy: ReceiverStrategy
    value: float
    active_option: str


@dataclass(frozen=True)
class LinearPiece:
    """One affine segment value = intercept + slope*x on [lo, hi]."""

    lo: float
    hi: float
    intercept: float
    slope: float
    label: str

    def value_at(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on [pieces[0].lo, pieces[-1].hi]."""

    pieces: tuple[LinearPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("piecewise-linear function needs >= 1 piece")

    @property
    def lo(self) -> float:
        return self.pieces[0].lo

    @property
    def hi(self) -> float:
        return self.pieces[-1].hi

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior x where the active piece changes."""
        return tuple(p.lo for p in self.pieces[1:])

    def piece_at(self, x: float) -> LinearPiece:
        if not self.lo <= x <= self.hi:
            raise ValueError(f"x={x!r} outside domain [{self.lo}, {self.hi}]")
        idx = bisect_right([p.lo for p in self.pieces], x) - 1
        return self.pieces[max(idx, 0)]

    def __call__(self, x: float) -> float:
        return self.piece_at(x).value_at(x)


def lower_envelope(
    affines: list[tuple[float, float, str]], lo: float, hi: float
) -> PiecewiseLinear:
    """Pointwise minimum of affine functions (intercept, slope, label) pairs."""
    if hi <= lo:
        raise ValueError(f"empty domain [{lo}, {hi}]")
    knots = {lo, hi}
    for i, (ci, mi, _) in enumerate(affines):
        for cj, mj, _ in affines[i + 1 :]:
            if mi != mj:
                x = (cj - ci) / (mi - mj)
                if lo < x < hi:
                    knots.add(x)
    cuts = sorted(knots)
    pieces: list[LinearPiece] = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        c, m, label = min(affines, key=lambda t: t[0] + t[1] * mid)
        if pieces and pieces[-1].intercept == c and pieces[-1].slope == m:
            pieces[-1] = replace(pieces[-1], hi=b)
        else:
            pieces.append(LinearPiece(a, b, c, m, label))
    return PiecewiseLinear(tuple(pieces))


def optimal_receiver_strategy(
    deltas: DeltaTerms,
    *,
    scenario: Scenario | None = None,
    eps_p: float | None = None,
) -> ReceiverSolution:
    """Minimize expected distortion over the option simplex.

    All mass goes to the smallest delta term; deltas tied within TIE_TOL
    (relative to the largest term) share the mass equally and are reported
    as the "tie-set".  Without channel context, ``value`` is the conditional
    expected distortion given primary delivery (the weighted delta sum);
    passing ``scenario`` and ``eps_p`` folds in the erasure floor to give
    the full expected distortion.
    """
    if (scenario is None) != (eps_p is None):
        raise ValueError("supply scenario and eps_p together or not at all")
    values = deltas.as_tuple()
    tol = TIE_TOL * max(values)
    d_min = min(values)
    tied = [i for i, v in enumerate(values) if v - d_min <= tol]
    share = 1.0 / len(tied)
    betas = [share if i in tied else 0.0 for i in range(3)]
    strategy = ReceiverStrategy(*betas)
    value = sum(b * v for b, v in zip(betas, values))
    if scenario is not None:
        value = eps_p * scenario.d_loss + (1.0 - eps_p) * value
    label = OPTION_LABELS[tied[0]] if len(tied) == 1 else "tie-set"
    return ReceiverSolution(strategy, value, label)


def receiver_value_of_alpha(
    scenario: Scenario, eps_p: float, eps_s: float
) -> PiecewiseLinear:
    """Optimized receiver distortion as a function of the activation rate.

    Each delta term is exactly affine in alpha, so evaluating the closed
    forms at alpha=0 and alpha=1 recovers intercepts and slopes without
    duplicating any formula; the optimized distortion is the concave lower
    envelope scaled by the delivery probability on top of the erasure floor.
    The scenario's own alpha field is ignored.
    """
    at0 = _delta_terms_at(scenario, eps_s, 0.0).as_tuple()
    at1 = _delta_terms_at(scenario, eps_s, 1.0).as_tuple()
    deliver = 1.0 - eps_p
    floor = eps_p * scenario.d_loss
    affines = [
        (floor + deliver * c0, deliver * (c1 - c0), label)
        for c0, c1, label in zip(at0, at1, OPTION_LABELS)
    ]
    return lower_envelope(affines, 0.0, 1.0)


def sublevel_intervals(
    f: PiecewiseLinear, level: float
) -> tuple[tuple[float, float], ...]:
    """Closed intervals of the domain where f(x) <= level."""
    found: list[tuple[float, float]] = []
    for p in f.pieces:
        v_lo, v_hi = p.value_at(p.lo), p.value_at(p.hi)
        if v_lo <= level and v_hi <= level:
            seg = (p.lo, p.hi)
        elif v_lo > level and v_hi > level:
            continue
        else:
            x = (level - p.intercept) / p.slope
            x = min(max(x, p.lo), p.hi)
            seg = (p.lo, x) if v_lo <= level else (x, p.hi)
        if found and seg[0] <= found[-1][1]:
            found[-1] = (found[-1][0], max(found[-1][1], seg[1]))
        else:
            found.append(seg)
    return tuple(found)


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


def stack_curves(curves: list[PiecewiseLinear]) -> np.ndarray:
    """Curves as one ``(3, n, w)`` array: piece starts, intercepts, slopes.

    ``w`` is the largest piece count; a shorter curve is padded with pieces
    that start at +inf, which no point in the domain reaches.
    """
    width = max(len(curve.pieces) for curve in curves)
    pad = [(math.inf, math.inf, math.inf)]
    rows = [
        [(p.lo, p.intercept, p.slope) for p in curve.pieces]
        + pad * (width - len(curve.pieces))
        for curve in curves
    ]
    return np.array(rows, dtype=np.float64).transpose(2, 0, 1)


def _values_at(curves: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i of ``x`` evaluated on stacked curve i, bit for bit as ``piece_at``.

    The piece is the one after every breakpoint <= x (``bisect_right``), and
    its value is ``intercept + slope*x``, the same two IEEE operations.
    """
    starts, intercepts, slopes = curves
    piece = (starts[:, None, 1:] <= x[:, :, None]).sum(axis=2)
    return (
        np.take_along_axis(intercepts, piece, 1)
        + np.take_along_axis(slopes, piece, 1) * x
    )


def deception_search(
    value_bob: PiecewiseLinear,
    intervals: tuple[tuple[float, float], ...],
    eves: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize every stacked Eve curve on Bob's ``sublevel_intervals``.

    Returns ``(alpha_opt, eve_distortion, bob_distortion)``, one entry per
    curve of ``eves`` (see ``stack_curves``), all nan without an interval.
    Only interval endpoints and Eve's breakpoints strictly inside an
    interval can be maximal; ties go to the larger alpha (more deception,
    same objective).
    """
    n = eves.shape[1]
    if not intervals:
        nan = np.full(n, math.nan)
        return nan, nan, nan
    ends = np.array(intervals, dtype=np.float64).ravel()
    breaks = eves[0, :, 1:]
    inside = np.zeros(breaks.shape, dtype=bool)
    for lo, hi in intervals:
        inside |= (lo < breaks) & (breaks < hi)
    # a breakpoint outside every interval stands in as a repeated endpoint
    x = np.concatenate(
        (np.broadcast_to(ends, (n, ends.size)), np.where(inside, breaks, ends[0])),
        axis=1,
    )
    values = _values_at(eves, x)
    best = values.max(axis=1)
    alpha = np.where(values == best[:, None], x, -math.inf).max(axis=1)
    bob = _values_at(stack_curves([value_bob]), alpha[None, :])[0]
    return alpha, best, bob


def optimize_deception(
    scenario: Scenario,
    d_max: float,
    *,
    bob_channel: TransportChannel | None = None,
    eve_channel: TransportChannel | None = None,
) -> DeceptionPlan:
    """Choose alpha maximizing Eve's distortion subject to Bob's cap.

    Bob's channel comes from the scenario's snr_bob_db and Eve's from its
    snr_eve_db (her expected SNR), both on the scenario's code, unless a
    channel override injects error rates directly.  Both optimized
    distortions are concave piecewise-linear in alpha, so the constraint set
    is [0,1] minus an open interval; ``deception_search`` searches it.
    """
    if bad := d_max_violations(d_max):
        raise ValueError(bad[0])
    code = FblCode.from_scenario(scenario)
    if bob_channel is None:
        bob_channel = TransportChannel.from_snr_db(scenario.snr_bob_db, code)
    if eve_channel is None:
        eve_channel = TransportChannel.from_snr_db(scenario.snr_eve_db, code)
    value_bob = receiver_value_of_alpha(
        scenario, bob_channel.eps_primary, bob_channel.eps_secondary
    )
    value_eve = receiver_value_of_alpha(
        scenario, eve_channel.eps_primary, eve_channel.eps_secondary
    )
    intervals = sublevel_intervals(value_bob, d_max)
    alpha, eve, bob = deception_search(value_bob, intervals, stack_curves([value_eve]))
    return DeceptionPlan(
        float(alpha[0]), float(eve[0]), float(bob[0]), intervals, bool(intervals)
    )
