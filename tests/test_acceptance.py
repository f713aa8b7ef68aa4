"""Acceptance gate: ten end-to-end checks, one reported line each.

Each test prints exactly one ``ACCEPTANCE Cnn PASS/FAIL`` line (unbuffered,
outside capture) so a plain pytest run shows the per-check verdicts.
"""
import math
from dataclasses import replace
from itertools import groupby

import numpy as np
import pytest

from pld.core import NULL_KEY, NULL_MSG, Scenario
from pld.crypto import ShiftCipher, decrypt_batch, encrypt_batch
from pld.distortion import (
    DROPPING,
    EXCLUSION,
    PERCEPTION,
    ReceiverStrategy,
    delta_terms,
    enumeration_oracle,
    opportunistic_distortion,
)
from pld.fbl import FblCode, error_rates, packet_error_rate, snr_db_to_linear
from pld.montecarlo import estimate_distortion
from pld.strategy import (
    DeceptionPlan,
    _values_at,
    deception_search,
    optimal_receiver_strategy,
    optimize_deception,
    receiver_curves,
    sublevel_intervals,
)

CENTER = ReceiverStrategy(1 / 3, 1 / 3, 1 / 3)
STRATEGIES = (PERCEPTION, DROPPING, EXCLUSION, CENTER)
ALPHAS = (0.0, 0.5, 0.99, 1.0)
EPS_VALUES = (0.0, 0.01, 0.1, 0.5)
CODE = FblCode(128, 64)
SNR_GRID_DB = [i / 2 for i in range(-10, 11)]  # -5..5 dB in half-dB steps


@pytest.fixture
def report(capsys):
    def _report(tag, ok, detail):
        with capsys.disabled():
            print(f"\nACCEPTANCE {tag} {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
        assert ok, f"{tag}: {detail}"

    return _report


def reference_scenario(size, alpha=0.99, **kw):
    return Scenario(codebook_size=size, d_loss=1.0, d_conf=10.0, alpha=alpha, **kw)


def grid_cells(sizes):
    for size in sizes:
        for alpha in ALPHAS:
            for eps_p in EPS_VALUES:
                for eps_s in EPS_VALUES:
                    for strat in STRATEGIES:
                        yield size, alpha, eps_p, eps_s, strat


def receiver_row(sc, eps_p, eps_s):
    """``receiver_curves`` at one channel pair, as its ``(3, w)`` row."""
    return receiver_curves(sc, np.array([eps_p]), np.array([eps_s]))[:, 0]


def plan_at(sc, d_max, bob, eve):
    """``optimize_deception``'s steps on the given ``(eps_p, eps_s)`` pairs of
    Bob and Eve in place of the pairs of the scenario's SNRs."""
    curves = receiver_curves(sc, *np.transpose([bob, eve]))
    spans = sublevel_intervals(curves[:, :1], d_max)
    plan = deception_search(curves[:, :1], spans, curves[:, 1:])[:, 0, 0]
    intervals = tuple(map(tuple, spans[0, ~np.isnan(spans[0, :, 0])].tolist()))
    return DeceptionPlan(*plan.tolist(), intervals, bool(intervals))


def curve_at(row, xs):
    """A ``(3, w)`` curve row at each of the points xs, as the optimizer
    evaluates it."""
    return _values_at(row[:, None], np.asarray(xs, dtype=np.float64)[None])[0]


def pwl_on_grid(row, grid):
    xs = np.append(row[0][row[0] < math.inf], 1.0)
    return np.interp(grid, xs, curve_at(row, xs))


def bisect_boundary(pred, lo, hi, iters=80):
    assert pred(lo) and not pred(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_c01_closed_form_matches_enumeration(report):
    worst = 0.0
    cells = 0
    # one oracle call per (size, alpha), all its channel pairs and strategies
    for (size, alpha), group in groupby(grid_cells((2, 3, 4, 16)), key=lambda c: c[:2]):
        group = list(group)
        pairs = list(dict.fromkeys(cell[2:4] for cell in group))
        strats = list(dict.fromkeys(cell[4] for cell in group))
        sc = reference_scenario(size, alpha)
        oracles = enumeration_oracle(sc, pairs, strats)
        for _, _, eps_p, eps_s, strat in group:
            oracle = oracles[pairs.index((eps_p, eps_s)), strats.index(strat)]
            closed = opportunistic_distortion(sc, eps_p, eps_s, strat).total
            worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-300))
            cells += 1
    report("C01", worst <= 1e-10,
           f"closed form vs enumeration on {cells} cells, "
           f"max rel diff {worst:.2e} (tol 1e-10)")


def test_c02_closed_form_matches_monte_carlo(report):
    trials = 10**6
    cells = list(grid_cells((2, 3, 4)))
    misses = []
    for idx, (size, alpha, eps_p, eps_s, strat) in enumerate(cells):
        sc = reference_scenario(size, alpha)
        closed = opportunistic_distortion(sc, eps_p, eps_s, strat).total
        est = estimate_distortion(sc, eps_p, eps_s, strat, trials, 900000 + idx)
        if abs(est.mean - closed) > 4.0 * est.std_error:
            misses.append((idx, closed))
    persistent = 0
    for idx, closed in misses:  # fresh seed on marginal cells
        size, alpha, eps_p, eps_s, strat = cells[idx]
        sc = reference_scenario(size, alpha)
        est = estimate_distortion(sc, eps_p, eps_s, strat, trials, 31337000 + idx)
        if abs(est.mean - closed) > 4.0 * est.std_error:
            persistent += 1
    frac = 1.0 - persistent / len(cells)
    report("C02", frac >= 0.99,
           f"Monte Carlo vs closed form on {len(cells)} cells at 1e6 trials: "
           f"{frac:.2%} within 4 std errors ({len(misses)} rerun, "
           f"{persistent} persistent)")


def test_c03_perception_strategy_simplifies(report):
    rng = np.random.default_rng(20250803)
    worst = 0.0
    for _ in range(1000):
        alpha, eps_p, eps_s = rng.random(3)
        d_loss = float(rng.uniform(0.1, 5.0))
        d_conf = d_loss + float(rng.uniform(0.1, 10.0))
        size = (2, 3, 16, 1 << 64)[int(rng.integers(0, 4))]
        sc = Scenario(codebook_size=size, d_loss=d_loss, d_conf=d_conf,
                      alpha=float(alpha))
        got = opportunistic_distortion(sc, eps_p, eps_s, PERCEPTION).total
        want = eps_p * d_loss + alpha * (1.0 - eps_p) * eps_s * d_conf
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    report("C03", worst <= 1e-12,
           f"perception value equals erasure+confusion product form on 1000 "
           f"random draws, max rel diff {worst:.2e} (tol 1e-12)")


def test_c04_small_codebook_thresholds(report):
    sc = reference_scenario(2)

    def option_at(eps_s):
        return optimal_receiver_strategy(delta_terms(sc, eps_s)).active_option

    t1 = bisect_boundary(lambda e: option_at(e) == "perception", 1e-6, 1e-2)
    t2 = bisect_boundary(lambda e: option_at(e) == "dropping", 2e-2, 0.3)
    err1 = abs(t1 - 1.0 / 891.0)
    err2 = abs(t2 - 1.0 / 11.0)
    report("C04", err1 <= 1e-9 and err2 <= 1e-9,
           f"strategy switches at eps_s={t1:.12f} (1/891 off by {err1:.1e}) "
           f"and {t2:.12f} (1/11 off by {err2:.1e}), tol 1e-9")


def test_c05_large_codebook_never_excludes(report):
    sc = reference_scenario(1 << 64)
    worst_beta3 = 0.0
    for snr in SNR_GRID_DB:
        eps = packet_error_rate(snr_db_to_linear(snr), CODE)
        sol = optimal_receiver_strategy(delta_terms(sc, eps))
        worst_beta3 = max(worst_beta3, sol.strategy.beta3)
    report("C05", worst_beta3 == 0.0,
           f"beta3 on the -5..5 dB sweep at codebook 2^64: "
           f"max {worst_beta3} (must be exactly 0)")


def test_c06_strategy_regions_ordered(report):
    def region_labels(size):
        sc = reference_scenario(size)
        labels = []
        for snr in SNR_GRID_DB:
            eps = packet_error_rate(snr_db_to_linear(snr), CODE)
            labels.append(
                optimal_receiver_strategy(delta_terms(sc, eps)).active_option
            )
        blocks = [labels[0]]
        for lab in labels[1:]:
            if lab != blocks[-1]:
                blocks.append(lab)
        return blocks

    small = region_labels(2)
    large = region_labels(1 << 64)
    ok = small == ["exclusion", "dropping", "perception"] and large == [
        "dropping",
        "perception",
    ]
    report("C06", ok,
           f"SNR-ordered strategy regions: codebook 2 -> {small}, "
           f"codebook 2^64 -> {large}")


def test_c07_error_rate_landmark_and_monotone(report):
    table = [packet_error_rate(snr_db_to_linear(snr), CODE) for snr in SNR_GRID_DB]
    at_zero = table[SNR_GRID_DB.index(0.0)]
    monotone = all(b < a for a, b in zip(table, table[1:]))
    report("C07", at_zero == 0.5 and monotone,
           f"eps(0 dB) = {at_zero!r} (exactly 0.5) and strictly decreasing "
           f"over -5..5 dB: {monotone}")


def test_c08_optimizer_matches_grid_search(report):
    rng = np.random.default_rng(20250808)
    grid = np.linspace(0.0, 1.0, 10001)
    step = grid[1] - grid[0]
    worst_value_gap = 0.0
    feasible_count = 0
    ok = True
    for trial in range(1000):
        d_loss = float(rng.uniform(0.1, 2.0))
        d_conf = d_loss + float(rng.uniform(0.1, 10.0))
        size = (2, 4, 16, 1 << 64)[int(rng.integers(0, 4))]
        sc = Scenario(
            codebook_size=size, d_loss=d_loss, d_conf=d_conf, alpha=0.5,
            snr_bob_db=float(rng.uniform(-5.0, 5.0)),
            snr_eve_db=float(rng.uniform(-5.0, 5.0)),
        )
        d_max = float(rng.uniform(1e-3, 3.0))
        if trial % 2:
            bob = (float(rng.random()), float(rng.random()))
            eve = (float(rng.random()), float(rng.random()))
            plan = plan_at(sc, d_max, bob, eve)
        else:
            eps_bob, eps_eve = error_rates(FblCode.from_scenario(sc),
                                           (sc.snr_bob_db, sc.snr_eve_db))
            bob, eve = (eps_bob, eps_bob), (eps_eve, eps_eve)
            plan = optimize_deception(sc, d_max)
        vb = receiver_row(sc, *bob)
        ve = receiver_row(sc, *eve)
        vb_vals = pwl_on_grid(vb, grid)
        ve_vals = pwl_on_grid(ve, grid)
        feasible = vb_vals <= d_max
        if not plan.feasible:
            ok = ok and bool(np.all(vb_vals > d_max - 1e-9))
            continue
        feasible_count += 1
        ok = ok and curve_at(vb, [plan.alpha_opt])[0] <= d_max + 1e-12
        if not np.any(feasible):
            continue  # feasible set thinner than the grid step
        best_idx = int(np.argmax(np.where(feasible, ve_vals, -np.inf)))
        best_val = float(ve_vals[best_idx])
        gap = plan.eve_distortion - best_val
        worst_value_gap = max(worst_value_gap, max(-gap, 0.0))
        ok = ok and gap >= -1e-9
        near = abs(plan.alpha_opt - grid[best_idx]) <= step + 1e-9
        ok = ok and (near or abs(gap) <= 1e-9)
    report("C08", ok and feasible_count > 100,
           f"breakpoint optimum vs 10001-point grid on 1000 random scenarios "
           f"({feasible_count} feasible): within one grid step or "
           f"value-equivalent, max value shortfall {worst_value_gap:.2e} "
           f"(tol 1e-9)")


def test_c09_deception_sweep_monotone(report):
    d_max = 0.01
    base = reference_scenario(1 << 64)
    eps_bob = {
        snr: packet_error_rate(snr_db_to_linear(snr), CODE) for snr in SNR_GRID_DB
    }
    ok = True
    feasible_rows = 0
    for snr_bob in SNR_GRID_DB:
        alphas, eve_vals = [], []
        for snr_eve in SNR_GRID_DB:
            cell = replace(base, snr_bob_db=snr_bob, snr_eve_db=snr_eve)
            plan = optimize_deception(cell, d_max)
            ok = ok and plan.feasible == (eps_bob[snr_bob] * 1.0 <= d_max)
            if plan.feasible:
                alphas.append(plan.alpha_opt)
                eve_vals.append(plan.eve_distortion)
        if alphas:
            feasible_rows += 1
            ok = ok and all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))
            ok = ok and all(
                b <= a + 1e-12 for a, b in zip(eve_vals, eve_vals[1:])
            )
    report("C09", ok and 0 < feasible_rows < len(SNR_GRID_DB),
           f"21x21 SNR sweep at cap 0.01: infeasibility exactly where Bob's "
           f"erasure floor exceeds the cap ({len(SNR_GRID_DB) - feasible_rows} "
           f"rows), alpha_opt nondecreasing and Eve distortion nonincreasing "
           f"in Eve SNR on all {feasible_rows} feasible rows")


def test_c10_cipher_identities(report):
    bad = 0
    checks = 0
    for size in range(2, 65):
        cipher = ShiftCipher(size)
        for w in range(size):
            if cipher.encrypt(w, NULL_KEY) != w:
                bad += 1
            if cipher.decrypt(w, NULL_KEY) != w:
                bad += 1
            checks += 2
            for k in range(1, size):
                s = cipher.encrypt(w, k)
                if s == w or cipher.decrypt(s, k) != w:
                    bad += 1
                checks += 1
        for k in (NULL_KEY, 1, size - 1):
            if cipher.decrypt(NULL_MSG, k) is not NULL_MSG:
                bad += 1
            checks += 1

    size = 1 << 64
    n = 10**6
    rng = np.random.default_rng(20250810)
    w = rng.integers(0, size, size=n, dtype=np.uint64)
    k = rng.integers(0, size - 1, size=n, dtype=np.uint64) + np.uint64(1)
    s = encrypt_batch(w, k, size)
    bad += int((s == w).sum())
    bad += int((decrypt_batch(s, k, size) != w).sum())
    bad += int((encrypt_batch(w, np.zeros_like(k), size) != w).sum())
    checks += 3 * n
    report("C10", bad == 0,
           f"cipher identities: {bad} violations in {checks} checks "
           f"(exhaustive S<=64, randomized 1e6 at S=2^64)")
