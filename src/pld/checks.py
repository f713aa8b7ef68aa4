"""The self-check suite behind ``pld validate``: six gates, each comparing a
quantity found two independent ways, and one rule, ``_judged``, that passes
a gate whose worst discrepancy is within its tolerance (a nan fails).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import distortion, montecarlo, strategy
from .channels import primary_pmf, secondary_pmf
from .core import NULL_KEY, NULL_MSG, Scenario
from .crypto import decrypt_batch, encrypt_batch
from .distortion import DROPPING, EXCLUSION, PERCEPTION, DistortionReport, ReceiverStrategy
from .fbl import receiver_error_rates


@dataclass(frozen=True)
class GateResult:
    name: str
    status: str  # PASS / FAIL / SKIP
    detail: str


def _judged(name: str, worst: float, tol: float, detail: str) -> GateResult:
    """PASS when ``worst <= tol``, else FAIL: a nan fails."""
    return GateResult(name, "PASS" if worst <= tol else "FAIL", detail)


def _gate_cipher_identities(scenario: Scenario, rng: np.random.Generator) -> GateResult:
    size = scenario.codebook_size
    if size <= 256:  # every (word, key) pair, key 0 standing for NULL_KEY
        w, k = np.divmod(np.arange(size * size, dtype=np.uint64), np.uint64(size))
        kind = "exhaustive"
    else:  # drawn pairs, keys 1 .. S-1; each slice adds its words under key 0
        w = rng.integers(0, size, size=100_000, dtype=np.uint64)
        k = rng.integers(1, size, size=100_000, dtype=np.uint64)
        kind = "randomized"
    violations, moved, checks = 0, 0, 1  # the one check of the inputs
    for lo in range(0, w.size, 5_000):  # slices bound the cipher's scratch
        ws, ks = w[lo:lo + 5_000], k[lo:lo + 5_000]
        if kind == "randomized":
            ws, ks = np.tile(ws, 2), np.concatenate([ks, np.zeros_like(ks)])
        words, keys = ws.copy(), ks.copy()
        s = encrypt_batch(ws, ks, size)
        null = ks == 0
        bad_shift = (s == ws) != null  # a key moves its word, NULL_KEY leaves it
        bad_undo = decrypt_batch(s, ks, size) != ws  # decryption undoes both
        # one check a keyed pair, two a NULL_KEY pair (encryption, decryption)
        checks += ws.size + np.count_nonzero(null)
        violations += (np.count_nonzero(bad_shift | bad_undo)
                       + np.count_nonzero(bad_shift & bad_undo & null))
        # the cipher leaves its inputs alone, so a batch can be walked again
        moved |= not (np.array_equal(ws, words) and np.array_equal(ks, keys))
    violations += moved
    return _judged("cipher-identities", violations, 0,
                   f"{violations} violations in {checks} {kind} checks (S={size})")


def _worst_rel_diff(got, want) -> float:
    """Largest |got - want| / max(1, |want|) over the arrays; nan if any term is."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _rel_diff_gate(name: str, got, want, tol: float,
                   detail: str = "max rel diff {worst:.3e} (tol {tol:g})") -> GateResult:
    worst = _worst_rel_diff(got, want)
    return _judged(name, worst, tol, detail.format(worst=worst, tol=tol))


def _gate_channel_rows(eps_values: list[float]) -> GateResult:
    rows, strays = [], []
    for eps in eps_values:
        rows += [primary_pmf(7, 7, eps) + primary_pmf(NULL_MSG, 7, eps),
                 secondary_pmf(3, 3, eps) + secondary_pmf(NULL_KEY, 3, eps),
                 secondary_pmf(NULL_KEY, NULL_KEY, eps)]
        strays += [primary_pmf(8, 7, eps), secondary_pmf(4, 3, eps),
                   secondary_pmf(3, NULL_KEY, eps)]
    return _rel_diff_gate("channel-pmf-rows", rows + strays,
                          [1.0] * len(rows) + [0.0] * len(strays), 1e-12,
                          "max row-sum deviation {worst:.3e}")


_GATE_STRATEGIES = (PERCEPTION, DROPPING, EXCLUSION, ReceiverStrategy(1 / 3, 1 / 3, 1 / 3))


def _gate_enumeration(scenario: Scenario, eps_pairs: list[tuple[float, float]],
                      reports: list[DistortionReport], skipped: str | None) -> GateResult:
    name = "closed-form-vs-enumeration"
    if skipped:
        return GateResult(name, "SKIP", f"skipped: {skipped}")
    oracles = distortion.enumeration_oracle(scenario, eps_pairs, _GATE_STRATEGIES)
    return _rel_diff_gate(name, [rep.total for rep in reports], np.ravel(oracles), 1e-10)


def _gate_perception_reduction(scenario: Scenario, rng: np.random.Generator) -> GateResult:
    perceived, pipelined = [], []
    for _ in range(200):
        alpha, eps_p, eps_s = rng.random(3)
        sc = replace(scenario, alpha=float(alpha))
        perceived.append(distortion.opportunistic_distortion(
            sc, float(eps_p), float(eps_s), PERCEPTION
        ).total)
        pipelined.append(distortion.deterministic_pipeline_distortion(
            sc, float(eps_p), float(eps_s)
        ).total)
    return _rel_diff_gate("perception-vs-pipeline", perceived, pipelined, 1e-12)


def _gate_monte_carlo(scenario: Scenario, judged: list[tuple[float, float]], trials: int,
                      seed: int, reports: list[DistortionReport]) -> GateResult:
    """One shared walk per judged pair, from its child of ``seed``; a walk's
    strategies are judged before the next pair's walk, and a FAIL ends it."""
    name, n = "closed-form-vs-monte-carlo", len(_GATE_STRATEGIES)
    sigmas = []
    children = np.random.SeedSequence(seed).spawn(len(judged))
    for i, (pair, child) in enumerate(zip(judged, children)):
        best = strategy.optimal_receiver_strategy(distortion.delta_terms(scenario, pair[1]))
        strategies = _GATE_STRATEGIES + (best.strategy,)
        closed_forms = [rep.total for rep in reports[n * i:n * (i + 1)]] + [
            distortion.opportunistic_distortion(scenario, *pair, best.strategy).total]
        estimates = montecarlo.estimate_distortions(scenario, *pair, strategies, trials,
                                                    int(child.generate_state(1, np.uint64)[0]))
        for strat, est, closed in zip(strategies, estimates, closed_forms):
            gap = abs(est.mean - closed)
            # distortion lives in {0, d_loss, d_conf}, so Var <= d_conf * mean;
            # the analytic bound keeps the gate meaningful when events are so
            # rare that the empirical standard error collapses to zero, and
            # is the unit of a strategy without a positive one (one trial
            # alone has nan).  Its root is taken factor by factor, as
            # d_conf * mean can overflow.
            se_bound = math.sqrt(scenario.d_conf / trials) * math.sqrt(max(closed, 0.0))
            scale = est.std_error if est.std_error > 0 else se_bound
            tol = 4.0 * max(scale, se_bound) + 1e-12
            verdict = _judged(name, gap, tol, f"|{est.mean:.6g} - {closed:.6g}| = "
                              f"{gap:.3e} > tol={tol:.3e} at {trials} trials, (eps_p, eps_s) "
                              f"= ({pair[0]:.6g}, {pair[1]:.6g}), strategy ({strat.beta1:.6g}, "
                              f"{strat.beta2:.6g}, {strat.beta3:.6g})")
            if verdict.status == "FAIL":  # the first strategy off its closed form
                return verdict
            if scale > 0:
                sigmas.append(gap / scale)
    return GateResult(name, "PASS", f"max |mean-analytic| = {max(sigmas, default=0.0):.2f} "
                      f"sigma over {len(judged)} pairs x {n + 1} strategies at {trials} trials")


def _gate_decomposition(scenario: Scenario, eps_pairs: list[tuple[float, float]],
                        reports: list[DistortionReport]) -> GateResult:
    reports = reports + [distortion.deterministic_pipeline_distortion(scenario, eps_p, eps_s)
                         for eps_p, eps_s in eps_pairs]
    return _rel_diff_gate("report-decomposition",
                          [rep.loss_part + rep.confusion_part for rep in reports],
                          [rep.total for rep in reports], 1e-12)


def run_validation(scenario: Scenario, trials: int, seed: int) -> list[GateResult]:
    """Run every self-check gate, the Monte Carlo one at ``trials`` trials and
    every draw from ``seed``; FAIL on any discrepancy beyond tolerance."""
    eps_bob, eps_eve = receiver_error_rates(scenario).tolist()
    eps_pairs = [(eps_bob, eps_bob), (eps_eve, eps_eve), (0.1, 0.2), (0.5, 0.5)]
    # the closed forms three gates judge, in the oracle's order flattened
    reports = [distortion.opportunistic_distortion(scenario, eps_p, eps_s, strat)
               for eps_p, eps_s in eps_pairs for strat in _GATE_STRATEGIES]
    skipped = distortion.enumeration_limit(scenario)  # the one oracle split
    judged = eps_pairs if skipped else eps_pairs[:1]  # Monte Carlo's pairs, Bob's first
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return [
        _gate_cipher_identities(scenario, rng),
        _gate_channel_rows([0.0, 0.25, 1.0, eps_bob, eps_eve]),
        _gate_enumeration(scenario, eps_pairs, reports, skipped),
        _gate_perception_reduction(scenario, rng),
        _gate_monte_carlo(scenario, judged, trials, seed, reports),
        _gate_decomposition(scenario, eps_pairs, reports),
    ]
