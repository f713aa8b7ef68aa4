"""Fault injection for the ``validate`` gates and the acceptance checks.

Each of the six gates, and each acceptance check but C02, judges one
quantity found two ways.  Planting one fault in that quantity (a
monkeypatch) must turn the verdict to FAIL; a check that no single fault can
fail checks nothing.  The two strict xfails are faults that every gate
passes today (ROADMAP item 11).  C02 is left out for its cost: it runs 768
cells at 10^6 trials, and a planted run would take as long again.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from pld import checks, crypto, distortion, fbl, strategy
from pld.channels import primary_pmf
from pld.cli import load_scenario_file
from pld.core import NULL_MSG, Scenario
from pld.distortion import DistortionReport
import test_acceptance as acceptance

SCENARIO = Scenario(codebook_size=64, d_loss=1.0, d_conf=10.0, alpha=0.9,
                    snr_bob_db=3.0, snr_eve_db=0.0)
TRIALS, SEED = 20_000, 20250801
LARGE = Path(__file__).resolve().parents[1] / "scenarios" / "large_codebook.json"

_decrypt_batch = crypto.decrypt_batch
_deception_search = strategy.deception_search
_receiver_curves = strategy.receiver_curves
_delta_terms_at = distortion._delta_terms_at
_pipeline = distortion.deterministic_pipeline_distortion
_opportunistic = distortion.opportunistic_distortion


def verdicts(scenario: Scenario) -> dict[str, str]:
    return {r.name: r.status for r in checks.run_validation(scenario, TRIALS, SEED)}


def decrypt_to_a_neighbour(s, k, size, out=None):
    out = _decrypt_batch(s, k, size, out=out)
    out ^= np.uint64(1)  # the word next to the plaintext, in range for even S
    return out


def delivery_too_likely(received, sent, eps):
    p = primary_pmf(received, sent, eps)
    return p if received is NULL_MSG else 1.01 * p


def delta3_high_above_0_3(scenario, eps_s, a):
    d1, d2, d3 = _delta_terms_at(scenario, eps_s, a)
    return d1, d2, d3 * (1.05 if eps_s > 0.3 else 1.0)


def pipeline_confusion_high(scenario, eps_p, eps_s):
    rep = _pipeline(scenario, eps_p, eps_s)
    confusion = 1.01 * rep.confusion_part
    return DistortionReport(rep.loss_part + confusion, rep.loss_part, confusion)


def loss_part_low(scenario, eps_p, eps_s, strategy):
    rep = _opportunistic(scenario, eps_p, eps_s, strategy)
    return DistortionReport(rep.total, 0.99 * rep.loss_part, rep.confusion_part)


def parts_trade_mass(scenario, eps_p, eps_s, strategy):
    rep = _opportunistic(scenario, eps_p, eps_s, strategy)
    moved = 0.5 * rep.confusion_part
    return DistortionReport(rep.total, rep.loss_part + moved, rep.confusion_part - moved)


# (gate, module, name, fault): the gate judges what module.name computes
FAULTS = [
    ("cipher-identities", checks, "decrypt_batch", decrypt_to_a_neighbour),
    ("channel-pmf-rows", checks, "primary_pmf", delivery_too_likely),
    ("closed-form-vs-enumeration", distortion, "_delta_terms_at", delta3_high_above_0_3),
    ("perception-vs-pipeline", distortion, "deterministic_pipeline_distortion",
     pipeline_confusion_high),
    ("closed-form-vs-monte-carlo", crypto, "decrypt_batch", decrypt_to_a_neighbour),
    ("report-decomposition", distortion, "opportunistic_distortion", loss_part_low),
]


def test_every_gate_passes_without_a_fault():
    assert verdicts(SCENARIO) == {gate: "PASS" for gate, *_ in FAULTS}


@pytest.mark.parametrize("gate, module, name, fault", FAULTS, ids=[f[0] for f in FAULTS])
def test_a_planted_fault_fails_its_gate(monkeypatch, gate, module, name, fault):
    monkeypatch.setattr(module, name, fault)
    assert verdicts(SCENARIO)[gate] == "FAIL"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11(b): above the enumeration cap "
                   "the Monte Carlo gate judges Eve's rate, but its analytic bound "
                   "allows this fault")
def test_delta3_fault_fails_a_gate_above_the_enumeration_cap(monkeypatch):
    # Eve's rate at 0 dB is 0.5; at S = 4096 the enumeration gate fails
    monkeypatch.setattr(distortion, "_delta_terms_at", delta3_high_above_0_3)
    assert "FAIL" in verdicts(load_scenario_file(str(LARGE)).scenario).values()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11(a): report-decomposition "
                   "compares a sum with itself")
def test_loss_and_confusion_trading_mass_fails_a_gate(monkeypatch):
    monkeypatch.setattr(distortion, "opportunistic_distortion", parts_trade_mass)
    assert "FAIL" in verdicts(SCENARIO).values()


def delta1_without_alpha(scenario, eps_s, a):
    _, d2, d3 = _delta_terms_at(scenario, eps_s, a)
    return eps_s * scenario.d_conf, d2, d3


def delta2_without_alpha(scenario, eps_s, a):
    d1, _, d3 = _delta_terms_at(scenario, eps_s, a)
    return d1, (eps_s + (1.0 - a)) * scenario.d_loss, d3


def delta2_times_10(scenario, eps_s, a):
    """Dropping charged as if it confused, so no switch lies in C04's brackets."""
    d1, d2, d3 = _delta_terms_at(scenario, eps_s, a)
    return d1, 10.0 * d2, d3


def exclusion_ratio_inverted(scenario, eps_s, a):
    """Exclusion guesses wrong with the chance of guessing right, 1/(S-1)."""
    d1, d2, _ = _delta_terms_at(scenario, eps_s, a)
    return d1, d2, (eps_s * a / (scenario.codebook_size - 1) + (1.0 - a)) * scenario.d_conf


def capacity_in_nats(snr_linear):
    return math.log1p(snr_linear)


def search_for_the_least_eve(bobs, spans, eves):
    flipped = eves.copy()
    flipped[1:] *= -1.0  # Eve's intercepts and slopes
    out = _deception_search(bobs, spans, flipped)
    out[1] *= -1.0
    return out


def curves_without_erasure_floor(scenario, eps_p, eps_s):
    curves = _receiver_curves(scenario, eps_p, eps_s)
    curves[1] -= (eps_p * scenario.d_loss)[:, None]
    return curves


# (check, module, name, fault): the check judges what module.name computes
ACCEPTANCE_FAULTS = [
    ("C01", distortion, "_delta_terms_at", delta3_high_above_0_3),
    ("C03", distortion, "_delta_terms_at", delta1_without_alpha),
    ("C04", distortion, "_delta_terms_at", delta2_without_alpha),
    ("C05", distortion, "_delta_terms_at", exclusion_ratio_inverted),
    ("C06", strategy, "OPTION_LABELS", ("perception", "exclusion", "dropping")),
    ("C07", fbl, "shannon_capacity", capacity_in_nats),
    ("C08", strategy, "deception_search", search_for_the_least_eve),
    ("C09", strategy, "receiver_curves", curves_without_erasure_floor),
    ("C10", acceptance, "decrypt_batch", decrypt_to_a_neighbour),
]
ACCEPTANCE_CHECKS = {
    "C01": acceptance.test_c01_closed_form_matches_enumeration,
    "C03": acceptance.test_c03_perception_strategy_simplifies,
    "C04": acceptance.test_c04_small_codebook_thresholds,
    "C05": acceptance.test_c05_large_codebook_never_excludes,
    "C06": acceptance.test_c06_strategy_regions_ordered,
    "C07": acceptance.test_c07_error_rate_landmark_and_monotone,
    "C08": acceptance.test_c08_optimizer_matches_grid_search,
    "C09": acceptance.test_c09_deception_sweep_monotone,
    "C10": acceptance.test_c10_cipher_identities,
}


@pytest.mark.parametrize("check, module, name, fault", ACCEPTANCE_FAULTS,
                         ids=[f[0] for f in ACCEPTANCE_FAULTS])
def test_a_planted_fault_fails_its_acceptance_check(monkeypatch, check, module, name,
                                                    fault):
    verdicts = []
    monkeypatch.setattr(module, name, fault)
    ACCEPTANCE_CHECKS[check](lambda tag, ok, detail: verdicts.append((tag, ok)))
    assert verdicts == [(check, False)]


def test_c04_reports_a_switch_outside_its_bracket(monkeypatch):
    details = []
    monkeypatch.setattr(distortion, "_delta_terms_at", delta2_times_10)
    acceptance.test_c04_small_codebook_thresholds(
        lambda tag, ok, detail: details.append((tag, ok, detail)))
    [(tag, ok, detail)] = details
    assert (tag, ok) == ("C04", False)
    assert "eps_s=nan in [1e-06, 0.01]" in detail
