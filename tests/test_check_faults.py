"""Fault injection for the ``validate`` gates.

Each of the six gates judges one quantity found two ways.  Planting one
fault in that quantity (a monkeypatch) must turn the gate's verdict to
FAIL; a gate that no single fault can fail checks nothing.  The two strict
xfails are faults that every gate passes today (ROADMAP item 11).
"""
from pathlib import Path

import numpy as np
import pytest

from pld import checks, crypto, distortion
from pld.channels import primary_pmf
from pld.cli import load_scenario_file
from pld.core import NULL_MSG, Scenario
from pld.distortion import DistortionReport

SCENARIO = Scenario(codebook_size=64, d_loss=1.0, d_conf=10.0, alpha=0.9,
                    snr_bob_db=3.0, snr_eve_db=0.0)
TRIALS, SEED = 20_000, 20250801
LARGE = Path(__file__).resolve().parents[1] / "scenarios" / "large_codebook.json"

_decrypt_batch = crypto.decrypt_batch
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
                   "no gate judges the closed forms at Eve's rate")
def test_delta3_fault_fails_a_gate_above_the_enumeration_cap(monkeypatch):
    # Eve's rate at 0 dB is 0.5; at S = 4096 the enumeration gate fails
    monkeypatch.setattr(distortion, "_delta_terms_at", delta3_high_above_0_3)
    assert "FAIL" in verdicts(load_scenario_file(str(LARGE)).scenario).values()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11(a): report-decomposition "
                   "compares a sum with itself")
def test_loss_and_confusion_trading_mass_fails_a_gate(monkeypatch):
    monkeypatch.setattr(distortion, "opportunistic_distortion", parts_trade_mass)
    assert "FAIL" in verdicts(SCENARIO).values()
