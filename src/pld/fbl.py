"""Finite-blocklength packet error rates via the normal approximation.

A packet of ``info_bits_k`` payload bits is carried by ``blocklength_n``
channel uses of a real-valued AWGN channel at a given SNR.  The decode error
probability follows the normal approximation built from the Shannon capacity
C(g) and channel dispersion V(g); each real channel use contributes C(g)/2
bits of capacity and V(g)/2 of dispersion.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Scenario, ScenarioError, _is_int, code_violations, snr_db_to_linear

LOG2_E = math.log2(math.e)

#: Error rates are clamped into this open-interval stand-in: strictly positive,
#: strictly below 1, so downstream logs and odds never blow up.
EPS_FLOOR = 1e-300
EPS_CEIL = math.nextafter(1.0, 0.0)


def shannon_capacity(snr_linear: float) -> float:
    """AWGN capacity log2(1 + g) in bits per complex channel use."""
    if not snr_linear > 0.0:  # NaN too
        raise ValueError(f"SNR must be positive, got {snr_linear!r}")
    return math.log2(1.0 + snr_linear)


def channel_dispersion(snr_linear: float) -> float:
    """AWGN dispersion V(g) = (1 - (1+g)^-2) * (log2 e)^2."""
    if not snr_linear > 0.0:  # NaN too
        raise ValueError(f"SNR must be positive, got {snr_linear!r}")
    return (1.0 - (1.0 + snr_linear) ** -2) * LOG2_E * LOG2_E


def q_function(x: float) -> float:
    """Gaussian tail Q(x) = P(N(0,1) > x), computed from erfc for accuracy."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class FblCode:
    """A fixed (n, k) block code: n channel uses carrying k payload bits."""

    blocklength_n: int
    info_bits_k: int

    def __post_init__(self) -> None:
        dims = (self.blocklength_n, self.info_bits_k)
        if not all(_is_int(d) and d >= 1 for d in dims):
            raise ValueError(f"code dimensions must be positive integers, got {dims!r}")
        if self.info_bits_k > self.blocklength_n:
            raise ValueError(
                f"info bits {self.info_bits_k} exceed blocklength "
                f"{self.blocklength_n}"
            )

    @classmethod
    def from_rate(cls, payload_bits: int, code_rate: float) -> FblCode:
        """The code of k = ``payload_bits`` at rate k/n = ``code_rate``, n
        being k/rate rounded; ScenarioError listing ``code_violations``."""
        if bad := code_violations(payload_bits, code_rate):
            raise ScenarioError(bad)
        return cls(round(payload_bits / code_rate), payload_bits)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> FblCode:
        return cls.from_rate(scenario.payload_bits, scenario.code_rate)


def packet_error_rate(snr_linear: float, code: FblCode) -> float:
    """Normal-approximation decode error rate on the real AWGN channel.

    eps = Q( (n*C(g)/2 - k) / sqrt(n*V(g)/2) ): n real channel uses each
    carry C(g)/2 bits with dispersion V(g)/2, no higher-order correction.
    At the SNR where the code rate k/n equals C(g)/2 the argument is zero
    and eps is exactly 1/2.  The result is clamped away from 0 and 1.
    Below about -159.5 dB, 1 + g rounds to 1 and the dispersion is 0; the
    argument's limit is then -inf, so eps is its limit 1, clamped.  Below
    about -3233 dB, g itself underflows to 0, and eps is the same limit.
    """
    if snr_linear == 0.0:
        return EPS_CEIL
    n = code.blocklength_n
    capacity_bits = 0.5 * n * shannon_capacity(snr_linear)
    dispersion = 0.5 * n * channel_dispersion(snr_linear)
    if dispersion == 0.0:
        return EPS_CEIL
    eps = q_function((capacity_bits - code.info_bits_k) / math.sqrt(dispersion))
    return min(max(eps, EPS_FLOOR), EPS_CEIL)


def error_rates(code: FblCode, snrs_db: Sequence[float] | np.ndarray) -> np.ndarray:
    """``packet_error_rate`` at each SNR in dB (ValueError past ~3082 dB), one
    ``math`` call each: numpy's transcendentals may round differently."""
    return np.array([packet_error_rate(snr_db_to_linear(snr), code)
                     for snr in np.asarray(snrs_db, dtype=float).tolist()])


def receiver_error_rates(scenario: Scenario) -> np.ndarray:
    """``error_rates`` of the scenario's code at Bob's and Eve's SNRs, in order."""
    return error_rates(FblCode.from_scenario(scenario),
                       (scenario.snr_bob_db, scenario.snr_eve_db))
