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

from .core import Scenario

LOG2_E = math.log2(math.e)

#: Error rates are clamped into this open-interval stand-in: strictly positive,
#: strictly below 1, so downstream logs and odds never blow up.
EPS_FLOOR = 1e-300
EPS_CEIL = math.nextafter(1.0, 0.0)


def snr_db_to_linear(snr_db: float) -> float:
    """10^(dB/10); ValueError if that exceeds the float range (~3082 dB)."""
    try:  # math.pow raises on overflow for numpy floats too; ** returns inf
        return math.pow(10.0, snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR {snr_db!r} dB overflows the float range") from None


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
        if self.blocklength_n < 1 or self.info_bits_k < 1:
            raise ValueError(
                f"code dimensions must be positive, got "
                f"({self.blocklength_n}, {self.info_bits_k})"
            )
        if self.info_bits_k > self.blocklength_n:
            raise ValueError(
                f"info bits {self.info_bits_k} exceed blocklength "
                f"{self.blocklength_n}"
            )

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> FblCode:
        return cls(scenario.blocklength, scenario.payload_bits)


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
