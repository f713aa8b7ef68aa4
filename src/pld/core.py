"""Core value types for the deception simulator.

Meanings and codewords are integers in {0, ..., S-1} for a codebook of
cardinality S.  Two sentinels extend the alphabets: NULL_MSG marks an erased
codeword (and an estimator's deliberate "no decision"), NULL_KEY marks the
absence of an encryption key.  Semantic distortion is a three-level distance:
0 for an exact match, ``d_loss`` for a lost meaning, ``d_conf`` for a wrong
one, with ``d_conf > d_loss > 0`` so confusion hurts more than loss.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


class _Sentinel:
    """Identity-compared marker; two of these exist, NULL_MSG and NULL_KEY."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: Erased codeword / withheld estimate.
NULL_MSG = _Sentinel("NULL_MSG")
#: Absent key (deception not activated, or key lost in transit).
NULL_KEY = _Sentinel("NULL_KEY")

Symbol = int | _Sentinel
Key = int | _Sentinel

#: Largest codebook the exhaustive-enumeration oracle will accept.
ENUMERATION_CAP = 4096

#: The Scenario fields that are integers, and those stored as floats.
INT_FIELDS = ("codebook_size", "payload_bits")
REAL_FIELDS = ("d_loss", "d_conf", "alpha", "code_rate", "snr_bob_db", "snr_eve_db")


@dataclass(frozen=True)
class Scenario:
    """One experiment configuration.

    ``codebook_size`` is the cardinality S of the meaning set; keys live in
    {1, ..., S-1}.  ``alpha`` is the deception activation rate: the prior
    probability that a transmission carries a real key rather than NULL_KEY.
    ``payload_bits`` and ``code_rate`` determine the blocklength of the
    finite-blocklength code used on both transport channels, and the SNR
    fields place the two receivers on that code's error-rate curve.
    Construction (``dataclasses.replace`` included) stores the real fields as
    floats and raises ScenarioError listing every type, else range, problem.
    """

    codebook_size: int
    d_loss: float
    d_conf: float
    alpha: float
    payload_bits: int = 64
    code_rate: float = 0.5
    snr_bob_db: float = 4.0
    snr_eve_db: float = 0.0

    def __post_init__(self) -> None:
        bad = [f"{f} must be an integer, got {getattr(self, f)!r}"
               for f in INT_FIELDS if not _is_int(getattr(self, f))]
        bad += real_violations(**{f: getattr(self, f) for f in REAL_FIELDS})
        if not bad:  # the range rules compare numbers
            for field in REAL_FIELDS:
                object.__setattr__(self, field, float(getattr(self, field)))
            bad = scenario_violations(self)
        if bad:
            raise ScenarioError(bad)

    @property
    def blocklength(self) -> int:
        """Channel uses per packet, ``payload_bits / code_rate`` rounded."""
        return round(self.payload_bits / self.code_rate)


class ScenarioError(ValueError):
    """Raised when building a bad Scenario; carries the full list of violations."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def real_violations(**values: object) -> list[str]:
    """The type rule of a real field: a number, not a bool, that fits a float."""
    bad = []
    for key, x in values.items():
        if not isinstance(x, numbers.Real) or isinstance(x, bool):
            bad.append(f"{key} must be a number, got {x!r}")
            continue
        try:
            float(x)
        except OverflowError:  # an integer beyond the float range
            bad.append(f"{key} is too large for a float")
    return bad


def code_violations(payload_bits: int, code_rate: float) -> list[str]:
    """Rules for the (n, k) code: k >= 1, rate in (0, 1], integer n = k/rate."""
    bad: list[str] = []
    if not _is_int(payload_bits) or payload_bits < 1:
        bad.append(f"payload_bits must be a positive integer, got {payload_bits!r}")
    if not (math.isfinite(code_rate) and 0.0 < code_rate <= 1.0):
        bad.append(f"code_rate must lie in (0, 1], got {code_rate!r}")
    elif _is_int(payload_bits):
        try:
            n = payload_bits / code_rate
        except OverflowError:  # an integer beyond the float range
            n = math.inf
        if not math.isfinite(n):
            bad.append(
                f"payload_bits/code_rate must be a finite blocklength, got {n!r}"
            )
        elif abs(n - round(n)) > 1e-9:
            bad.append(
                f"payload_bits/code_rate must be an integer blocklength, got {n!r}"
            )
    return bad


def scenario_violations(s: Scenario) -> list[str]:
    """Return every range rule the typed scenario breaks (empty list if none)."""
    bad: list[str] = []
    # the Monte Carlo cipher works in uint64 arithmetic
    if not 2 <= s.codebook_size <= 1 << 64:
        bad.append(f"codebook_size must lie in [2, 2^64], got {s.codebook_size!r}")
    if not (math.isfinite(s.d_loss) and s.d_loss > 0):
        bad.append(f"d_loss must be finite and > 0, got {s.d_loss!r}")
    if not (math.isfinite(s.d_conf) and s.d_conf > s.d_loss):
        bad.append(f"d_conf must be finite and > d_loss, got {s.d_conf!r}")
    if not (math.isfinite(s.alpha) and 0.0 <= s.alpha <= 1.0):
        bad.append(f"alpha must lie in [0, 1], got {s.alpha!r}")
    bad += code_violations(s.payload_bits, s.code_rate)
    for field in ("snr_bob_db", "snr_eve_db"):
        snr = getattr(s, field)
        if not math.isfinite(snr):
            bad.append(f"{field} must be finite, got {snr!r}")
            continue
        try:  # the channels take the linear SNR, 10^(dB/10), as a float
            math.pow(10.0, snr / 10.0)
        except OverflowError:
            bad.append(f"{field} must be at most ~3082 dB, where 10^(dB/10) "
                       f"still fits a float, got {snr!r}")
    return bad


def distance(w: int, w_hat: Symbol, scenario: Scenario) -> float:
    """Semantic distance d(w, w_hat): 0 exact, d_loss erased, d_conf wrong."""
    if w is NULL_MSG:
        raise ValueError("true meaning cannot be the error flag NULL_MSG")
    if w_hat is NULL_MSG:
        return scenario.d_loss
    if w_hat == w:
        return 0.0
    return scenario.d_conf
