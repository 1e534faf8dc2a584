"""Semigroup time evolution of Gamow amplitudes, in both time regimes.

A resonance pole Z = E_R - i Gamma/2 carries four scalar evolution laws,
each defined on one temporal half-line only (the regime index r tells the
laboratory regime r = 0 from its time-reversed partner r = 1):

    growing,  r=0:  exp(-i E_R t + Gamma t / 2),   t <= 0
    decaying, r=0:  exp(-i E_R t - Gamma t / 2),   t >= 0
    decaying, r=1:  exp(+i E_R t - Gamma t / 2),   t >= 0
    growing,  r=1:  exp(+i E_R t + Gamma t / 2),   t <= 0

The half-domain restriction is the physical content, so times outside a
law's half-line raise HalfDomainError rather than being clamped.  t = 0
belongs to both half-lines (both inequalities are non-strict).

The r=1 laws are the r=0 laws read backwards: decaying_r1(t) = growing_r0(-t)
and growing_r1(t) = decaying_r0(-t), identities that hold exactly here
because both sides build the same floating-point exponent.  Amplitudes are
scalar factors on a fixed (non-normalizable) Gamow ket; survival is the
squared modulus, 1 at t = 0, and never exceeds 1 on the allowed half-line.

All four laws are one function, ``amplitude(law, pole, t)``: t is a float
(giving a complex) or an array of times (giving a complex array).
``evolution_series`` samples a state's law on a time grid and returns one
record per time, with fields ``t``, ``amplitude`` and ``survival``.

Everything is a pure function of immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scattering import ResonancePole

__all__ = [
    "HalfDomainError",
    "Kind",
    "SpaceLabel",
    "Law",
    "GamowState",
    "amplitude",
    "time_reverse",
    "semigroup_compose_check",
    "evolution_series",
]


class HalfDomainError(ValueError):
    """A time outside the half-line on which a semigroup law is defined."""


class Kind(Enum):
    GROWING = "growing"
    DECAYING = "decaying"


class SpaceLabel(Enum):
    """Which dual space the state lives in: growing states sit in Phi_-^x."""

    PHI_MINUS_DUAL = "Phi_minus_dual"
    PHI_PLUS_DUAL = "Phi_plus_dual"


class Law(Enum):
    """The four evolution laws, keyed by the CLI codes g0/d0/d1/g1."""

    GROWING_R0 = ("g0", Kind.GROWING, 0)
    DECAYING_R0 = ("d0", Kind.DECAYING, 0)
    DECAYING_R1 = ("d1", Kind.DECAYING, 1)
    GROWING_R1 = ("g1", Kind.GROWING, 1)

    def __init__(self, code: str, kind: Kind, regime: int):
        self.code = code
        self.kind = kind
        self.regime = regime

    @property
    def time_domain(self) -> str:
        return "t >= 0" if self.kind is Kind.DECAYING else "t <= 0"

    def admits(self, t):
        """True where t lies on the law's half-line (elementwise; NaN never does)."""
        return t >= 0 if self.kind is Kind.DECAYING else t <= 0

    @classmethod
    def from_code(cls, code: str) -> "Law":
        for law in cls:
            if law.code == code:
                return law
        raise ValueError(f"unknown law code {code!r}; expected one of g0, d0, d1, g1")

    @classmethod
    def for_state(cls, kind: Kind, regime: int) -> "Law":
        for law in cls:
            if law.kind is kind and law.regime == regime:
                return law
        raise ValueError(f"no law for kind={kind}, regime={regime}")


def amplitude(law: Law, pole: ResonancePole, t):
    """The law's amplitude (module table) at a time or an array of times.

    A float t gives a complex, an array gives a complex array.  Any t off the
    law's half-line (NaN included) raises HalfDomainError naming the first one.
    Where the modulus e^{-Gamma |t| / 2} underflows the amplitude is 0, even if
    E_R t overflows; where E_R t overflows and the modulus does not, the phase
    is undefined and ValueError names the first such t.
    """
    ts = np.asarray(t, dtype=float)
    outside = ~law.admits(ts)
    if outside.any():
        raise HalfDomainError(
            f"law {law.code} ({law.kind.value}, r={law.regime}) is defined on "
            f"{law.time_domain} only; got t = {ts[outside][0]}"
        )
    phase = -pole.e_r if law.regime == 0 else pole.e_r
    rate = 0.5 * pole.gamma if law.kind is Kind.GROWING else -0.5 * pole.gamma
    # on the half-line rate * t <= 0: a product that overflows is a modulus that underflows to 0;
    # a phase E_R t that overflows makes the amplitude NaN, which is 0 where the modulus is
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = complex(rate, phase) * ts
        amp = np.exp(exponent)
    lost = np.isnan(amp)
    if lost.any():
        undefined = lost & (np.exp(exponent.real) > 0)
        if undefined.any():
            raise ValueError(f"E_R t overflows at t = {ts[undefined][0]} with E_R = {pole.e_r}, "
                             "so the amplitude's phase is undefined")
        amp = np.where(lost, 0j, amp)
    return complex(amp) if amp.ndim == 0 else amp


@dataclass(frozen=True)
class GamowState:
    """A Gamow vector label: pole data, growing/decaying kind, regime index.

    The dual-space label is derived: growing states live in Phi_-^x and
    decaying states in Phi_+^x, in both regimes.
    """

    pole: ResonancePole
    kind: Kind
    regime: int

    def __post_init__(self):
        if self.regime not in (0, 1):
            raise ValueError(f"regime must be 0 or 1, got {self.regime}")

    @property
    def space_label(self) -> SpaceLabel:
        return SpaceLabel.PHI_MINUS_DUAL if self.kind is Kind.GROWING else SpaceLabel.PHI_PLUS_DUAL

    @property
    def law(self) -> Law:
        return Law.for_state(self.kind, self.regime)


def time_reverse(state: GamowState) -> GamowState:
    """Map a state to its time-reversed partner: r flips and Phi_-+^x swap.

    The output's law is the input's law under t -> -t, so growing states map
    to decaying ones and vice versa; the pole data are untouched.  Applying
    the map twice returns the original label.
    """
    flipped = Kind.DECAYING if state.kind is Kind.GROWING else Kind.GROWING
    return GamowState(pole=state.pole, kind=flipped, regime=1 - state.regime)


def semigroup_compose_check(pole: ResonancePole, law: Law, t1: float, t2: float) -> bool:
    """True iff amplitude(t1 + t2) = amplitude(t1) * amplitude(t2) to rounding.

    The relative tolerance is max(1e-12, 4 eps |Gamma/2 + i E_R| (|t1| + |t2|)):
    each exponent (Gamma/2 + i E_R) t is good to an ulp of itself, so at long times
    the law holds only to that many ulps.  Both times (and hence their sum) must lie
    in the law's half-domain.
    """
    a1, a2, combined = amplitude(law, pole, [t1, t2, t1 + t2]).tolist()
    rate = abs(complex(0.5 * pole.gamma, pole.e_r))
    tolerance = max(1e-12, 4.0 * np.finfo(float).eps * rate * (abs(t1) + abs(t2)))
    return abs(combined - a1 * a2) <= tolerance * abs(combined)


def evolution_series(state: GamowState, times) -> np.recarray:
    """Sample the state's law on a time grid; every t must be in-domain.

    Returns one record per time with fields t, amplitude and survival.
    """
    ts = np.asarray(times, dtype=float)
    amp = amplitude(state.law, state.pole, ts)
    # hypot, as CPython's abs(complex) uses; numpy's complex abs differs from
    # it in the last bit on about a third of inputs
    survival = np.hypot(amp.real, amp.imag) ** 2
    return np.rec.fromarrays([ts, amp, survival], names="t,amplitude,survival")
