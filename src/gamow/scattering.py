"""S-wave scattering on a spherical delta-shell potential V(r) = g delta(r - a).

Units: hbar = 2m = 1, so E = k^2 and lengths are in units of 1/k.  Matching
the reduced radial function u(r) across the shell (u continuous,
u'(a+) - u'(a-) = g u(a), u(0) = 0) gives the closed-form S-matrix

    S(k) = e^{-2ika} * (e^{ika} + (g/k) sin ka) / (e^{-ika} + (g/k) sin ka).

Poles of S are the zeros of the denominator

    D(k) = e^{-ika} + (g/k) sin ka,

equivalently  e^{2ika} = 1 - 2ik/g  (multiply D = 0 by 2ik e^{ika}/g).
Resonances live in the fourth quadrant of the k plane (second energy sheet,
Re k > 0 > Im k); for an attractive shell with |g| a > 1 there is exactly one
bound state on the positive imaginary axis, k = i kappa with
kappa = |g| (1 - e^{-2 kappa a}) / 2.

With w = g a - 2ika, D(k) = 0 reads w e^w = g a e^{g a}, so every zero is a
branch of the Lambert W function, k_n = (i/2a) (W_n(g a e^{g a}) - g a)
(Corless, Gonnet, Hare, Jeffrey and Knuth, Adv. Comput. Math. 5, 1996);
_branch_poles computes the fourth-quadrant ones in closed form.

For real k the numerator is the complex conjugate of D, so |S| = 1 exactly
(unitarity), and S(-k) S(k) = 1.  Zeros of S sit at the conjugates of its
poles.

Models and pole records are immutable values; every function here is pure,
so concurrent read-only use is safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

__all__ = [
    "IM_KA_BOUND",
    "DeltaShellModel",
    "ResonancePole",
    "SearchRegion",
    "PoleOnContourError",
    "ResonanceFitError",
    "s_matrix",
    "phase_shift",
    "phase_shift_curve",
    "find_poles",
    "pole_count",
    "bound_states",
    "breit_wigner_fit",
    "fit_breit_wigner_curve",
]

# exp(|Im(ka)|) overflows float64 near 709; stay a little under.
IM_KA_BOUND = 700.0

# Newton iteration controls.
_NEWTON_MAX_STEPS = 50
_NEWTON_STEP_SCALE = 1e-7
_NEWTON_CONVERGED = 1e-12
_DEDUP_SEPARATION = 1e-6
_RESIDUAL_FACTOR = 1e-10
# Seeds per batched Newton pass; bounds the working arrays for any seed grid.
_SEED_CHUNK = 4096

# Halley iteration on the Lambert-W log form: from its seed it converges in at
# most 3 steps over |g a| in [1e-8, 3e5] (405 seeded models, 63 branches each).
_HALLEY_MAX_STEPS = 16
_HALLEY_CONVERGED = 1e-10
# Branches breit_wigner_fit may compute to count a window's poles (one per pi / a of Re k).
_FIT_MAX_BRANCHES = 1 << 16


class PoleOnContourError(RuntimeError):
    """A counting contour passes too close to a zero of the denominator."""


class ResonanceFitError(RuntimeError):
    """The requested window does not contain one clean resonance."""


@dataclass(frozen=True)
class DeltaShellModel:
    """Delta-shell parameters: coupling g (1/length, signed) and radius a > 0."""

    g: float
    a: float

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError(f"shell radius a must be positive, got {self.a}")
        if self.g == 0 or not np.isfinite(self.g) or not np.isfinite(self.a):
            raise ValueError(f"coupling g must be finite and nonzero, got {self.g}")


@dataclass(frozen=True)
class ResonancePole:
    """A second-sheet pole Z = e_r - i*gamma/2 = k_pole^2 with gamma > 0."""

    e_r: float
    gamma: float
    k_pole: complex

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError(f"resonance width gamma must be positive, got {self.gamma}")
        z = complex(self.e_r, -0.5 * self.gamma)
        if abs(self.k_pole**2 - z) > 1e-10 * max(abs(z), 1e-300):
            raise ValueError("k_pole^2 does not match e_r - i*gamma/2")

    @classmethod
    def from_momentum(cls, k: complex) -> "ResonancePole":
        z = k * k
        return cls(e_r=z.real, gamma=-2.0 * z.imag, k_pole=k)

    @classmethod
    def from_energy(cls, e_r: float, gamma: float) -> "ResonancePole":
        # principal sqrt of the lower-half-plane energy: Re k > 0, Im k < 0
        return cls(e_r=e_r, gamma=gamma, k_pole=cmath.sqrt(complex(e_r, -0.5 * gamma)))


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the complex k plane plus a seeding density for Newton."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int = 48
    n_im: int = 24

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("search region must satisfy re_min < re_max and im_min < im_max")
        if self.n_re < 2 or self.n_im < 2:
            raise ValueError("seed grid needs at least 2 points per axis")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        """Counterclockwise, starting at the bottom-left corner."""
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def contains(self, k: complex) -> bool:
        return self.re_min < k.real < self.re_max and self.im_min < k.imag < self.im_max


def _g_sinc(model: DeltaShellModel, k):
    """(g/k) sin(ka), analytic across k = 0 (limit g*a)."""
    k = np.asarray(k)
    ka = k * model.a
    small = np.abs(ka) < 1e-4
    if not small.any():
        return model.g * np.sin(ka) / k
    out = model.g * np.sin(ka) / np.where(small, 1.0, k)
    ka = np.where(small, ka, 0.0)  # the series only where it is taken: ka^2 may overflow elsewhere
    series = model.g * model.a * (1.0 - ka * ka / 6.0)
    return np.where(small, series, out)


def _check_im_bound(model: DeltaShellModel, k: np.ndarray) -> None:
    if np.any(np.abs(k.imag) * model.a > IM_KA_BOUND):
        raise OverflowError(f"|Im(k a)| exceeds {IM_KA_BOUND}; e^(ika) would overflow")


def denominator(model: DeltaShellModel, k):
    """D(k) = e^{-ika} + (g/k) sin ka; entire once the k = 0 limit is taken.

    Raises OverflowError when |Im(k a)| exceeds IM_KA_BOUND.
    """
    k = np.asarray(k, dtype=complex)
    _check_im_bound(model, k)
    return np.exp(-1j * k * model.a) + _g_sinc(model, k)


def _term_scale(model: DeltaShellModel, k):
    """Magnitude scale of D's two terms, for relative residual thresholds."""
    k = np.asarray(k, dtype=complex)
    return np.abs(np.exp(-1j * k * model.a)) + np.abs(_g_sinc(model, k))


def s_matrix(model: DeltaShellModel, k):
    """Analytically continued S(k); accepts scalars or arrays of complex k.

    The product e^{-2ika} * num is formed componentwise, so each element of
    an array result is the float that the same k alone gives (numpy's array
    complex product can differ from the scalar one in the last bit).

    Raises ValueError at k = 0 and OverflowError when |Im(k a)| exceeds
    IM_KA_BOUND (where e^{+-ika} would overflow float64).
    """
    karr = np.asarray(k, dtype=complex)
    if np.any(karr == 0):
        raise ValueError("S(k) is not defined at k = 0")
    _check_im_bound(model, karr)
    gs = _g_sinc(model, karr)
    num = np.exp(1j * karr * model.a) + gs
    den = np.exp(-1j * karr * model.a) + gs
    turn = np.exp(-2j * karr * model.a)
    out = np.empty(karr.shape, dtype=complex)
    out.real = turn.real * num.real - turn.imag * num.imag
    out.imag = turn.real * num.imag + turn.imag * num.real
    out = out / den
    return complex(out) if out.ndim == 0 else out


def phase_shift(model: DeltaShellModel, e: float) -> float:
    """Principal-branch phase shift delta(E) in (-pi/2, pi/2], S = e^{2i delta}.

    The one-point case of phase_shift_curve; defined for finite E > 0 only.
    """
    return float(phase_shift_curve(model, [e])[0])


def _jost(model: DeltaShellModel, k):
    """e^{-ika} conj(D(k)), which is |D(k)| e^{i delta(k)} for real k (S = e^{2i delta})."""
    return np.exp(-1j * k * model.a) * np.conj(denominator(model, k))


def phase_shift_curve(model: DeltaShellModel, energies) -> np.ndarray:
    """delta(E) on a grid of finite positive energies, unwrapped to be continuous.

    arg _jost(sqrt(E)) mod pi is the principal branch 0.5 arg S at every
    point; each step then moves to the multiple of pi nearest the previous
    value (a cumulative sum of rounded jumps).  Precondition: adjacent samples
    must be closer together than the narrowest resonance they cross.  A
    coarser grid can step over a resonance's rise by pi and silently lose it.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValueError("energies must be a 1-d array")
    ok = np.isfinite(e) & (e > 0)
    if not np.all(ok):
        raise ValueError(f"phase shift requires finite E > 0, got E = {e[~ok][0]}")
    theta = np.angle(_jost(model, np.sqrt(e)))
    raw = theta - np.pi * np.round(theta / np.pi)
    out = raw.copy()
    out[1:] += np.pi * np.cumsum(np.round((raw[:-1] - raw[1:]) / np.pi))
    return out


def _quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise by CPython's complex division (Smith's method).

    numpy divides complex arrays through a reciprocal, which can land one ulp
    away from ``complex.__truediv__``; this formula keeps the array search on
    the floats a scalar Newton step would produce.  Both of Smith's branches
    are computed and np.where keeps CPython's, so the caller must ignore
    floating-point warnings; a zero or non-finite den gives a non-finite out.
    """
    a, b, c, d = num.real, num.imag, den.real, den.imag
    by_re = np.abs(c) >= np.abs(d)
    out = np.empty_like(num)
    ratio = d / c
    scale = c + d * ratio
    re, im = (a + b * ratio) / scale, (b - a * ratio) / scale
    ratio = c / d
    scale = c * ratio + d
    out.real = np.where(by_re, re, (a * ratio + b) / scale)
    out.imag = np.where(by_re, im, (b * ratio - a) / scale)
    return out


def _newton_zeros(model: DeltaShellModel, seeds: np.ndarray) -> np.ndarray:
    """Polish every seed against D(k) at once; NaN marks a seed that failed.

    Each seed follows the central-difference Newton rules on its own: it
    fails at k = 0, beyond IM_KA_BOUND, on a zero or non-finite D or D', on
    a non-finite iterate, or after _NEWTON_MAX_STEPS, and it stops once
    |step| < 1e-12 (1 + |k|).  A step evaluates D once, on k, k + h and k - h,
    and compacts the live seeds once.  Moduli use np.hypot, the step uses
    _quotient and D' is a componentwise division by 2h, so every endpoint is
    the float that iterating the seed alone with Python complex arithmetic gives.
    """
    ends = np.full(seeds.shape, complex(np.nan, np.nan))
    live = (seeds != 0) & (np.abs(seeds.imag) * model.a <= IM_KA_BOUND)
    idx, k = np.flatnonzero(live), seeds[live]
    with np.errstate(all="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            if not idx.size:
                break
            h = _NEWTON_STEP_SCALE * (1.0 + np.hypot(k.real, k.imag))
            f, plus, minus = np.split(denominator(model, np.concatenate([k, k + h, k - h])), 3)
            df = plus - minus
            df.real /= 2 * h
            df.imag /= 2 * h
            step = _quotient(f, df)
            k = k - step
            live = (df != 0) & np.isfinite(df) & np.isfinite(f) & np.isfinite(k)
            done = live & (
                np.hypot(step.real, step.imag) < _NEWTON_CONVERGED * (1.0 + np.hypot(k.real, k.imag))
            )
            ends[idx[done]] = k[done]
            live &= ~done & (k != 0) & (np.abs(k.imag) * model.a <= IM_KA_BOUND)
            idx, k = idx[live], k[live]
    return ends


def find_poles(model: DeltaShellModel, region: SearchRegion) -> list[ResonancePole]:
    """All resonance poles in a fourth-quadrant rectangle of the k plane.

    Seeds an n_re x n_im grid over the region and polishes all seeds as one
    array Newton iteration on D(k), _SEED_CHUNK seeds at a time.  Converged
    zeros that fall inside the region with |D| below 1e-10 times the local
    term scale are kept and deduplicated in row-major seed order (separation
    1e-6, the smaller |D| wins).  A zero with Re k <= 1e-12 (1 + |k|), below
    what the iteration resolves, is the virtual state of -1 < g a < 0 on the
    imaginary axis and is not kept.  Non-convergent seeds are dropped
    silently; an empty result is valid.
    """
    if not (region.re_min >= 0 and region.im_max <= 0):
        raise ValueError("pole search region must lie in Re k >= 0, Im k <= 0")
    grid = np.empty((region.n_re, region.n_im), dtype=complex)
    grid.real = np.linspace(region.re_min, region.re_max, region.n_re)[:, None]
    grid.imag = np.linspace(region.im_min, region.im_max, region.n_im)[None, :]
    seeds = grid.ravel()
    seeds = seeds[np.hypot(seeds.real, seeds.imag) >= 1e-9]
    ends = np.empty_like(seeds)
    for i in range(0, seeds.size, _SEED_CHUNK):
        ends[i:i + _SEED_CHUNK] = _newton_zeros(model, seeds[i:i + _SEED_CHUNK])
    # Re k at or below Newton's resolution is zero: a virtual state, not a resonance
    inside = (
        (region.re_min < ends.real) & (ends.real < region.re_max)
        & (region.im_min < ends.imag) & (ends.imag < region.im_max)
        & (ends.real > _NEWTON_CONVERGED * (1.0 + np.hypot(ends.real, ends.imag)))
        & (ends.imag < 0)
    )
    ends = ends[inside]
    d = denominator(model, ends)
    resid = np.hypot(d.real, d.imag)
    zero = ~(resid > _RESIDUAL_FACTOR * _term_scale(model, ends))
    found: list[complex] = []
    found_resid: list[float] = []
    for k, r in zip(ends[zero].tolist(), resid[zero].tolist()):
        for i, p in enumerate(found):
            if abs(k - p) <= _DEDUP_SEPARATION:
                if r < found_resid[i]:
                    found[i], found_resid[i] = k, r
                break
        else:
            found.append(k)
            found_resid.append(r)
    found.sort(key=lambda z: z.real)
    return [ResonancePole.from_momentum(k) for k in found]


def _log_one_plus(u: np.ndarray, ga: float) -> np.ndarray:
    """Log(1 + u/ga), principal branch, without cancellation or overflow.

    The real part is (1/2) log1p(2 Re x + |x|^2) for x = u/ga inside the unit
    disc, which keeps its digits when |1 + x| is close to 1 (narrow poles), and
    ln|ga + u| - ln|ga| outside it, which stays finite for any finite ga.  The
    imaginary part is arg((ga + u) sign(ga)); Im(ga + u) = Im u exactly.
    """
    w = ga + u
    s = math.copysign(1.0, ga)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = u / ga
        near = 0.5 * np.log1p(x.real * (2.0 + x.real) + x.imag * x.imag)
        far = np.log(np.hypot(w.real, w.imag)) - math.log(abs(ga))
    out = np.empty_like(u)
    out.real = np.where(np.abs(x) < 1.0, near, far)
    out.imag = np.arctan2(s * w.imag, s * w.real)
    return out


def _branch_poles(model: DeltaShellModel, re_max: float, re_min: float = 0.0) -> np.ndarray:
    """Every resonance pole k with re_min <= Re k < re_max, in closed form, ascending in Re k.

    In u = w - g a = -2ika the log form of the Lambert branches,
    w + ln w = ln(g a) + g a + 2 pi i n, becomes u + Log(1 + u/(g a)) = -2 pi i m
    (principal Log).  Branch m = 1, 2, ... has Im u in [-(2m + 1) pi, -(2m - 1) pi),
    so its pole k = i u / 2a lies in (m - 1/2) pi < a Re k <= (m + 1/2) pi, one per
    branch, and the branches that can reach [re_min, re_max) are
    a re_min / pi - 1/2 <= m < a re_max / pi + 1/2.  Branch
    m = 0 holds k = 0 and, for g a < 0, the bound state or the virtual state on
    the imaginary axis, so neither is ever returned.  In mpmath's numbering
    branch m is W_{-m} for g a > 0 and W_{-m-1} for g a < 0.  k = i u / 2a takes
    no difference of nearly equal numbers, so Im k keeps its relative precision
    for narrow poles; g a up to any finite size cannot overflow.

    Each branch starts from u = -2 pi i m - Log(1 - 2 pi i m / (g a)) and runs
    Halley's iteration until its step is below 1e-10 |u|.  The caller bounds the
    range: the result has about a (re_max - re_min) / pi entries.  A product g a
    that underflows to 0 is a free particle, S = 1, and has no poles.  Raises
    RuntimeError if a branch has not converged after _HALLEY_MAX_STEPS steps.
    """
    ga = model.g * model.a
    if ga == 0:
        return np.empty(0, dtype=complex)
    first = max(math.ceil(re_min * model.a / math.pi - 0.5), 1)
    last = math.ceil(re_max * model.a / math.pi + 0.5) - 1
    target = np.arange(first, max(last, first - 1) + 1) * (-2j * math.pi)
    u = target - _log_one_plus(target, ga)
    out = np.empty_like(u)
    live = np.arange(u.size)
    for _ in range(_HALLEY_MAX_STEPS):
        if not live.size:
            break
        # f = u + Log(1 + u/ga) - target, f' = 1 + 1/w, f'' = -1/w^2 with w = ga + u
        w = ga + u
        f = u + _log_one_plus(u, ga) - target[live]
        d1 = 1.0 + 1.0 / w
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = -1.0 / (w * w)
        # for huge g a, w^2 overflows, to f'' = -0 or, once Im w^2 does too, to NaN; either
        # way |f''| is below the smallest float, so it is taken as 0
        d2[np.isnan(d2)] = 0.0
        step = 2.0 * f * d1 / (2.0 * d1 * d1 - f * d2)
        u = u - step
        done = np.abs(step) <= _HALLEY_CONVERGED * np.abs(u)
        out[live[done]] = u[done]
        live, u = live[~done], u[~done]
    if live.size:
        raise RuntimeError(f"Lambert W branch {int(live[0]) + first} of g a = {ga!r} did not "
                           f"converge in {_HALLEY_MAX_STEPS} Halley steps")
    k = 0.5j * out / model.a
    return k[(re_min <= k.real) & (k.real < re_max)]


def _rectangle_path(region: SearchRegion, n_per_side: int) -> np.ndarray:
    c0, c1, c2, c3 = region.corners
    seg = lambda p, q: p + (q - p) * np.linspace(0.0, 1.0, n_per_side, endpoint=False)
    return np.concatenate([seg(c0, c1), seg(c1, c2), seg(c2, c3), seg(c3, c0), [c0]])


def pole_count(model: DeltaShellModel, region: SearchRegion) -> int:
    """Number of zeros of D inside a rectangle, by the argument principle.

    Walks the rectangle boundary counterclockwise once and sums the phase
    steps of D into a winding number.  Sampling starts at 512 points per
    side; each step whose phase jump reaches pi/2 is bisected, and only
    those, up to 12 levels (the spacing of 2^21 points per side; Delves &
    Lyness 1967).  Raises PoleOnContourError if |D| at a sample falls below
    1e-10 of the local term scale, if a step is still that wide after 12
    levels, or if the winding is not close to an integer.
    """
    if max(abs(region.im_min), abs(region.im_max)) * model.a > IM_KA_BOUND:
        raise OverflowError(f"contour reaches |Im(k a)| > {IM_KA_BOUND}")
    path = new = _rectangle_path(region, 512)
    vals = new_vals = denominator(model, path)
    for level in range(13):
        if np.any(np.abs(new_vals) < _RESIDUAL_FACTOR * _term_scale(model, new)):
            raise PoleOnContourError("contour touches a pole of S (zero of D)")
        steps = np.angle(vals[1:] / vals[:-1])
        wide = np.flatnonzero(np.abs(steps) >= np.pi / 2)
        if not wide.size:
            break
        if level == 12:
            raise PoleOnContourError("contour winding did not resolve; a zero may sit on the boundary")
        new = 0.5 * (path[wide] + path[wide + 1])
        new_vals = denominator(model, new)
        path = np.insert(path, wide + 1, new)
        vals = np.insert(vals, wide + 1, new_vals)
    w = float(np.sum(steps) / (2 * np.pi))
    count = int(np.round(w))
    if abs(w - count) > 0.25:
        raise PoleOnContourError(f"winding number {w:.3f} is not close to an integer")
    return count


def bound_states(model: DeltaShellModel) -> list[float]:
    """Binding energies E = -kappa^2 of the attractive shell (empty if none).

    The s-wave delta shell binds at most one state, present exactly when
    s = -g a > 1; x = 2 kappa a is then the positive root of
    G(x) = x + s expm1(-x).  G is convex and increasing to the right of that
    root, so Newton's iteration from x = s falls monotonically onto it; it
    stops where G is no longer positive or the next iterate does not decrease.
    """
    s = -model.g * model.a
    if s <= 1.0:
        return []
    x = s
    while True:
        t = math.expm1(-x)
        excess = x + s * t
        if not excess > 0:  # at the root; every s >= 40 stops at x = s, where G' may round to 0
            break
        # G'(x) = 1 - s e^{-x} = (1 - s) - s expm1(-x)
        after = x - excess / ((1.0 - s) - s * t)
        if not after < x:
            break
        x = after
    kappa = 0.5 * x / model.a
    return [-kappa * kappa]


def fit_breit_wigner_curve(energies, sin2delta):
    """Least-squares Breit-Wigner + linear background fit of sin^2(delta).

    Model: (G/2)^2 / ((E - E_R)^2 + (G/2)^2) + c0 + c1 (E - mean(E)).
    Returns (e_r, gamma, rms_residual).
    """
    e = np.asarray(energies, dtype=float)
    y = np.asarray(sin2delta, dtype=float)
    e_mid = e.mean()

    def model_fn(x, er, gam, c0, c1):
        hw = 0.5 * gam
        return hw * hw / ((x - er) ** 2 + hw * hw) + c0 + c1 * (x - e_mid)

    i_peak = int(np.argmax(y))
    base = 0.5 * (np.median(y[: max(3, y.size // 10)]) + np.median(y[-max(3, y.size // 10):]))
    half = base + 0.5 * (y[i_peak] - base)
    above = y > half
    width_guess = max((np.count_nonzero(above)) * (e[1] - e[0]), 2 * (e[1] - e[0]))
    p0 = [e[i_peak], width_guess, base, 0.0]
    popt, _ = curve_fit(model_fn, e, y, p0=p0, maxfev=20000)
    er, gam = float(popt[0]), float(abs(popt[1]))
    rms = float(np.sqrt(np.mean((model_fn(e, *popt) - y) ** 2)))
    return er, gam, rms


def breit_wigner_fit(
    model: DeltaShellModel,
    window: tuple[float, float],
) -> tuple[float, float]:
    """Fit the resonance profile of sin^2(delta) over an energy window.

    The window must contain exactly one resonance pole with -2/a < Im k <
    -1e-12 (counted among the closed-form poles of _branch_poles, whose
    branches within 2 % of the window's Re k are computed);
    sin^2(delta) is sampled at 400 energies and the fitted (E_R, Gamma) are
    returned.  Raises ValueError when that Re k range spans more than
    _FIT_MAX_BRANCHES branches, ResonanceFitError when the window holds zero
    or several resonances or when the fit rms residual exceeds 0.05.
    """
    e_lo, e_hi = window
    if not (0 < e_lo < e_hi):
        raise ValueError(f"window must satisfy 0 < e_lo < e_hi, got {window}")
    re_min, re_max = 0.98 * math.sqrt(e_lo), 1.02 * math.sqrt(e_hi)
    if (re_max - re_min) * model.a / math.pi > _FIT_MAX_BRANCHES:
        raise ValueError(f"window {window} spans Re k {re_min:.6g} to {re_max:.6g}, more than "
                         f"the {_FIT_MAX_BRANCHES} resonance branches a fit may search")
    poles = _branch_poles(model, re_max, re_min)
    e_r = (poles * poles).real
    in_window = np.count_nonzero((e_lo <= e_r) & (e_r <= e_hi)
                                 & (-2.0 / model.a < poles.imag) & (poles.imag < -1e-12))
    if in_window != 1:
        raise ResonanceFitError(f"window {window} contains {in_window} resonances; need exactly 1")
    energies = np.linspace(e_lo, e_hi, 400)
    delta = phase_shift_curve(model, energies)
    er, gam, rms = fit_breit_wigner_curve(energies, np.sin(delta) ** 2)
    if rms > 0.05:
        raise ResonanceFitError(f"not a clean resonance: fit rms {rms:.3g} > 0.05")
    return er, gam
