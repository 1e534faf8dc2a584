"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own solution paths:
pole positions come from a dense |D| scan with recursive grid refinement
(no Newton), bound-state counts from sign changes of the raw matching
condition (no bisection helper), and winding counts from a brute-force
densely sampled contour.

Three exceptions are bit-identity references for array paths, kept verbatim
from the scalar code they replaced: ``scalar_find_poles``, the seed-by-seed
Newton search that ``find_poles`` ran before it became one array iteration;
``scalar_amplitude``, the one-time ``cmath`` evaluation of a semigroup law
that ``dynamics.amplitude`` replaced; and ``scalar_phase_shift_curve``, the
point-by-point branch walk (with its interval bisection) that
``phase_shift_curve`` ran before it became one ``s_matrix`` call and a
cumulative sum of rounded jumps.
"""

import cmath

import numpy as np

from gamow.dynamics import Kind, Law
from gamow.scattering import (
    IM_KA_BOUND,
    ResonancePole,
    _term_scale,
    denominator,
    s_matrix,
)

_NEWTON_MAX_STEPS = 50
_NEWTON_STEP_SCALE = 1e-7
_NEWTON_CONVERGED = 1e-12
_DEDUP_SEPARATION = 1e-6
_RESIDUAL_FACTOR = 1e-10


def shell_denominator(g, a, k):
    """D(k) = e^{-ika} + (g/k) sin(ka), written directly."""
    k = np.asarray(k, dtype=complex)
    return np.exp(-1j * k * a) + g * np.sin(k * a) / k


def dense_scan_zeros(g, a, re0, re1, im0, im1, n_re=600, n_im=400, rounds=12):
    """Zeros of D inside a rectangle by |D|-grid minimization only.

    Coarse grid -> keep samples with |D| below a tenth of the median ->
    cluster nearby keepers -> shrink a local grid around each cluster ->
    keep refined points only when |D| actually vanished there (< 1e-8),
    which discards clusters that sat on shallow non-zero minima.  Returns
    refined complex positions, deduplicated and sorted by real part.
    """
    res = np.linspace(re0, re1, n_re)
    ims = np.linspace(im0, im1, n_im)
    grid = res[None, :] + 1j * ims[:, None]
    vals = np.abs(shell_denominator(g, a, grid))
    cut = 0.1 * np.median(vals)
    keep = np.argwhere(vals < cut)
    cell = max(res[1] - res[0], ims[1] - ims[0])

    clusters: list[list[complex]] = []
    for i, j in keep:
        z = complex(grid[i, j])
        for cl in clusters:
            if any(abs(z - w) < 4 * cell for w in cl):
                cl.append(z)
                break
        else:
            clusters.append([z])

    refined = []
    for cl in clusters:
        z = min(cl, key=lambda w: abs(complex(shell_denominator(g, a, w))))
        half = 3 * cell
        for _ in range(rounds):
            rr = np.linspace(z.real - half, z.real + half, 21)
            ii = np.linspace(z.imag - half, z.imag + half, 21)
            local = rr[None, :] + 1j * ii[:, None]
            lv = np.abs(shell_denominator(g, a, local))
            iy, ix = np.unravel_index(int(np.argmin(lv)), lv.shape)
            z = complex(local[iy, ix])
            half *= 0.15
        if re0 < z.real < re1 and im0 < z.imag < im1:
            if abs(complex(shell_denominator(g, a, z))) < 1e-8:
                refined.append(z)

    out: list[complex] = []
    for z in sorted(refined, key=lambda w: w.real):
        if all(abs(z - w) > 1e-5 for w in out):
            out.append(z)
    return out


def brute_winding(g, a, re0, re1, im0, im1, n=200000):
    """Winding count of D around a rectangle from a flat, very dense walk.

    The raw formula divides by k, so the path must keep away from k = 0
    (pass an inset rectangle when a corner would touch the origin).
    """
    top = np.linspace(re0, re1, n) + 1j * im1
    right = re1 + 1j * np.linspace(im1, im0, n)
    bottom = np.linspace(re1, re0, n) + 1j * im0
    left = re0 + 1j * np.linspace(im0, im1, n)
    # orientation above is clockwise; flip to counterclockwise
    path = np.concatenate([top, right, bottom, left, top[:1]])[::-1]
    vals = shell_denominator(g, a, path)
    return int(np.round(np.sum(np.angle(vals[1:] / vals[:-1])) / (2 * np.pi)))


def bound_state_count_scan(g, a, n=400001):
    """Sign changes of the raw bound-state condition on the imaginary axis.

    Scans h(kappa) = kappa e^{kappa a} + g sinh(kappa a) on (0, |g| + 2/a];
    its zeros with kappa > 0 are the bound states.  Works in log space to
    avoid overflow: divide by e^{kappa a}: h1 = kappa + g (1 - e^{-2 kappa a})/2.
    """
    kap = np.linspace(1e-6, abs(g) + 2.0 / a, n)
    h1 = kap + g * (1.0 - np.exp(-2.0 * kap * a)) / 2.0
    signs = np.sign(h1)
    return int(np.count_nonzero(np.diff(signs) != 0))


def breit_wigner_sin2(e, e_r, gamma):
    """sin^2 of a pure resonance phase arctan((G/2)/(E_R - E))."""
    delta = np.arctan2(0.5 * gamma, e_r - e)
    return np.sin(delta) ** 2


def _newton_zero(model, k0):
    """Polish one seed against D(k) with a central-difference Newton step.

    Seeds that wander into overflow territory or fail to converge return
    None; the caller drops them.
    """
    k = complex(k0)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_MAX_STEPS):
            if k == 0 or abs(k.imag) * model.a > IM_KA_BOUND:
                return None
            h = _NEWTON_STEP_SCALE * (1.0 + abs(k))
            f = complex(denominator(model, k))
            df = (complex(denominator(model, k + h)) - complex(denominator(model, k - h))) / (2 * h)
            if df == 0 or not np.isfinite(df) or not np.isfinite(f):
                return None
            step = f / df
            k = k - step
            if not np.isfinite(k):
                return None
            if abs(step) < _NEWTON_CONVERGED * (1.0 + abs(k)):
                return k
    return None


def scalar_find_poles(model, region):
    """find_poles as a Python loop: one scalar Newton run per seed, row-major."""
    if not (region.re_min >= 0 and region.im_max <= 0):
        raise ValueError("pole search region must lie in Re k >= 0, Im k <= 0")
    res = np.linspace(region.re_min, region.re_max, region.n_re)
    ims = np.linspace(region.im_min, region.im_max, region.n_im)
    found: list[complex] = []
    for sr in res:
        for si in ims:
            seed = complex(sr, si)
            if abs(seed) < 1e-9:
                continue
            k = _newton_zero(model, seed)
            if k is None or not region.contains(k):
                continue
            if not (k.real > 0 and k.imag < 0):
                continue
            if abs(denominator(model, k)) > _RESIDUAL_FACTOR * _term_scale(model, k):
                continue
            for i, p in enumerate(found):
                if abs(k - p) <= _DEDUP_SEPARATION:
                    if abs(denominator(model, k)) < abs(denominator(model, p)):
                        found[i] = k
                    break
            else:
                found.append(k)
    found.sort(key=lambda z: z.real)
    return [ResonancePole.from_momentum(k) for k in found]


def scalar_amplitude(law: Law, pole: ResonancePole, t: float) -> complex:
    """One law's amplitude at one time via cmath (no half-domain check)."""
    phase = -pole.e_r if law.regime == 0 else pole.e_r
    rate = 0.5 * pole.gamma if law.kind is Kind.GROWING else -0.5 * pole.gamma
    return cmath.exp(complex(rate, phase) * t)


def scalar_phase_shift_curve(model, energies):
    """phase_shift_curve as a Python walk: one scalar S(k) per energy.

    Each point takes the branch nearest the previous value; an interval whose
    jump would reach pi/2 is bisected, recursively up to 48 levels.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim != 1 or e.size < 1:
        raise ValueError("energies must be a 1-d array")
    if np.any(e <= 0):
        raise ValueError("phase shift requires E > 0")

    def principal(x: float) -> float:
        return 0.5 * cmath.phase(s_matrix(model, complex(np.sqrt(x))))

    def continue_branch(e0, d0, e1, depth=0):
        raw = principal(e1)
        cand = raw + np.pi * np.round((d0 - raw) / np.pi)
        if abs(cand - d0) < np.pi / 2 - 1e-9 or depth >= 48:
            return cand
        mid = 0.5 * (e0 + e1)
        dmid = continue_branch(e0, d0, mid, depth + 1)
        return continue_branch(mid, dmid, e1, depth + 1)

    out = np.empty_like(e)
    out[0] = principal(e[0])
    for i in range(1, e.size):
        out[i] = continue_branch(e[i - 1], out[i - 1], e[i])
    return out
