"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own solution paths:
pole positions come from a dense |D| scan with recursive grid refinement
(no Newton), bound-state counts from sign changes of the raw matching
condition (no bisection helper), and winding counts from a brute-force
densely sampled contour.

Eight exceptions are references kept verbatim from the code they
replaced: ``scalar_find_poles``, the seed-by-seed Newton search that
``find_poles`` ran before it became one array iteration;
``doubling_pole_count``, the winding count that doubled the samples on the
whole contour before ``pole_count`` bisected only its wide steps;
``phased_hardy_leakage``, the Hardy leakage with the full transform
de e^{-i e0 t} FFT(f chirp) before ``hardy_check`` dropped the factor of
modulus de and kept its chirp;
``uncached_hardy_check``, ``hardy_check`` as it was before one transform
began to serve both half-plane checks of the same samples;
``scalar_amplitude``, the one-time ``cmath`` evaluation of a semigroup law
that ``dynamics.amplitude`` replaced; ``scalar_phase_shift_curve``, the
point-by-point branch walk (with its interval bisection) that
``phase_shift_curve`` ran before it became one ``s_matrix`` call and a
cumulative sum of rounded jumps; and ``where_continuum_functions`` and
``where_bound_functions``, the spectral eigenfunctions evaluated on the
whole r grid for both regions and then selected with ``np.where``, before
each region was evaluated on its own columns.  All are bit-identity
references except three.  ``doubling_pole_count`` samples other points than
the bisection, so only its count or exception type must agree;
``phased_hardy_leakage`` rounds differently, so the leakages agree to
2e-15 relative; and ``where_continuum_functions`` keeps the hand-derived
matching coefficients alpha = 1 + (g/k) sin ka cos ka, beta = -(g/k) sin^2
ka, while the library now takes M and the phase shift from the Jost
function, so the two agree to rounding (1e-12 of the largest element).
"""

import cmath

import numpy as np

from gamow.dynamics import Kind, Law
from gamow.scattering import (
    IM_KA_BOUND,
    PoleOnContourError,
    ResonancePole,
    _rectangle_path,
    _term_scale,
    bound_states,
    denominator,
    s_matrix,
)
from gamow.spectral import (
    END_DECAY_THRESHOLD,
    FOURIER_KERNEL_SIGN,
    HARDY_LEAKAGE_THRESHOLD,
    HardyReport,
    _HARDY_WORK_ARRAYS,
    _check_work_budget,
    _half_bin_chirp,
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


def doubling_pole_count(model, region):
    """pole_count sampling the whole contour, doubled from 512 points per side
    until no phase step reaches pi/2 (up to 2^21 per side)."""
    if max(abs(region.im_min), abs(region.im_max)) * model.a > IM_KA_BOUND:
        raise OverflowError(f"contour reaches |Im(k a)| > {IM_KA_BOUND}")
    n = 512
    while True:
        path = _rectangle_path(region, n)
        vals = denominator(model, path)
        scale = _term_scale(model, path)
        if np.any(np.abs(vals) < _RESIDUAL_FACTOR * scale):
            raise PoleOnContourError("contour touches a pole of S (zero of D)")
        steps = np.angle(vals[1:] / vals[:-1])
        if np.max(np.abs(steps)) < np.pi / 2:
            break
        if n >= 2**21:
            raise PoleOnContourError("contour winding did not resolve; a zero may sit on the boundary")
        n *= 2
    w = float(np.sum(steps) / (2 * np.pi))
    count = int(np.round(w))
    if abs(w - count) > 0.25:
        raise PoleOnContourError(f"winding number {w:.3f} is not close to an integer")
    return count


def phased_hardy_leakage(energies, values, half_plane):
    """hardy_check's leakage from de e^{-i e0 t} FFT(f chirp), chirp built per call."""
    e = np.asarray(energies, dtype=float)
    f = np.asarray(values, dtype=complex)
    de = e[1] - e[0]
    n = e.size
    dt = 2.0 * np.pi / (n * de)
    transform = np.arange(n, dtype=complex)
    np.multiply(FOURIER_KERNEL_SIGN * 2j * np.pi, transform, out=transform)
    np.multiply(transform, -n / 2 + 0.5, out=transform)
    np.divide(transform, n, out=transform)
    np.exp(transform, out=transform)
    np.multiply(f, transform, out=transform)
    transform = np.fft.fft(transform)
    phase = np.arange(n, dtype=complex)
    np.subtract(phase, n / 2, out=phase)
    np.add(phase, 0.5, out=phase)
    np.multiply(phase, dt, out=phase)
    np.multiply(FOURIER_KERNEL_SIGN * 1j * e[0], phase, out=phase)
    np.exp(phase, out=phase)
    np.multiply(de, phase, out=phase)
    np.multiply(phase, transform, out=transform)
    del phase
    energy = np.abs(transform)
    np.square(energy, out=energy)
    total = float(energy.sum())
    forbidden = energy[:n // 2] if half_plane == "upper" else energy[n // 2:]
    return float(forbidden.sum() / total)


def uncached_hardy_check(energies, values, half_plane: str) -> HardyReport:
    """hardy_check with one FFT per call, kept verbatim."""
    if half_plane not in ("upper", "lower"):
        raise ValueError(f"half_plane must be 'upper' or 'lower', got {half_plane!r}")
    e = np.asarray(energies, dtype=float)
    f = np.asarray(values, dtype=complex)
    if e.ndim != 1 or e.size < 16 or f.shape != e.shape:
        raise ValueError("need matching 1-d grids of at least 16 samples")
    _check_work_budget((e.size,), _HARDY_WORK_ARRAYS, "energy samples")
    if e.size % 2:
        raise ValueError(f"need an even number of samples, got {e.size}")
    de = e[1] - e[0]
    if de <= 0 or np.max(np.abs(np.diff(e) - de)) > 1e-9 * de:
        raise ValueError("energy grid must be uniform and increasing")
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        raise ValueError("samples are identically zero")
    end = max(abs(f[0]), abs(f[-1])) / peak
    if end > END_DECAY_THRESHOLD:
        raise ValueError(
            f"insufficient end decay: |f|/max|f| = {end:.3g} at the grid ends "
            f"(need <= {END_DECAY_THRESHOLD})"
        )

    n = e.size
    # t grid offset by half a bin: for even n no sample at t = 0, symmetric under t -> -t,
    # and t < 0 exactly on the first n/2 samples
    transform = np.fft.fft(np.multiply(f, _half_bin_chirp(n)))
    energy = np.abs(transform)
    np.square(energy, out=energy)
    total = float(energy.sum())
    forbidden = energy[:n // 2] if half_plane == "upper" else energy[n // 2:]
    leakage = float(forbidden.sum() / total)
    return HardyReport(half_plane=half_plane, leakage=leakage,
                       is_member=leakage < HARDY_LEAKAGE_THRESHOLD)


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


def where_continuum_functions(model, k, r):
    """The continuum matrix with both regions on every column, then np.where."""
    kc = k[:, None]
    s = np.sin(kc * model.a)
    c = np.cos(kc * model.a)
    x = model.g / kc
    alpha = 1.0 + x * s * c
    beta = -x * s * s
    m = np.sqrt(alpha**2 + beta**2)
    kr = kc * r[None, :]
    inside = np.sin(kr) / m
    outside = (alpha * np.sin(kr) + beta * np.cos(kr)) / m
    return np.where(r[None, :] <= model.a, inside, outside)


def where_bound_functions(model, r, wr):
    """(energy, normalized eigenfunction) per bound state, selected by np.where."""
    discrete = []
    for energy in bound_states(model):
        kappa = np.sqrt(-energy)
        inside = np.sinh(kappa * np.minimum(r, model.a))
        outside = np.sinh(kappa * model.a) * np.exp(-kappa * (np.maximum(r, model.a) - model.a))
        u = np.where(r <= model.a, inside, outside)
        u = u / np.sqrt(np.sum(wr * u * u))
        discrete.append((energy, u))
    return discrete
