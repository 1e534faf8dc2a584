"""Independent oracles for the test suite.

Everything here deliberately avoids the library's own solution paths:
pole positions come from a dense |D| scan with recursive grid refinement
(no Newton) or from mpmath's Lambert W at 50 digits, bound-state counts
from sign changes of the raw matching condition, bound energies from
mpmath's Lambert W at 60 digits, phase shifts from the textbook S-matrix at
50 digits, winding counts from a brute-force densely sampled contour, and
Hardy leakages from the closed-form transform of the windowed resonance
samples, summed over its aliases (Poisson summation) with no FFT, and the
inversion co-representations as dense integer matrices, built entry by entry
from the conventions of the ``gamow.reps`` docstring, with the dense
antilinear product and action (the library holds signed permutations).

Seven exceptions are references kept verbatim from the code they
replaced: ``scalar_find_poles``, the seed-by-seed Newton search that
``find_poles`` ran before it became one array iteration (with the same
filter that drops a zero whose Re k is below Newton's resolution);
``doubling_pole_count``, the winding count that doubled the samples on the
whole contour before ``pole_count`` bisected only its wide steps;
``phased_hardy_leakage``, the Hardy leakage with the full transform
de e^{-i e0 t} FFT(f chirp) before ``hardy_check`` dropped the factor of
modulus de and kept its chirp;
``uncached_hardy_check``, ``hardy_check`` as it was before one transform
began to serve both half-plane checks of the same samples;
``scalar_amplitude``, the one-time ``cmath`` evaluation of a semigroup law
that ``dynamics.amplitude`` replaced; and ``where_continuum_functions`` and
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
import math

import mpmath
import numpy as np

from gamow.dynamics import Kind, Law
from gamow.reps import RepRow
from gamow.scattering import (
    IM_KA_BOUND,
    PoleOnContourError,
    ResonancePole,
    _rectangle_path,
    _term_scale,
    bound_states,
    denominator,
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


def mp_lambert_poles(g, a, re_max):
    """Every zero of D with 0 < Re k < re_max and Im k < 0, at 50 digits, ascending in Re k.

    k = (i/2a) (W_n(g a e^{g a}) - g a) on every mpmath branch n that can reach
    Re k < re_max; a zero with Re k at the 50-digit rounding level (the virtual
    state of -1 <= g a < 0, or k = 0 at the branch point g a = -1) is on the
    imaginary axis and is left out.
    """
    with mpmath.workdps(50):
        ga = mpmath.mpf(g) * mpmath.mpf(a)
        z = ga * mpmath.exp(ga)
        out = []
        for n in range(0, -int(re_max * a / np.pi) - 3, -1):
            k = mpmath.mpc(0, 1) / (2 * mpmath.mpf(a)) * (mpmath.lambertw(z, n) - ga)
            if 1e-20 * (1 + abs(k)) < k.real < re_max and k.imag < 0:
                out.append(k)
    return sorted(out, key=lambda k: k.real)


def mp_phase_shift_curve(g, a, energies):
    """delta(E) at 50 digits from the textbook S-matrix, unwrapped like the library's curve.

    S(k) = e^{-2ika} (e^{ika} + (g/k) sin ka) / (e^{-ika} + (g/k) sin ka) at
    k = sqrt(E), each float input taken exactly; the principal branch is
    0.5 arg S in (-pi/2, pi/2], and each point then moves to the multiple of
    pi nearest the previous value.  Returns a list of mpf.
    """
    with mpmath.workdps(50):
        g, a = mpmath.mpf(g), mpmath.mpf(a)
        out = []
        for e in energies:
            k = mpmath.sqrt(mpmath.mpf(float(e)))
            gs = g / k * mpmath.sin(k * a)
            ika = mpmath.mpc(0, 1) * k * a
            s = mpmath.exp(-2 * ika) * (mpmath.exp(ika) + gs) / (mpmath.exp(-ika) + gs)
            d = mpmath.arg(s) / 2
            if out:
                d += mpmath.pi * mpmath.nint((out[-1] - d) / mpmath.pi)
            out.append(d)
    return out


def mp_bound_energy(g, a):
    """The bound energy -kappa^2 at 60 digits, or None when g a >= -1.

    With s = -g a taken exactly from the two floats, x = 2 kappa a solves
    x = s (1 - e^{-x}); its positive root is x = s + W_0(-s e^{-s}).
    """
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        s = -mpmath.mpf(g) * a
        if s <= 1:
            return None
        kappa = (s + mpmath.lambertw(-s * mpmath.exp(-s), 0)) / (2 * a)
        return -kappa * kappa


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


def _log_normal_cdf(z):
    """log Phi(z) elementwise for a float array, Phi the standard normal CDF.

    math.erfc on -36 < z <= 9; 0 above (Phi(9) = 1 - 1.1e-19 rounds to 1); below,
    where erfc underflows, the asymptotic series
    erfc x = e^{-x^2} / (x sqrt(pi)) sum_k (-1)^k (2k - 1)!! / (2 x^2)^k, x = -z / sqrt 2,
    whose 12th term is below 1e-23 there.
    """
    out = np.zeros_like(z)
    mid = (z > -36.0) & (z <= 9.0)
    out[mid] = [math.log(0.5 * math.erfc(-v / math.sqrt(2.0))) for v in z[mid].tolist()]
    low = z <= -36.0
    x2 = 0.5 * z[low] ** 2
    series, term = np.ones_like(x2), np.ones_like(x2)
    for k in range(1, 12):
        term *= -(2 * k - 1) / (2.0 * x2)
        series += term
    out[low] = -x2 - np.log(2.0 * np.sqrt(np.pi * x2)) + np.log(series)
    return out


def poisson_hardy_leakages(e_r, gamma, e_min, e_max, n):
    """The t < 0 and t > 0 fractions of |DFT|^2 for windowed_resonance_samples(e_r, gamma,
    e_min, e_max, n), from the continuous transform in closed form, with no FFT.

    With g = gamma / 2 and s = (e_max - e_min) / 12.5 the samples are
    G(E - e_r) / (E - e_r + i g), G the Gaussian of standard deviation s, and
    (f(E) pairing with e^{-iEt})
    F(t) = -2 pi i e^{-i e_r t} e^{-g t + g^2 / (2 s^2)} Phi(s t - g / s).
    By Poisson summation the DFT on the half-bin grid t_m = (m - n/2 + 1/2) T / n,
    T = 2 pi / dE, dE = (e_max - e_min) / n, is
    sum_p F(t + p T) e^{2 pi i p e_min / dE} / dE, up to the window's truncation;
    the p-independent factor -2 pi i e^{-i e_r t} / dE drops out of the fractions,
    leaving e^{-2 pi i p (e_r - e_min) / dE} per alias.  The sum runs over |p| <= P
    with g (P T - T/2) > 46, so the first alias left out weighs below 1e-20.
    """
    g = 0.5 * gamma
    s = (e_max - e_min) / 12.5
    de = (e_max - e_min) / n
    period = 2.0 * math.pi / de
    reach = int(46.0 / (g * period)) + 2
    offset = (e_r - e_min) / de
    lift = g * g / (2.0 * s * s)
    t = (np.arange(n) - n / 2 + 0.5) * (period / n)
    total = np.zeros(n, dtype=complex)
    for p in range(-reach, reach + 1):
        x = t + p * period
        total += (np.exp(lift - g * x + _log_normal_cdf(s * x - g / s))
                  * cmath.exp(-2j * math.pi * p * offset))
    power = np.abs(total) ** 2
    return float(power[:n // 2].sum() / power.sum()), float(power[n // 2:].sum() / power.sum())


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
            # Re k within Newton's resolution of zero is a virtual state, not a resonance
            if not (k.real > _NEWTON_CONVERGED * (1.0 + abs(k)) and k.imag < 0):
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


# (s_sigma, s_r, s_t) of the doubled rows: Sigma = diag(I, s_sigma I),
# R = [[0, C], [s_r C, 0]], T = [[0, C], [s_t C, 0]]
_DOUBLED_ROW_SIGNS = {RepRow.TWO: (-1, -1, 1), RepRow.THREE: (-1, 1, -1), RepRow.FOUR: (1, -1, -1)}


def dense_inversion_operators(row, spin):
    """{"sigma", "r", "t"} -> (dense int64 matrix, antilinear) for one row.

    C is filled entry by entry, c[mu, -mu] = (-1)^{j + mu} over the basis
    mu = j, j-1, ..., -j; row one is Sigma = I, R = T = C, and the doubled
    rows take their block layout and signs from _DOUBLED_ROW_SIGNS.
    """
    twice_j = spin.twice_j
    n = twice_j + 1
    c = np.zeros((n, n), dtype=np.int64)
    for twice_mu in range(twice_j, -twice_j - 1, -2):
        mu_index, minus_mu_index = (twice_j - twice_mu) // 2, (twice_j + twice_mu) // 2
        c[mu_index, minus_mu_index] = (-1) ** ((twice_j + twice_mu) // 2)
    eye, zero = np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    if row is RepRow.ONE:
        return {"sigma": (eye, False), "r": (c, True), "t": (c, True)}
    s_sigma, s_r, s_t = _DOUBLED_ROW_SIGNS[row]
    return {"sigma": (np.block([[eye, zero], [zero, s_sigma * eye]]), False),
            "r": (np.block([[zero, c], [s_r * c, zero]]), True),
            "t": (np.block([[zero, c], [s_t * c, zero]]), True)}


def dense_product(a, b):
    """(matrix, antilinear) of a b, b applied first: an antilinear a conjugates b's matrix."""
    (ma, anti_a), (mb, anti_b) = a, b
    return ma @ (np.conj(mb) if anti_a else mb), anti_a != anti_b


def dense_apply(op, v):
    """matrix @ v, conjugating v first when the operator is antilinear."""
    matrix, antilinear = op
    return matrix @ (np.conj(v) if antilinear else v)
