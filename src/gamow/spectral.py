"""Eigenfunction expansion for the delta shell, and a Paley-Wiener test.

Completeness (bound states + continuum) is realized numerically: a packet
phi(r) on [0, r_max] is expanded over the normalized bound eigenfunctions
and the real continuum solutions u_k(r) with asymptotic amplitude one,
u_k(r) = sin(kr + delta(k)) outside the shell, for which the closure
relation carries the measure (2/pi) dk:

    phi(r) = sum_b <u_b|phi> u_b(r) + (2/pi) int dk <u_k|phi> u_k(r).

Inside the shell u_k(r) = sin(kr) / |D(k)|.  Both |D(k)| and the phase
shift delta(k) come from the Jost function D(k) of scattering.denominator,
as e^{-ika} conj(D(k)) = |D(k)| e^{i delta(k)} for real k (scattering._jost,
which phase_shift_curve takes its delta from too), so the shell's
matching conditions are written once, in the scattering module.

CONTINUUM_MEASURE below is that 2/pi.  Radial integrals use Simpson weights
(the shell kink sits harmlessly on a panel edge when a/r_max * (n_r - 1) is
an even integer, e.g. r_max = 10, n_r = 4001, a = 1); the k integral uses
trapezoid weights on a grid that clusters nodes around any resonance too
narrow for uniform spacing to resolve (the closed-form Lambert-W poles of
scattering._branch_poles), since a uniform grid stalls near 1e-2 relative
error for sharp resonances.

The Paley-Wiener check classifies a sampled energy-space function by the
time support of its Fourier transform, with the convention that f(E) pairs
with e^{-iEt} (FOURIER_KERNEL_SIGN).  Under it:

    pole in the lower half E-plane  ->  analytic in the upper half plane
        ->  transform supported on t >= 0  (upper Hardy class),
    pole in the upper half E-plane  ->  lower Hardy class, support t <= 0.

Leakage is the energy fraction on the forbidden half-line (t < 0 for the
upper class, t > 0 for the lower); membership means leakage below
HARDY_LEAKAGE_THRESHOLD.  The number of samples must be even, so that the t
grid, offset by half a bin, has no sample at t = 0 and the two leakages of f
and conj(f) sum to one exactly.  Callers ask about both classes of the same
samples, so hardy_check transforms each sampled function once: the call that
takes the FFT keeps a read-only copy of the samples with the two half-line
sums and the total of |F|^2, and the next call drops that entry, using the
sums when its samples equal the copy.  A transform multiplies the samples
by a half-bin chirp into a new buffer and takes the FFT in place there.  The
first transform of a sample count builds the chirp in that buffer itself, so
sampling and both checks hold five arrays of n float64: the energies (one),
the samples and the buffer (two each).  A second transform of the same count
in a row keeps the chirp read-only for every later one (the warm path of a
caller that repeats one n), which then holds seven; a transform of another
count drops it.  The samples are built in place, and the input checks run
over slices of n / 16 samples.

Decompositions are immutable after construction (arrays are read-only);
reconstruction of independent packets may run concurrently.

The continuum is never held as its (n_k, n_r) matrix U.  The r grid is
uniform, so within each region (r <= a, r > a) the columns go in groups of
_GROUP_COLUMNS = 64 and the angle-addition identity writes every element as
sin theta_q cos phi_s + cos theta_q sin phi_s (over |D(k)| inside).  A
decomposition holds those factors: cos phi_s and sin phi_s (n_k x 64), and
per region sin theta_q and cos theta_q (n_k x groups) plus the direct sin of
the fewer than 64 leftover columns, O(n_k (n_r / 64 + 64)) elements (4.6 MB
at n_k = 2000, n_r = 4001, against 64 MB for U).  expand applies U and
reconstruct U^T, each as matrix products over row blocks of _BLOCK_ROWS k rows.

Work and memory are bounded by MAX_GRID_ELEMENTS = 2^27 float64 elements
(1 GiB): an (n_k, n_r) grid above it (the elements each application of the
continuum works through), or n Hardy samples whose work arrays
(_HARDY_WORK_ARRAYS of n elements) would exceed it, are rejected before
anything of their size is allocated; the CLI charges its phase, evolve and
poles grids the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# find_poles is not called here; it stays a module attribute for bench/tracing.py,
# which wraps spectral.find_poles.
from .scattering import DeltaShellModel, _branch_poles, _jost, bound_states, find_poles

__all__ = [
    "CONTINUUM_MEASURE",
    "FOURIER_KERNEL_SIGN",
    "HARDY_LEAKAGE_THRESHOLD",
    "END_DECAY_THRESHOLD",
    "MAX_GRID_ELEMENTS",
    "check_grid_budget",
    "SpectralDecomposition",
    "WavePacket",
    "HardyReport",
    "gaussian_packet",
    "build_decomposition",
    "expand",
    "reconstruct",
    "reconstruct_error",
    "hardy_check",
    "windowed_resonance_samples",
]

CONTINUUM_MEASURE = 2.0 / np.pi
FOURIER_KERNEL_SIGN = -1          # f(E) pairs with exp(FOURIER_KERNEL_SIGN * 1j * E * t)
HARDY_LEAKAGE_THRESHOLD = 1e-4
END_DECAY_THRESHOLD = 1e-8        # required |f(ends)| / max|f|
MAX_GRID_ELEMENTS = 2**27         # float64 elements per grid or matrix: 1 GiB
_TAIL_MASS_LIMIT = 1e-6           # packet norm^2 fraction allowed beyond 0.8 r_max
_GROUP_COLUMNS = 64               # continuum columns per angle-addition group
_BLOCK_ROWS = 128                 # k rows per product when the continuum is applied
_HARDY_WORK_ARRAYS = 8            # n-element float64 arrays: energies 1, samples 2, FFT buffer 2,
                                  # and the kept chirp 2 on the warm path only
_hardy_memo = None                # hardy_check's (samples, t<0 sum, t>0 sum, total) until reused
_hardy_chirp = None               # (n of the last transform, its read-only chirp once n repeats)


def check_grid_budget(*shape: int) -> None:
    """Raise ValueError when a float64 grid of this shape would exceed MAX_GRID_ELEMENTS.

    The budget is 2^27 elements, 1 GiB.  Each dimension counts as at least
    one, so a non-positive size elsewhere cannot hide an oversized one (the
    functions that take the grid reject non-positive sizes themselves).
    """
    if math.prod(max(int(n), 1) for n in shape) > MAX_GRID_ELEMENTS:
        raise ValueError(f"grid of {' x '.join(str(n) for n in shape)} points exceeds the budget "
                         f"of {MAX_GRID_ELEMENTS} float64 elements (1 GiB)")


def _check_work_budget(shape: tuple[int, ...], arrays: int, what: str) -> None:
    """Raise ValueError when `arrays` float64 arrays of a grid of this shape would take
    more than MAX_GRID_ELEMENTS.

    Each path charges the tracemalloc peak of its run per grid point, rounded
    up (the Hardy samples plus both hardy_check calls hold 5.16 arrays of n
    elements at n = 2^14 on the first transform of n, and 7.15 on the one that
    keeps the chirp, so they are charged _HARDY_WORK_ARRAYS = 8); a shape
    beyond the grid budget itself gets check_grid_budget's message.
    """
    check_grid_budget(*shape)
    if arrays * math.prod(max(int(n), 1) for n in shape) > MAX_GRID_ELEMENTS:
        raise ValueError(f"{' x '.join(str(n) for n in shape)} {what} need about {arrays} work "
                         f"arrays of that size, over the budget of {MAX_GRID_ELEMENTS} float64 "
                         "elements (1 GiB)")


@dataclass(frozen=True)
class WavePacket:
    """A square-integrable radial function sampled on linspace(0, r_max, n_points)."""

    values: np.ndarray
    r_max: float
    n_points: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).copy()
        if v.shape != (self.n_points,):
            raise ValueError(f"values shape {v.shape} != (n_points,) = ({self.n_points},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("packet values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def gaussian_packet(center: float, width: float, r_max: float, n_points: int) -> WavePacket:
    """exp(-(r - center)^2 / (2 width^2)) sampled on the radial grid.

    Raises ValueError unless width > 0, 2 width^2 is finite and nonzero, the
    exponent is finite on the grid, and the width is at least the grid spacing
    (a narrower packet is not resolved: it samples as a one-point spike).
    """
    if not width > 0:
        raise ValueError("packet width must be positive")
    r = np.linspace(0.0, r_max, n_points)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values = np.exp(-((r - center) ** 2) / (2.0 * width**2))
    except (OverflowError, FloatingPointError):
        raise ValueError(f"packet width {width:g} (center {center:g}) is out of range: 2 width^2 "
                         "must be finite and nonzero, and (r - center)^2 / (2 width^2) finite "
                         "on the grid") from None
    if n_points > 1 and width < r[1] - r[0]:
        raise ValueError(f"packet width {width:g} is below the r grid spacing {r[1] - r[0]:g}; "
                         "the packet is not resolved on the grid")
    return WavePacket(values, r_max, n_points)


@dataclass(frozen=True)
class HardyReport:
    half_plane: str
    leakage: float
    is_member: bool


@dataclass(frozen=True)
class SpectralDecomposition:
    """Bound + continuum eigendata of a delta-shell model on finite grids.

    discrete: tuple of (energy, eigenfunction-on-r-grid) pairs, each with
    unit quadrature norm.  k/k_weights realize the continuum measure
    (2/pi) dk.  continuum holds the read-only angle-addition factors of the
    continuum functions on the k and r grids (see _continuum_factors), not
    their matrix; expand and reconstruct apply them.

    It takes ownership of the arrays it is given: float arrays are kept
    without a copy and made read-only, so a caller must not write to them
    afterwards (build_decomposition hands over freshly built ones).
    """

    model: DeltaShellModel
    r: np.ndarray
    r_weights: np.ndarray
    k: np.ndarray
    k_weights: np.ndarray
    discrete: tuple
    continuum: tuple

    def __post_init__(self):
        for name in ("r", "r_weights", "k", "k_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        frozen = []
        for energy, u in self.discrete:
            u = np.asarray(u, dtype=float)
            u.setflags(write=False)
            frozen.append((float(energy), u))
        object.__setattr__(self, "discrete", tuple(frozen))
        if np.any(self.k_weights <= 0):
            raise ValueError("continuum weights must be positive")
        if np.any(np.diff(self.k) <= 0) or np.any(np.diff(self.r) <= 0):
            raise ValueError("grids must be strictly increasing")


def _simpson_weights(n: int, h: float) -> np.ndarray:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"Simpson weights need an odd number of points >= 3, got {n}")
    w = np.full(n, h / 3.0)
    w[1:-1:2] *= 4.0
    w[2:-1:2] *= 2.0
    return w


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def _continuum_factors(model: DeltaShellModel, k: np.ndarray, r: np.ndarray) -> tuple:
    """The angle-addition factors of the real scattering solutions u_k(r).

    From the Jost function D(k) (scattering._jost): for real k,
    e^{-ika} conj(D(k)) = M e^{i delta_k}, where delta_k is the s-wave phase
    shift (S = e^{2i delta_k}) and M = |D(k)|.  Matching at the shell then
    gives u_k(r) = sin(kr) / M for r <= a and sin(kr + delta_k) for r > a,
    with asymptotic amplitude 1.

    r must be uniform (linspace, spacing h = r[1] - r[0]).  Each region's
    columns then go in groups of _GROUP_COLUMNS: column lo + B q + s is
    sin(theta_q + phi_s) = sin theta_q cos phi_s + cos theta_q sin phi_s, with
    theta_q = k r[lo + B q] (+ delta_k outside) and phi_s = k s h, divided by
    M inside.  Returns (rotation, regions): rotation, shape (n_k, 2, B), holds
    cos phi_s and sin phi_s; regions holds (lo, end, hi, start, rest) for
    r <= a and then r > a, where start, shape (n_k, 2, (end - lo) / B), holds
    sin theta_q / M and cos theta_q / M (M = 1 outside) for columns lo:end,
    and rest the direct sin of the fewer than B columns end:hi, divided by M.
    Each array is filled in place and made read-only; apart from them only
    vectors of length n_k are allocated.
    """
    kc = k[:, None]
    jost = _jost(model, kc)
    m, delta = np.abs(jost), np.angle(jost)
    n_in = np.searchsorted(r, model.a, side="right")
    rotation = np.empty((k.size, 2, _GROUP_COLUMNS))
    np.multiply(kc, np.arange(_GROUP_COLUMNS) * (r[1] - r[0]), out=rotation[:, 1])
    np.cos(rotation[:, 1], out=rotation[:, 0])
    np.sin(rotation[:, 1], out=rotation[:, 1])
    rotation.setflags(write=False)
    regions = []
    for lo, hi, shift, scale in ((0, n_in, 0.0, m), (n_in, r.size, delta, 1.0)):
        end = hi - (hi - lo) % _GROUP_COLUMNS
        start = np.empty((k.size, 2, (end - lo) // _GROUP_COLUMNS))
        theta = start[:, 1]
        np.multiply(kc, r[lo:end:_GROUP_COLUMNS], out=theta)
        theta += shift
        np.sin(theta, out=start[:, 0])
        np.cos(theta, out=theta)
        start /= np.reshape(scale, (-1, 1, 1))
        rest = np.empty((k.size, hi - end))
        np.multiply(kc, r[end:hi], out=rest)
        rest += shift
        np.sin(rest, out=rest)
        rest /= scale
        start.setflags(write=False)
        rest.setflags(write=False)
        regions.append((int(lo), int(end), int(hi), start, rest))
    return rotation, tuple(regions)


def _apply(continuum: tuple, v: np.ndarray) -> np.ndarray:
    """U v: the continuum matrix U (rows by k, columns by r) times a vector on the r grid.

    Per region, with V = v[lo:end] split into groups of _GROUP_COLUMNS, row k
    gets sum_q sin theta_q (cos phi @ V^T)_q + cos theta_q (sin phi @ V^T)_q,
    plus its leftover columns times v[end:hi]; _BLOCK_ROWS k rows at a time.
    """
    rotation, regions = continuum
    out = np.zeros(rotation.shape[0])
    for first in range(0, out.size, _BLOCK_ROWS):
        rows = slice(first, first + _BLOCK_ROWS)
        cos_sin = rotation[rows].reshape(-1, _GROUP_COLUMNS)
        for lo, end, hi, start, rest in regions:
            groups = cos_sin @ v[lo:end].reshape(-1, _GROUP_COLUMNS).T
            groups = groups.reshape(start[rows].shape) * start[rows]
            out[rows] += groups.sum(axis=(1, 2)) + rest[rows] @ v[end:hi]
    return out


def _apply_transpose(continuum: tuple, c: np.ndarray) -> np.ndarray:
    """U^T c: the transposed continuum matrix times a vector on the k grid.

    Per region, the groups of columns lo:end get (sin theta * c)^T @ cos phi +
    (cos theta * c)^T @ sin phi and the leftover columns c @ rest, summed over
    row blocks of _BLOCK_ROWS k rows in order.  So no one product sums more
    than 2 _BLOCK_ROWS terms: OpenBLAS 0.3.31 (x86-64, AVX-512) gave different
    bits under 1 and 2 threads when one product summed 400 to 500 terms (or
    the whole k grid), and the same bits up to 300.
    """
    rotation, regions = continuum
    out = np.zeros(regions[-1][2])
    for first in range(0, c.size, _BLOCK_ROWS):
        rows = slice(first, first + _BLOCK_ROWS)
        cos_sin = rotation[rows].reshape(-1, _GROUP_COLUMNS)
        for lo, end, hi, start, rest in regions:
            weighted = start[rows] * c[rows, None, None]
            groups = out[lo:end].reshape(-1, _GROUP_COLUMNS)
            groups += weighted.reshape(cos_sin.shape[0], -1).T @ cos_sin
            out[end:hi] += c[rows] @ rest[rows]
    return out


def _adaptive_k_grid(model: DeltaShellModel, k_max: float, n_k: int) -> np.ndarray:
    """k nodes: uniform background plus dense windows on narrow resonances.

    The resonances are the closed-form Lambert-W poles with 0 < Re k < k_max
    (scattering._branch_poles), at most n_k of them: more than one per node
    could not each get a window.  A resonance counts as narrow when its
    |Im k_pole| is below four uniform spacings; each narrow pole gets a window
    of +-40 |Im k_pole| (overlapping windows merge) sharing half the node
    budget (split in proportion to 1/width, at least 16 nodes each, so the
    narrowest n_k // 32 windows are kept).  With no window (no narrow pole, or
    none wide enough to hold two floats) the grid is plain uniform on
    (0, k_max]; so it is, without computing any pole, when n_k < 64 leaves no
    budget for windows.
    """
    k_lo = k_max / n_k
    uniform_dk = k_max / n_k
    narrow_cut = 4.0 * uniform_dk
    if n_k < 64:
        return np.linspace(k_lo, k_max, n_k)
    windows = []
    for k in _branch_poles(model, min(k_max, n_k * np.pi / model.a)).tolist():
        hw = 40.0 * abs(k.imag)
        lo = max(k.real - hw, k_lo)
        hi = min(k.real + hw, k_max)
        if abs(k.imag) < narrow_cut and lo < hi:
            windows.append([lo, hi, abs(k.imag)])
    if not windows:
        return np.linspace(k_lo, k_max, n_k)
    windows.sort()
    merged: list[list[float]] = []
    for lo, hi, wd in windows:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(hi, merged[-1][1])
            merged[-1][2] = min(wd, merged[-1][2])
        else:
            merged.append([lo, hi, wd])
    # windows share half the budget with at least 16 nodes each: only the narrowest
    # n_k // 32 fit, and the trim below would take the rest out of the narrowest ones
    if len(merged) > n_k // 32:
        merged = sorted(sorted(merged, key=lambda w: w[2])[:n_k // 32])

    budget = n_k // 2
    inv = np.array([1.0 / wd for _, _, wd in merged])
    counts = np.maximum(16, (budget * inv / inv.sum()).astype(int))
    pieces = []
    cursor = k_lo
    gaps = []
    for (lo, hi, _), cnt in zip(merged, counts):
        if lo > cursor:
            gaps.append((cursor, lo))
        pieces.append(np.linspace(lo, hi, int(cnt), endpoint=False))
        cursor = max(cursor, hi)
    if cursor < k_max:
        gaps.append((cursor, k_max))
    n_bg = max(n_k - int(counts.sum()), 2 * len(gaps))
    total_gap = sum(hi - lo for lo, hi in gaps)
    for lo, hi in gaps:
        cnt = max(2, int(round(n_bg * (hi - lo) / total_gap)))
        pieces.append(np.linspace(lo, hi, cnt, endpoint=False))
    grid = np.unique(np.concatenate(pieces + [np.array([k_max])]))
    # rounding in the segment counts can miss the budget by a few nodes;
    # trim the tightest spacings / fill the widest gaps until exact
    while grid.size > n_k:
        gaps_now = np.diff(grid)
        grid = np.delete(grid, int(np.argmin(gaps_now)) + 1)
    while grid.size < n_k:
        gaps_now = np.diff(grid)
        i = int(np.argmax(gaps_now))
        grid = np.insert(grid, i + 1, 0.5 * (grid[i] + grid[i + 1]))
    return grid


def _check_grid(model: DeltaShellModel, k_max: float, n_k: int, r_max: float, n_r: int) -> None:
    """Raise ValueError for grid arguments build_decomposition cannot take.

    Checked before anything of the grids' size is allocated: positive sizes
    (n_k >= 8, n_r >= 3), n_k * n_r within MAX_GRID_ELEMENTS, r_max > 2a.
    The budget bounds the n_k * n_r elements each application of the
    continuum works through; the factors themselves hold
    O(n_k (n_r / 64 + 64)) elements.
    """
    if k_max <= 0 or r_max <= 0 or n_k < 8 or n_r < 3:
        raise ValueError("grid parameters must be positive (n_k >= 8, n_r >= 3)")
    check_grid_budget(n_k, n_r)
    if r_max <= 2 * model.a:
        raise ValueError("r_max must exceed the shell radius comfortably (r_max > 2a)")


def build_decomposition(
    model: DeltaShellModel,
    k_max: float,
    n_k: int,
    r_max: float,
    n_r: int,
) -> SpectralDecomposition:
    """Assemble bound and continuum eigendata on radial/momentum grids.

    n_r must be odd (Simpson weights), and n_k * n_r within MAX_GRID_ELEMENTS
    (checked before the k grid or the continuum factors allocate).  Bound
    eigenfunctions are normalized to unit quadrature norm; a bound state too
    deep for that norm to be finite in float64 raises ValueError.  The continuum is held as its angle-addition factors
    (_continuum_factors), each region evaluated on its own columns.
    """
    _check_grid(model, k_max, n_k, r_max, n_r)
    r = np.linspace(0.0, r_max, n_r)
    wr = _simpson_weights(n_r, r[1] - r[0])

    n_in = np.searchsorted(r, model.a, side="right")
    discrete = []
    for energy in bound_states(model):
        kappa = np.sqrt(-energy)
        outside = np.exp(-kappa * (r[n_in:] - model.a))
        try:
            with np.errstate(over="raise", invalid="raise"):
                u = np.concatenate([np.sinh(kappa * r[:n_in]), np.sinh(kappa * model.a) * outside])
                u = u / np.sqrt(np.sum(wr * u * u))
        except FloatingPointError:
            raise ValueError(f"bound state at E = {energy:.12g} is too deep to normalize: its "
                             "eigenfunction's norm overflows float64 on the r grid") from None
        discrete.append((energy, u))

    k = _adaptive_k_grid(model, k_max, n_k)
    wk = _trapezoid_weights(k) * CONTINUUM_MEASURE
    return SpectralDecomposition(model=model, r=r, r_weights=wr, k=k, k_weights=wk,
                                 discrete=tuple(discrete),
                                 continuum=_continuum_factors(model, k, r))


def _check_packet(decomp: SpectralDecomposition, packet: WavePacket) -> np.ndarray:
    if packet.n_points != decomp.r.size or packet.r_max != decomp.r[-1]:
        raise ValueError("packet grid does not match the decomposition grid")
    phi = packet.values
    total = float(np.sum(decomp.r_weights * phi * phi))
    if total > 0:
        tail_sel = decomp.r > 0.8 * decomp.r[-1]
        tail = float(np.sum(decomp.r_weights[tail_sel] * phi[tail_sel] ** 2))
        if tail / total >= _TAIL_MASS_LIMIT:
            raise ValueError(
                f"packet tail mass {tail / total:.3g} beyond 0.8 r_max exceeds {_TAIL_MASS_LIMIT}"
            )
    return phi


def expand(decomp: SpectralDecomposition, packet: WavePacket):
    """Expansion coefficients (discrete array, continuum array) of a packet:
    <u_b|phi> per bound state and U (w_r phi) on the k grid."""
    phi = _check_packet(decomp, packet)
    weighted = decomp.r_weights * phi
    discrete_coefs = np.array([np.sum(weighted * u) for _, u in decomp.discrete])
    return discrete_coefs, _apply(decomp.continuum, weighted)


def reconstruct(decomp: SpectralDecomposition, packet: WavePacket) -> WavePacket:
    """Rebuild a packet from its discrete + continuum coefficients:
    U^T (w_k c) plus <u_b|phi> u_b per bound state."""
    discrete_coefs, continuum_coefs = expand(decomp, packet)
    out = _apply_transpose(decomp.continuum, decomp.k_weights * continuum_coefs)
    for coef, (_, u) in zip(discrete_coefs, decomp.discrete):
        out += coef * u
    return WavePacket(out, packet.r_max, packet.n_points)


def reconstruct_error(decomp: SpectralDecomposition, packet: WavePacket) -> float:
    """Relative L2 error of the reconstruction (0 for the zero packet)."""
    return _relative_error(decomp, packet, reconstruct(decomp, packet))


def _relative_error(decomp: SpectralDecomposition, packet: WavePacket,
                    rebuilt: WavePacket) -> float:
    """Relative L2 distance of rebuilt from packet (0 for the zero packet)."""
    diff = packet.values - rebuilt.values
    norm2 = float(np.sum(decomp.r_weights * packet.values**2))
    if norm2 == 0.0:
        return 0.0
    err2 = float(np.sum(decomp.r_weights * diff * diff))
    return float(np.sqrt(err2 / norm2))


def _check_sample_count(n: int) -> None:
    """Raise ValueError unless n Hardy samples are at least 16, within the budget, and even."""
    if n < 16:
        raise ValueError("need matching 1-d grids of at least 16 samples")
    _check_work_budget((n,), _HARDY_WORK_ARRAYS, "energy samples")
    if n % 2:
        raise ValueError(f"need an even number of samples, got {n}")


def _half_bin_chirp(n: int) -> np.ndarray:
    """exp(-2 pi i j (1/2 - n/2) / n), j = 0..n-1, in a new writable array.

    It shifts the FFT's t grid by n/2 - 1/2 bins.  Its argument reaches pi n / 2
    rad, so it keeps exactly these operations: a rearranged form such as
    e^{-i pi j / n} (-1)^j rounds it differently and moves the leakage's 12th digit.
    """
    chirp = np.arange(n, dtype=complex)
    np.multiply(FOURIER_KERNEL_SIGN * 2j * np.pi, chirp, out=chirp)
    np.multiply(chirp, -n / 2 + 0.5, out=chirp)
    np.divide(chirp, n, out=chirp)
    np.exp(chirp, out=chirp)
    return chirp


def _chirped(f: np.ndarray) -> np.ndarray:
    """f times the half-bin chirp of its size, in a new buffer for the FFT.

    A size met for the first time in a row gets the chirp built in that buffer;
    the second gets it built apart and kept (see hardy_check).  Either way the
    product is f * chirp, operands in that order, so its bits are the same.
    """
    global _hardy_chirp
    n = f.size
    # read once: a concurrent caller may replace the entry meanwhile
    kept_n, chirp = _hardy_chirp or (0, None)
    if kept_n != n:
        # another size's chirp is freed before this buffer is made
        _hardy_chirp, chirp = (n, None), None
        work = _half_bin_chirp(n)
        return np.multiply(f, work, out=work)
    if chirp is None:
        chirp = _half_bin_chirp(n)
        chirp.setflags(write=False)
        _hardy_chirp = (n, chirp)
    return np.multiply(f, chirp)


def hardy_check(energies, values, half_plane: str) -> HardyReport:
    """Classify a sampled f(E) by the time support of its Fourier transform.

    energies must be uniform, with an even number of samples so that the
    half-bin-offset t grid has no sample at t = 0; each step may differ from
    the first by max(1e-9 de, 2 ulp of max|E|), the rounding of a linspace
    grid far from E = 0.  The samples must be finite and |f| must have
    dropped below END_DECAY_THRESHOLD (relative to its peak) at both ends of
    the grid, otherwise the window truncation would fake leakage.  leakage is
    the |F(t)|^2 fraction on the half-line forbidden to the requested class
    (t < 0 for "upper", t > 0 for "lower"); is_member = leakage <
    HARDY_LEAKAGE_THRESHOLD.  F(t) = de e^{-i e0 t} FFT(f chirp); the factor
    outside the FFT has modulus de and cancels in the leakage, so only the FFT
    is taken, and |F| is scaled by a power of two below 1 / (n max|f|) before it is
    squared, so finite samples never overflow |F|^2 and the ratio keeps its bits
    (short of squares in the subnormals, far below the sums' last bit).
    The first transform of an n builds the chirp (_half_bin_chirp) in the FFT's
    own buffer and keeps nothing of it: five arrays of n at the FFT, counting
    the energies and samples.  A second transform of the same n in a row keeps
    the chirp read-only (16 n bytes), and it serves every later transform of
    that n (seven arrays at the FFT) until a transform of another n drops it.

    Callers ask about both classes of the same samples, so a transform serves
    two calls: a call that computes one keeps a read-only copy of f with the
    two half-line sums and the total of |F|^2 (another 16 n bytes), and the
    next call takes that entry and drops it, using its sums when its own
    samples equal the copy (+0 and -0 compare equal and give the same |F|^2).
    Either way the leakage is the same float.
    The sample count times _HARDY_WORK_ARRAYS must be within MAX_GRID_ELEMENTS.
    """
    global _hardy_memo
    if half_plane not in ("upper", "lower"):
        raise ValueError(f"half_plane must be 'upper' or 'lower', got {half_plane!r}")
    e = np.asarray(energies, dtype=float)
    f = np.asarray(values, dtype=complex)
    if e.ndim != 1 or f.shape != e.shape:
        raise ValueError("need matching 1-d grids of at least 16 samples")
    n = e.size
    _check_sample_count(n)
    # both checks run over slices, so no n-sized temporary sits beside the memo or stays
    # resident under the transform; written so that a NaN anywhere fails (np.max, not
    # max(), keeps it), as does the NaN of an inf - inf; the ulp term admits linspace
    # grids far from E = 0, whose steps round to a few ulp
    step = max(n // 16, 1024)
    with np.errstate(invalid="ignore"):
        de = e[1] - e[0]
        tol = max(1e-9 * de, 2.0 * np.spacing(max(abs(e[0]), abs(e[-1]))))
        uniform = de > 0 and np.max([np.max(np.abs(np.diff(e[i:i + step + 1]) - de))
                                     for i in range(0, n - 1, step)]) <= tol
    if not uniform:
        raise ValueError("energy grid must be uniform and increasing")
    peak = float(np.max([np.max(np.abs(f[i:i + step])) for i in range(0, n, step)]))
    if not math.isfinite(peak):
        raise ValueError("samples must be finite")
    if peak == 0.0:
        raise ValueError("samples are identically zero")
    end = max(abs(f[0]), abs(f[-1])) / peak
    if end > END_DECAY_THRESHOLD:
        raise ValueError(
            f"insufficient end decay: |f|/max|f| = {end:.3g} at the grid ends "
            f"(need <= {END_DECAY_THRESHOLD})"
        )

    # read once: a concurrent caller may replace or drop the entry meanwhile
    memo, _hardy_memo = _hardy_memo, None
    if memo is not None and np.array_equal(memo[0], f):
        _, past, future, total = memo
    else:
        del memo  # a stale entry is freed before the transform's arrays are made
        # t grid offset by half a bin: for even n no sample at t = 0, symmetric under
        # t -> -t, and t < 0 exactly on the first n/2 samples
        work = _chirped(f)
        np.fft.fft(work, out=work)
        # |F|^2 goes into work's first 8 n bytes, free until f is copied in below; |F| <=
        # n peak, scaled below 1 by a power of two (exact short of the subnormals) first
        energy = np.abs(work, out=work.view(float)[:n])
        np.ldexp(energy, -(math.frexp(peak)[1] + math.frexp(n)[1]), out=energy)
        np.square(energy, out=energy)
        total = float(energy.sum())
        past, future = energy[:n // 2].sum(), energy[n // 2:].sum()
        np.copyto(work, f)
        work.setflags(write=False)
        _hardy_memo = (work, past, future, total)
    leakage = float((past if half_plane == "upper" else future) / total)
    return HardyReport(half_plane=half_plane, leakage=leakage,
                       is_member=leakage < HARDY_LEAKAGE_THRESHOLD)


def windowed_resonance_samples(
    e_r: float,
    gamma: float,
    e_min: float,
    e_max: float,
    n: int,
):
    """Sample 1/(E - (e_r - i gamma/2)) under a wide Gaussian envelope.

    The bare resonance decays only like 1/E, far too slowly to satisfy the
    end-decay precondition of hardy_check on any feasible grid; the envelope
    (width (e_max - e_min)/12.5, centered on e_r) supplies the decay
    while widening the transform's edge at t = 0 by ~1/width.  Returns
    (energies, samples).  Before anything of size n is allocated, n must pass
    hardy_check's size rules (at least 16, even, and n times
    _HARDY_WORK_ARRAYS within MAX_GRID_ELEMENTS), with its messages, and
    (e_max - e_min)^2 and 2 width^2 must be finite and nonzero.  Samples that
    overflow (gamma near the float minimum, on a grid that meets e_r) raise
    ValueError("samples must be finite"), hardy_check's message, with no numpy
    warning.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not e_min < e_r < e_max:
        raise ValueError("the resonance energy must lie inside (e_min, e_max)")
    # Python floats, so that an overflow gives inf, not numpy's warning or **'s OverflowError
    span = float(e_max) - float(e_min)
    spread = 2.0 * (span / 12.5) ** 2 if 0.0 < span * span < math.inf else 0.0
    if not 0.0 < spread < math.inf:
        raise ValueError(f"energy window [{e_min:g}, {e_max:g}] is out of range: "
                         "(e_max - e_min)^2 and 2 width^2 must be finite and nonzero")
    _check_sample_count(n)
    e = np.linspace(e_min, e_max, n, endpoint=False)
    # exp(-(e - e_r)^2 / spread) / (e - (e_r - i gamma/2)), one ufunc at a time in place
    envelope = np.subtract(e, e_r)
    np.square(envelope, out=envelope)
    np.negative(envelope, out=envelope)
    np.divide(envelope, spread, out=envelope)
    np.exp(envelope, out=envelope)
    samples = np.subtract(e, complex(e_r, -0.5 * gamma))
    # |f| peaks near 2 / gamma, which overflows for gamma near the float minimum
    try:
        with np.errstate(over="raise", invalid="raise"):
            return e, np.divide(envelope, samples, out=samples)
    except FloatingPointError:
        raise ValueError("samples must be finite") from None
