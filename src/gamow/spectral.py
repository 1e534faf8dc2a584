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
error for sharp resonances.  The grid is one piecewise-linear map from node
index to k, with breakpoints at the ends and at the windows' edges, so it
has exactly n_k nodes by construction; a window is kept only if it holds
n_k distinct floats, so its nodes cannot repeat one.

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
count drops it.  Inside the transform numpy's pocketfft allocates two more
arrays of n complex (four of float64) that tracemalloc does not see.  At
n = 2^20 peak RSS rises over the process's resident set by 9.2 arrays of n
on its first transform and 11.2 on the one that keeps the chirp; when the
path repeats, glibc serves the later buffers from its heap, which keeps
what they free, and the rise settles at 12.1.  So the work budget charges
_HARDY_WORK_ARRAYS = 13.  The samples are built in place, and the input
checks run over slices of n / 16 samples.

Decompositions are immutable after construction (arrays are read-only);
reconstruction of independent packets may run concurrently.

The continuum is never held as its (n_k, n_r) matrix U.  Its kernel e^{ikr}
is band-limited on the grids (numerical rank about k_max r_max / pi), so it
is applied through a Gaussian-gridded FFT (Dutt & Rokhlin 1993; Greengard &
Lee 2004).  About the middle node r_c, u_k(r) = Im(row_k e^{ik(r - r_c)}), with
row_k = e^{ikr_c} / |D(k)| inside the shell and e^{ikr_c} e^{i delta_k} outside.
With psi(x) = e^{-alpha x^2}, e^{ikx} is (1 / psi(x)) times a sum over the
lattice kappa_m = 2 pi m / (N h) of Gaussian weights in kappa_m - k, where N
is the power of two >= 2 (n_r - 1), h the r spacing, and each k reads at
least its `taps` nearest lattice points: 34 at n_r = 4001 (N = 8192), 28 to
40 on any grid.  alpha and the taps hold aliasing and tap truncation to
e^{-36} of 1 / psi at the grid ends (_lattice).  So expand takes one FFT of length N,
of v / psi inside as its real part and outside as its imaginary part, and
one banded interpolation pass over blocks of at most _BLOCK_ROWS k rows;
reconstruct is its adjoint, with one FFT too.  Against the np.where matrix
W, both stay within 2e-15 x max|W| x the 1-norm of the vector at the CLI
grid and 4e-14 on a sample of the tested (g, a) plane (rounding amplified by
1 / psi, up to 66 at the grid ends), and elements within 7e-14 x max|u| of
50 digits at k_max = 30 (2.5e-13 at k_max = 300, from rounding k r_c).  A
decomposition holds the weights as one dense window per block (n_k (taps +
about 6) elements at the CLI grid), the row factors and 1 / psi: 0.77 MB at
n_k = 2000, n_r = 4001, against 64 MB for U.  Everything runs on the calling
thread; the BLAS products sum at most _BLOCK_ROWS rows or one block's window
(under 170 lattice points), and reconstruct adds the blocks in order, so no
bit depends on the BLAS thread count.

Work and memory are bounded by MAX_GRID_ELEMENTS = 2^27 float64 elements
(1 GiB): an (n_k, n_r) grid above it, a continuum whose FFT, k nodes and
lattice would need more (_check_grid), or n Hardy samples whose work arrays
(_HARDY_WORK_ARRAYS of n elements) would exceed it, are rejected before
anything of their size is allocated; the CLI charges its phase and evolve
grids and its reps operators the same way.
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
_BLOCK_ROWS = 128                 # k rows per product when the continuum is applied
_LATTICE_DECAY = 36.0             # -ln of the continuum lattice's aliasing and tap truncation
_FFT_WORK_ARRAYS = 12             # float64 of peak RSS per continuum FFT point (11.2 measured)
_HARDY_WORK_ARRAYS = 13           # n-element float64 arrays of peak RSS: energies 1, samples 2,
                                  # FFT buffer 2, the kept chirp 2, pocketfft's own scratch 4, and
                                  # what the heap keeps when the path repeats (12.1), rounded up
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

    Each path charges the peak of its run per grid point, rounded up.  The
    Hardy samples plus both hardy_check calls hold 5.16 arrays of n elements
    by tracemalloc at n = 2^14 on the first transform of n, and 7.15 on the
    one that keeps the chirp.  pocketfft's scratch, which tracemalloc misses,
    brings the rise of peak RSS to 9.2 and 11.2 arrays at n = 2^20, and to
    12.1 once the path repeats in one process (the heap keeps freed buffers),
    so they are charged _HARDY_WORK_ARRAYS = 13.  A shape beyond the grid
    budget itself gets check_grid_budget's message.
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
    (2/pi) dk.  continuum holds the read-only row factors and lattice weights
    of the continuum functions on the k and r grids (see _continuum_factors),
    not their matrix; expand and reconstruct apply them through an FFT.

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
    """Composite Simpson weights on n points of spacing h; n odd and >= 3 (_check_grid)."""
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


def _lattice(n_r: int, h: float) -> tuple:
    """(N, dk, alpha, taps): the FFT length, lattice spacing, Gaussian and taps of an r grid.

    N is the power of two >= 2 (n_r - 1), so the period L = N h is at least twice
    r_max.  The columns sit at x_j = (j - c) h, |x_j| <= X = c h, c = (n_r - 1) / 2.
    alpha sets the aliasing error psi(L - X) / psi(X) = e^{-alpha L (L - 2X)} to
    e^{-_LATTICE_DECAY}; the taps are the fewest for which the first weight left
    out, e^{-(taps dk / 2)^2 / (4 alpha)}, is that far below 1 / psi(X).
    """
    n = 1 << (2 * (n_r - 1) - 1).bit_length()
    period, half = n * h, (n_r - 1) // 2 * h
    alpha = _LATTICE_DECAY / (period * (period - 2.0 * half))
    reach = math.sqrt(4.0 * alpha * (_LATTICE_DECAY + alpha * half * half))
    return n, 2.0 * math.pi / period, alpha, math.ceil(period / math.pi * reach)


def _continuum_factors(model: DeltaShellModel, k: np.ndarray, r: np.ndarray) -> tuple:
    """The continuum functions u_k(r) as row factors and a banded lattice interpolation.

    From the Jost function D(k) (scattering._jost): for real k,
    e^{-ika} conj(D(k)) = M e^{i delta_k}, where delta_k is the s-wave phase
    shift (S = e^{2i delta_k}) and M = |D(k)|.  Matching at the shell then
    gives u_k(r) = sin(kr) / M for r <= a and sin(kr + delta_k) for r > a,
    with asymptotic amplitude 1: u_k(r_j) = Im(row_k e^{i k x_j}), where
    x_j = r_j - r_c about the middle node r_c and row_k = e^{i k r_c} / M inside,
    e^{i k r_c} e^{i delta_k} outside.

    r must be uniform (linspace, spacing h) and k increasing.  With psi(x) =
    e^{-alpha x^2} and the lattice kappa_m = m dk (_lattice), the Fourier series
    of psi(x) e^{ikx} on the period N h gives
    e^{ikx_j} = (1 / psi(x_j)) sum_m c_m(k) e^{i kappa_m x_j}, with
    c_m(k) =(dk / 2 pi) sqrt(pi / alpha) e^{-(kappa_m - k)^2 / (4 alpha)}, of which
    each k needs its `taps` nearest lattice points.  Returns (rows, columns,
    blocks, lattice): rows, shape (n_k, 2), holds row_k inside and outside;
    columns, length n_r, holds 1 / psi(x_j) inside and i / psi(x_j) outside;
    blocks holds (first, stop, lo, weights) per run of at most _BLOCK_ROWS k rows
    whose nearest taps start fewer than _BLOCK_ROWS lattice points apart, and
    weights holds c_m / 2 for every row of the run and every point of the
    window their taps span (rows x window; each row's far points only add
    accuracy), from lattice point m_lo + lo on; lattice is (N, m_lo, m_hi, c).
    The arrays are read-only.
    """
    n_r, c = r.size, (r.size - 1) // 2
    n, dk, alpha, taps = _lattice(n_r, r[1] - r[0])
    jost = _jost(model, k)
    m = np.abs(jost)
    rows = np.empty((k.size, 2), dtype=complex)
    np.exp(1j * (k * r[c]), out=rows[:, 0])
    np.multiply(rows[:, 0], jost / m, out=rows[:, 1])
    rows[:, 0] /= m
    x = (np.arange(n_r) - c) * (r[1] - r[0])
    columns = np.exp(alpha * x * x).astype(complex)
    columns[np.searchsorted(r, model.a, side="right"):] *= 1j
    # the taps nearest k_i start at lattice point first[i]; a block's rows share one window
    t = k / dk
    first = np.ceil(t - 0.5 * taps).astype(np.int64)
    m_lo, m_hi = int(first[0]), int(first[-1]) + taps
    scale = 0.5 / (n * (r[1] - r[0])) * math.sqrt(math.pi / alpha)
    blocks, lo = [], 0
    while lo < k.size:
        hi = min(lo + _BLOCK_ROWS, int(np.searchsorted(first, first[lo] + _BLOCK_ROWS)))
        # (kappa_m - k_i) / dk, exact up to the rounding of t
        weights = (first[lo] - t[lo:hi])[:, None] + np.arange(first[hi - 1] - first[lo] + taps)
        np.square(weights, out=weights)
        weights *= -dk * dk / (4.0 * alpha)
        with np.errstate(under="ignore"):  # far taps of a wide window are zero
            np.exp(weights, out=weights)
        weights *= scale
        weights.setflags(write=False)
        blocks.append((lo, hi, int(first[lo]) - m_lo, weights))
        lo = hi
    for arr in (rows, columns):
        arr.setflags(write=False)
    return rows, columns, tuple(blocks), (n, m_lo, m_hi, c)


def _lattice_points(lattice: tuple) -> tuple:
    """The FFT indices of the lattice points m_lo .. m_hi - 1 and of their negatives."""
    n, m_lo, m_hi, _ = lattice
    m = np.arange(m_lo, m_hi)
    return m % n, -m % n


def _apply(continuum: tuple, v: np.ndarray) -> np.ndarray:
    """U v: the continuum matrix U (rows by k, columns by r) times a vector on the r grid.

    One FFT of length N takes v / psi inside as its real part and outside as its
    imaginary part, so that Z_m + conj(Z_-m) and -i (Z_m - conj(Z_-m)) are twice
    the two regions' lattice sums; each block of k rows then reads its window of
    them in one product, and U v = Im(row_in S_in) + Im(row_out S_out).
    """
    rows, columns, blocks, lattice = continuum
    n, m_lo, m_hi, c = lattice
    z = np.zeros(n, dtype=complex)
    # column j goes to FFT index (j - c) mod N, so x_j = (j - c) h
    np.multiply(v[c:], columns[c:], out=z[:v.size - c])
    np.multiply(v[:c], columns[:c], out=z[n - c:])
    np.fft.ifft(z, norm="forward", out=z)
    ahead, behind = _lattice_points(lattice)
    ahead, behind = np.conj(z[ahead]), z[behind]
    # i conj of both sums, so that each product's columns come out as (Im S, Re S)
    sums = np.empty((m_hi - m_lo, 2), dtype=complex)
    np.add(ahead, behind, out=sums[:, 0])
    sums[:, 0] *= 1j
    np.subtract(behind, ahead, out=sums[:, 1])
    sums = sums.view(float)
    out = np.empty((rows.shape[0], 4))
    for first, stop, lo, weights in blocks:
        np.matmul(weights, sums[lo:lo + weights.shape[1]], out=out[first:stop])
    # Im(row S) = Re row Im S + Im row Re S, per region
    return np.einsum("ij,ij->i", out, rows.view(float))


def _apply_transpose(continuum: tuple, c: np.ndarray) -> np.ndarray:
    """U^T c: the transposed continuum matrix times a vector on the k grid.

    The adjoint of _apply: each block spreads c row_in and c row_out onto its
    lattice window, the blocks added in order, so no product sums more than
    _BLOCK_ROWS terms (OpenBLAS 0.3.31 gave different bits under 1 and 2
    threads when one product summed 400 to 500 terms, and the same bits up to
    300).  Folding A_in and A_out Hermitian as -i (A_in,m - conj(A_in,-m)) +
    (A_out,m - conj(A_out,-m)) makes one FFT give both regions: its real part
    inside and its imaginary part outside, each times 1 / psi.
    """
    rows, columns, blocks, lattice = continuum
    n, m_lo, m_hi, mid = lattice
    spread = np.zeros((m_hi - m_lo, 4))
    weighted = (rows * c[:, None]).view(float)
    for first, stop, lo, weights in blocks:
        spread[lo:lo + weights.shape[1]] += weights.T @ weighted[first:stop]
    inside, outside = spread.view(complex).T
    ahead, behind = _lattice_points(lattice)
    y = np.zeros(n, dtype=complex)
    np.add.at(y, ahead, outside - 1j * inside)
    np.add.at(y, behind, -np.conj(outside + 1j * inside))
    np.fft.ifft(y, norm="forward", out=y)
    y = np.concatenate([y[n - mid:], y[:columns.size - mid]])
    return y.real * columns.real + y.imag * columns.imag


def _adaptive_k_grid(model: DeltaShellModel, k_max: float, n_k: int) -> np.ndarray:
    """k nodes: one piecewise-linear map from node index to k, dense on narrow resonances.

    The resonances are the closed-form Lambert-W poles with 0 < Re k < k_max
    (scattering._branch_poles), at most n_k of them: more than one per node
    could not each get a window.  A resonance counts as narrow when its
    |Im k_pole| is below four uniform spacings.  Its window, Re k +- 40 |Im k|
    clipped to [k_max / n_k, k_max], is kept only if it holds n_k distinct
    floats.  Windows that overlap, or whose gap could not hold n_k floats,
    merge with the smaller |Im k|; a window that close to an end of the grid
    reaches it; and the narrowest n_k // 32 windows are kept.  The grid's ends
    and the windows' edges are the map's breakpoints.  Each window gets 16
    nodes and each gap 2, and the rest of the n_k - 1 steps go half to the
    windows in proportion to 1/|Im k| and half to the gaps in proportion to
    their length, rounded cumulatively.  So the grid has exactly n_k nodes,
    ends on k_max, and strictly increases: every segment holds more floats
    than it gets nodes.  With no window (no narrow pole, or none that holds
    n_k floats) the grid is plain uniform on (0, k_max]; so it is, without
    computing any pole, when n_k < 64 leaves no budget for windows.
    """
    k_lo = k_max / n_k
    if n_k < 64:
        return np.linspace(k_lo, k_max, n_k)
    windows = []
    for k in _branch_poles(model, min(k_max, n_k * np.pi / model.a)).tolist():
        width = abs(k.imag)
        lo = max(k.real - 40.0 * width, k_lo)
        hi = min(k.real + 40.0 * width, k_max)
        if width < 4.0 * k_lo and hi - lo > n_k * np.spacing(hi):
            windows.append([lo, hi, width])
    if not windows:
        return np.linspace(k_lo, k_max, n_k)
    windows.sort()
    merged: list[list[float]] = []
    for lo, hi, width in windows:
        if merged and lo - merged[-1][1] <= n_k * np.spacing(lo):
            merged[-1][1] = max(hi, merged[-1][1])
            merged[-1][2] = min(width, merged[-1][2])
        else:
            merged.append([lo, hi, width])
    kept = sorted(sorted(merged, key=lambda w: w[2])[:n_k // 32])
    if kept[0][0] - k_lo <= n_k * np.spacing(kept[0][0]):
        kept[0][0] = k_lo
    if k_max - kept[-1][1] <= n_k * np.spacing(k_max):
        kept[-1][1] = k_max

    # segments alternate gap and window; only an end gap can be empty, and it gets no node
    edges = np.array([k_lo, *(edge for lo, hi, _ in kept for edge in (lo, hi)), k_max])
    window = np.arange(edges.size - 1) % 2 == 1
    widths = np.array([width for _, _, width in kept])
    inverse_width = np.zeros(window.size)
    inverse_width[window] = widths.min() / widths
    gap_length = np.where(window, 0.0, np.diff(edges))
    share = inverse_width / inverse_width.sum() + gap_length / (gap_length.sum() or 1.0)
    segment = window | (gap_length > 0)
    minimum = np.where(window, 16, 2)[segment]
    spare = n_k - 1 - int(minimum.sum())
    steps = minimum + np.diff(np.round(spare * np.cumsum(share[segment]) / share.sum()), prepend=0.0)
    return np.interp(np.arange(n_k), np.append(0.0, np.cumsum(steps)),
                     np.append(edges[:-1][segment], k_max))


def _check_grid(model: DeltaShellModel, k_max: float, n_k: int, r_max: float, n_r: int) -> None:
    """Raise ValueError for grid arguments build_decomposition cannot take.

    Checked before anything of the grids' size is allocated: positive sizes
    (n_k >= 8, n_r >= 3), n_k * n_r within MAX_GRID_ELEMENTS, an odd n_r
    (Simpson weights), r_max > 2a, and the continuum's work within
    MAX_GRID_ELEMENTS too.  That work is measured as the rise of peak RSS
    over builds and reconstructions: 10.0 to 11.2 float64 per point of the
    FFT (N about 2 n_r: its buffer, pocketfft's scratch and the vectors on
    the r grid), charged _FFT_WORK_ARRAYS = 12; the weights' taps plus 13 to
    15 per k node, charged taps + 16; and 11.9 per lattice point the k grid
    reaches (k_max / dk of them, so k_max r_max must be finite), charged that
    plus the _BLOCK_ROWS weights a block of k rows may hold per point of its
    window.
    """
    if k_max <= 0 or r_max <= 0 or n_k < 8 or n_r < 3:
        raise ValueError("grid parameters must be positive (n_k >= 8, n_r >= 3)")
    check_grid_budget(n_k, n_r)
    if n_r % 2 == 0:
        raise ValueError(f"n_r must be odd for the radial Simpson weights, got {n_r}")
    if r_max <= 2 * model.a:
        raise ValueError("r_max must exceed the shell radius comfortably (r_max > 2a)")
    try:
        n, dk, _, taps = _lattice(n_r, r_max / (n_r - 1))
    except (ArithmeticError, ValueError):  # a period or its square out of float64's range
        raise ValueError(f"r_max = {r_max:g} is out of the continuum lattice's range") from None
    span = k_max / dk + taps + 2
    work = _FFT_WORK_ARRAYS * n + (taps + 16) * n_k + (_BLOCK_ROWS + 16) * span
    if not work <= MAX_GRID_ELEMENTS:  # also false for an infinite or NaN k_max
        raise ValueError(f"the continuum on k_max = {k_max:g}, r_max = {r_max:g} needs an FFT of "
                         f"{n} points and a lattice of {span:.4g}, about {work:.4g} float64 work "
                         f"elements, over the budget of {MAX_GRID_ELEMENTS} float64 elements "
                         "(1 GiB)")


def build_decomposition(
    model: DeltaShellModel,
    k_max: float,
    n_k: int,
    r_max: float,
    n_r: int,
) -> SpectralDecomposition:
    """Assemble bound and continuum eigendata on radial/momentum grids.

    n_r must be odd (Simpson weights), and the grids within MAX_GRID_ELEMENTS
    (_check_grid, before the k grid or the continuum allocate).  Bound
    eigenfunctions are normalized to unit norm on [0, inf): the quadrature on
    the r grid plus the closed-form tail u(r_max)^2 / (2 kappa); a bound state
    too deep for that norm to be finite in float64 raises ValueError.  The
    continuum is held as its row factors and lattice weights
    (_continuum_factors), the shell's two regions apart.
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
                u = u / np.sqrt(np.sum(wr * u * u) + u[-1] ** 2 / (2 * kappa))
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
    numpy's FFT adds scratch of its own, four arrays of n float64.

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
    leakage = float({"upper": past, "lower": future}[half_plane] / total)
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
    # |f| peaks near 2 / gamma: it overflows, or divides by 0, for gamma near the float minimum
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return e, np.divide(envelope, samples, out=samples)
    except FloatingPointError:
        raise ValueError("samples must be finite") from None
