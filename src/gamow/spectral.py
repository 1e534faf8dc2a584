"""Eigenfunction expansion for the delta shell, and a Paley-Wiener test.

Completeness (bound states + continuum) is realized numerically: a packet
phi(r) on [0, r_max] is expanded over the normalized bound eigenfunctions
and the real continuum solutions u_k(r) with asymptotic amplitude one,
u_k(r) = sin(kr + delta(k)) outside the shell, for which the closure
relation carries the measure (2/pi) dk:

    phi(r) = sum_b <u_b|phi> u_b(r) + (2/pi) int dk <u_k|phi> u_k(r).

Inside the shell u_k(r) = sin(kr) / |D(k)|.  Both |D(k)| and the phase
shift delta(k) come from the Jost function D(k) of scattering.denominator,
as e^{-ika} conj(D(k)) = |D(k)| e^{i delta(k)} for real k, so the shell's
matching conditions are written once, in the scattering module.

CONTINUUM_MEASURE below is that 2/pi.  Radial integrals use Simpson weights
(the shell kink sits harmlessly on a panel edge when a/r_max * (n_r - 1) is
an even integer, e.g. r_max = 10, n_r = 4001, a = 1); the k integral uses
trapezoid weights on a grid that clusters nodes around any resonance too
narrow for uniform spacing to resolve (found via the pole search), since a
uniform grid stalls near 1e-2 relative error for sharp resonances.

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
and conj(f) sum to one exactly.

Decompositions are immutable after construction (arrays are read-only);
reconstruction of independent packets may run concurrently.

The continuum is computed in row blocks of about _BLOCK_ELEMENTS elements.
build_decomposition stores every block in one (n_k, n_r) matrix, for callers
that expand many packets on one grid; `gamow spectral` rebuilds its one
packet from each block in turn and holds only one.  Both sum the blocks in
the same order, so they agree bit for bit.  Apart from the blocks, only
vectors of length n_k or n_r (and per-block factors of about 2 n_r / 64
elements a row) are allocated.  The r grid is uniform, so within each
region (r <= a, r > a) a row is filled in groups of _GROUP_COLUMNS = 64
columns by the angle-addition identity: 2 (n_groups + 64) transcendentals
per row plus one sin per leftover column (285 at n_r = 4001, a = 1), not one
sin per element (4001).

Work and memory are bounded by MAX_GRID_ELEMENTS = 2^27 float64 elements
(1 GiB): an (n_k, n_r) grid above it (the stored matrix, or the elements the
stream computes), or n Hardy samples whose work arrays (_HARDY_WORK_ARRAYS of
n elements) would exceed it, are rejected before anything of their size is
allocated; the CLI charges its phase, evolve and poles grids the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scattering import DeltaShellModel, SearchRegion, bound_states, denominator, find_poles

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
_BLOCK_ELEMENTS = 2**18           # continuum elements filled per block (2 MiB of float64)
_GROUP_COLUMNS = 64               # continuum columns per angle-addition group
_HARDY_WORK_ARRAYS = 8            # n-element float64 arrays the Hardy samples + hardy_check hold


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
    up (the Hardy samples plus one hardy_check hold about 7 arrays of n
    elements, so they are charged _HARDY_WORK_ARRAYS); a shape beyond the
    grid budget itself gets check_grid_budget's message.
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

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n_points)


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
    (2/pi) dk; continuum has shape (len(k), len(r)).

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
    continuum: np.ndarray

    def __post_init__(self):
        for name in ("r", "r_weights", "k", "k_weights", "continuum"):
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


def _row_blocks(n_k: int, n_r: int):
    """Slices of max(1, _BLOCK_ELEMENTS // n_r) k rows (the last may be shorter): the
    unit of continuum work, the same for the stored matrix and the stream."""
    rows = max(1, _BLOCK_ELEMENTS // n_r)
    for lo in range(0, n_k, rows):
        yield slice(lo, min(lo + rows, n_k))


def _continuum_blocks(model: DeltaShellModel, k: np.ndarray, r: np.ndarray, out=None):
    """Yield (rows, block): the real scattering solutions u_k(r) of k[rows].

    From the Jost function D(k) (scattering.denominator): for real k,
    e^{-ika} conj(D(k)) = M e^{i delta_k}, where delta_k is the s-wave phase
    shift (S = e^{2i delta_k}) and M = |D(k)|.  Matching at the shell then
    gives u_k(r) = sin(kr) / M for r <= a and sin(kr + delta_k) for r > a,
    with asymptotic amplitude 1.

    r must be uniform (linspace, spacing h = r[1] - r[0]).  Each region's
    columns then go in groups of _GROUP_COLUMNS: column lo + B q + s gets
    sin(theta_q + phi_s) = sin theta_q cos phi_s + cos theta_q sin phi_s, with
    theta_q = k r[lo + B q] (+ delta_k outside) and phi_s = k s h, as one
    matmul of [sin theta_q, cos theta_q] (divided by M inside) with
    [cos phi_s; sin phi_s].  That is 2 (n_groups + B) transcendentals per
    row, not one per element; the fewer than B columns left at the end of
    each region get a direct sin.

    With out (shape (len(k), len(r))) each block is filled in place as a view
    of out.  Without it one buffer of a block's size is refilled, so a block
    is valid only until the next one is drawn.  Each row gets the same
    operations whatever the block size, hence the same bits.
    """
    kc = k[:, None]
    jost = np.exp(-1j * kc * model.a) * np.conj(denominator(model, kc))
    m, delta = np.abs(jost), np.angle(jost)
    n_in = np.searchsorted(r, model.a, side="right")
    offsets = np.arange(_GROUP_COLUMNS) * (r[1] - r[0])
    if out is None:
        buffer = np.empty((next(_row_blocks(k.size, r.size)).stop, r.size))
    for rows in _row_blocks(k.size, r.size):
        block = buffer[:rows.stop - rows.start] if out is None else out[rows]
        kr = kc[rows]
        phi = kr * offsets
        rotation = np.empty((kr.size, 2, _GROUP_COLUMNS))
        np.cos(phi, out=rotation[:, 0])
        np.sin(phi, out=rotation[:, 1])
        for lo, hi, shift, scale in ((0, n_in, 0.0, m[rows]), (n_in, r.size, delta[rows], 1.0)):
            end = hi - (hi - lo) % _GROUP_COLUMNS
            theta = kr * r[lo:end:_GROUP_COLUMNS] + shift
            start = np.empty(theta.shape + (2,))
            np.sin(theta, out=start[..., 0])
            np.cos(theta, out=start[..., 1])
            start /= np.reshape(scale, (-1, 1, 1))
            # a view: splitting the contiguous columns lo:end into groups needs no copy
            groups = block[:, lo:end].reshape(theta.shape + (_GROUP_COLUMNS,))
            np.matmul(start, rotation, out=groups)
            rest = block[:, end:hi]
            np.multiply(kr, r[end:hi], out=rest)
            rest += shift
            np.sin(rest, out=rest)
            rest /= scale
        yield rows, block


def _continuum_functions(model: DeltaShellModel, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The continuum matrix, rows by k: every block of _continuum_blocks, stored.

    The result is allocated once and filled in place; apart from it only
    vectors of length n_k are allocated.
    """
    out = np.empty((k.size, r.size))
    for _ in _continuum_blocks(model, k, r, out):
        pass
    return out


def _adaptive_k_grid(model: DeltaShellModel, k_max: float, n_k: int) -> np.ndarray:
    """k nodes: uniform background plus dense windows on narrow resonances.

    A resonance counts as narrow when its |Im k_pole| is below four uniform
    spacings; each narrow pole gets a window of +-40 |Im k_pole| sharing half
    the node budget (split in proportion to 1/width).  With no narrow poles the
    grid is plain uniform on (0, k_max]; so it is, without a pole search, when
    n_k < 64 leaves no budget for windows or the spacing is so fine
    (4 k_max / n_k <= 1e-14) that the search strip below the real axis is
    empty.
    """
    k_lo = k_max / n_k
    uniform_dk = k_max / n_k
    narrow_cut = 4.0 * uniform_dk
    if n_k < 64 or narrow_cut <= 1e-14:
        return np.linspace(k_lo, k_max, n_k)
    poles = find_poles(
        model,
        SearchRegion(0.0, k_max, -narrow_cut, -1e-14, n_re=96, n_im=12),
    )
    narrow = [p for p in poles if abs(p.k_pole.imag) < narrow_cut]
    if not narrow:
        return np.linspace(k_lo, k_max, n_k)

    windows = []
    for p in narrow:
        hw = 40.0 * abs(p.k_pole.imag)
        lo = max(p.k_pole.real - hw, k_lo)
        hi = min(p.k_pole.real + hw, k_max)
        if lo < hi:
            windows.append([lo, hi, abs(p.k_pole.imag)])
    windows.sort()
    merged: list[list[float]] = []
    for lo, hi, wd in windows:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(hi, merged[-1][1])
            merged[-1][2] = min(wd, merged[-1][2])
        else:
            merged.append([lo, hi, wd])

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
    """
    if k_max <= 0 or r_max <= 0 or n_k < 8 or n_r < 3:
        raise ValueError("grid parameters must be positive (n_k >= 8, n_r >= 3)")
    check_grid_budget(n_k, n_r)
    if r_max <= 2 * model.a:
        raise ValueError("r_max must exceed the shell radius comfortably (r_max > 2a)")


@dataclass(frozen=True)
class _Grids:
    """What a decomposition holds apart from its continuum matrix (same field names)."""

    r: np.ndarray
    r_weights: np.ndarray
    k: np.ndarray
    k_weights: np.ndarray
    discrete: tuple


def _build_grids(model: DeltaShellModel, k_max: float, n_k: int, r_max: float,
                 n_r: int) -> _Grids:
    """The r grid, its Simpson weights, the bound states, the k grid and its weights.

    _check_grid runs first; only vectors of length n_k or n_r are allocated.
    """
    _check_grid(model, k_max, n_k, r_max, n_r)
    r = np.linspace(0.0, r_max, n_r)
    wr = _simpson_weights(n_r, r[1] - r[0])

    n_in = np.searchsorted(r, model.a, side="right")
    discrete = []
    for energy in bound_states(model):
        kappa = np.sqrt(-energy)
        u = np.concatenate([np.sinh(kappa * r[:n_in]),
                            np.sinh(kappa * model.a) * np.exp(-kappa * (r[n_in:] - model.a))])
        u = u / np.sqrt(np.sum(wr * u * u))
        discrete.append((energy, u))

    k = _adaptive_k_grid(model, k_max, n_k)
    wk = _trapezoid_weights(k) * CONTINUUM_MEASURE
    return _Grids(r=r, r_weights=wr, k=k, k_weights=wk, discrete=tuple(discrete))


def build_decomposition(
    model: DeltaShellModel,
    k_max: float,
    n_k: int,
    r_max: float,
    n_r: int,
) -> SpectralDecomposition:
    """Assemble bound and continuum eigendata on radial/momentum grids.

    n_r must be odd (Simpson weights), and n_k * n_r within MAX_GRID_ELEMENTS
    (checked before the k-grid pole search or the matrix allocates).  Each
    element is evaluated once, by region (r <= a, r > a); bound eigenfunctions
    are normalized to unit quadrature norm.
    """
    grids = _build_grids(model, k_max, n_k, r_max, n_r)
    cont = _continuum_functions(model, grids.k, grids.r)
    return SpectralDecomposition(model=model, continuum=cont, **vars(grids))


def _check_packet(grids, packet: WavePacket) -> np.ndarray:
    if packet.n_points != grids.r.size or packet.r_max != grids.r[-1]:
        raise ValueError("packet grid does not match the decomposition grid")
    phi = packet.values
    total = float(np.sum(grids.r_weights * phi * phi))
    if total > 0:
        tail_sel = grids.r > 0.8 * grids.r[-1]
        tail = float(np.sum(grids.r_weights[tail_sel] * phi[tail_sel] ** 2))
        if tail / total >= _TAIL_MASS_LIMIT:
            raise ValueError(
                f"packet tail mass {tail / total:.3g} beyond 0.8 r_max exceeds {_TAIL_MASS_LIMIT}"
            )
    return phi


def expand(decomp: SpectralDecomposition, packet: WavePacket):
    """Expansion coefficients (discrete list, continuum array) of a packet."""
    phi = _check_packet(decomp, packet)
    weighted = decomp.r_weights * phi
    discrete_coefs = np.array([np.sum(weighted * u) for _, u in decomp.discrete])
    continuum_coefs = decomp.continuum @ weighted
    return discrete_coefs, continuum_coefs


def _rebuild(grids, packet: WavePacket, blocks) -> WavePacket:
    """The packet rebuilt from its expansion, one row block of the continuum at a time.

    blocks yields (rows, block) with block = u_{k[rows]} on the r grid; each
    adds block^T (w_k (block (w_r phi))), then each bound state adds
    <u_b|phi> u_b.  The same blocks give the same bits, stored or streamed.
    """
    phi = _check_packet(grids, packet)
    weighted = grids.r_weights * phi
    out = np.zeros(phi.size)
    for rows, block in blocks:
        out += block.T @ (grids.k_weights[rows] * (block @ weighted))
    for _, u in grids.discrete:
        out += np.sum(weighted * u) * u
    return WavePacket(out, packet.r_max, packet.n_points)


def reconstruct(decomp: SpectralDecomposition, packet: WavePacket) -> WavePacket:
    """Rebuild a packet from its discrete + continuum coefficients.

    The stored matrix is read in the row blocks _stream_reconstruction
    computes, so both give the same bits.
    """
    blocks = ((rows, decomp.continuum[rows]) for rows in _row_blocks(*decomp.continuum.shape))
    return _rebuild(decomp, packet, blocks)


def _stream_reconstruction(model: DeltaShellModel, k_max: float, n_k: int, r_max: float,
                           n_r: int, packet: WavePacket) -> tuple[_Grids, WavePacket]:
    """reconstruct(build_decomposition(...), packet), bit for bit, without the matrix.

    Each row block of the continuum is computed, used and overwritten, so
    memory is one block plus vectors of length n_k or n_r; the n_k * n_r
    budget of _check_grid bounds the work.  Returns the grids and the
    rebuilt packet.
    """
    grids = _build_grids(model, k_max, n_k, r_max, n_r)
    return grids, _rebuild(grids, packet, _continuum_blocks(model, grids.k, grids.r))


def reconstruct_error(decomp: SpectralDecomposition, packet: WavePacket) -> float:
    """Relative L2 error of the reconstruction (0 for the zero packet)."""
    return _relative_error(decomp, packet, reconstruct(decomp, packet))


def _relative_error(grids, packet: WavePacket, rebuilt: WavePacket) -> float:
    """Relative L2 distance of rebuilt from packet (0 for the zero packet)."""
    diff = packet.values - rebuilt.values
    norm2 = float(np.sum(grids.r_weights * packet.values**2))
    if norm2 == 0.0:
        return 0.0
    err2 = float(np.sum(grids.r_weights * diff * diff))
    return float(np.sqrt(err2 / norm2))


def hardy_check(energies, values, half_plane: str) -> HardyReport:
    """Classify a sampled f(E) by the time support of its Fourier transform.

    energies must be uniform, with an even number of samples so that the
    half-bin-offset t grid has no sample at t = 0; |f| must have dropped
    below END_DECAY_THRESHOLD (relative to its peak) at both ends of the
    grid, otherwise the window truncation would fake leakage.  leakage is
    the |F(t)|^2 fraction on the half-line forbidden to the requested class
    (t < 0 for "upper", t > 0 for "lower"); is_member = leakage <
    HARDY_LEAKAGE_THRESHOLD.  The sample count times _HARDY_WORK_ARRAYS must
    be within MAX_GRID_ELEMENTS.
    """
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
    dt = 2.0 * np.pi / (n * de)
    # transform = de e^{-i e0 t} FFT(f e^{-2 pi i j (1/2 - n/2) / n}), folded in place; the
    # FFT returns a new array, so the phase factor is built after it, in one complex array
    # whose t has exact zero imaginary parts (so each element matches a float t cast to complex)
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
    leakage = float(forbidden.sum() / total)
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
    (energies, samples); n times _HARDY_WORK_ARRAYS must be within
    MAX_GRID_ELEMENTS.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not e_min < e_r < e_max:
        raise ValueError("the resonance energy must lie inside (e_min, e_max)")
    _check_work_budget((n,), _HARDY_WORK_ARRAYS, "energy samples")
    envelope_width = (e_max - e_min) / 12.5
    e = np.linspace(e_min, e_max, n, endpoint=False)
    envelope = np.exp(-((e - e_r) ** 2) / (2.0 * envelope_width**2))
    return e, envelope / (e - complex(e_r, -0.5 * gamma))
