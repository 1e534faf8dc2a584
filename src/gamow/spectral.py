"""Eigenfunction expansion for the delta shell, and a Paley-Wiener test.

Completeness (bound states + continuum) is realized numerically: a packet
phi(r) on [0, r_max] is expanded over the normalized bound eigenfunctions
and the real continuum solutions u_k(r) with asymptotic amplitude one,
u_k(r) -> sin(kr + delta(k)), for which the closure relation carries the
measure (2/pi) dk:

    phi(r) = sum_b <u_b|phi> u_b(r) + (2/pi) int dk <u_k|phi> u_k(r).

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
HARDY_LEAKAGE_THRESHOLD.  The t grid is offset by half a bin so no sample
sits at t = 0 and the two leakages of f and conj(f) sum to one exactly.

Decompositions are immutable after construction (arrays are read-only);
reconstruction of independent packets may run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scattering import DeltaShellModel, SearchRegion, bound_states, find_poles

__all__ = [
    "CONTINUUM_MEASURE",
    "FOURIER_KERNEL_SIGN",
    "HARDY_LEAKAGE_THRESHOLD",
    "END_DECAY_THRESHOLD",
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
_TAIL_MASS_LIMIT = 1e-6           # packet norm^2 fraction allowed beyond 0.8 r_max


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
    """exp(-(r - center)^2 / (2 width^2)) sampled on the radial grid."""
    r = np.linspace(0.0, r_max, n_points)
    return WavePacket(np.exp(-((r - center) ** 2) / (2.0 * width**2)), r_max, n_points)


@dataclass(frozen=True)
class HardyReport:
    half_plane: str
    leakage: float
    is_member: bool

    def as_dict(self) -> dict:
        return {
            "half_plane": self.half_plane,
            "leakage": self.leakage,
            "is_member": self.is_member,
        }


@dataclass(frozen=True)
class SpectralDecomposition:
    """Bound + continuum eigendata of a delta-shell model on finite grids.

    discrete: tuple of (energy, eigenfunction-on-r-grid) pairs, each with
    unit quadrature norm.  k/k_weights realize the continuum measure
    (2/pi) dk; continuum has shape (len(k), len(r)).
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
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        frozen = []
        for energy, u in self.discrete:
            u = np.asarray(u, dtype=float).copy()
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


def _continuum_functions(model: DeltaShellModel, k: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Real scattering solutions with asymptotic amplitude 1, rows by k.

    Built from the interior form sin(kr) matched at the shell: outside,
    u = alpha sin(kr) + beta cos(kr) with alpha = 1 + (g/k) sin ka cos ka,
    beta = -(g/k) sin^2 ka; dividing by sqrt(alpha^2 + beta^2) sets the
    exterior amplitude to one (the interior is enhanced by 1/M on resonance).
    """
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


def build_decomposition(
    model: DeltaShellModel,
    k_max: float,
    n_k: int,
    r_max: float,
    n_r: int,
) -> SpectralDecomposition:
    """Assemble bound and continuum eigendata on radial/momentum grids.

    n_r must be odd (Simpson weights).  Bound eigenfunctions are normalized
    against the radial quadrature, so their grid norm is one by construction.
    """
    if k_max <= 0 or r_max <= 0 or n_k < 8 or n_r < 3:
        raise ValueError("grid parameters must be positive (n_k >= 8, n_r >= 3)")
    if r_max <= 2 * model.a:
        raise ValueError("r_max must exceed the shell radius comfortably (r_max > 2a)")
    r = np.linspace(0.0, r_max, n_r)
    wr = _simpson_weights(n_r, r[1] - r[0])

    discrete = []
    for energy in bound_states(model):
        kappa = np.sqrt(-energy)
        inside = np.sinh(kappa * np.minimum(r, model.a))
        outside = np.sinh(kappa * model.a) * np.exp(-kappa * (np.maximum(r, model.a) - model.a))
        u = np.where(r <= model.a, inside, outside)
        u = u / np.sqrt(np.sum(wr * u * u))
        discrete.append((energy, u))

    k = _adaptive_k_grid(model, k_max, n_k)
    wk = _trapezoid_weights(k) * CONTINUUM_MEASURE
    cont = _continuum_functions(model, k, r)

    return SpectralDecomposition(
        model=model,
        r=r,
        r_weights=wr,
        k=k,
        k_weights=wk,
        discrete=tuple((e, u) for e, u in discrete),
        continuum=cont,
    )


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
    """Expansion coefficients (discrete list, continuum array) of a packet."""
    phi = _check_packet(decomp, packet)
    weighted = decomp.r_weights * phi
    discrete_coefs = np.array([np.sum(weighted * u) for _, u in decomp.discrete])
    continuum_coefs = decomp.continuum @ weighted
    return discrete_coefs, continuum_coefs


def reconstruct(decomp: SpectralDecomposition, packet: WavePacket) -> WavePacket:
    """Rebuild a packet from its discrete + continuum coefficients."""
    discrete_coefs, continuum_coefs = expand(decomp, packet)
    out = decomp.continuum.T @ (decomp.k_weights * continuum_coefs)
    for cb, (_, u) in zip(discrete_coefs, decomp.discrete):
        out = out + cb * u
    return WavePacket(out, packet.r_max, packet.n_points)


def reconstruct_error(decomp: SpectralDecomposition, packet: WavePacket) -> float:
    """Relative L2 error of the reconstruction (0 for the zero packet)."""
    rebuilt = reconstruct(decomp, packet)
    diff = packet.values - rebuilt.values
    norm2 = float(np.sum(decomp.r_weights * packet.values**2))
    if norm2 == 0.0:
        return 0.0
    err2 = float(np.sum(decomp.r_weights * diff * diff))
    return float(np.sqrt(err2 / norm2))


def hardy_check(energies, values, half_plane: str) -> HardyReport:
    """Classify a sampled f(E) by the time support of its Fourier transform.

    energies must be uniform; |f| must have dropped below END_DECAY_THRESHOLD
    (relative to its peak) at both ends of the grid, otherwise the window
    truncation would fake leakage.  leakage is the |F(t)|^2 fraction on the
    half-line forbidden to the requested class (t < 0 for "upper", t > 0 for
    "lower"); is_member = leakage < HARDY_LEAKAGE_THRESHOLD.
    """
    if half_plane not in ("upper", "lower"):
        raise ValueError(f"half_plane must be 'upper' or 'lower', got {half_plane!r}")
    e = np.asarray(energies, dtype=float)
    f = np.asarray(values, dtype=complex)
    if e.ndim != 1 or e.size < 16 or f.shape != e.shape:
        raise ValueError("need matching 1-d grids of at least 16 samples")
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
    # t grid offset by half a bin: no sample at t = 0, symmetric under t -> -t
    dt = 2.0 * np.pi / (n * de)
    t = (np.arange(n) - n / 2 + 0.5) * dt
    twiddle = np.exp(FOURIER_KERNEL_SIGN * 2j * np.pi * np.arange(n) * (-n / 2 + 0.5) / n)
    transform = de * np.exp(FOURIER_KERNEL_SIGN * 1j * e[0] * t) * np.fft.fft(f * twiddle)
    energy = np.abs(transform) ** 2
    total = float(energy.sum())
    forbidden = t < 0 if half_plane == "upper" else t > 0
    leakage = float(energy[forbidden].sum() / total)
    return HardyReport(half_plane=half_plane, leakage=leakage,
                       is_member=leakage < HARDY_LEAKAGE_THRESHOLD)


def windowed_resonance_samples(
    e_r: float,
    gamma: float,
    e_min: float,
    e_max: float,
    n: int,
    envelope_width: float | None = None,
):
    """Sample 1/(E - (e_r - i gamma/2)) under a wide Gaussian envelope.

    The bare resonance decays only like 1/E, far too slowly to satisfy the
    end-decay precondition of hardy_check on any feasible grid; the envelope
    (default width: (e_max - e_min)/12.5, centered on e_r) supplies the decay
    while widening the transform's edge at t = 0 by ~1/width.  Returns
    (energies, samples).
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not e_min < e_r < e_max:
        raise ValueError("the resonance energy must lie inside (e_min, e_max)")
    if envelope_width is None:
        envelope_width = (e_max - e_min) / 12.5
    e = np.linspace(e_min, e_max, n, endpoint=False)
    envelope = np.exp(-((e - e_r) ** 2) / (2.0 * envelope_width**2))
    return e, envelope / (e - complex(e_r, -0.5 * gamma))
