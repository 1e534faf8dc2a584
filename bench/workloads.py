"""Inputs, operations and correctness checks of the in-process workloads.

Inputs come from a seeded, randomly shifted Halton sequence: op i always
gets point i of the sequence and the seed only sets the shift.  Any prefix
of the sequence covers the (g, a) plane evenly, so runs of different seeds
and lengths see the same mix of models and their medians agree.

The library is passed in as ``gm`` (the imported ``gamow`` package) so that
the worker decides when the import happens and can time it.
"""

from __future__ import annotations

import math
import random

# Halton bases, one per input dimension.
_BASES = (2, 3, 5, 7)

# CLI default spectral grid (k_max, n_k, r_max, n_r); r_max / (n_r - 1) puts
# every shell radius in EXPANSION_RADII on an even Simpson index.
SPECTRAL_GRID = (30.0, 2000, 10.0, 4001)
EXPANSION_RADII = (0.5, 1.0, 1.5, 2.0)
EXPANSION_REGIMES = ("attractive", "strong", "weak")
PACKETS_PER_OP = 8

HARDY_SAMPLES = 131072
PHASE_POINTS = 400
EVOLUTION_SAMPLES = 5000
BOUND_SELF_TOLERANCE = 1e-6
POLE_TOLERANCE = 1e-8

# Warm-up op of each workload's set-up: fixed, so set-up time does not
# depend on the seed.
WARMUP = {
    "resonance": (100.0, 1.0),
    "expansion": (-5.0, 1.0),
}


def _radical_inverse(i: int, base: int) -> float:
    out, f = 0.0, 1.0
    while i:
        f /= base
        out += f * (i % base)
        i //= base
    return out


class Sequence:
    """Halton points shifted modulo 1 by a seeded offset (Cranley-Patterson)."""

    def __init__(self, seed: int, salt: str):
        rng = random.Random(f"{salt}:{seed}")
        self.shift = [rng.random() for _ in _BASES]

    def point(self, i: int) -> list[float]:
        return [(_radical_inverse(i + 1, b) + s) % 1.0 for b, s in zip(_BASES, self.shift)]


# ---------------------------------------------------------------- resonance

def resonance_model(seed: int, i: int) -> tuple[float, float]:
    """g*a log-uniform in +-[2, 400] (30 % attractive), a uniform in [0.5, 2]."""
    u_sign, u_mag, u_a = Sequence(seed, "resonance").point(i)[:3]
    ga = 2.0 * 200.0**u_mag
    if u_sign < 0.3:
        ga = -ga
    a = 0.5 + 1.5 * u_a
    return ga / a, a


def resonance_rectangle(a: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(Re k range, Im k range) searched: Re k in [0.05, 10/a], Im k in [-2/a, 0)."""
    return (0.05, 10.0 / a), (-2.0 / a, 0.0)


def resonance_op(gm, g: float, a: float) -> dict:
    """Pole search, count, bound states, phase sweep, evolution and Hardy test."""
    import numpy as np  # already loaded by gamow

    sc, dyn, sp = gm.scattering, gm.dynamics, gm.spectral
    model = sc.DeltaShellModel(g, a)
    (re_lo, re_hi), (im_lo, im_hi) = resonance_rectangle(a)
    region = sc.SearchRegion(re_lo, re_hi, im_lo, im_hi)
    poles = sc.find_poles(model, region)
    count = sc.pole_count(model, region)
    bound = sc.bound_states(model)
    pole = min(poles, key=lambda p: p.gamma)
    e_r, gamma = pole.e_r, pole.gamma
    # E_R - 5 Gamma is negative for broad poles; phase shifts need E > 0.
    energies = np.linspace(max(e_r - 5.0 * gamma, 1e-3 * e_r), e_r + 5.0 * gamma, PHASE_POINTS)
    delta = sc.phase_shift_curve(model, energies)
    horizon = 5.0 / gamma
    series = {}
    for law in dyn.Law:
        lo, hi = (0.0, horizon) if law.kind is dyn.Kind.DECAYING else (-horizon, 0.0)
        state = dyn.GamowState(pole=pole, kind=law.kind, regime=law.regime)
        series[law.code] = dyn.evolution_series(state, np.linspace(lo, hi, EVOLUTION_SAMPLES))
    e, f = sp.windowed_resonance_samples(e_r, gamma, e_r - 1e4 * gamma, e_r + 1e4 * gamma,
                                         HARDY_SAMPLES)
    hardy = {hp: sp.hardy_check(e, f, hp) for hp in ("upper", "lower")}
    return {"poles": poles, "count": count, "bound": bound, "delta": delta,
            "series": series, "hardy": hardy}


def lambert_poles(g: float, a: float, re: tuple, im: tuple, branches: int = 16) -> list:
    """Resonance poles from k_n = (i/2a) (W_n(g a e^{g a}) - g a), at 50 digits.

    Independent of the library: mpmath's Lambert W (Corless et al. 1996) on
    every branch |n| <= ``branches``, keeping poles inside the open
    rectangle re x im of the fourth quadrant.
    """
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50
    ga = mp.mpf(g) * mp.mpf(a)
    z = ga * mp.exp(ga)
    out = []
    for n in range(-branches, branches + 1):
        k = complex(mp.mpc(0, 1) / (2 * mp.mpf(a)) * (mp.lambertw(z, n) - ga))
        if re[0] < k.real < re[1] and im[0] < k.imag < im[1] and k.real > 0 > k.imag:
            out.append(k)
    return sorted(out, key=lambda k: k.real)


def check_resonance(g: float, a: float, result: dict) -> tuple[list[str], list[float]]:
    """Failed checks (empty when the op is correct) and each pole's relative error."""
    failed = []
    poles = sorted((p.k_pole for p in result["poles"]), key=lambda k: k.real)
    ref = lambert_poles(g, a, *resonance_rectangle(a))
    errors = []
    if not len(poles) == result["count"] == len(ref):
        failed.append(f"pole counts differ: find_poles {len(poles)}, pole_count "
                      f"{result['count']}, Lambert {len(ref)}")
    else:
        errors = [abs(k - r) / abs(r) for k, r in zip(poles, ref)]
        if not max(errors) <= POLE_TOLERANCE:
            failed.append(f"pole relative error {max(errors):.3g} > {POLE_TOLERANCE}")
    if len(result["bound"]) != (1 if g * a < -1.0 else 0):
        failed.append(f"{len(result['bound'])} bound states at g*a = {g * a:.6g}")
    hardy = result["hardy"]
    if not (hardy["upper"].is_member and not hardy["lower"].is_member):
        failed.append(f"Hardy classes wrong: upper {hardy['upper'].leakage:.3g}, "
                      f"lower {hardy['lower'].leakage:.3g}")
    delta = result["delta"]
    step = max(abs(y - x) for x, y in zip(delta[:-1], delta[1:]))
    if not step < math.pi / 2:
        failed.append(f"phase curve jumps by {step:.3g}")
    # every law has |amplitude|^2 = e^{-5} at the far end of its half-line
    for code, samples in result["series"].items():
        far = samples[-1] if code.startswith("d") else samples[0]
        if not abs(far.survival - math.exp(-5.0)) <= 1e-9 * math.exp(-5.0):
            failed.append(f"law {code}: survival {far.survival!r} != e^-5")
    return failed, errors


# ---------------------------------------------------------------- expansion

def expansion_model(seed: int, i: int) -> tuple[float, float, str]:
    """Model of op i; regimes and radii cycle with i, so 12 ops cover every pair
    and every op gets a new g*a.

    attractive: g*a in [-10, -7] (one bound state small enough for the box);
    strong: g*a in [50, 150] (narrow resonances, clustered k grid);
    weak: |g*a| in [0.05, 0.95] (uniform k grid).
    Op 1, whose counts a traced run reports, is a strong shell.
    """
    regime = EXPANSION_REGIMES[i % 3]
    a = EXPANSION_RADII[(i // 3) % len(EXPANSION_RADII)]
    u, v = Sequence(seed, f"expansion-{regime}").point(i // 3)[:2]
    if regime == "strong":
        ga = 50.0 + 100.0 * u
    elif regime == "attractive":
        ga = -7.0 - 3.0 * u
    else:
        ga = (0.05 + 0.9 * u) * (1.0 if v < 0.5 else -1.0)
    return ga / a, a, regime


def expansion_packets(seed: int, i: int) -> list[tuple[float, float]]:
    """(center, width) of op i's packets.

    Widths in [0.2, 0.6]; centers stratified over [5 width, 8 - 5 width], so
    each op spans the radial range.
    """
    rng = random.Random(f"packets:{seed}:{i}")
    packets = []
    for j in range(PACKETS_PER_OP):
        width = rng.uniform(0.2, 0.6)
        lo, hi = 5.0 * width, 8.0 - 5.0 * width
        packets.append((lo + (hi - lo) * (j + rng.random()) / PACKETS_PER_OP, width))
    return packets


def expansion_op(gm, g: float, a: float, packets) -> dict:
    """One decomposition at the CLI default grid, reused for every packet."""
    sp = gm.spectral
    k_max, n_k, r_max, n_r = SPECTRAL_GRID
    decomp = sp.build_decomposition(gm.scattering.DeltaShellModel(g, a), k_max, n_k, r_max, n_r)
    errors = [sp.reconstruct_error(decomp, sp.gaussian_packet(c, w, r_max, n_r))
              for c, w in packets]
    return {"decomp": decomp, "errors": errors}


def check_expansion(gm, g: float, a: float, result: dict) -> tuple[list[str], list[float]]:
    """Failed checks and each packet's reconstruction error."""
    failed = []
    decomp, errors = result["decomp"], result["errors"]
    if decomp.k.size != SPECTRAL_GRID[1]:
        failed.append(f"k grid has {decomp.k.size} nodes, budget {SPECTRAL_GRID[1]}")
    if not all(math.isfinite(e) for e in errors):
        failed.append("non-finite reconstruction error")
    if len(decomp.discrete) != (1 if g * a < -1.0 else 0):
        failed.append(f"{len(decomp.discrete)} bound states at g*a = {g * a:.6g}")
    for _, u in decomp.discrete:
        packet = gm.spectral.WavePacket(u, SPECTRAL_GRID[2], SPECTRAL_GRID[3])
        self_error = gm.spectral.reconstruct_error(decomp, packet)
        if not self_error <= BOUND_SELF_TOLERANCE:
            failed.append(f"bound state rebuilds to {self_error:.3g} > {BOUND_SELF_TOLERANCE}")
    return failed, errors

