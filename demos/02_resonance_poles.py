"""Find the resonance poles of the delta-shell S-matrix and ground them twice.

The shell V(r) = g delta(r - 1) with g = 100 is almost impenetrable, so the
interior supports long-lived quasi-bound states: S-matrix poles just below
the real k axis near k = n pi.  We take them from the closed-form Lambert-W
branches, count them independently with the argument principle, watch the
phase shift jump by pi across each one, and check the Breit-Wigner fit
against the pole.
"""

import numpy as np

from gamow import (
    DeltaShellModel,
    SearchRegion,
    bound_states,
    breit_wigner_fit,
    find_poles,
    phase_shift_curve,
    pole_count,
    s_matrix,
)

model = DeltaShellModel(g=100.0, a=1.0)
region = SearchRegion(0.0, 10.0, -2.0, 0.0)

poles = find_poles(model, region)
print(f"poles of S(k) in Re k in (0, 10), Im k in (-2, 0): {len(poles)}")
for p in poles:
    print(f"  k = {p.k_pole:.9f}   E_R = {p.e_r:10.6f}   Gamma = {p.gamma:.6f}"
          f"   Gamma/E_R = {p.gamma / p.e_r:.2e}")

count = pole_count(model, region)
print(f"argument-principle count over the same rectangle: {count}")

print("\nnear k = n pi the poles sharpen as g grows (ka -> n pi as g -> inf):")
for g in (50.0, 200.0, 800.0):
    m = DeltaShellModel(g=g, a=1.0)
    (p,) = find_poles(m, SearchRegion(2.5, 3.6, -0.3, 0.0))
    print(f"  g = {g:5.0f}: k = {p.k_pole:.8f}   (pi - Re k) * g / pi = "
          f"{(np.pi - p.k_pole.real) * g / np.pi:.4f}")

print("\n|S| on the real axis stays unimodular; at the pole it explodes:")
k_real = np.linspace(1.0, 4.0, 7).astype(complex)
print("  real axis:", ", ".join(f"{abs(s):.12f}" for s in s_matrix(model, k_real)))
print(f"  at pole:   |S| = {abs(s_matrix(model, poles[0].k_pole)):.3e}")

first = poles[0]
energies = np.linspace(first.e_r - 4 * first.gamma, first.e_r + 4 * first.gamma, 300)
delta = phase_shift_curve(model, energies)
print(f"\nphase shift sweep across the first resonance "
      f"(E in [{energies[0]:.4f}, {energies[-1]:.4f}]):")
print(f"  delta rises by {delta[-1] - delta[0]:.4f} rad  (pi = {np.pi:.4f})")

er_fit, gamma_fit = breit_wigner_fit(model, (first.e_r - 3 * first.gamma,
                                             first.e_r + 3 * first.gamma))
print("\nBreit-Wigner fit of sin^2(delta) vs pole position:")
print(f"  E_R:   fit {er_fit:.6f}   pole {first.e_r:.6f}   "
      f"rel diff {abs(er_fit - first.e_r) / first.e_r:.2e}")
print(f"  Gamma: fit {gamma_fit:.6f}   pole {first.gamma:.6f}   "
      f"rel diff {abs(gamma_fit - first.gamma) / first.gamma:.2e}")

print("\nattractive shells bind instead: bound-state energies for g < 0")
for g in (-0.5, -1.5, -5.0):
    print(f"  g = {g:4.1f}: {bound_states(DeltaShellModel(g=g, a=1.0))}")
