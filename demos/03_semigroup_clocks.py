"""The four half-domain evolution laws of a Gamow amplitude.

Each law exists only on one half-line of times; asking for the other half
is not a numerical error but a domain violation, so it raises.  The r = 1
regime runs the r = 0 exponentials backwards: its decaying law equals the
r = 0 growing law at reversed time, exactly.
"""

import numpy as np

from gamow import (
    GamowState,
    HalfDomainError,
    Kind,
    Law,
    ResonancePole,
    amplitude,
    evolution_series,
    semigroup_compose_check,
    time_reverse,
)

pole = ResonancePole.from_energy(10.0, 0.1)
print(f"pole: Z = {pole.e_r} - {pole.gamma / 2}i, half-life ln2/Gamma = "
      f"{np.log(2) / pole.gamma:.4f}")

print("\nsurvival |amplitude|^2 along each law's own half-line:")
times = np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]) * np.log(2) / pole.gamma
decaying = np.abs(amplitude(Law.DECAYING_R0, pole, times)) ** 2
growing = np.abs(amplitude(Law.GROWING_R0, pole, -times)) ** 2
print("  t / t_half:      ", "  ".join(f"{t / (np.log(2) / pole.gamma):7.2f}" for t in times))
print("  decaying r=0 (t):", "  ".join(f"{s:7.4f}" for s in decaying))
print("  growing  r=0 (-t):", " ".join(f"{s:7.4f}" for s in growing))

print("\nhalf-domain enforcement (each law rejects the other half-line):")
for name, law, bad_t in (
    ("decaying r=0", Law.DECAYING_R0, -1.0),
    ("growing  r=0", Law.GROWING_R0, +0.5),
    ("decaying r=1", Law.DECAYING_R1, -2.0),
    ("growing  r=1", Law.GROWING_R1, +1e-9),
):
    try:
        amplitude(law, pole, bad_t)
    except HalfDomainError as exc:
        print(f"  {name} at t = {bad_t:+} -> {exc}")

print("\nsemigroup property amplitude(t1 + t2) = amplitude(t1) amplitude(t2):")
print("  decaying r=0, t1 = 3.7, t2 = 9.1:",
      semigroup_compose_check(pole, GamowState(pole, Kind.DECAYING, 0).law, 3.7, 9.1))

print("\nmirror identities between the regimes (should be ~1e-16):")
t = 7.3
d1, g0 = amplitude(Law.DECAYING_R1, pole, t), amplitude(Law.GROWING_R0, pole, -t)
g1, d0 = amplitude(Law.GROWING_R1, pole, -t), amplitude(Law.DECAYING_R0, pole, t)
print(f"  |d1(t) - g0(-t)| = {abs(d1 - g0):.2e}")
print(f"  |g1(-t) - d0(t)| = {abs(g1 - d0):.2e}")

print("\ntime reversal maps labels (pole data untouched):")
state = GamowState(pole, Kind.GROWING, regime=0)
flipped = time_reverse(state)
print(f"  ({state.kind.value}, r={state.regime}, {state.space_label.value})"
      f"  ->  ({flipped.kind.value}, r={flipped.regime}, {flipped.space_label.value})")
back = time_reverse(flipped)
print(f"  applying it twice returns the original: {back == state}")

print("\na short sampled decay series (what the CLI's `evolve` emits as CSV):")
for s in evolution_series(GamowState(pole, Kind.DECAYING, 0), np.linspace(0, 20, 5)):
    print(f"  t = {s.t:5.1f}   amplitude = {s.amplitude.real:+.6f}{s.amplitude.imag:+.6f}i"
          f"   survival = {s.survival:.6f}")
