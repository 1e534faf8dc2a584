"""Property tests over the (g, a) plane and the pole plane, derandomized (conftest.py).

Each property is an identity of the model, checked on hypothesis-drawn inputs:
unitarity and S(k) S(-k) = 1 on the real axis, the two Hardy leakages of f and
conj(f), time reversal as an involution that reads a law backwards, the
semigroup law of each evolution law on its half-line, every pole the Newton
search finds being a closed-form Lambert branch, the bound state existing
exactly above threshold and solving its own equation, and the linearity of
the spectral reconstruction.
"""

import math

import numpy as np
from hypothesis import given, strategies as st

from gamow.dynamics import GamowState, Kind, Law, amplitude, semigroup_compose_check, time_reverse
from gamow.scattering import (DeltaShellModel, ResonancePole, SearchRegion, _branch_poles,
                              bound_states, find_poles, s_matrix)
from gamow.spectral import (WavePacket, build_decomposition, gaussian_packet, hardy_check,
                            reconstruct, windowed_resonance_samples)

COUPLING = st.one_of(st.floats(1e-6, 1e4), st.floats(-1e4, -1e-6))
RADIUS = st.floats(0.05, 4.0)
POLE = st.builds(ResonancePole.from_energy, st.floats(0.1, 100.0), st.floats(1e-3, 10.0))


@given(g=COUPLING, a=RADIUS, k=st.lists(st.floats(1e-3, 300.0), min_size=1, max_size=8))
def test_s_matrix_is_unitary_and_odd_on_the_real_axis(g, a, k):
    model = DeltaShellModel(g=g, a=a)
    k = np.array(k)
    s = s_matrix(model, k)
    assert np.all(np.abs(np.abs(s) - 1.0) <= 1e-12)
    assert np.all(np.abs(s * s_matrix(model, -k) - 1.0) <= 1e-12)


@given(pole=POLE, n=st.sampled_from([1024, 4096]))
def test_leakages_of_f_and_its_conjugate_sum_to_one(pole, n):
    # conj(f) has the time-reversed transform, and the half-bin t grid is symmetric
    e, f = windowed_resonance_samples(pole.e_r, pole.gamma, pole.e_r - 1e4 * pole.gamma,
                                      pole.e_r + 1e4 * pole.gamma, n)
    for half_plane in ("upper", "lower"):
        total = hardy_check(e, f, half_plane).leakage + hardy_check(e, f.conj(), half_plane).leakage
        assert abs(total - 1.0) <= 1e-12


@given(pole=POLE, kind=st.sampled_from(Kind), regime=st.sampled_from([0, 1]),
       t=st.floats(0.0, 20.0))
def test_time_reverse_is_an_involution_that_reads_the_law_backwards(pole, kind, regime, t):
    state = GamowState(pole, kind, regime)
    flipped = time_reverse(state)
    assert time_reverse(flipped) == state
    assert flipped.kind is not state.kind and flipped.pole == state.pole
    t_in = t / pole.gamma if state.law.admits(1.0) else -t / pole.gamma
    assert abs(amplitude(flipped.law, pole, -t_in) - amplitude(state.law, pole, t_in)) <= (
        1e-14 * abs(amplitude(state.law, pole, t_in)))


@given(pole=POLE, law=st.sampled_from(Law), t1=st.floats(0.0, 15.0), t2=st.floats(0.0, 15.0))
def test_semigroup_law_on_each_half_line(pole, law, t1, t2):
    # times in units of 1 / Gamma, so |E_R t| reaches 1.5e6 rad
    unit = (1.0 if law.admits(1.0) else -1.0) / pole.gamma
    assert semigroup_compose_check(pole, law, t1 * unit, t2 * unit)


@given(g=COUPLING, a=RADIUS)
def test_every_found_pole_is_a_lambert_branch(g, a):
    # the benchmark's rectangle: Re k in [0.05, 10/a], Im k in [-2/a, 0)
    model = DeltaShellModel(g=g, a=a)
    branches = _branch_poles(model, 10.0 / a)
    for pole in find_poles(model, SearchRegion(0.05, 10.0 / a, -2.0 / a, 0.0)):
        k = pole.k_pole
        assert k.real > 1e-12 * abs(k)
        assert np.min(np.abs(branches - k)) <= 1e-12 * abs(k)


@given(g=COUPLING, a=RADIUS)
def test_one_bound_state_exactly_above_threshold_solving_its_equation(g, a):
    # x = 2 kappa a is the positive root of x = s (1 - e^{-x}), s = -g a
    s = -g * a
    states = bound_states(DeltaShellModel(g=g, a=a))
    assert len(states) == (1 if s > 1 else 0)
    for energy in states:
        x = 2.0 * math.sqrt(-energy) * a
        assert abs(x + s * math.expm1(-x)) <= 4 * np.finfo(float).eps * s


# g a within +-150 keeps the bound state normalisable on the r_max = 10 grid
SHELL = st.builds(lambda ga, a: (ga / a, a),
                  st.one_of(st.floats(1e-3, 150.0), st.floats(-150.0, -1e-3)), RADIUS)
# packets well inside the box: under 1e-6 of the norm beyond 0.8 r_max
PACKET = st.builds(lambda center, width: gaussian_packet(center, width, 10.0, 401),
                   st.floats(1.0, 5.0), st.floats(0.1, 0.5))


@given(shell=SHELL, phi=PACKET, psi=PACKET, alpha=st.floats(-3.0, 3.0),
       beta=st.floats(-3.0, 3.0))
def test_reconstruction_is_linear(shell, phi, psi, alpha, beta):
    g, a = shell
    decomp = build_decomposition(DeltaShellModel(g=g, a=a), 5.0, 64, 10.0, 401)
    both = WavePacket(alpha * phi.values + beta * psi.values, 10.0, 401)
    rec_phi, rec_psi = reconstruct(decomp, phi).values, reconstruct(decomp, psi).values
    diff = reconstruct(decomp, both).values - (alpha * rec_phi + beta * rec_psi)
    scale = abs(alpha) * np.max(np.abs(rec_phi)) + abs(beta) * np.max(np.abs(rec_psi))
    assert np.max(np.abs(diff)) <= 1e-13 * scale
