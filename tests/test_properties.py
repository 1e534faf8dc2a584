"""Property tests over the (g, a) plane and the pole plane, derandomized (conftest.py).

Each property is an identity of the model, checked on hypothesis-drawn inputs:
unitarity and S(k) S(-k) = 1 on the real axis, the two Hardy leakages of f and
conj(f), time reversal as an involution that reads a law backwards, and the
semigroup law of each evolution law on its half-line.
"""

import numpy as np
from hypothesis import given, strategies as st

from gamow.dynamics import GamowState, Kind, Law, amplitude, semigroup_compose_check, time_reverse
from gamow.scattering import DeltaShellModel, ResonancePole, s_matrix
from gamow.spectral import hardy_check, windowed_resonance_samples

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
    # times in units of 1 / (E_R + Gamma): the phase E_R t is good to an ulp of itself,
    # so the check's 1e-12 holds only while |E_R t| stays well below 1e3
    unit = (1.0 if law.admits(1.0) else -1.0) / (pole.e_r + pole.gamma)
    assert semigroup_compose_check(pole, law, t1 * unit, t2 * unit)
