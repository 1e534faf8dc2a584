"""Delta-shell S-matrix, pole search, bound states, Breit-Wigner fits."""

import numpy as np
import pytest

from gamow import scattering
from gamow.scattering import (
    IM_KA_BOUND,
    DeltaShellModel,
    PoleOnContourError,
    ResonanceFitError,
    ResonancePole,
    SearchRegion,
    bound_states,
    breit_wigner_fit,
    denominator,
    find_poles,
    fit_breit_wigner_curve,
    phase_shift,
    phase_shift_curve,
    pole_count,
    s_matrix,
)

from oracles import (
    bound_state_count_scan,
    breit_wigner_sin2,
    brute_winding,
    dense_scan_zeros,
    scalar_find_poles,
    scalar_phase_shift_curve,
    shell_denominator,
)

STRONG = DeltaShellModel(g=100.0, a=1.0)
ACCEPT_REGION = SearchRegion(0.0, 10.0, -2.0, 0.0)


@pytest.fixture(scope="module")
def strong_poles():
    return find_poles(STRONG, ACCEPT_REGION)


class TestSMatrix:
    @pytest.mark.parametrize("g", [0.5, -0.5, 5.0, -5.0, 50.0, -50.0])
    def test_unitarity_on_real_axis(self, g):
        model = DeltaShellModel(g=g, a=1.0)
        k = np.linspace(0.02, 20.0, 1000)
        assert np.max(np.abs(np.abs(s_matrix(model, k.astype(complex))) - 1.0)) <= 1e-12

    def test_reflection_identity(self):
        model = DeltaShellModel(g=7.0, a=1.3)
        k = np.linspace(0.1, 15.0, 500).astype(complex)
        assert np.max(np.abs(s_matrix(model, -k) * s_matrix(model, k) - 1.0)) <= 1e-10

    def test_free_limit(self):
        model = DeltaShellModel(g=1e-12, a=1.0)
        for k in (0.3, 2.0, 9.0 - 0.4j):
            assert abs(s_matrix(model, k) - 1.0) < 1e-9

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            s_matrix(STRONG, 0.0)

    def test_overflow_guarded(self):
        with pytest.raises(OverflowError):
            s_matrix(STRONG, 1.0 - 800.0j)

    def test_denominator_overflow_guarded(self):
        model = DeltaShellModel(g=5.0, a=1.0)
        edge = 1.0 - 1j * IM_KA_BOUND / model.a
        assert np.isfinite(denominator(model, [edge]))[0]
        with pytest.raises(OverflowError, match="would overflow"):
            denominator(model, [edge - 1e-9j])
        with pytest.raises(OverflowError, match="would overflow"):
            denominator(model, [1.0 - 800.0j])

    def test_matches_direct_formula(self):
        # denominator() must agree with the literal expression away from k=0
        rng = np.random.default_rng(3)
        k = rng.uniform(0.5, 8.0, 50) + 1j * rng.uniform(-1.0, 1.0, 50)
        assert np.max(np.abs(denominator(STRONG, k) - shell_denominator(100.0, 1.0, k))) < 1e-12

    def test_blows_up_at_pole(self, strong_poles):
        assert abs(s_matrix(STRONG, strong_poles[0].k_pole)) > 1e6

    def test_conjugate_of_pole_is_zero_of_s(self, strong_poles):
        for pole in strong_poles:
            assert abs(s_matrix(STRONG, np.conj(pole.k_pole))) <= 1e-8

    @pytest.mark.parametrize("g, a", [(100.0, 1.0), (-5.0, 1.0), (2.0, 1.5), (-0.7, 0.4)])
    def test_array_elements_equal_scalar_calls(self, g, a):
        model = DeltaShellModel(g=g, a=a)
        rng = np.random.default_rng(11)
        k = np.concatenate([
            rng.uniform(-20.0, 20.0, 2000) + 1j * rng.uniform(-5.0, 5.0, 2000),
            rng.uniform(1e-3, 20.0, 500) + 0j,
            rng.uniform(-1e-4, 1e-4, 500) + 1j * rng.uniform(-1e-4, 1e-4, 500),
        ])
        got = s_matrix(model, k)
        assert all(x == s_matrix(model, complex(z)) for x, z in zip(got.tolist(), k.tolist()))


class TestFindPoles:
    def test_three_poles_in_acceptance_rectangle(self, strong_poles):
        assert len(strong_poles) == 3

    def test_residuals_validated(self, strong_poles):
        for pole in strong_poles:
            assert abs(denominator(STRONG, pole.k_pole)) < 1e-10

    def test_pole_condition_equivalence(self, strong_poles):
        # the zero of D must satisfy e^{2ika} = 1 - 2ik/g as well
        for pole in strong_poles:
            k = pole.k_pole
            assert abs(np.exp(2j * k) - (1.0 - 2j * k / 100.0)) < 1e-12

    def test_large_g_poles_approach_n_pi(self):
        for g in (100.0, 1000.0, 10000.0):
            model = DeltaShellModel(g=g, a=1.0)
            poles = find_poles(model, SearchRegion(2.0, 4.0, -0.5, 0.0, n_re=24, n_im=12))
            assert len(poles) == 1
            assert abs(poles[0].k_pole.real - np.pi) < 4.0 / g
            assert abs(poles[0].k_pole.imag) < 12.0 / g**2

    def test_agrees_with_dense_scan(self, strong_poles):
        scanned = dense_scan_zeros(100.0, 1.0, 0.0, 10.0, -2.0, -1e-9)
        assert len(scanned) == len(strong_poles)
        for pole, z in zip(strong_poles, scanned):
            assert abs(pole.k_pole - z) <= 1e-8

    def test_empty_region_is_valid(self):
        poles = find_poles(STRONG, SearchRegion(4.0, 5.0, -0.1, 0.0, n_re=12, n_im=6))
        assert poles == []

    def test_region_must_be_fourth_quadrant(self):
        with pytest.raises(ValueError):
            find_poles(STRONG, SearchRegion(0.0, 5.0, 0.5, 1.0))

    def test_pole_record_consistency(self, strong_poles):
        for pole in strong_poles:
            z = complex(pole.e_r, -0.5 * pole.gamma)
            assert abs(pole.k_pole**2 - z) <= 1e-10 * abs(z)
            assert pole.gamma > 0


KGRID_STRIP = SearchRegion(0.0, 30.0, -0.06, -1e-14, n_re=96, n_im=12)
IDENTITY_CASES = {
    "readme": (STRONG, ACCEPT_REGION),
    "cli_2_4_16x8": (STRONG, SearchRegion(2.0, 4.0, -0.5, -1e-9, n_re=16, n_im=8)),
    "cli_2_4_12x6": (STRONG, SearchRegion(2.0, 4.0, -0.5, -1e-9, n_re=12, n_im=6)),
    "cli_2_7_16x8": (STRONG, SearchRegion(2.0, 7.0, -0.5, -1e-9, n_re=16, n_im=8)),
    "kgrid_strong": (STRONG, KGRID_STRIP),
    "kgrid_attractive": (DeltaShellModel(g=-5.0, a=1.0), KGRID_STRIP),
    "kgrid_weak": (DeltaShellModel(g=2.0, a=1.5), KGRID_STRIP),
    "im_ka_700": (DeltaShellModel(g=5.0, a=2.0), SearchRegion(0.0, 10.0, -350.0, 0.0, n_re=12, n_im=8)),
}


class TestFindPolesBitIdentity:
    """The array Newton search lands on the scalar loop's floats exactly."""

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_matches_scalar_search(self, case):
        model, region = IDENTITY_CASES[case]
        got = [p.k_pole for p in find_poles(model, region)]
        want = [p.k_pole for p in scalar_find_poles(model, region)]
        assert got == want

    def test_seed_grid_larger_than_one_chunk(self, monkeypatch):
        # 48 x 24 seeds in chunks of 100: twelve chunks, the last one partial
        monkeypatch.setattr(scattering, "_SEED_CHUNK", 100)
        got = [p.k_pole for p in find_poles(STRONG, ACCEPT_REGION)]
        assert len(got) == 3
        assert got == [p.k_pole for p in scalar_find_poles(STRONG, ACCEPT_REGION)]


class TestPoleCount:
    def test_matches_find_poles(self, strong_poles):
        assert pole_count(STRONG, ACCEPT_REGION) == len(strong_poles)

    def test_matches_brute_winding(self):
        # inset the oracle path a hair so its raw formula avoids k = 0
        assert pole_count(STRONG, ACCEPT_REGION) == brute_winding(
            100.0, 1.0, 1e-7, 10.0, -2.0, -1e-7
        )

    def test_upper_half_plane_empty(self):
        # repulsive shell: no bound states, so no zeros upstairs
        assert pole_count(STRONG, SearchRegion(0.5, 8.0, 0.5, 2.0)) == 0

    def test_bound_state_counted_upstairs(self):
        model = DeltaShellModel(g=-5.0, a=1.0)
        kappa = np.sqrt(-bound_states(model)[0])
        region = SearchRegion(-0.5, 0.5, kappa - 0.4, kappa + 0.4)
        assert pole_count(model, region) == 1

    def test_single_pole_window(self, strong_poles):
        k = strong_poles[1].k_pole
        region = SearchRegion(k.real - 0.3, k.real + 0.3, k.imag - 0.3, k.imag + 0.3)
        assert pole_count(STRONG, region) == 1

    def test_contour_through_pole_detected(self, strong_poles):
        k = strong_poles[0].k_pole
        # right edge passes exactly through the pole
        region = SearchRegion(k.real - 1.0, k.real, k.imag - 1.0, k.imag + 1e-12)
        with pytest.raises(PoleOnContourError):
            pole_count(STRONG, region, n_per_side=64)


class TestBoundStates:
    def test_repulsive_binds_nothing(self):
        assert bound_states(STRONG) == []

    def test_weak_attraction_binds_nothing(self):
        assert bound_states(DeltaShellModel(g=-0.5, a=1.0)) == []

    def test_threshold_exactly_marginal(self):
        assert bound_states(DeltaShellModel(g=-1.0, a=1.0)) == []
        assert len(bound_states(DeltaShellModel(g=-1.1, a=1.0))) == 1

    def test_single_bound_state_energy(self):
        (energy,) = bound_states(DeltaShellModel(g=-5.0, a=1.0))
        kappa = np.sqrt(-energy)
        # raw matching condition, written independently
        assert abs(kappa * np.exp(kappa) - 5.0 * np.sinh(kappa)) < 1e-9
        assert energy == pytest.approx(-6.16308983, abs=1e-7)

    @pytest.mark.parametrize("g", [-0.5, -1.0, -2.0, -5.0, -10.0])
    def test_count_matches_sign_change_scan(self, g):
        model = DeltaShellModel(g=g, a=1.0)
        assert len(bound_states(model)) == bound_state_count_scan(g, 1.0)

    def test_scaled_radius(self):
        # |g| a > 1 with a = 0.1 needs |g| > 10
        assert bound_states(DeltaShellModel(g=-9.0, a=0.1)) == []
        assert len(bound_states(DeltaShellModel(g=-11.0, a=0.1))) == 1


class TestPhaseShift:
    def test_free_limit_zero(self):
        model = DeltaShellModel(g=1e-13, a=1.0)
        for e in (0.5, 4.0, 25.0):
            assert abs(phase_shift(model, e)) < 1e-10

    def test_requires_positive_energy(self):
        with pytest.raises(ValueError):
            phase_shift(STRONG, 0.0)
        with pytest.raises(ValueError):
            phase_shift(STRONG, -3.0)

    def test_consistent_with_s_matrix(self):
        for e in (1.0, 9.0, 16.0):
            delta = phase_shift(STRONG, e)
            s = s_matrix(STRONG, complex(np.sqrt(e)))
            assert abs(np.exp(2j * delta) - s) < 1e-12

    def test_curve_continuity(self, strong_poles):
        energies = np.linspace(0.5, 40.0, 800)
        delta = phase_shift_curve(STRONG, energies)
        assert np.max(np.abs(np.diff(delta))) < np.pi / 2

    def test_resonance_crosses_half_pi(self, strong_poles):
        pole = strong_poles[0]
        energies = np.linspace(pole.e_r - pole.gamma, pole.e_r + pole.gamma, 201)
        delta = phase_shift_curve(STRONG, energies)
        frac = np.mod(delta, np.pi)
        assert np.any(np.diff(np.sign(frac - np.pi / 2)) != 0)

    @pytest.mark.parametrize("energies", [[np.nan], [np.inf], [1.0, np.nan], [1.0, np.inf]],
                             ids=["nan", "inf", "then-nan", "then-inf"])
    def test_non_finite_energy_rejected_before_evaluation(self, monkeypatch, energies):
        def unreachable(model, k):
            raise AssertionError("S(k) evaluated before the energy check")

        monkeypatch.setattr(scattering, "s_matrix", unreachable)
        with pytest.raises(ValueError, match="finite E > 0"):
            phase_shift_curve(STRONG, energies)
        if len(energies) == 1:
            with pytest.raises(ValueError, match="finite E > 0"):
                phase_shift(STRONG, energies[0])


def _random_sweeps(seed, count):
    """Seeded (model, energy grid) pairs over both signs of g, 1 to 1000 points."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1.0, 2.5))
        a = float(rng.uniform(0.2, 3.0))
        n = int(rng.choice([1, 2, 17, 400, 1000]))
        lo = float(10 ** rng.uniform(-3.0, 1.5))
        hi = lo + float(10 ** rng.uniform(-2.0, 2.0))
        yield DeltaShellModel(g=g, a=a), np.linspace(lo, hi, n)


class TestPhaseShiftArrayPath:
    """The one-call sweep lands on the scalar branch walk's floats exactly."""

    def test_random_sweeps_match_scalar_walk(self):
        for model, energies in _random_sweeps(seed=5, count=40):
            got = phase_shift_curve(model, energies)
            assert got.tolist() == scalar_phase_shift_curve(model, energies).tolist()

    @pytest.mark.parametrize("n", [1, 2])
    def test_shortest_grids_match_scalar_walk(self, n, strong_poles):
        pole = strong_poles[0]
        energies = np.linspace(pole.e_r - pole.gamma, pole.e_r + pole.gamma, n)
        got = phase_shift_curve(STRONG, energies)
        assert got.tolist() == scalar_phase_shift_curve(STRONG, energies).tolist()

    def test_single_points_match_scalar_walk(self):
        for model, energies in _random_sweeps(seed=6, count=200):
            e = float(energies[-1])
            got = phase_shift(model, e)
            assert type(got) is float
            assert got == scalar_phase_shift_curve(model, [e])[0]

    def test_one_s_matrix_call_per_sweep(self, monkeypatch):
        calls = []
        original = scattering.s_matrix

        def counting(model, k):
            calls.append(np.size(k))
            return original(model, k)

        monkeypatch.setattr(scattering, "s_matrix", counting)
        delta = phase_shift_curve(STRONG, np.linspace(0.5, 40.0, 800))
        assert calls == [800]
        assert np.max(np.abs(np.diff(delta))) < np.pi / 2


class TestBreitWigner:
    def test_recovers_synthetic_resonance(self):
        energies = np.linspace(9.5, 10.5, 500)
        er, gamma, rms = fit_breit_wigner_curve(energies, breit_wigner_sin2(energies, 10.0, 0.1))
        assert abs(er - 10.0) / 10.0 <= 1e-6
        assert abs(gamma - 0.1) / 0.1 <= 1e-6
        assert rms < 1e-6

    def test_first_resonance_matches_pole(self, strong_poles):
        pole = strong_poles[0]
        er, gamma = breit_wigner_fit(STRONG, (pole.e_r - 3 * pole.gamma, pole.e_r + 3 * pole.gamma))
        assert abs(er - pole.e_r) / pole.e_r <= 0.02
        assert abs(gamma - pole.gamma) / pole.gamma <= 0.02

    def test_empty_window_rejected(self):
        with pytest.raises(ResonanceFitError):
            breit_wigner_fit(STRONG, (15.0, 20.0))

    def test_two_resonance_window_rejected(self):
        with pytest.raises(ResonanceFitError):
            breit_wigner_fit(STRONG, (5.0, 45.0))


class TestModelValidation:
    def test_radius_positive(self):
        with pytest.raises(ValueError):
            DeltaShellModel(g=1.0, a=0.0)

    def test_coupling_nonzero(self):
        with pytest.raises(ValueError):
            DeltaShellModel(g=0.0, a=1.0)

    def test_pole_from_energy_branch(self):
        pole = ResonancePole.from_energy(9.0, 0.5)
        assert pole.k_pole.real > 0 and pole.k_pole.imag < 0
        assert abs(pole.k_pole**2 - (9.0 - 0.25j)) < 1e-12

    def test_pole_requires_positive_width(self):
        with pytest.raises(ValueError):
            ResonancePole.from_energy(9.0, -0.5)

    def test_region_ordering(self):
        with pytest.raises(ValueError):
            SearchRegion(1.0, 0.0, -1.0, 0.0)
