"""Delta-shell S-matrix, pole search, bound states, Breit-Wigner fits."""

import mpmath
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

import oracles
from oracles import (
    bound_state_count_scan,
    breit_wigner_sin2,
    brute_winding,
    dense_scan_zeros,
    doubling_pole_count,
    mp_bound_energy,
    mp_lambert_poles,
    mp_phase_shift_curve,
    scalar_find_poles,
    shell_denominator,
)

STRONG = DeltaShellModel(g=100.0, a=1.0)
# max |delta - delta_ref| / (1 + |delta_ref|) against the 50-digit S-matrix: the
# seed-5 sweeps reach 9.3e-14, at g = -130, a = 1.545
PHASE_REF_BOUND = 1e-13
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
    "im_ka_crossed": (DeltaShellModel(g=5.0, a=2.0),
                      SearchRegion(0.0, 10.0, -400.0, 0.0, n_re=12, n_im=8)),
    "kgrid_1e4_1.2345": (DeltaShellModel(g=1e4, a=1.2345), KGRID_STRIP),
    "kgrid_third_1.5": (DeltaShellModel(g=100.0 / 3.0, a=1.5), KGRID_STRIP),
    "attractive": (DeltaShellModel(g=-5.0, a=1.0), ACCEPT_REGION),
    "threshold": (DeltaShellModel(g=-1.0, a=1.0), ACCEPT_REGION),
}


class TestFindPolesBitIdentity:
    """The array Newton search lands on the scalar loop's floats exactly."""

    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_matches_scalar_search(self, case):
        model, region = IDENTITY_CASES[case]
        got = [p.k_pole for p in find_poles(model, region)]
        want = [p.k_pole for p in scalar_find_poles(model, region)]
        assert got == want

    def test_quotient_is_cpython_division(self):
        # few distinct parts, so |Re den| = |Im den| ties and zero parts occur
        rng = np.random.default_rng(3)
        parts = np.concatenate([rng.standard_normal(20) * 10.0 ** rng.uniform(-8, 8, 20),
                                [0.0, 1.0, -1.0, 2.0]])
        num = rng.choice(parts, 4000) + 1j * rng.choice(parts, 4000)
        den = rng.choice(parts, 4000) + 1j * rng.choice(parts, 4000)
        num, den = num[den != 0], den[den != 0]
        with np.errstate(all="ignore"):
            got = scattering._quotient(num, den)
        assert got.tolist() == [n / d for n, d in zip(num.tolist(), den.tolist())]

    def test_seed_grid_larger_than_one_chunk(self, monkeypatch):
        # 48 x 24 seeds in chunks of 100: twelve chunks, the last one partial
        monkeypatch.setattr(scattering, "_SEED_CHUNK", 100)
        got = [p.k_pole for p in find_poles(STRONG, ACCEPT_REGION)]
        assert len(got) == 3
        assert got == [p.k_pole for p in scalar_find_poles(STRONG, ACCEPT_REGION)]


class TestBranchPoles:
    """The closed-form poles against mpmath's Lambert W at 50 digits (tests/oracles.py)."""

    @pytest.mark.parametrize("g, a", [
        (-1.0, 1.0), (-0.5, 1.0), (-0.9, 2.0), (1e-6, 1.0), (-1e-6, 1.0), (1e4, 1.0),
        (-1e4, 1.0), (1e4, 1.2345), (100.0, 1.0), (-5.0, 1.0), (2.0, 1.5), (5e-324, 1.0),
    ], ids=["threshold", "virtual-0.5", "virtual-0.9-a2", "weak", "weak-attractive", "g1e4",
            "g-1e4", "g1e4-between", "strong", "attractive", "moderate", "deepest"])
    def test_matches_50_digit_lambert_w(self, g, a):
        got = scattering._branch_poles(DeltaShellModel(g=g, a=a), 30.0)
        want = mp_lambert_poles(g, a, 30.0)
        assert len(got) == len(want) > 0
        for k, ref in zip(got.tolist(), want):
            assert abs(mpmath.mpc(k) - ref) <= 1e-12 * abs(ref)
            # Im k keeps its own digits, also for the narrow poles of g = 1e4 (|Im k| ~ 1e-7)
            assert abs(mpmath.mpf(k.imag) - ref.imag) <= 1e-12 * abs(ref.imag)
        # branch m lies in (m - 1/2) pi < a Re k <= (m + 1/2) pi: nothing at rounding
        # level on the imaginary axis, where the virtual state of -1 < g a < 0 sits
        m = np.arange(1, got.size + 1)
        assert np.all(((m - 0.5) * np.pi < got.real * a) & (got.real * a <= (m + 0.5) * np.pi))

    def test_deepest_pole_is_inside_im_ka_bound(self):
        # |Im k| a = ln|1 + u / g a| / 2 is largest for the smallest g a, 5e-324: about 375,
        # so no float64 model has a pole near IM_KA_BOUND (the closed form never evaluates
        # e^{ika} anyway)
        deepest = scattering._branch_poles(DeltaShellModel(g=5e-324, a=1.0), 30.0)
        assert 370.0 < np.max(np.abs(deepest.imag)) < IM_KA_BOUND

    def test_free_shell_has_no_poles(self):
        # g a underflows to 0: as at g = 0, S = 1 and D has no zero
        model = DeltaShellModel(g=1e-200, a=1e-200)
        assert model.g * model.a == 0.0
        assert scattering._branch_poles(model, 1e300).size == 0

    def test_re_max_bounds_the_branches(self):
        got = scattering._branch_poles(STRONG, 9.4)
        assert got.size == 3 and got[-1].real < 9.4
        assert scattering._branch_poles(STRONG, 0.5 * np.pi).size == 0

    @pytest.mark.parametrize("re_min", [0.0, 4.0, 9.4, 9.4 + np.pi, 29.0])
    def test_re_min_starts_at_its_branch(self, re_min):
        # the same floats as the full range, cut at re_min
        full = scattering._branch_poles(STRONG, 30.0)
        got = scattering._branch_poles(STRONG, 30.0, re_min)
        assert got.size < full.size or re_min == 0.0
        assert np.array_equal(got, full[full.real >= re_min])

    def test_unconverged_branch_raises(self, monkeypatch):
        monkeypatch.setattr(scattering, "_HALLEY_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge in 1 Halley steps"):
            scattering._branch_poles(STRONG, 30.0)


def count_regions(seed, n_each):
    """Seeded (model, region) pairs for pole_count, n_each of each kind: fourth-quadrant
    rectangles up to the real axis, rectangles across Im k = 0, rectangles around a bound
    state, and rectangles with an edge 1e-9 to 1e-6 from a pole (a fifth of them through it)."""
    rng = np.random.default_rng(seed)

    def model(lo, hi, sign):
        a = rng.uniform(0.5, 2.0)
        return DeltaShellModel(sign * np.exp(rng.uniform(np.log(lo), np.log(hi))) / a, a)

    cases = []
    for _ in range(n_each):
        m = model(0.5, 400.0, rng.choice([-1.0, 1.0]))
        re = np.sort(rng.uniform(0.0, 12.0, 2)) / m.a
        cases.append((m, SearchRegion(re[0], re[1] + 0.01, -rng.uniform(0.1, 3.0) / m.a, 0.0)))
    for _ in range(n_each):
        m = model(0.5, 400.0, rng.choice([-1.0, 1.0]))
        re = rng.uniform(-2.0, 4.0) / m.a
        cases.append((m, SearchRegion(re, re + rng.uniform(0.5, 8.0) / m.a,
                                      -rng.uniform(0.05, 2.0) / m.a, rng.uniform(0.05, 2.0) / m.a)))
    for _ in range(n_each):
        m = model(1.05, 400.0, -1.0)
        kappa = np.sqrt(-bound_states(m)[0])
        x = rng.uniform(0.05, 1.0, 4) * kappa
        cases.append((m, SearchRegion(-x[0], x[1], kappa - x[2], kappa + x[3])))
    for _ in range(n_each):
        m = model(3.0, 100.0, 1.0)
        poles = find_poles(m, SearchRegion(0.0, 10.0 / m.a, -2.0 / m.a, 0.0, n_re=24, n_im=12))
        k = poles[rng.integers(len(poles))].k_pole
        gap = 10.0 ** rng.uniform(-9.0, -6.0) * rng.choice([-1.0, 1.0])  # > 0: pole inside
        side = abs(gap) * 10.0 ** rng.uniform(2.0, 4.0)
        if rng.random() < 0.2:
            gap, side = 0.0, 10.0 ** rng.uniform(-7.0, -5.5)
        lo = k - rng.uniform(0.0, side) * (1 + 1j)
        corners = {0: (k.real - gap, lo.imag), 1: (k.real + gap - side, lo.imag),
                   2: (lo.real, k.imag - gap), 3: (lo.real, k.imag + gap - side)}
        re, im = corners[int(rng.integers(4))]
        cases.append((m, SearchRegion(re, re + side, im, im + side)))
    return cases


def _outcome(count, model, region):
    try:
        return count(model, region)
    except (PoleOnContourError, OverflowError) as exc:
        return type(exc)


class TestPoleCount:
    def test_bisection_matches_doubling(self):
        cases = count_regions(2026, 130)
        outcomes = [(_outcome(pole_count, *case), _outcome(doubling_pole_count, *case))
                    for case in cases]
        assert [i for i, (got, want) in enumerate(outcomes) if got != want] == []
        # every kind of region is exercised, touching contours included
        assert {want for _, want in outcomes} >= {0, 1, 2, PoleOnContourError}

    def test_bisection_evaluates_a_tenth_of_the_doubling(self, monkeypatch):
        # g a = 400 with its top edge on the real axis: the doubling went to 2^17 points a side
        model, region = DeltaShellModel(g=400.0, a=1.0), SearchRegion(0.05, 10.0, -2.0, 0.0)
        points = []

        def counting(m, k):
            points.append(np.size(k))
            return denominator(m, k)

        monkeypatch.setattr(scattering, "denominator", counting)
        monkeypatch.setattr(oracles, "denominator", counting)
        assert doubling_pole_count(model, region) == 3
        doubling, points[:] = sum(points), []
        assert pole_count(model, region) == 3
        assert doubling >= 4 * 2**17
        assert sum(points) <= doubling / 10

    def test_unresolved_winding_raises(self, strong_poles):
        # the top edge passes 1e-10 above a pole: 12 bisections leave the spacing 4.8e-7
        k = strong_poles[1].k_pole
        region = SearchRegion(k.real - 0.3, k.real + 0.7, k.imag - 0.5, k.imag + 1e-10)
        with pytest.raises(PoleOnContourError, match="did not resolve"):
            pole_count(STRONG, region)

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
            pole_count(STRONG, region)


class TestBoundStates:
    def test_repulsive_binds_nothing(self):
        assert bound_states(STRONG) == []

    def test_weak_attraction_binds_nothing(self):
        assert bound_states(DeltaShellModel(g=-0.5, a=1.0)) == []

    def test_threshold_exactly_marginal(self):
        assert bound_states(DeltaShellModel(g=-1.0, a=1.0)) == []
        assert bound_states(DeltaShellModel(g=np.nextafter(-1.0, 0.0), a=1.0)) == []
        assert len(bound_states(DeltaShellModel(g=-1.1, a=1.0))) == 1
        (energy,) = bound_states(DeltaShellModel(g=-(1.0 + 2.0**-52), a=1.0))
        assert np.isfinite(energy) and energy < 0

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

    @pytest.mark.parametrize("a", [0.5, 0.7, 1.0, 1.2345, 2.0])
    @pytest.mark.parametrize("t0", [2**-52, 2**-48, 2**-32, 1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.5,
                                    1.0, 4.0, 9.0, 30.0, 100.0, 700.0, 1e4])
    def test_energy_matches_lambert_w(self, t0, a):
        # rounding s = -g a costs about eps / t in E, t = s - 1 taken exactly from the floats
        g = -(1.0 + t0) / a
        ref = mp_bound_energy(g, a)
        t = -mpmath.mpf(g) * mpmath.mpf(a) - 1
        (energy,) = bound_states(DeltaShellModel(g=g, a=a))
        eps = np.finfo(float).eps
        assert abs(energy - ref) <= 4 * eps * (1 + 1 / t) * abs(ref)

    @pytest.mark.parametrize("s", [40.0, 100.0, 700.0, 1e4, 1e150])
    @pytest.mark.parametrize("a", [0.5, 1.2345])
    def test_deep_shell_binds_at_half_the_strength(self, s, a):
        # e^{-s} is below half an ulp of 1, so x = 2 kappa a is s itself
        model = DeltaShellModel(g=-s / a, a=a)
        kappa = 0.5 * (-model.g * model.a) / a
        assert bound_states(model) == [-kappa * kappa]


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
            raise AssertionError("D(k) evaluated before the energy check")

        monkeypatch.setattr(scattering, "denominator", unreachable)
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
    """The one-call sweep against the 50-digit textbook S-matrix, unwrapped by the same rule."""

    @staticmethod
    def _error(model, energies):
        got = phase_shift_curve(model, energies)
        ref = mp_phase_shift_curve(model.g, model.a, energies)
        return max(float(abs(d - r) / (1 + abs(r))) for d, r in zip(got.tolist(), ref))

    def test_random_sweeps_match_mp_reference(self):
        worst = max(self._error(model, energies)
                    for model, energies in _random_sweeps(seed=5, count=40))
        assert worst <= PHASE_REF_BOUND

    @pytest.mark.parametrize("n", [1, 2])
    def test_shortest_grids_match_mp_reference(self, n, strong_poles):
        pole = strong_poles[0]
        energies = np.linspace(pole.e_r - pole.gamma, pole.e_r + pole.gamma, n)
        assert self._error(STRONG, energies) <= PHASE_REF_BOUND

    def test_single_points_match_mp_reference(self):
        for model, energies in _random_sweeps(seed=6, count=200):
            e = float(energies[-1])
            got = phase_shift(model, e)
            assert type(got) is float
            (ref,) = mp_phase_shift_curve(model.g, model.a, [e])
            assert abs(got - ref) / (1 + abs(ref)) <= PHASE_REF_BOUND

    def test_one_denominator_call_per_sweep(self, monkeypatch):
        calls = []
        original = scattering.denominator

        def counting(model, k):
            calls.append(np.size(k))
            return original(model, k)

        monkeypatch.setattr(scattering, "denominator", counting)
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

    @pytest.mark.parametrize("e_hi", [1e20, np.inf])
    def test_window_past_the_branch_budget_rejected(self, e_hi):
        # its poles would be counted among about 3.2e9 branches at a = 1
        with pytest.raises(ValueError, match="more than the 65536 resonance branches"):
            breit_wigner_fit(STRONG, (1.0, e_hi))

    def test_high_window_computes_only_its_branches(self):
        # branch 101859 of g = 1e8: past 65536 branches from Re k = 0, but its window
        # spans about 4000
        model = DeltaShellModel(g=1e8, a=1.0)
        k = complex(scattering._branch_poles(model, 3.2e5 + 3.0, 3.2e5)[0])
        e_r, gamma = (k * k).real, -2.0 * (k * k).imag
        er, gam = breit_wigner_fit(model, (e_r - 3 * gamma, e_r + 3 * gamma))
        assert abs(er - e_r) < 0.05 * gamma and abs(gam - gamma) < 0.01 * gamma


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
