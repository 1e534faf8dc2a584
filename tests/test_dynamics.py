"""Half-domain semigroup laws and the regime-swapping map."""

import numpy as np
import pytest

from gamow.dynamics import (
    GamowState,
    HalfDomainError,
    Kind,
    Law,
    SpaceLabel,
    amplitude,
    evolution_series,
    semigroup_compose_check,
    time_reverse,
)
from gamow.scattering import ResonancePole
from oracles import scalar_amplitude

POLE = ResonancePole.from_energy(10.0, 0.1)


def random_pole(rng):
    return ResonancePole.from_energy(rng.uniform(0.1, 10.0), rng.uniform(0.1, 2.0))


def domain_time(law, rng, scale=3.0):
    t = rng.uniform(0.0, scale)
    return t if law.kind is Kind.DECAYING else -t


class TestLawValues:
    @pytest.mark.parametrize("law", list(Law), ids=lambda l: l.code)
    def test_unity_at_origin(self, law):
        assert amplitude(law, POLE, 0.0) == 1.0 + 0.0j

    def test_decaying_r0_half_life(self):
        t_half = np.log(2.0) / POLE.gamma
        survival = abs(amplitude(Law.DECAYING_R0, POLE, t_half)) ** 2
        assert abs(survival - 0.5) <= 1e-10 * 0.5

    def test_growing_r1_half_life(self):
        t_half = -np.log(2.0) / POLE.gamma
        survival = abs(amplitude(Law.GROWING_R1, POLE, t_half)) ** 2
        assert abs(survival - 0.5) <= 1e-10 * 0.5

    def test_exponential_decay_law(self):
        for t in np.linspace(0.0, 50.0, 200):
            survival = abs(amplitude(Law.DECAYING_R0, POLE, t)) ** 2
            expected = np.exp(-POLE.gamma * t)
            assert abs(survival - expected) <= 1e-13 * expected

    def test_growing_mirror_of_decaying_modulus(self):
        for t in np.linspace(0.0, 30.0, 100):
            assert abs(amplitude(Law.GROWING_R0, POLE, -t)) == pytest.approx(
                abs(amplitude(Law.DECAYING_R0, POLE, t)), rel=1e-14
            )

    def test_phase_sign_distinguishes_regimes(self):
        t = 0.3
        assert amplitude(Law.DECAYING_R0, POLE, t).imag < 0  # e^{-i e_r t} rotates clockwise
        assert amplitude(Law.DECAYING_R1, POLE, t).imag > 0


class TestHalfDomain:
    def test_decaying_r0_rejects_negative(self):
        with pytest.raises(HalfDomainError):
            amplitude(Law.DECAYING_R0, POLE, -1.0)

    def test_growing_r0_rejects_positive(self):
        with pytest.raises(HalfDomainError):
            amplitude(Law.GROWING_R0, POLE, 0.5)

    def test_decaying_r1_rejects_negative(self):
        with pytest.raises(HalfDomainError):
            amplitude(Law.DECAYING_R1, POLE, -2.0)

    def test_growing_r1_rejects_positive(self):
        with pytest.raises(HalfDomainError):
            amplitude(Law.GROWING_R1, POLE, 1e-9)

    @pytest.mark.parametrize("law", list(Law), ids=lambda l: l.code)
    def test_forbidden_half_line_always_raises(self, law):
        rng = np.random.default_rng(100 + law.regime)
        for _ in range(100):
            t = rng.uniform(1e-12, 50.0)
            bad = -t if law.kind is Kind.DECAYING else t
            with pytest.raises(HalfDomainError):
                amplitude(law, POLE, bad)

    def test_zero_belongs_to_both(self):
        for law in Law:
            assert amplitude(law, POLE, 0.0) == 1.0 + 0.0j


class TestAmplitudeArrayPath:
    """amplitude on an array equals the scalar cmath law, float for float."""

    @pytest.mark.parametrize("law", list(Law), ids=lambda l: l.code)
    def test_bit_identical_to_scalar_oracle(self, law):
        rng = np.random.default_rng(300 + 2 * law.regime + (law.kind is Kind.GROWING))
        for _ in range(50):
            pole = random_pole(rng)
            times = np.array([domain_time(law, rng, scale=10.0 / pole.gamma) for _ in range(200)])
            times[0] = 0.0
            amps = amplitude(law, pole, times)
            assert amps.shape == times.shape
            assert amps.tolist() == [scalar_amplitude(law, pole, t) for t in times.tolist()]
            for t in times[:10].tolist():
                value = amplitude(law, pole, t)
                assert type(value) is complex
                assert value == scalar_amplitude(law, pole, t)

    @pytest.mark.parametrize("law", list(Law), ids=lambda l: l.code)
    def test_nan_time_raises(self, law):
        with pytest.raises(HalfDomainError):
            amplitude(law, POLE, float("nan"))
        with pytest.raises(HalfDomainError, match="nan"):
            amplitude(law, POLE, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("law", list(Law), ids=lambda l: l.code)
    def test_array_names_first_offender(self, law):
        sign = 1.0 if law.kind is Kind.DECAYING else -1.0
        times = sign * np.array([0.0, 1.0, -2.5, -3.5])
        with pytest.raises(HalfDomainError, match=f"got t = {-sign * 2.5}$"):
            amplitude(law, POLE, times)


class TestMirrorIdentities:
    def test_decaying_r1_is_reversed_growing_r0(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            pole = random_pole(rng)
            t = rng.uniform(0.0, 3.0 / pole.gamma)
            lhs = amplitude(Law.DECAYING_R1, pole, t)
            rhs = amplitude(Law.GROWING_R0, pole, -t)
            assert abs(lhs - rhs) <= 1e-14 * abs(lhs)

    def test_growing_r1_is_reversed_decaying_r0(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            pole = random_pole(rng)
            t = -rng.uniform(0.0, 3.0 / pole.gamma)
            lhs = amplitude(Law.GROWING_R1, pole, t)
            rhs = amplitude(Law.DECAYING_R0, pole, -t)
            assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


class TestSemigroup:
    def test_identity_element(self):
        assert semigroup_compose_check(POLE, Law.DECAYING_R0, 0.4, 0.0)

    def test_spec_example(self):
        assert semigroup_compose_check(POLE, Law.DECAYING_R0, 0.3, 0.7)

    def test_domain_enforced(self):
        with pytest.raises(HalfDomainError):
            semigroup_compose_check(POLE, Law.DECAYING_R0, 0.5, -0.2)

    @pytest.mark.parametrize("law", list(Law), ids=lambda l: l.code)
    def test_randomized_functional_equation(self, law):
        rng = np.random.default_rng(ord(law.code[0]) + law.regime)
        for _ in range(250):
            pole = random_pole(rng)
            t1 = domain_time(law, rng, scale=3.0 / pole.gamma)
            t2 = domain_time(law, rng, scale=3.0 / pole.gamma)
            assert semigroup_compose_check(pole, law, t1, t2, rel_tol=1e-12)


class TestStateLabels:
    def test_growing_lives_in_phi_minus_dual(self):
        state = GamowState(POLE, Kind.GROWING, regime=0)
        assert state.space_label is SpaceLabel.PHI_MINUS_DUAL
        assert state.law is Law.GROWING_R0

    def test_decaying_lives_in_phi_plus_dual(self):
        state = GamowState(POLE, Kind.DECAYING, regime=1)
        assert state.space_label is SpaceLabel.PHI_PLUS_DUAL
        assert state.law is Law.DECAYING_R1

    def test_regime_validated(self):
        with pytest.raises(ValueError):
            GamowState(POLE, Kind.GROWING, regime=2)

    def test_time_reverse_growing_r0(self):
        state = GamowState(POLE, Kind.GROWING, regime=0)
        flipped = time_reverse(state)
        assert flipped.regime == 1
        assert flipped.space_label is SpaceLabel.PHI_PLUS_DUAL
        assert flipped.pole == POLE

    def test_time_reverse_decaying_r0(self):
        state = GamowState(POLE, Kind.DECAYING, regime=0)
        flipped = time_reverse(state)
        assert flipped.regime == 1
        assert flipped.space_label is SpaceLabel.PHI_MINUS_DUAL

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("regime", [0, 1])
    def test_involution(self, kind, regime):
        state = GamowState(POLE, kind, regime)
        assert time_reverse(time_reverse(state)) == state

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("regime", [0, 1])
    def test_reversed_law_is_original_under_time_flip(self, kind, regime):
        state = GamowState(POLE, kind, regime)
        flipped = time_reverse(state)
        for t in (0.0, 0.7, 2.5):
            t_in = t if state.law.admits(t) else -t
            assert amplitude(flipped.law, flipped.pole, -t_in) == pytest.approx(
                amplitude(state.law, state.pole, t_in), rel=1e-14
            )


class TestEvolutionSeries:
    def test_singleton_grid(self):
        state = GamowState(POLE, Kind.DECAYING, regime=0)
        (sample,) = evolution_series(state, [0.0])
        assert (sample.t, sample.amplitude, sample.survival) == (0.0, 1.0 + 0.0j, 1.0)

    def test_survival_is_squared_modulus(self):
        state = GamowState(POLE, Kind.DECAYING, regime=1)
        for s in evolution_series(state, np.linspace(0.0, 20.0, 50)):
            assert abs(s.survival - abs(s.amplitude) ** 2) <= 1e-14 * max(s.survival, 1e-300)

    def test_decaying_survival_monotone(self):
        state = GamowState(POLE, Kind.DECAYING, regime=0)
        survivals = [s.survival for s in evolution_series(state, np.linspace(0.0, 80.0, 200))]
        assert all(x >= y for x, y in zip(survivals, survivals[1:]))

    def test_growing_r1_survival_monotone_in_t(self):
        state = GamowState(POLE, Kind.GROWING, regime=1)
        times = np.linspace(-5.0 / POLE.gamma, 0.0, 200)
        survivals = [s.survival for s in evolution_series(state, times)]
        assert all(x <= y for x, y in zip(survivals, survivals[1:]))

    def test_empty_grid(self):
        state = GamowState(POLE, Kind.GROWING, regime=0)
        assert len(evolution_series(state, [])) == 0

    def test_one_record_per_time(self):
        state = GamowState(POLE, Kind.GROWING, regime=1)
        times = np.linspace(-20.0, 0.0, 33)
        series = evolution_series(state, times)
        assert len(series) == times.size
        assert series.dtype.names == ("t", "amplitude", "survival")
        assert series.t.tolist() == times.tolist()
        assert series.amplitude.tolist() == amplitude(state.law, POLE, times).tolist()
        assert series[-1].survival == 1.0

    @pytest.mark.parametrize("law", list(Law), ids=lambda l: l.code)
    def test_survival_is_scalar_squared_modulus(self, law):
        # abs(complex) is hypot in CPython; squared by x * x, bit for bit
        rng = np.random.default_rng(400 + 2 * law.regime + (law.kind is Kind.GROWING))
        pole = random_pole(rng)
        times = [domain_time(law, rng, scale=10.0 / pole.gamma) for _ in range(500)]
        series = evolution_series(GamowState(pole, law.kind, law.regime), times)
        moduli = [abs(scalar_amplitude(law, pole, t)) for t in times]
        assert series.survival.tolist() == [m * m for m in moduli]

    def test_out_of_domain_names_offender(self):
        state = GamowState(POLE, Kind.DECAYING, regime=0)
        with pytest.raises(HalfDomainError, match="-3.5"):
            evolution_series(state, [0.0, 1.0, -3.5, 2.0])
