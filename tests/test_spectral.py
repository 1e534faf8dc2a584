"""Eigenfunction-expansion completeness and the Paley-Wiener classifier."""

import numpy as np
import pytest

from gamow.scattering import DeltaShellModel, bound_states
from gamow.spectral import (
    CONTINUUM_MEASURE,
    HardyReport,
    WavePacket,
    build_decomposition,
    expand,
    gaussian_packet,
    hardy_check,
    reconstruct,
    reconstruct_error,
    windowed_resonance_samples,
)
from gamow import spectral
from gamow.spectral import _adaptive_k_grid

R_MAX, N_R = 10.0, 4001
ATTRACTIVE = DeltaShellModel(g=-5.0, a=1.0)
STRONG = DeltaShellModel(g=100.0, a=1.0)


@pytest.fixture(scope="module")
def attractive_decomp():
    return build_decomposition(ATTRACTIVE, k_max=30.0, n_k=2000, r_max=R_MAX, n_r=N_R)


@pytest.fixture(scope="module")
def strong_decomp():
    return build_decomposition(STRONG, k_max=30.0, n_k=2000, r_max=R_MAX, n_r=N_R)


class TestDecomposition:
    def test_repulsive_has_no_discrete_part(self, strong_decomp):
        assert strong_decomp.discrete == ()

    def test_attractive_has_one_discrete_term(self, attractive_decomp):
        assert len(attractive_decomp.discrete) == 1
        energy, _ = attractive_decomp.discrete[0]
        assert energy == pytest.approx(bound_states(ATTRACTIVE)[0], rel=1e-12)

    def test_bound_function_normalized(self, attractive_decomp):
        _, u = attractive_decomp.discrete[0]
        norm = np.sum(attractive_decomp.r_weights * u * u)
        assert abs(norm - 1.0) <= 1e-8

    def test_weights_positive_grids_increasing(self, strong_decomp):
        assert np.all(strong_decomp.k_weights > 0)
        assert np.all(np.diff(strong_decomp.k) > 0)
        assert np.all(np.diff(strong_decomp.r) > 0)

    def test_node_budget_respected(self, strong_decomp):
        assert strong_decomp.k.size == 2000

    def test_measure_constant(self, attractive_decomp):
        # away from resonance windows the weights are (2/pi) * local spacing
        k, w = attractive_decomp.k, attractive_decomp.k_weights
        mid = k.size // 2
        local = 0.5 * (k[mid + 1] - k[mid - 1])
        assert w[mid] == pytest.approx(CONTINUUM_MEASURE * local, rel=1e-12)

    def test_continuum_asymptotically_unit_amplitude(self, strong_decomp):
        # outside the shell u_k = sin(kr + delta): check peak amplitude ~ 1
        row = strong_decomp.continuum[strong_decomp.k.size // 2]
        outside = strong_decomp.r > 2.0
        assert np.max(np.abs(row[outside])) == pytest.approx(1.0, abs=1e-3)

    def test_tiny_k_max_gives_uniform_grid(self):
        # 4 k_max / n_k <= 1e-14 leaves no strip below the axis to search
        grid = _adaptive_k_grid(STRONG, 1e-12, 1000)
        assert np.array_equal(grid, np.linspace(1e-15, 1e-12, 1000))

    def test_thin_search_strip_gives_uniform_grid(self):
        grid = _adaptive_k_grid(STRONG, 1e-11, 1000)
        assert np.array_equal(grid, np.linspace(1e-14, 1e-11, 1000))

    def test_small_n_k_skips_pole_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectral, "find_poles", lambda *args: calls.append(args) or [])
        grid = _adaptive_k_grid(STRONG, 30.0, 32)
        assert calls == []
        assert np.array_equal(grid, np.linspace(30.0 / 32, 30.0, 32))

    def test_even_n_r_rejected(self):
        with pytest.raises(ValueError):
            build_decomposition(ATTRACTIVE, 10.0, 200, 10.0, 4000)


class TestReconstruction:
    def test_bound_state_self_reconstruction(self, attractive_decomp):
        _, u = attractive_decomp.discrete[0]
        packet = WavePacket(u, R_MAX, N_R)
        assert reconstruct_error(attractive_decomp, packet) <= 1e-6

    def test_gaussian_reconstruction_strong_model(self, strong_decomp):
        packet = gaussian_packet(2.0, 0.3, R_MAX, N_R)
        assert reconstruct_error(strong_decomp, packet) <= 2e-3

    def test_zero_packet_maps_to_zero(self, strong_decomp):
        packet = WavePacket(np.zeros(N_R), R_MAX, N_R)
        rebuilt = reconstruct(strong_decomp, packet)
        assert np.all(rebuilt.values == 0.0)
        assert reconstruct_error(strong_decomp, packet) == 0.0

    def test_linearity(self, strong_decomp):
        p1 = gaussian_packet(2.0, 0.4, R_MAX, N_R)
        p2 = gaussian_packet(3.0, 0.5, R_MAX, N_R)
        combo = WavePacket(1.75 * p1.values - 0.5 * p2.values, R_MAX, N_R)
        lhs = reconstruct(strong_decomp, combo).values
        rhs = 1.75 * reconstruct(strong_decomp, p1).values - 0.5 * reconstruct(strong_decomp, p2).values
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_error_invariant_under_scaling(self, strong_decomp):
        packet = gaussian_packet(2.5, 0.4, R_MAX, N_R)
        scaled = WavePacket(37.5 * packet.values, R_MAX, N_R)
        assert reconstruct_error(strong_decomp, scaled) == pytest.approx(
            reconstruct_error(strong_decomp, packet), rel=1e-9
        )

    def test_refinement_reduces_error(self):
        packet = gaussian_packet(2.0, 0.3, R_MAX, N_R)
        errs = [
            reconstruct_error(build_decomposition(STRONG, 30.0, n_k, R_MAX, N_R), packet)
            for n_k in (500, 1000, 2000)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_tail_precondition(self, strong_decomp):
        packet = gaussian_packet(9.0, 0.5, R_MAX, N_R)
        with pytest.raises(ValueError, match="tail"):
            reconstruct(strong_decomp, packet)

    def test_grid_mismatch_rejected(self, strong_decomp):
        packet = gaussian_packet(2.0, 0.3, R_MAX, 2001)
        with pytest.raises(ValueError, match="grid"):
            reconstruct(strong_decomp, packet)

    def test_parseval(self, attractive_decomp):
        packet = gaussian_packet(2.0, 0.4, R_MAX, N_R)
        disc, cont = expand(attractive_decomp, packet)
        coef_norm2 = np.sum(disc**2) + np.sum(attractive_decomp.k_weights * cont**2)
        packet_norm2 = np.sum(attractive_decomp.r_weights * packet.values**2)
        err = reconstruct_error(attractive_decomp, packet)
        assert abs(coef_norm2 - packet_norm2) <= 3 * err * packet_norm2 + 1e-12


class TestHardyCheck:
    def setup_method(self):
        # window +-10000 Gamma with 2^17 samples: enough envelope width for
        # the t = 0 edge and enough resolution for the Lorentzian peak
        self.e, self.f = windowed_resonance_samples(10.0, 0.1, -990.0, 1010.0, 2**17)

    def test_lower_pole_is_upper_class(self):
        report = hardy_check(self.e, self.f, "upper")
        assert report.is_member
        assert report.leakage <= 1e-4

    def test_lower_pole_is_not_lower_class(self):
        report = hardy_check(self.e, self.f, "lower")
        assert not report.is_member
        assert report.leakage >= 0.45

    def test_conjugation_flips_class(self):
        up = hardy_check(self.e, np.conj(self.f), "upper")
        lo = hardy_check(self.e, np.conj(self.f), "lower")
        assert not up.is_member and lo.is_member

    def test_leakages_sum_to_one(self):
        a = hardy_check(self.e, self.f, "upper").leakage
        b = hardy_check(self.e, np.conj(self.f), "upper").leakage
        assert abs(a + b - 1.0) <= 1e-6

    def test_transform_decay_matches_closed_form(self):
        # the one-sided transform of the pole is e^{-i e_r t - gamma t / 2}:
        # regress log|F| on t in [1/gamma, 5/gamma] and compare the slope
        e, f = self.e, self.f
        n = e.size
        de = e[1] - e[0]
        dt = 2 * np.pi / (n * de)
        t = (np.arange(n) - n / 2 + 0.5) * dt
        tw = np.exp(-2j * np.pi * np.arange(n) * (-n / 2 + 0.5) / n)
        transform = de * np.exp(-1j * e[0] * t) * np.fft.fft(f * tw)
        sel = (t > 10.0) & (t < 50.0)
        slope = np.polyfit(t[sel], np.log(np.abs(transform[sel])), 1)[0]
        assert slope == pytest.approx(-0.05, rel=1e-6)

    def test_real_gaussian_is_neither(self):
        e = np.linspace(-40.0, 40.0, 4096, endpoint=False)
        f = np.exp(-(e**2) / 8.0).astype(complex)
        up = hardy_check(e, f, "upper")
        lo = hardy_check(e, f, "lower")
        assert abs(up.leakage - 0.5) <= 0.05
        assert abs(lo.leakage - 0.5) <= 0.05
        assert not up.is_member and not lo.is_member

    def test_end_decay_precondition(self):
        e = np.linspace(-20.0, 40.0, 4096, endpoint=False)
        f = 1.0 / (e - (10.0 - 0.05j))  # bare pole: 1/E tails, no envelope
        with pytest.raises(ValueError, match="end decay"):
            hardy_check(e, f, "upper")

    def test_nonuniform_grid_rejected(self):
        e = np.linspace(-40.0, 40.0, 4096, endpoint=False) ** 3 / 1600.0
        f = np.exp(-(e**2)).astype(complex)
        with pytest.raises(ValueError, match="uniform"):
            hardy_check(e, f, "upper")

    def test_bad_half_plane_rejected(self):
        with pytest.raises(ValueError, match="half_plane"):
            hardy_check(self.e, self.f, "sideways")

    def test_report_shape(self):
        report = hardy_check(self.e, self.f, "upper")
        assert isinstance(report, HardyReport)
        assert 0.0 <= report.leakage <= 1.0
        assert report.as_dict()["half_plane"] == "upper"


class TestWindowedSamples:
    def test_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            windowed_resonance_samples(10.0, -0.1, 0.0, 20.0, 256)

    def test_pole_must_be_inside_window(self):
        with pytest.raises(ValueError):
            windowed_resonance_samples(30.0, 0.1, 0.0, 20.0, 256)

    def test_uniform_grid(self):
        e, _ = windowed_resonance_samples(10.0, 0.1, -100.0, 120.0, 512)
        assert np.allclose(np.diff(e), e[1] - e[0])
