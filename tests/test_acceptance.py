"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (without -s the lines appear only for failures).
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from gamow.dynamics import (
    GamowState,
    HalfDomainError,
    Kind,
    Law,
    SpaceLabel,
    amplitude,
    semigroup_compose_check,
    time_reverse,
)
from gamow.reps import RepRow, SpinLabel, build_r, build_sigma, build_t, compose, verify_group_relations
from gamow.scattering import (
    DeltaShellModel,
    ResonancePole,
    SearchRegion,
    breit_wigner_fit,
    denominator,
    find_poles,
    pole_count,
    s_matrix,
)
from gamow.spectral import (
    WavePacket,
    build_decomposition,
    gaussian_packet,
    hardy_check,
    reconstruct_error,
    windowed_resonance_samples,
)

from oracles import dense_scan_zeros

STRONG = DeltaShellModel(g=100.0, a=1.0)
ATTRACTIVE = DeltaShellModel(g=-5.0, a=1.0)
R_MAX, N_R = 10.0, 4001


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS - {label}")


@pytest.fixture(scope="module")
def strong_poles():
    return find_poles(STRONG, SearchRegion(0.0, 10.0, -2.0, 0.0))


def test_c01_group_relation_suite():
    """4 rows x twice_j 0..4: Sigma^2, R^2, T^2, T = Sigma R, commutation.

    R Sigma = Sigma R is tested in the phase-relaxed reading R Sigma =
    (eps_r eps_t) Sigma R, which is exact for all 20 cases; literal equality
    holds exactly when eps_r = eps_t (rows one and four) and is impossible
    when eps_t = -eps_r, since T^2 = Sigma R Sigma R = (commutation sign)
    Sigma^2 R^2 forces anticommutation.
    """
    with criterion(1, "group relations exact for 20/20 (row, spin) cases"):
        cases = 0
        for row in RepRow:
            for twice_j in range(5):
                spin = SpinLabel(twice_j)
                rep = verify_group_relations(row, spin)
                assert rep.sigma_squared_is_identity
                assert rep.r_squared_matches_eps_r
                assert rep.t_squared_matches_eps_t
                assert rep.t_equals_sigma_r
                assert rep.commutation_sign == rep.eps_r * rep.eps_t
                assert rep.sigma_r_equals_r_sigma == (rep.eps_r == rep.eps_t)
                # the relaxed commutation is itself exact: R Sigma = s Sigma R
                sr = compose(build_sigma(row, spin), build_r(row, spin))
                rs = compose(build_r(row, spin), build_sigma(row, spin))
                assert np.array_equal(rs.matrix, rep.commutation_sign * sr.matrix)
                cases += 1
        assert cases == 20


def test_c02_kramers_sign():
    with criterion(2, "row-one half-integer spins have R^2 = -I exactly"):
        for twice_j in (1, 3):
            r = build_r(RepRow.ONE, SpinLabel(twice_j))
            sq = compose(r, r)
            assert not sq.antilinear
            assert np.array_equal(sq.matrix, -np.eye(sq.dim, dtype=np.int64))


def test_c03_unitarity():
    with criterion(3, "| |S(k)| - 1 | <= 1e-12 on 1000 real k for 6 settings"):
        for g, a in ((0.5, 1.0), (-0.5, 1.0), (5.0, 1.0), (-5.0, 1.0), (50.0, 1.0), (-50.0, 1.0)):
            model = DeltaShellModel(g=g, a=a)
            k = np.linspace(0.02, 20.0, 1000).astype(complex)
            assert np.max(np.abs(np.abs(s_matrix(model, k)) - 1.0)) <= 1e-12


def test_c04_pole_finding(strong_poles):
    with criterion(4, "pole search matches argument principle and dense scan"):
        region = SearchRegion(0.0, 10.0, -2.0, 0.0)
        assert len(strong_poles) == pole_count(STRONG, region)
        for pole in strong_poles:
            assert abs(denominator(STRONG, pole.k_pole)) < 1e-10
        scanned = dense_scan_zeros(100.0, 1.0, 0.0, 10.0, -2.0, -1e-9)
        assert len(scanned) == len(strong_poles)
        for pole, z in zip(strong_poles, scanned):
            assert abs(pole.k_pole - z) <= 1e-8


def test_c05_breit_wigner_vs_pole(strong_poles):
    with criterion(5, "Breit-Wigner fit within 2% of pole parameters"):
        pole = strong_poles[0]
        window = (pole.e_r - 3 * pole.gamma, pole.e_r + 3 * pole.gamma)
        er_fit, gamma_fit = breit_wigner_fit(STRONG, window)
        assert abs(er_fit - pole.e_r) / pole.e_r <= 0.02
        assert abs(gamma_fit - pole.gamma) / pole.gamma <= 0.02


def test_c06_semigroup_law():
    with criterion(6, "semigroup equation in 1000 random cases; out-of-domain always raises"):
        rng = np.random.default_rng(2024)
        laws = list(Law)
        for i in range(1000):
            law = laws[i % 4]
            pole = ResonancePole.from_energy(rng.uniform(0.1, 10.0), rng.uniform(0.1, 2.0))
            sign = 1.0 if law.kind is Kind.DECAYING else -1.0
            t1 = sign * rng.uniform(0.0, 3.0 / pole.gamma)
            t2 = sign * rng.uniform(0.0, 3.0 / pole.gamma)
            assert semigroup_compose_check(pole, law, t1, t2)
        pole = ResonancePole.from_energy(10.0, 0.1)
        raised = 0
        for law in laws:
            for _ in range(100):
                t = rng.uniform(1e-12, 40.0)
                bad = -t if law.kind is Kind.DECAYING else t
                try:
                    amplitude(law, pole, bad)
                except HalfDomainError:
                    raised += 1
        assert raised == 400


def test_c07_decay_law():
    with criterion(7, "survival = e^(-Gamma t) to 1e-13; half-life at ln2/Gamma to 1e-10"):
        pole = ResonancePole.from_energy(10.0, 0.1)
        for t in np.linspace(0.0, 60.0, 400):
            survival = abs(amplitude(Law.DECAYING_R0, pole, t)) ** 2
            expected = np.exp(-pole.gamma * t)
            assert abs(survival - expected) <= 1e-13 * expected
        half = abs(amplitude(Law.DECAYING_R0, pole, np.log(2.0) / pole.gamma)) ** 2
        assert abs(half - 0.5) <= 1e-10 * 0.5


def test_c08_regime_mirror_identities():
    with criterion(8, "r=1 laws equal time-flipped r=0 laws to 1e-14, 1000 cases"):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            pole = ResonancePole.from_energy(rng.uniform(0.1, 10.0), rng.uniform(0.1, 2.0))
            t = rng.uniform(0.0, 3.0 / pole.gamma)
            lhs = amplitude(Law.DECAYING_R1, pole, t)
            rhs = amplitude(Law.GROWING_R0, pole, -t)
            assert abs(lhs - rhs) <= 1e-14 * abs(lhs)
            lhs = amplitude(Law.GROWING_R1, pole, -t)
            rhs = amplitude(Law.DECAYING_R0, pole, t)
            assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_c09_time_reversal_mapping():
    with criterion(9, "time reversal flips spaces and regimes; involution on 4 labels"):
        pole = ResonancePole.from_energy(10.0, 0.1)
        for kind in Kind:
            for regime in (0, 1):
                state = GamowState(pole, kind, regime)
                flipped = time_reverse(state)
                assert flipped.regime == 1 - regime
                assert flipped.space_label != state.space_label
                assert {flipped.space_label, state.space_label} == set(SpaceLabel)
                assert time_reverse(flipped) == state


def test_c10_spectral_reconstruction():
    with criterion(10, "reconstruction: 1e-3 Gaussian, 1e-6 bound state, 9/9 refinements"):
        headline = build_decomposition(STRONG, k_max=30.0, n_k=4000, r_max=R_MAX, n_r=N_R)
        packet = gaussian_packet(2.0, 0.3, R_MAX, N_R)
        assert reconstruct_error(headline, packet) <= 1e-3

        attractive = build_decomposition(ATTRACTIVE, k_max=30.0, n_k=2000, r_max=R_MAX, n_r=N_R)
        _, bound_fn = attractive.discrete[0]
        assert reconstruct_error(attractive, WavePacket(bound_fn, R_MAX, N_R)) <= 1e-6

        packets = [gaussian_packet(c, w, R_MAX, N_R) for c, w in ((2.0, 0.3), (2.5, 0.4), (3.0, 0.5))]
        levels = [build_decomposition(STRONG, 30.0, n_k, R_MAX, N_R) for n_k in (500, 1000, 2000)]
        decreases = 0
        for p in packets:
            errs = [reconstruct_error(d, p) for d in levels]
            for i in range(3):
                for j in range(i + 1, 3):
                    if errs[i] > errs[j]:
                        decreases += 1
        assert decreases == 9


def test_c11_hardy_classification():
    with criterion(11, "Paley-Wiener: leakage <= 1e-4 right side, >= 0.45 wrong side, 10/10"):
        rng = np.random.default_rng(314)
        for _ in range(10):
            e_r = rng.uniform(5.0, 20.0)
            gamma = rng.uniform(0.05, 0.5)
            e, f = windowed_resonance_samples(
                e_r, gamma, e_r - 10000.0 * gamma, e_r + 10000.0 * gamma, 2**17
            )
            up = hardy_check(e, f, "upper")
            lo = hardy_check(e, f, "lower")
            assert up.is_member and up.leakage <= 1e-4
            assert not lo.is_member and lo.leakage >= 0.45
            up_c = hardy_check(e, np.conj(f), "upper")
            lo_c = hardy_check(e, np.conj(f), "lower")
            assert lo_c.is_member and lo_c.leakage <= 1e-4
            assert not up_c.is_member and up_c.leakage >= 0.45


def test_c12_cli_contract():
    with criterion(12, "CLI determinism and 0/1/2 exit codes per subcommand"):
        base = [sys.executable, "-m", "gamow"]

        def invoke(*args):
            return subprocess.run(base + list(args), capture_output=True, timeout=300)

        cases = {
            "reps": (
                ["reps", "--row", "3", "--twice-j", "2", "--format", "json"],
                ["reps", "--row", "3", "--twice-j", "-2"],
                ["reps", "--row", "5", "--twice-j", "2"],
            ),
            "poles": (
                ["poles", "--g", "100", "--a", "1", "--re", "2,4", "--im=-0.5,-1e-9",
                 "--format", "json"],
                ["poles", "--g", "100", "--a", "1", "--re", "2,4", "--im", "0.5,1"],
                ["poles", "--g", "100", "--a", "1", "--re", "2,4"],
            ),
            "phase": (
                ["phase", "--g", "5", "--a", "1", "--emin", "1", "--emax", "2", "--n", "4"],
                ["phase", "--g", "5", "--a", "1", "--emin=-1", "--emax", "2"],
                ["phase", "--g", "5", "--a", "1", "--emin", "1", "--emax", "two"],
            ),
            "evolve": (
                ["evolve", "--law", "d1", "--er", "10", "--gamma", "0.1",
                 "--t0", "0", "--t1", "20", "--n", "5"],
                ["evolve", "--law", "g0", "--er", "10", "--gamma", "0.1",
                 "--t0", "0", "--t1", "20", "--n", "5"],
                ["evolve", "--law", "q7", "--er", "10", "--gamma", "0.1",
                 "--t0", "0", "--t1", "1"],
            ),
            "spectral": (
                ["spectral", "--g", "-5", "--a", "1", "--kmax", "5", "--nk", "64",
                 "--rmax", "10", "--nr", "401", "--packet", "gaussian:3,0.5"],
                ["spectral", "--g", "-5", "--a", "1", "--kmax", "5", "--nk", "64",
                 "--rmax", "10", "--nr", "401", "--packet", "gaussian:9.5,0.5"],
                ["spectral", "--g", "-5", "--a", "1", "--packet", "box:3,0.5"],
            ),
            "hardy": (
                ["hardy", "--pole", "10,0.1", "--n", "32768", "--format", "json"],
                ["hardy", "--pole", "10,0", "--n", "32768"],
                ["hardy", "--pole", "ten,0.1"],
            ),
        }
        for sub, (ok, domain, usage) in cases.items():
            first = invoke(*ok)
            second = invoke(*ok)
            assert first.returncode == 0, (sub, first.stderr)
            assert first.stdout == second.stdout, sub
            assert invoke(*domain).returncode == 1, sub
            assert invoke(*usage).returncode == 2, sub
        # spot-check machine output feeds back in: poles json -> evolve
        payload = json.loads(invoke(*cases["poles"][0]).stdout)
        pole = payload["poles"][0]
        series = invoke("evolve", "--law", "d0", "--er", str(pole["e_r"]),
                        "--gamma", str(pole["gamma"]), "--t0", "0", "--t1", "10", "--n", "5")
        assert series.returncode == 0
