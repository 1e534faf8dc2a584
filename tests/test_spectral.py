"""Eigenfunction-expansion completeness and the Paley-Wiener classifier."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gamow import scattering
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
from oracles import (
    phased_hardy_leakage,
    poisson_hardy_leakages,
    shell_denominator,
    uncached_hardy_check,
    where_bound_functions,
    where_continuum_functions,
)

R_MAX, N_R = 10.0, 4001
ATTRACTIVE = DeltaShellModel(g=-5.0, a=1.0)
STRONG = DeltaShellModel(g=100.0, a=1.0)


def _matrix(continuum, n_k):
    """The continuum matrix the factors apply, row i read as U^T e_i."""
    return np.array([spectral._apply_transpose(continuum, e) for e in np.eye(n_k)])


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
        n_k = strong_decomp.k.size
        row = spectral._apply_transpose(strong_decomp.continuum, np.eye(1, n_k, n_k // 2)[0])
        outside = strong_decomp.r > 2.0
        assert np.max(np.abs(row[outside])) == pytest.approx(1.0, abs=1e-3)

    def test_tiny_k_max_gives_uniform_grid(self):
        # every resonance has Re k > pi / 2a, far above k_max
        grid = _adaptive_k_grid(STRONG, 1e-12, 1000)
        assert np.array_equal(grid, np.linspace(1e-15, 1e-12, 1000))

    def test_thin_search_strip_gives_uniform_grid(self):
        grid = _adaptive_k_grid(STRONG, 1e-11, 1000)
        assert np.array_equal(grid, np.linspace(1e-14, 1e-11, 1000))

    def test_small_n_k_skips_pole_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spectral, "_branch_poles",
                            lambda *args: calls.append(args) or np.empty(0, dtype=complex))
        grid = _adaptive_k_grid(STRONG, 30.0, 32)
        assert calls == []
        assert np.array_equal(grid, np.linspace(30.0 / 32, 30.0, 32))

    def test_even_n_r_rejected(self):
        with pytest.raises(ValueError):
            build_decomposition(ATTRACTIVE, 10.0, 200, 10.0, 4000)

    def test_deep_bound_state_normalized(self):
        # g a = -700: kappa a is about 350, so sinh(kappa a)^2 is still finite
        decomp = build_decomposition(DeltaShellModel(g=-700.0, a=1.0), 30.0, 32, R_MAX, N_R)
        (_, u), = decomp.discrete
        assert abs(np.sum(decomp.r_weights * u * u) - 1.0) <= 1e-8

    @pytest.mark.parametrize("g", [-720.0, -1500.0])
    def test_too_deep_bound_state_rejected(self, g):
        # unchecked, the norm^2 overflows: -720 normalized to all zeros, -1500 to NaN
        energy = bound_states(DeltaShellModel(g=g, a=1.0))[0]
        with pytest.raises(ValueError, match=f"bound state at E = {energy:.12g} is too deep"):
            build_decomposition(DeltaShellModel(g=g, a=1.0), 30.0, 32, R_MAX, N_R)


def _kgrid_models(seed, n):
    """Seeded models in turn strong (g a in [50, 150]), attractive ([-10, -7]), weak
    (|g a| < 0.95) and anywhere in g a in [2, 1e4], with a in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(n):
        a = rng.uniform(0.5, 2.0)
        ga = (rng.uniform(50.0, 150.0), -rng.uniform(7.0, 10.0), rng.uniform(-0.95, 0.95),
              10.0 ** rng.uniform(0.3, 4.0))[i % 4]
        models.append(DeltaShellModel(g=ga / a, a=a))
    return models


class TestKGridPoles:
    """The k grid's narrow poles, now closed-form Lambert-W branches, are the ones the
    Newton strip search below the real axis found, on the CLI default grid."""

    K_MAX, N_K = 30.0, 2000
    MODELS = _kgrid_models(17, 64) + [ATTRACTIVE, STRONG, DeltaShellModel(g=1e4, a=1.2345)]

    def _narrow(self, poles):
        return [k for k in poles if abs(k.imag) < 4.0 * self.K_MAX / self.N_K]

    def test_narrow_poles_match_newton_strip_search(self):
        cut = 4.0 * self.K_MAX / self.N_K
        strip = scattering.SearchRegion(0.0, self.K_MAX, -cut, -1e-14, n_re=96, n_im=12)
        with_narrow = 0
        for model in self.MODELS:
            got = self._narrow(spectral._branch_poles(model, self.K_MAX).tolist())
            want = self._narrow([p.k_pole for p in scattering.find_poles(model, strip)])
            assert len(got) == len(want), model
            assert all(abs(k - z) <= 1e-12 * abs(z) for k, z in zip(got, want)), model
            with_narrow += bool(got)
        assert 20 <= with_narrow <= len(self.MODELS) - 20  # both kinds of grid are covered

    @pytest.mark.filterwarnings("error")
    def test_poles_at_huge_coupling_converge(self):
        # at g a = 1e307 Im w^2 in Halley's step overflowed too, f'' came out NaN and branch 2
        # raised RuntimeError; g a = 1e306 worked and keeps its grid bit for bit
        grid = _adaptive_k_grid(DeltaShellModel(g=1e306, a=1.0), self.K_MAX, self.N_K)
        assert hashlib.sha256(grid.tobytes()).hexdigest() == (
            "fd6e20764aebb8c640fdcab53c186e80e5236c141ad5903de8284f64d3a88cce")
        for g in (1e307, 1.7e308):
            poles = spectral._branch_poles(DeltaShellModel(g=g, a=1.0), self.K_MAX)
            # the hard-wall limit: k a -> m pi
            assert np.allclose(poles, np.pi * np.arange(1, 10), rtol=1e-12, atol=0.0)

    def test_uniform_when_no_pole_is_narrow(self):
        uniform = np.linspace(self.K_MAX / self.N_K, self.K_MAX, self.N_K)
        for model in self.MODELS:
            grid = _adaptive_k_grid(model, self.K_MAX, self.N_K)
            narrow = self._narrow(spectral._branch_poles(model, self.K_MAX).tolist())
            assert np.array_equal(grid, uniform) == (not narrow), model
            assert grid.size == self.N_K and np.all(np.diff(grid) > 0)
        # every `spectral` golden uses g = -5, a = 1
        assert np.array_equal(_adaptive_k_grid(ATTRACTIVE, self.K_MAX, self.N_K), uniform)

    @settings(max_examples=200, derandomize=True)
    @given(log_ga=st.floats(-1.0, 12.0), sign=st.sampled_from([1.0, -1.0]),
           a=st.floats(0.3, 3.0), k_max=st.floats(0.1, 3000.0),
           n_k=st.sampled_from([64, 65, 2000, 20000]))
    def test_node_map_holds_the_budget_and_covers_each_kept_pole(self, log_ga, sign, a, k_max,
                                                                  n_k):
        model = DeltaShellModel(g=sign * 10.0**log_ga / a, a=a)
        grid = _adaptive_k_grid(model, k_max, n_k)
        k_lo = k_max / n_k
        assert grid.size == n_k and np.all(np.diff(grid) > 0)
        assert grid[0] == k_lo and grid[-1] == k_max
        # the windows of narrow poles that hold n_k floats; the narrowest n_k // 32 are kept
        poles = spectral._branch_poles(model, min(k_max, n_k * np.pi / a))
        width, centre = np.abs(poles.imag), poles.real
        lo = np.maximum(centre - 40.0 * width, k_lo)
        hi = np.minimum(centre + 40.0 * width, k_max)
        fits = (width < 4.0 * k_lo) & (hi - lo > n_k * np.spacing(hi))
        width, centre, lo, hi = width[fits], centre[fits], lo[fits], hi[fits]
        order = np.argsort(lo)
        reach = np.maximum.accumulate(hi[order])
        alone = np.ones(lo.size, dtype=bool)
        alone[order[1:]] &= lo[order[1:]] > reach[:-1]
        alone[order[:-1]] &= hi[order[:-1]] < lo[order[1:]]
        # a window that merges with none gets at least 16 nodes over at most 80 |Im k|
        for i in np.argsort(width)[:n_k // 32]:
            if alone[i] and k_lo <= centre[i]:
                assert np.min(np.abs(grid - centre[i])) <= 2.5 * width[i] * (1.0 + 1e-9)

    def test_only_the_narrowest_windows_that_fit_are_kept(self):
        # g = 1e6 puts 954 separate narrow poles below k = 3000; 2000 // 32 = 62 windows fit
        model = DeltaShellModel(g=1e6, a=1.0)
        poles = spectral._branch_poles(model, 3000.0)
        grid = _adaptive_k_grid(model, 3000.0, self.N_K)
        assert poles.size == 954 and grid.size == self.N_K and np.all(np.diff(grid) > 0)
        near = [np.min(np.abs(grid - k.real)) / abs(k.imag) for k in poles[[0, 61, 62, 953]]]
        assert near[0] < 1.0 and near[1] < 1.0       # inside the windows of branches 1 and 62
        assert near[2] > 100.0 and near[3] > 100.0   # branches 63 and 954 get background only


class TestPiecewiseEigenfunctions:
    """Each region evaluated on its own columns agrees with the np.where form: the bound
    eigenfunctions exactly, the continuum (now from the Jost function) to 1e-12."""

    @pytest.mark.parametrize("g, a", [
        (100.0, 1.0), (-5.0, 1.0), (0.5, 1.0),
        (100.0, 1.2345), (-5.0, 1.2345), (-0.6, 1.2345),
    ], ids=["strong-node", "attractive-node", "weak-node",
            "strong-between", "attractive-between", "weak-between"])
    def test_matches_where_form(self, g, a):
        model = DeltaShellModel(g=g, a=a)
        decomp = build_decomposition(model, k_max=30.0, n_k=500, r_max=R_MAX, n_r=N_R)
        # a = 1 is node 400 of the grid (that column stays inside); 1.2345 falls between
        assert (a in decomp.r) == (a == 1.0)
        where = where_continuum_functions(model, decomp.k, decomp.r)
        u = _matrix(decomp.continuum, decomp.k.size)
        assert np.max(np.abs(u - where)) <= 1e-12 * np.max(np.abs(where))
        expected = where_bound_functions(model, decomp.r, decomp.r_weights)
        assert len(decomp.discrete) == len(expected) == (1 if g * a < -1 else 0)
        for (energy, u), (energy_ref, u_ref) in zip(decomp.discrete, expected):
            assert energy == energy_ref
            assert np.array_equal(u, u_ref)

    @staticmethod
    def _factor_arrays(continuum):
        rows, columns, blocks, _ = continuum
        return [rows, columns] + [weights for *_, weights in blocks]

    def test_continuum_peak_memory(self):
        # beside the arrays it keeps, the build holds vectors of length n_k (11.3 of them
        # measured) and one block's window at a time
        k = np.linspace(30.0 / 2000, 30.0, 2000)
        r = np.linspace(0.0, R_MAX, N_R)
        tracemalloc.start()
        try:
            continuum = spectral._continuum_factors(STRONG, k, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        nbytes = sum(arr.nbytes for arr in self._factor_arrays(continuum))
        assert nbytes <= 0.015 * k.size * r.size * 8      # 0.77 MB against 64 MB for U
        assert peak - nbytes <= 16 * k.size * 8

    # 128 k rows per block: 300 rows end in a partial block, 40 fit in one, and blocks of
    # one row on the wide r grid (an FFT of 2^19 points) each read their own window
    @pytest.mark.parametrize("n_k, r_max, n_r, block_rows", [
        (300, R_MAX, N_R, 128), (40, R_MAX, N_R, 128), (3, 8.0, 2**18 + 1, 1),
    ], ids=["partial-last-block", "one-short-block", "one-row-blocks"])
    @pytest.mark.parametrize("g, a", [(100.0, 1.0), (-5.0, 1.2345)], ids=["node", "between"])
    def test_block_build_matches_where_form(self, monkeypatch, n_k, r_max, n_r, block_rows, g, a):
        assert spectral._BLOCK_ROWS == 128
        monkeypatch.setattr(spectral, "_BLOCK_ROWS", block_rows)
        model = DeltaShellModel(g=g, a=a)
        k = np.linspace(30.0 / n_k, 30.0, n_k)
        r = np.linspace(0.0, r_max, n_r)
        # a = 1 is a node of both r grids (r_max / (n_r - 1) = 2^-15 on the wide one)
        assert (a in r) == (a == 1.0)
        continuum = spectral._continuum_factors(model, k, r)
        blocks = continuum[2]
        assert [stop - first for first, stop, *_ in blocks] == (
            [block_rows] * (n_k // block_rows) + [n_k % block_rows] * bool(n_k % block_rows))
        where = where_continuum_functions(model, k, r)
        assert np.max(np.abs(_matrix(continuum, n_k) - where)) <= 1e-12 * np.max(np.abs(where))
        v = np.random.default_rng(n_k).standard_normal(n_r)
        assert (np.max(np.abs(spectral._apply(continuum, v) - where @ v))
                <= 1e-12 * np.max(np.abs(where)) * np.sum(np.abs(v)))

    def test_build_peak_memory_is_a_tenth_of_the_matrix(self):
        # the stored matrix held 1-1.25 matrices; the lattice weights and the grids hold 1.1 MB
        tracemalloc.start()
        try:
            build_decomposition(STRONG, k_max=30.0, n_k=2000, r_max=R_MAX, n_r=N_R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 2000 * N_R * 8

    @pytest.mark.parametrize("model", [STRONG, ATTRACTIVE], ids=["strong", "attractive"])
    def test_build_peak_memory_below_the_angle_addition_factors(self, model):
        # at the CLI grid the angle-addition factors peaked at 4.85 MB traced; the lattice
        # build peaks at 1.10 MB
        tracemalloc.start()
        try:
            build_decomposition(model, k_max=30.0, n_k=2000, r_max=R_MAX, n_r=N_R)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_arrays_are_read_only(self, strong_decomp):
        arrays = self._factor_arrays(strong_decomp.continuum)
        assert not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][0, 0] = 0.0
        for _, u in build_decomposition(ATTRACTIVE, 30.0, 64, R_MAX, 401).discrete:
            assert not u.flags.writeable


def _operator(g, a, n_k, n_r):
    """The factors of a (g, a) continuum on a uniform k grid, and its np.where matrix."""
    model = DeltaShellModel(g=g, a=a)
    k = np.linspace(30.0 / n_k, 30.0, n_k)
    r = np.linspace(0.0, R_MAX, n_r)
    return spectral._continuum_factors(model, k, r), where_continuum_functions(model, k, r)


# the (g, a) plane, with grids that cross a 128-row block, down to one k row and n_r = 3
# (an FFT of 4 points, whose lattice the taps wrap around many times)
PLANE = dict(g=st.floats(-50.0, 1e4).filter(bool), a=st.floats(0.05, 4.0),
             n_k=st.integers(1, 300), n_r=st.integers(3, 700), seed=st.integers(0, 2**32 - 1))
EDGES = [example(g=-1.0, a=1.0, n_k=200, n_r=401, seed=1),       # g a = -1: threshold
         example(g=1e-6, a=1.0, n_k=200, n_r=401, seed=2),       # g a -> 0
         example(g=1e4, a=1.0, n_k=300, n_r=401, seed=3),        # 1/|D| folded in above 1e3
         example(g=-5.0, a=1.2345, n_k=300, n_r=401, seed=4)]    # shell between nodes


def _edges(test):
    for edge in EDGES:
        test = edge(test)
    return test


class TestLattice:
    """The FFT length, Gaussian and taps that _lattice gives an r grid meet the error they
    are set for: aliasing and the first weight left out both e^-36 of 1 / psi(X)."""

    @pytest.mark.parametrize("n_r", [3, 5, 33, 401, 1001, N_R, 2**18 + 1, 2**22 + 1])
    def test_aliasing_and_taps_meet_their_decay(self, n_r):
        h = R_MAX / (n_r - 1)
        n, dk, alpha, taps = spectral._lattice(n_r, h)
        assert n >= 2 * (n_r - 1) > n // 2 and n & (n - 1) == 0
        assert dk == pytest.approx(2.0 * np.pi / (n * h), rel=1e-15)
        half, period = (n_r - 1) // 2 * h, n * h
        decay = spectral._LATTICE_DECAY
        assert alpha * ((period - half) ** 2 - half**2) == pytest.approx(decay, rel=1e-12)
        # the nearest lattice point left out is at least taps / 2 spacings from k
        def left_out(count):
            return (count * dk / 2.0) ** 2 / (4.0 * alpha) - alpha * half * half

        assert left_out(taps) >= decay > left_out(taps - 1)
        assert 28 <= taps <= 40


class TestContinuumOperator:
    """U v and U^T c from the factors, over the (g, a) plane, against the np.where matrix W
    of tests/oracles.py.  Errors are bounded by the size of the terms, 1e-12 max|W| times
    the 1-norm of the vector, not by the result, which can cancel to near zero."""

    @given(**PLANE)
    @_edges
    def test_adjoint(self, g, a, n_k, n_r, seed):
        continuum, where = _operator(g, a, n_k, n_r)
        rng = np.random.default_rng(seed)
        v, c = rng.standard_normal(n_r), rng.standard_normal(n_k)
        lhs = spectral._apply(continuum, v) @ c
        rhs = v @ spectral._apply_transpose(continuum, c)
        bound = 1e-12 * np.max(np.abs(where)) * np.sum(np.abs(v)) * np.sum(np.abs(c))
        assert abs(lhs - rhs) <= bound

    @given(**PLANE)
    @_edges
    def test_products_match_where_form(self, g, a, n_k, n_r, seed):
        continuum, where = _operator(g, a, n_k, n_r)
        rng = np.random.default_rng(seed)
        v, c = rng.standard_normal(n_r), rng.standard_normal(n_k)
        scale = 1e-12 * np.max(np.abs(where))
        assert (np.max(np.abs(spectral._apply(continuum, v) - where @ v))
                <= scale * np.sum(np.abs(v)))
        assert (np.max(np.abs(spectral._apply_transpose(continuum, c) - c @ where))
                <= scale * np.sum(np.abs(c)))


def _mp_continuum(model, k, r):
    """u_k(r) at 50 digits from the hand-derived matching formula: alpha = 1 + (g/k) sin ka
    cos ka, beta = -(g/k) sin^2 ka; sin(kr)/sqrt(alpha^2 + beta^2) inside, sin(kr +
    atan2(beta, alpha)) outside."""
    with mpmath.workdps(50):
        g, a, k, r = (mpmath.mpf(float(v)) for v in (model.g, model.a, k, r))
        x, s, c = g / k, mpmath.sin(k * a), mpmath.cos(k * a)
        alpha, beta = 1 + x * s * c, -x * s * s
        if r <= a:
            return float(mpmath.sin(k * r) / mpmath.sqrt(alpha**2 + beta**2))
        return float(mpmath.sin(k * r + mpmath.atan2(beta, alpha)))


class TestContinuumPrecision:
    """Sampled continuum elements against a 50-digit mpmath reference."""

    @pytest.mark.parametrize("g, a", [
        (100.0, 1.0), (-5.0, 1.2345), (1e4, 1.0), (-1.0001, 1.0), (1e-6, 1.0),
    ], ids=["strong", "attractive-between", "g1e4", "near-threshold", "weak"])
    def test_sampled_elements_match_50_digits(self, g, a):
        model = DeltaShellModel(g=g, a=a)
        k = _adaptive_k_grid(model, 30.0, 500)
        r = np.linspace(0.0, R_MAX, N_R)
        u = _matrix(spectral._continuum_factors(model, k, r), k.size)
        rng = np.random.default_rng(8)
        # 300 random elements, plus 40 across the row nearest a zero of D (a resonance,
        # where the inside amplitude 1/|D| peaks: about 3e3 at g = 1e4)
        near = int(np.argmin(np.abs(shell_denominator(g, a, k))))
        rows = np.concatenate([rng.integers(0, k.size, 300), np.full(40, near)])
        cols = np.concatenate([rng.integers(0, N_R, 300), np.linspace(0, N_R - 1, 40, dtype=int)])
        ref = np.array([_mp_continuum(model, k[i], r[j]) for i, j in zip(rows, cols)])
        # on this sample the largest error is 6.7e-14 x max|u| (g = 1e4; np.where form 4.0e-14)
        assert np.max(np.abs(u[rows, cols] - ref)) <= 2e-13 * np.max(np.abs(u))


def _sampled_error(model, k, n_r, seed, rows, cols):
    """max |u - 50-digit u| / max|u| over 300 random elements plus the given ones."""
    r = np.linspace(0.0, R_MAX, n_r)
    u = _matrix(spectral._continuum_factors(model, k, r), k.size)
    rng = np.random.default_rng(seed)
    rows = np.concatenate([rng.integers(0, k.size, 300), rows])
    cols = np.concatenate([rng.integers(0, n_r, 300), cols])
    ref = np.array([_mp_continuum(model, k[i], r[j]) for i, j in zip(rows, cols)])
    return np.max(np.abs(u[rows, cols] - ref)) / np.max(np.abs(u)), u


class TestAngleAdditionPrecision:
    """The edge cases of the lattice transform against 50 digits, under the ids of the
    angle-addition paths these cases first covered: k_max = 300, where the row phase k r_c
    is widest (1500 rad) and the first row's taps reach negative lattice points, which the
    Hermitian fold adds onto the positive ones; an r grid of 33 points (an FFT of 64, whose
    period the lattice wraps around); a shell between nodes, so that a row has both regions;
    and the row nearest a zero of D at g = 1e4 (1/|D| above 1e3)."""

    @pytest.mark.parametrize("g, a, k_max, n_r", [
        (100.0, 1.0, 300.0, N_R), (100.0, 1.0, 30.0, 33), (-5.0, 1.2345, 30.0, N_R),
        (1e4, 1.0, 30.0, N_R),
    ], ids=["k300-wide-offsets", "n_r33-remainder-only", "between-partial-groups",
            "g1e4-folded-amplitude"])
    def test_sampled_elements_match_50_digits(self, g, a, k_max, n_r):
        model = DeltaShellModel(g=g, a=a)
        k = _adaptive_k_grid(model, k_max, 500)
        r = np.linspace(0.0, R_MAX, n_r)
        n, m_lo, m_hi, _ = spectral._continuum_factors(model, k, r)[3]
        n_in = int(np.searchsorted(r, a, side="right"))
        # what each case exercises
        assert m_lo < 0                                                 # taps below kappa = 0
        assert (m_hi - m_lo > n) == (n_r == 33)                         # the lattice wraps
        assert 0 < n_in < n_r                                           # both regions
        if k_max == 300.0:
            assert k[-1] * r[(n_r - 1) // 2] >= 1500.0                  # widest row phase
        # 300 random elements plus the whole first, last and nearest-to-a-zero-of-D rows
        near = int(np.argmin(np.abs(shell_denominator(g, a, k))))
        rows = np.repeat([0, k.size - 1, near], n_r)
        error, u = _sampled_error(model, k, n_r, 10, rows, np.tile(np.arange(n_r), 3))
        if g == 1e4:
            assert np.max(np.abs(u[near, :n_in])) > 1e3                 # 1/M folded in
        # largest errors on these samples, x max|u|: 9.5e-15, 6.0e-15, 1.3e-14, 4.1e-14
        assert error <= 2e-13

    # the argument error at large k r (ROADMAP item 7): angle addition reached 4.1e-13,
    # 5.4e-13 and 4.2e-13 on these samples, about twice 0.5 ulp(k r) = 2.3e-13 at k r = 3000
    @pytest.mark.parametrize("g, a", [
        (-5.0, 1.2345),
        pytest.param(0.5, 1.0, marks=pytest.mark.xfail(
            strict=True, reason="2.2e-13: the rounding of k r_c and k / dk at k r up to 3000")),
        pytest.param(1e-6, 1.0, marks=pytest.mark.xfail(
            strict=True, reason="2.5e-13: the rounding of k r_c and k / dk at k r up to 3000")),
    ], ids=["attractive-between", "weak", "weaker"])
    def test_weak_shells_at_k_max_300(self, g, a):
        model = DeltaShellModel(g=g, a=a)
        k = _adaptive_k_grid(model, 300.0, 500)
        near = int(np.argmin(np.abs(shell_denominator(g, a, k))))
        error, _ = _sampled_error(model, k, N_R, 8, np.full(40, near),
                                  np.linspace(0, N_R - 1, 40, dtype=int))
        # 1.4e-13 at (-5, 1.2345)
        assert error <= 2e-13


class TestGridBudget:
    def test_limit_is_inclusive(self):
        spectral.check_grid_budget(2**13, 2**14)
        with pytest.raises(ValueError, match="grid of 8193 x 16384 points exceeds the budget"):
            spectral.check_grid_budget(2**13 + 1, 2**14)

    def test_non_positive_size_does_not_hide_an_oversized_one(self):
        with pytest.raises(ValueError, match="budget"):
            spectral.check_grid_budget(0, spectral.MAX_GRID_ELEMENTS + 1)

    def test_build_rejects_before_k_grid_or_matrix(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("allocation reached with an over-budget grid")

        monkeypatch.setattr(spectral, "_adaptive_k_grid", unreachable)
        monkeypatch.setattr(spectral, "_continuum_factors", unreachable)
        n_k = spectral.MAX_GRID_ELEMENTS // N_R + 1
        with pytest.raises(ValueError, match=f"grid of {n_k} x {N_R} points exceeds the budget"):
            build_decomposition(STRONG, 30.0, n_k, R_MAX, N_R)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k_max", [1e308, np.inf, np.nan, 3.0e6])
    def test_lattice_over_budget_rejected_before_any_allocation(self, monkeypatch, k_max):
        # the lattice the k grid reaches grows with k_max r_max: 1e308 used to overflow k r
        def unreachable(*args):
            raise AssertionError("allocation reached with an over-budget lattice")

        monkeypatch.setattr(spectral, "_adaptive_k_grid", unreachable)
        monkeypatch.setattr(spectral, "_continuum_factors", unreachable)
        with pytest.raises(ValueError, match=r"the continuum on k_max = .*, r_max = 10 needs an "
                                             r"FFT of 8192 points .* over the budget"):
            build_decomposition(ATTRACTIVE, k_max, 2000, R_MAX, N_R)

    def test_lattice_budget_charges_the_fft(self):
        # n_r = 2^22 + 1 takes an FFT of 2^23 points; two more points double it, over budget
        spectral._check_grid(ATTRACTIVE, 30.0, 8, R_MAX, 2**22 + 1)
        with pytest.raises(ValueError, match=f"needs an FFT of {2**24} points"):
            spectral._check_grid(ATTRACTIVE, 30.0, 8, R_MAX, 2**22 + 3)

    def test_lattice_budget_charges_the_k_nodes(self):
        # the weights' taps per k node: 3 r points take 35 taps
        taps = spectral._lattice(3, R_MAX / 2)[3]
        n_k = spectral.MAX_GRID_ELEMENTS // (taps + 16)
        spectral._check_grid(ATTRACTIVE, 1e-3, n_k // 2, R_MAX, 3)
        with pytest.raises(ValueError, match="over the budget"):
            spectral._check_grid(ATTRACTIVE, 1e-3, n_k, R_MAX, 3)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_continuum_rss_within_its_fft_work_arrays(self):
        # a fresh process builds and rebuilds three times: peak RSS rose 10.6 arrays of N
        # float64 over its resident set the first time and 11.2 once the path repeats
        n_r = 2**19 + 1
        code = ("import sys\n"
                "from gamow import spectral\n"
                "from gamow.scattering import DeltaShellModel\n"
                "def peak():\n"
                "    status = open('/proc/self/status').read()\n"
                "    return int(status.split('VmHWM:')[1].split()[0])\n"
                "n_r = int(sys.argv[1])\n"
                "model = DeltaShellModel(-5.0, 1.0)\n"
                "base = peak()\n"
                "for _ in range(3):\n"
                "    packet = spectral.gaussian_packet(2.0, 0.4, 10.0, n_r)\n"
                "    decomp = spectral.build_decomposition(model, 30.0, 64, 10.0, n_r)\n"
                "    spectral.reconstruct_error(decomp, packet)\n"
                "    del packet, decomp\n"
                "print(peak() - base)\n")
        result = subprocess.run([sys.executable, "-c", code, str(n_r)], capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        n = spectral._lattice(n_r, R_MAX / (n_r - 1))[0]
        assert int(result.stdout) * 1024 <= spectral._FFT_WORK_ARRAYS * n * 8

    def test_hardy_budget_charges_its_work_arrays(self):
        def check(n):
            spectral._check_work_budget((n,), spectral._HARDY_WORK_ARRAYS, "energy samples")

        limit = spectral.MAX_GRID_ELEMENTS // spectral._HARDY_WORK_ARRAYS
        check(limit)
        with pytest.raises(ValueError, match=f"{limit + 1} energy samples need about "
                                             f"{spectral._HARDY_WORK_ARRAYS} work"):
            check(limit + 1)
        with pytest.raises(ValueError, match=f"grid of {spectral.MAX_GRID_ELEMENTS + 1} points exceeds"):
            check(spectral.MAX_GRID_ELEMENTS + 1)

    @staticmethod
    def _hardy_path_peak(n):
        """Traced peak of what gamow hardy holds: the samples, then both half-plane checks."""
        spectral._hardy_memo = None
        tracemalloc.start()
        try:
            e, f = windowed_resonance_samples(10.0, 0.1, -990.0, 1010.0, n)
            for half_plane in ("upper", "lower"):
                hardy_check(e, f, half_plane)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # what tracemalloc sees of the Hardy charge: all but pocketfft's scratch (4 arrays of n)
    # and what the heap keeps when the path repeats (1), which the RSS test below covers
    _HARDY_TRACED_ARRAYS = 8

    @pytest.mark.parametrize("n", [2**14, 2**17])
    def test_hardy_path_peak_within_its_work_arrays(self, monkeypatch, n):
        # the first transform of n builds the chirp in the transform's buffer
        monkeypatch.setattr(spectral, "_hardy_chirp", None)
        assert self._hardy_path_peak(n) <= self._HARDY_TRACED_ARRAYS * n * 8

    @pytest.mark.parametrize("n", [2**14, 2**17])
    def test_hardy_path_keeping_the_chirp_within_its_work_arrays(self, monkeypatch, n):
        # the second transform of n builds the chirp apart and keeps it
        monkeypatch.setattr(spectral, "_hardy_chirp", (n, None))
        assert self._hardy_path_peak(n) <= self._HARDY_TRACED_ARRAYS * n * 8
        assert spectral._hardy_chirp[1] is not None

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    @pytest.mark.parametrize("chirp, runs", [
        ("first-transform", 1), ("keeping-the-chirp", 1), ("first-transform", 3),
    ], ids=["first-transform", "keeping-the-chirp", "repeated"])
    def test_hardy_path_rss_within_its_work_arrays(self, chirp, runs):
        # numpy's FFT takes scratch that tracemalloc does not see, so the peak RSS of a fresh
        # process is checked, from its resident set after import: it rises by 9.2 arrays of n
        # on the first transform, 11.2 on the one that keeps the chirp, and 12.1 once the
        # path repeats.  VmHWM, unlike ru_maxrss, starts afresh at exec and does not carry
        # the peak of the process that started it.
        n = 2**20
        code = ("import re, sys\n"
                "from gamow import spectral\n"
                "def kilobytes(field):\n"
                "    with open('/proc/self/status') as status:\n"
                "        return int(re.search(field + r':\\s*(\\d+) kB', status.read())[1])\n"
                f"n = {n}\n"
                "if sys.argv[1] == 'keeping-the-chirp':\n"
                "    spectral._hardy_chirp = (n, None)\n"
                "before = kilobytes('VmRSS')\n"
                "for _ in range(int(sys.argv[2])):\n"
                "    e, f = spectral.windowed_resonance_samples(10.0, 0.1, -990.0, 1010.0, n)\n"
                "    for half_plane in ('upper', 'lower'):\n"
                "        spectral.hardy_check(e, f, half_plane)\n"
                "    del e, f\n"
                "print(kilobytes('VmHWM') - before)\n")
        result = subprocess.run([sys.executable, "-c", code, chirp, str(runs)],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) * 1024 <= spectral._HARDY_WORK_ARRAYS * n * 8


def _stdout_under_blas_threads(code, args):
    """How many different stdouts `python -c code *args` prints with OpenBLAS pinned to 1
    and 2 threads and with the BLAS variables unset."""
    unset = {name: value for name, value in os.environ.items()
             if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    outputs = set()
    for threads in ("1", "2", None):
        env = unset if threads is None else {**unset, "OPENBLAS_NUM_THREADS": threads}
        result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                                text=True, timeout=300, env=env)
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    return len(outputs)


def _rebuild_in_child(sender):
    decomp = build_decomposition(ATTRACTIVE, 30.0, 512, R_MAX, N_R)
    sender.send(reconstruct(decomp, gaussian_packet(2.0, 0.4, R_MAX, N_R)).values.tobytes())
    sender.close()


class TestSplit:
    """The continuum's k rows are no longer split across threads: the lattice transform runs
    on the calling thread alone. Importing and using the module starts no thread, the
    tracer's functions are reached there, the bits do not depend on the BLAS threads or the
    caller's floating-point settings, and threads that share a decomposition, or a fork
    child, get the bits of one thread."""

    def test_import_makes_no_pool(self):
        code = ("import threading, gamow\n"
                "assert not hasattr(gamow.spectral, '_split')\n"
                "assert threading.active_count() == 1\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120,
                                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert result.returncode == 0, result.stderr

    def test_one_worker_makes_no_pool(self):
        code = ("import threading, gamow\n"
                "from gamow import spectral\n"
                "from gamow.scattering import DeltaShellModel\n"
                "decomp = spectral.build_decomposition(DeltaShellModel(-5.0, 1.0), 30.0, 512, "
                "10.0, 4001)\n"
                "spectral.reconstruct(decomp, spectral.gaussian_packet(2.0, 0.4, 10.0, 4001))\n"
                "assert threading.active_count() == 1\n")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=120,
                                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert result.returncode == 0, result.stderr

    def test_tracer_wrapped_functions_stay_on_the_calling_thread(self, monkeypatch):
        # bench/tracing.py counts scattering.denominator's points: one Jost evaluation of
        # the k grid per build, none per reconstruction
        denominator = scattering.denominator
        calls = []

        def recorded(model, k):
            result = denominator(model, k)
            calls.append((threading.get_ident(), result.size))
            return result

        monkeypatch.setattr(scattering, "denominator", recorded)
        decomp = build_decomposition(STRONG, 30.0, 2000, R_MAX, N_R)
        reconstruct(decomp, gaussian_packet(2.0, 0.4, R_MAX, N_R))
        assert {ident for ident, _ in calls} == {threading.get_ident()}
        assert sum(points for _, points in calls) == 2000

    # 128 k rows per block: 300 rows end in a partial block, 40 fit in one, and blocks of
    # one row on the wide r grid
    @pytest.mark.parametrize("n_k, r_max, n_r, block_rows", [
        (300, R_MAX, N_R, 128), (40, R_MAX, N_R, 128), (3, 8.0, 2**18 + 1, 1),
    ], ids=["partial-last-block", "one-short-block", "one-row-blocks"])
    @pytest.mark.parametrize("g, a", [(100.0, 1.0), (-5.0, 1.2345)], ids=["node", "between"])
    def test_every_worker_count_gives_the_same_bits(self, n_k, r_max, n_r, block_rows, g, a):
        code = ("import hashlib, sys\n"
                "import numpy as np\n"
                "from gamow import spectral\n"
                "from gamow.scattering import DeltaShellModel\n"
                "n_k, r_max, n_r, rows, g, a = (t(x) for t, x in zip(\n"
                "    (int, float, int, int, float, float), sys.argv[1:]))\n"
                "spectral._BLOCK_ROWS = rows\n"
                "k, r = np.linspace(30.0 / n_k, 30.0, n_k), np.linspace(0.0, r_max, n_r)\n"
                "continuum = spectral._continuum_factors(DeltaShellModel(g, a), k, r)\n"
                "rng = np.random.default_rng(n_k)\n"
                "v, c = rng.standard_normal(n_r), rng.standard_normal(n_k)\n"
                "arrays = [continuum[0], continuum[1], *(b[3] for b in continuum[2]),\n"
                "          spectral._apply(continuum, v), spectral._apply_transpose(continuum, c)]\n"
                "print(hashlib.sha256(b''.join(x.tobytes() for x in arrays)).hexdigest())\n")
        args = [str(x) for x in (n_k, r_max, n_r, block_rows, g, a)]
        assert _stdout_under_blas_threads(code, args) == 1

    def test_expansion_models_give_the_serial_bits(self):
        # two models per regime of the expansion benchmark, at the CLI default grid
        code = ("import hashlib\n"
                "import numpy as np\n"
                "from gamow import spectral\n"
                "from gamow.scattering import DeltaShellModel\n"
                "rng = np.random.default_rng(24)\n"
                "models = [(ga / a, a) for a, ga in zip(rng.choice([0.5, 1.0, 1.5, 2.0], 6), [\n"
                "    *rng.uniform(-10.0, -7.0, 2), *rng.uniform(50.0, 150.0, 2),\n"
                "    *(rng.uniform(0.05, 0.95, 2) * [1.0, -1.0])])]\n"
                "digest = hashlib.sha256()\n"
                "for g, a in models:\n"
                "    decomp = spectral.build_decomposition(DeltaShellModel(g, a), 30.0, 2000,\n"
                "                                          10.0, 4001)\n"
                "    for c, w in ((2.0, 0.4), (4.5, 0.25)):\n"
                "        packet = spectral.gaussian_packet(c, w, 10.0, 4001)\n"
                "        for x in (*spectral.expand(decomp, packet),\n"
                "                  spectral.reconstruct(decomp, packet).values):\n"
                "            digest.update(x.tobytes())\n"
                "print(digest.hexdigest())\n")
        assert _stdout_under_blas_threads(code, []) == 1

    def test_fork_child_makes_its_own_pool(self):
        decomp = build_decomposition(ATTRACTIVE, 30.0, 512, R_MAX, N_R)
        expected = reconstruct(decomp, gaussian_packet(2.0, 0.4, R_MAX, N_R)).values.tobytes()
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_rebuild_in_child, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(120), "the fork child did not finish its reconstruction"
            assert receiver.recv() == expected
        finally:
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join(timeout=30)
        assert child.exitcode == 0

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_reconstruct_peak_memory(self, strong_decomp, count):
        # the FFT buffer (2 N float64, N = 8192), the lattice window and vectors of n_r and
        # n_k: 4.6 arrays of N traced; callers on `count` threads at once each hold their own
        # (up to 8.5 and 11.8 arrays of N measured with two and three)
        packet = gaussian_packet(2.0, 0.4, R_MAX, N_R)
        expected = reconstruct(strong_decomp, packet).values
        rebuilt = []
        threads = [threading.Thread(target=lambda: rebuilt.append(
            reconstruct(strong_decomp, packet).values)) for _ in range(count - 1)]
        tracemalloc.start()
        try:
            for thread in threads:
                thread.start()
            rebuilt.append(reconstruct(strong_decomp, packet).values)
            for thread in threads:
                thread.join(timeout=120)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(thread.is_alive() for thread in threads)
        assert len(rebuilt) == count
        assert all(np.array_equal(values, expected) for values in rebuilt)
        assert peak <= count * 6 * 8192 * 8

    def test_threads_get_the_serial_bits(self, attractive_decomp):
        packets = [gaussian_packet(c, 0.4, R_MAX, N_R) for c in (1.5, 2.5, 3.5, 4.5)]
        serial = [reconstruct(attractive_decomp, packet).values for packet in packets]
        rebuilt = [[] for _ in packets]

        def rebuild(i):
            for _ in range(5):
                rebuilt[i].append(reconstruct(attractive_decomp, packets[i]).values)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=rebuild, args=(i,)) for i in range(len(packets))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for values, reference in zip(rebuilt, serial):
            assert len(values) == 5
            assert all(np.array_equal(v, reference) for v in values)

    @pytest.mark.parametrize("over", ["raise", "ignore"])
    def test_shares_run_in_the_callers_context(self, attractive_decomp, over):
        # the transform sets no floating-point state of its own that leaks out, raises
        # nothing under the caller's np.errstate, and its bits do not depend on it
        packet = gaussian_packet(2.0, 0.4, R_MAX, N_R)
        expected = [*expand(attractive_decomp, packet),
                    reconstruct(attractive_decomp, packet).values]
        with np.errstate(all=over):
            settings = np.geterr()
            decomp = build_decomposition(ATTRACTIVE, 30.0, 2000, R_MAX, N_R)
            result = [*expand(decomp, packet), reconstruct(decomp, packet).values]
            assert np.geterr() == settings == dict.fromkeys(settings, over)
        assert all(np.array_equal(x, y) for x, y in zip(result, expected))


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

    @pytest.mark.parametrize("width", [-0.4, 0.0])
    def test_nonpositive_width_rejected(self, width):
        # unchecked, a negative width gives the |width| packet and zero a NaN packet
        with pytest.raises(ValueError, match="packet width must be positive"):
            gaussian_packet(2.0, width, R_MAX, N_R)

    def test_unresolved_width_rejected(self):
        with pytest.raises(ValueError, match="packet width 0.002 is below the r grid spacing 0.0025"):
            gaussian_packet(2.0, 0.002, R_MAX, N_R)
        assert gaussian_packet(2.0, 0.0025, R_MAX, N_R).values[800] == 1.0

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

    def test_leakage_matches_phased_transform(self):
        # the dropped factor de e^{-i e0 t} has modulus de, which the leakage ratio cancels
        rng = np.random.default_rng(1212)
        for _ in range(50):
            e_r = 10.0 ** rng.uniform(-1.0, 3.0)
            gamma = e_r * 10.0 ** rng.uniform(-4.0, -0.5)
            half = 0.5 * gamma * 10.0 ** rng.uniform(2.5, 4.5)
            n = 2 * int(rng.integers(2**9, 2**13))
            e, f = windowed_resonance_samples(e_r, gamma, e_r - half, e_r + half, n)
            if rng.random() < 0.5:
                f = np.conj(f)
            for half_plane in ("upper", "lower"):
                want = phased_hardy_leakage(e, f, half_plane)
                assert hardy_check(e, f, half_plane).leakage == pytest.approx(want, rel=2e-15)

    def test_sample_near_overflow_gives_a_finite_leakage(self, monkeypatch):
        # gamma = 1e-300 puts a sample of 2 / gamma on the grid, so the unscaled |F|^2
        # overflows; pytest.ini turns its RuntimeWarning into an error
        monkeypatch.setattr(spectral, "_hardy_memo", None)
        e, f = windowed_resonance_samples(10.0, 1e-300, 9.0, 11.0, 32)
        leakages = [hardy_check(e, f, half_plane).leakage for half_plane in ("upper", "lower")]
        assert leakages[0] + leakages[1] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("gamma", [1e-310, 1e-320])
    def test_overflowing_samples_rejected(self, gamma):
        # the grid meets E = 10 exactly, where |f| = 2 / gamma overflows; unchecked, numpy's
        # divide warned (an error under pytest.ini) and returned inf and NaN samples
        with pytest.raises(ValueError, match="^samples must be finite$"):
            windowed_resonance_samples(10.0, gamma, 9.0, 11.0, 32)

    @given(k=st.integers(-900, 900))
    @example(k=900)
    def test_leakage_is_unchanged_by_a_power_of_two(self, k):
        # 2^k moves every |f| and |F| by the same exponent; the 1024 samples span
        # 3e-11 to 20, so no product here reaches the subnormals or overflows
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 1024)
        for half_plane in ("upper", "lower"):
            assert (hardy_check(e, f * 2.0**k, half_plane).leakage
                    == hardy_check(e, f, half_plane).leakage)

    def test_chirp_kept_once_and_read_only(self, monkeypatch):
        # the first transform of an n keeps no chirp, the second keeps one read-only, and
        # a transform of another n drops it; a memo hit takes no transform
        monkeypatch.setattr(spectral, "_hardy_chirp", None)
        monkeypatch.setattr(spectral, "_hardy_memo", None)
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 4096)
        for half_plane in ("upper", "lower"):
            hardy_check(e, f, half_plane)
            assert spectral._hardy_chirp[0] == 4096 and spectral._hardy_chirp[1] is None
        hardy_check(e, np.conj(f), "upper")
        n, chirp = spectral._hardy_chirp
        assert n == 4096 and not chirp.flags.writeable
        assert chirp.tobytes() == spectral._half_bin_chirp(4096).tobytes()
        hardy_check(e, f, "upper")
        assert spectral._hardy_chirp[1] is chirp
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 2048)
        hardy_check(e, f, "upper")
        assert spectral._hardy_chirp[0] == 2048 and spectral._hardy_chirp[1] is None

    @pytest.mark.parametrize("n", [2**14, 2**17])
    @pytest.mark.parametrize("warm, arrays", [(False, 5), (True, 7)], ids=["cold", "warm"])
    def test_transform_entry_holds_its_arrays(self, monkeypatch, n, warm, arrays):
        # traced bytes when the FFT starts: the energies (one array of n float64), the
        # samples and the transform buffer (two each), and on the warm path the kept chirp
        monkeypatch.setattr(spectral, "_hardy_chirp", None)
        monkeypatch.setattr(spectral, "_hardy_memo", None)
        fft, held = np.fft.fft, []

        def spy(a, **kw):
            held.append(tracemalloc.get_traced_memory()[0])
            return fft(a, **kw)

        monkeypatch.setattr(np.fft, "fft", spy)
        tracemalloc.start()
        try:
            e, f = windowed_resonance_samples(10.0, 0.1, -990.0, 1010.0, n)
            if warm:  # two transforms of n in a row keep its chirp
                hardy_check(e, np.conj(f), "upper")
                hardy_check(e, -f, "upper")
                spectral._hardy_memo = None
            del held[:]
            report = hardy_check(e, f, "upper")
        finally:
            tracemalloc.stop()
        assert (spectral._hardy_chirp[1] is not None) is warm
        assert len(held) == 1 and held[0] <= arrays * n * 8 + 32 * 1024
        assert report == uncached_hardy_check(e, f, "upper")

    def test_transform_runs_in_place(self, monkeypatch):
        # np.fft.fft's out= (numpy >= 2.0) writes the transform over its input buffer
        monkeypatch.setattr(spectral, "_hardy_memo", None)
        fft, calls = np.fft.fft, []

        def spy(a, **kw):
            calls.append(kw.get("out") is a)
            return fft(a, **kw)

        monkeypatch.setattr(np.fft, "fft", spy)
        report = hardy_check(self.e, self.f, "upper")
        assert calls == [True]
        assert report == uncached_hardy_check(self.e, self.f, "upper")

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

    @pytest.mark.parametrize("index, value", [(0, np.nan), (1, np.nan), (500, np.nan),
                                              (-1, np.nan), (0, -np.inf)])
    def test_non_finite_grid_rejected(self, index, value):
        # NaN compares false both ways, so it once passed the uniformity test (leakage 0.46)
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 1024)
        e[index] = value
        with pytest.raises(ValueError, match="uniform and increasing"):
            hardy_check(e, f, "upper")

    def test_linspace_grid_far_from_zero_accepted(self):
        # near |E| = 10 one ulp (1.8e-15) exceeds 1e-9 de (1.5e-15) on this window
        e, f = windowed_resonance_samples(10.0, 0.1, 9.9, 10.1, 2**17)
        assert 0.0 < hardy_check(e, f, "upper").leakage < 1.0
        e[1000] += 1e-6 * (e[1] - e[0])
        with pytest.raises(ValueError, match="uniform and increasing"):
            hardy_check(e, f, "upper")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, monkeypatch, value):
        monkeypatch.setattr(spectral, "_hardy_memo", None)
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 1024)
        f[300] = value
        with pytest.raises(ValueError, match="samples must be finite"):
            hardy_check(e, f, "upper")
        assert spectral._hardy_memo is None

    def test_odd_sample_count_rejected(self):
        # an odd n puts a t sample at 0, in neither half-line: unchecked, the
        # leakages of f and conj(f) sum to 1 - 7.8e-4 at n = 4097
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 4098)
        e, f = e[:-1], f[:-1]
        for half_plane in ("upper", "lower"):
            with pytest.raises(ValueError, match="even number of samples, got 4097"):
                hardy_check(e, f, half_plane)

    def test_bad_half_plane_rejected(self):
        with pytest.raises(ValueError, match="half_plane"):
            hardy_check(self.e, self.f, "sideways")

    def test_report_shape(self):
        report = hardy_check(self.e, self.f, "upper")
        assert isinstance(report, HardyReport)
        assert 0.0 <= report.leakage <= 1.0


class TestHardyMemo:
    """One transform serves both half-plane checks of the same samples; every report
    equals the one-transform-per-call oracle's, leakage and is_member compared with ==."""

    N = 2**13
    WARM = False  # whether each case starts with the chirp of its n kept
    CASES = {
        "upper-then-lower": ([("a", "upper"), ("a", "lower")], 1),
        "lower-then-upper": ([("a", "lower"), ("a", "upper")], 1),
        "same-plane-twice": ([("a", "upper"), ("a", "upper")], 1),
        "interleaved": ([("a", "upper"), ("b", "upper"), ("a", "lower"), ("b", "lower")], 4),
        "equal-copy": ([("a", "upper"), ("a-copy", "lower")], 1),
        "signed-zeros": ([("zeros", "upper"), ("negative-zeros", "lower")], 1),
    }

    def _sets(self):
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, self.N)
        e_b, f_b = windowed_resonance_samples(3.0, 0.02, -17.0, 23.0, self.N)
        zeros, negative_zeros = f.copy(), f.copy()
        zeros[:8] = 0.0
        negative_zeros[:8] = complex(-0.0, -0.0)
        return {"a": (e, f), "a-copy": (e.copy(), f.copy()), "b": (e_b, np.conj(f_b)),
                "zeros": (e, zeros), "negative-zeros": (e, negative_zeros)}

    def _fresh(self, monkeypatch, n):
        """An empty memo, and n's chirp kept when WARM (as two transforms of n in a row
        leave it), else none."""
        monkeypatch.setattr(spectral, "_hardy_chirp", None)
        if self.WARM:
            e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, n)
            for samples in (f, np.conj(f)):
                hardy_check(e, samples, "upper")
            assert spectral._hardy_chirp[1] is not None
        monkeypatch.setattr(spectral, "_hardy_memo", None)

    def _counted_transforms(self, monkeypatch):
        self._fresh(monkeypatch, self.N)
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a, **kw: calls.append(a.size) or fft(a, **kw))
        return calls

    @pytest.mark.parametrize("steps, transforms", CASES.values(), ids=CASES)
    def test_reports_match_uncached(self, monkeypatch, steps, transforms):
        sets = self._sets()
        want = [uncached_hardy_check(*sets[name], half_plane) for name, half_plane in steps]
        calls = self._counted_transforms(monkeypatch)
        got = [hardy_check(*sets[name], half_plane) for name, half_plane in steps]
        assert len(calls) == transforms
        assert got == want

    def test_samples_mutated_in_place_are_transformed_again(self, monkeypatch):
        e, f = self._sets()["a"]
        calls = self._counted_transforms(monkeypatch)
        hardy_check(e, f, "upper")
        np.conjugate(f, out=f)
        report = hardy_check(e, f, "upper")
        assert len(calls) == 2
        assert report == uncached_hardy_check(e, f, "upper")
        assert report.is_member is False

    def test_entry_is_a_read_only_copy_dropped_by_its_hit(self, monkeypatch):
        self._fresh(monkeypatch, self.N)
        e, f = self._sets()["a"]
        hardy_check(e, f, "upper")
        kept = spectral._hardy_memo[0]
        assert np.array_equal(kept, f) and not np.shares_memory(kept, f)
        assert not kept.flags.writeable
        hardy_check(e, f, "lower")
        assert spectral._hardy_memo is None

    @pytest.mark.parametrize("bad", ["nan", "step", "reversed"])
    def test_every_check_runs_on_a_hit(self, monkeypatch, bad):
        e, f = self._sets()["a"]
        calls = self._counted_transforms(monkeypatch)
        hardy_check(e, f, "upper")
        e_bad = {"nan": np.where(np.arange(e.size) == 7, np.nan, e),
                 "step": e + np.where(np.arange(e.size) < 9, 0.0, 1e-3),
                 "reversed": e[::-1].copy()}[bad]
        with pytest.raises(ValueError, match="uniform and increasing"):
            hardy_check(e_bad, f, "lower")
        with pytest.raises(ValueError, match="half_plane"):
            hardy_check(e, f, "sideways")
        report = hardy_check(e, f, "lower")
        assert len(calls) == 1
        assert report == uncached_hardy_check(e, f, "lower")

    @pytest.mark.parametrize("hit", [False, True], ids=["miss", "hit"])
    @pytest.mark.parametrize("grid, index, message", [
        ("energies", -1, "uniform and increasing"),
        ("energies", -1024, "uniform and increasing"),
        ("samples", -1, "samples must be finite"),
        ("samples", -1024, "samples must be finite"),
    ], ids=["last-energy", "last-slice-energy", "last-sample", "last-slice-sample"])
    def test_nan_in_the_last_check_slice_rejected(self, monkeypatch, hit, grid, index, message):
        # at n = 2^14 both input checks run over 16 slices of 1024 samples; np.max over the
        # slice maxima keeps a NaN from the last one
        self._fresh(monkeypatch, 2**14)
        e, f = windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 2**14)
        if hit:
            hardy_check(e, f, "upper")
        bad = {"energies": e, "samples": f}[grid].copy()
        bad[index] = np.nan
        args = (bad, f) if grid == "energies" else (e, bad)
        with pytest.raises(ValueError, match=message):
            hardy_check(*args, "lower")
        assert hardy_check(e, f, "lower") == uncached_hardy_check(e, f, "lower")

    def test_threads_get_the_serial_reports(self, monkeypatch):
        # the third set's size replaces the kept chirp of the first two's, and back
        sets = [windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 2**12),
                windowed_resonance_samples(3.0, 0.02, -17.0, 23.0, 2**12),
                windowed_resonance_samples(10.0, 0.1, -90.0, 110.0, 2**11)]
        planes = ("upper", "lower")
        serial = [[uncached_hardy_check(e, f, hp) for hp in planes] for e, f in sets]
        self._fresh(monkeypatch, 2**12)
        wrong, finished = [], []

        def worker(offset):
            try:
                for i in range(100):
                    k = (i + offset) % 3
                    for j, hp in enumerate(planes):
                        report = hardy_check(*sets[k], hp)
                        if report != serial[k][j]:
                            wrong.append((k, hp, report))
                finished.append(offset)
            except Exception as exc:  # a thread's failure must reach the assertions below
                wrong.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        assert sorted(finished) == [0, 1, 2, 3]


class TestHardyMemoWarm(TestHardyMemo):
    """Every TestHardyMemo case again, starting with the chirp of its n kept."""

    WARM = True


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

    def test_samples_equal_the_one_line_expression(self):
        # built in place, one ufunc at a time, with the operations of this expression;
        # windows far from E = 0 and narrow ones (down to 1e-9 of |e_r|) included
        rng = np.random.default_rng(2020)
        for _ in range(300):
            e_r = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0)
            gamma = abs(e_r) * 10.0 ** rng.uniform(-9.0, 0.0)
            half = 0.5 * gamma * 10.0 ** rng.uniform(0.0, 5.0)
            e_min, e_max = e_r - half, e_r + half
            n = 2 * int(rng.integers(8, 4096))
            e, f = windowed_resonance_samples(e_r, gamma, e_min, e_max, n)
            width = (e_max - e_min) / 12.5
            want = np.exp(-((e - e_r) ** 2) / (2.0 * width**2)) / (e - complex(e_r, -0.5 * gamma))
            assert np.array_equal(f.view(np.uint64), want.view(np.uint64))


def _seeded_hardy_windows(count):
    """(e_r, gamma, e_min, e_max, n) with the step dE from 0.05 to 1.5 Gamma: aliased to clean."""
    rng = np.random.default_rng(1999)
    out = []
    for _ in range(count):
        e_r = 10.0 ** rng.uniform(-1.0, 3.0)
        gamma = e_r * 10.0 ** rng.uniform(-4.0, -1.0)
        n = 2 * int(rng.integers(2**10, 2**14))
        half = 0.5 * n * gamma * 10.0 ** rng.uniform(np.log10(0.05), np.log10(1.5))
        out.append((e_r, gamma, e_r - half, e_r + half, n))
    return out


class TestHardyPoissonOracle:
    """hardy_check's two leakages against the FFT-free closed form of the windowed
    samples' transform, summed over its aliases (oracles.poisson_hardy_leakages)."""

    CASES = {
        "default-window": (10.0, 0.1, -990.0, 1010.0, 2**17),  # upper leakage 7.04e-5
        "pm-50-gamma": (10.0, 0.1, 5.0, 15.0, 2**17),          # 1.389e-2
        "narrow-far-from-zero": (10.0, 0.1, 9.9, 10.1, 2**17),  # 0.3373
        "aliased": (10.0, 0.1, -990.0, 1010.0, 16384),         # 0.0710: dE = 1.22 Gamma
        **{f"seeded-{i}": args for i, args in enumerate(_seeded_hardy_windows(10))},
    }

    @pytest.mark.parametrize("args", CASES.values(), ids=CASES)
    def test_leakages_match_closed_form(self, args):
        e, f = windowed_resonance_samples(*args)
        got = [hardy_check(e, f, half_plane).leakage for half_plane in ("upper", "lower")]
        assert got == pytest.approx(poisson_hardy_leakages(*args), rel=1e-9, abs=0.0)
