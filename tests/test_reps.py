"""Exact checks of the inversion co-representations."""

import numpy as np
import pytest

from gamow.reps import (
    RepRow,
    SpinLabel,
    SymmetryOperator,
    apply_operator,
    build_c_matrix,
    build_r,
    build_sigma,
    build_t,
    compose,
    verify_group_relations,
)

ALL_ROWS = list(RepRow)
SPINS = [SpinLabel(n) for n in range(5)]


def identity_like(op):
    return SymmetryOperator(np.eye(op.dim, dtype=np.int64), antilinear=False)


class TestCMatrix:
    def test_j_zero_is_one(self):
        assert build_c_matrix(SpinLabel(0)).matrix.tolist() == [[1]]

    def test_j_half(self):
        assert build_c_matrix(SpinLabel(1)).matrix.tolist() == [[0, -1], [1, 0]]

    def test_j_one(self):
        assert build_c_matrix(SpinLabel(2)).matrix.tolist() == [[0, 0, 1], [0, -1, 0], [1, 0, 0]]

    @pytest.mark.parametrize("twice_j", range(7))
    def test_c_squared_is_parity_sign(self, twice_j):
        spin = SpinLabel(twice_j)
        c = build_c_matrix(spin).matrix
        assert np.array_equal(c @ c, spin.parity_sign * np.eye(spin.dim, dtype=np.int64))

    def test_linear_flag(self):
        assert not build_c_matrix(SpinLabel(3)).antilinear


class TestBuilders:
    def test_sigma_row1_is_identity(self):
        op = build_sigma(RepRow.ONE, SpinLabel(1))
        assert op.matrix.tolist() == [[1, 0], [0, 1]]
        assert not op.antilinear

    def test_sigma_row2_j0(self):
        assert build_sigma(RepRow.TWO, SpinLabel(0)).matrix.tolist() == [[1, 0], [0, -1]]

    def test_sigma_row4_j_half_is_block_identity(self):
        op = build_sigma(RepRow.FOUR, SpinLabel(1))
        assert np.array_equal(op.matrix, np.eye(4, dtype=np.int64))

    def test_r_row1_j_half(self):
        op = build_r(RepRow.ONE, SpinLabel(1))
        assert op.matrix.tolist() == [[0, -1], [1, 0]]
        assert op.antilinear

    def test_r_row3_j0(self):
        op = build_r(RepRow.THREE, SpinLabel(0))
        assert op.matrix.tolist() == [[0, 1], [1, 0]]
        assert op.antilinear

    def test_r_row2_j0(self):
        assert build_r(RepRow.TWO, SpinLabel(0)).matrix.tolist() == [[0, 1], [-1, 0]]

    def test_t_row1_j_half(self):
        op = build_t(RepRow.ONE, SpinLabel(1))
        assert op.matrix.tolist() == [[0, -1], [1, 0]]
        assert op.antilinear

    def test_t_row2_j0(self):
        assert build_t(RepRow.TWO, SpinLabel(0)).matrix.tolist() == [[0, 1], [1, 0]]

    def test_t_row4_j0(self):
        assert build_t(RepRow.FOUR, SpinLabel(0)).matrix.tolist() == [[0, 1], [-1, 0]]

    @pytest.mark.parametrize("row", ALL_ROWS)
    @pytest.mark.parametrize("spin", SPINS, ids=lambda s: f"2j={s.twice_j}")
    def test_all_are_signed_permutations(self, row, spin):
        for op in (build_sigma(row, spin), build_r(row, spin), build_t(row, spin)):
            m = op.matrix
            assert np.array_equal(m.T @ m, np.eye(op.dim, dtype=np.int64))
            assert set(np.unique(m)).issubset({-1, 0, 1})


class TestCompose:
    def test_identity_law(self):
        x = build_r(RepRow.TWO, SpinLabel(2))
        assert compose(identity_like(x), x) == x

    def test_r_squared_row1_half_integer_is_minus_identity(self):
        r = build_r(RepRow.ONE, SpinLabel(1))
        sq = compose(r, r)
        assert not sq.antilinear
        assert np.array_equal(sq.matrix, -np.eye(2, dtype=np.int64))

    def test_sigma_after_r_gives_t(self):
        row, spin = RepRow.TWO, SpinLabel(0)
        assert compose(build_sigma(row, spin), build_r(row, spin)) == build_t(row, spin)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(build_r(RepRow.ONE, SpinLabel(0)), build_r(RepRow.ONE, SpinLabel(1)))

    @pytest.mark.parametrize("row", ALL_ROWS)
    def test_associativity_exact(self, row):
        spin = SpinLabel(2)
        ops = [build_sigma(row, spin), build_r(row, spin), build_t(row, spin)]
        for x in ops:
            for y in ops:
                for z in ops:
                    assert compose(compose(x, y), z) == compose(x, compose(y, z))


class TestApply:
    def test_identity(self):
        op = identity_like(build_c_matrix(SpinLabel(1)))
        v = np.array([1 + 2j, -3j])
        assert np.array_equal(apply_operator(op, v), v)

    def test_row1_j0_conjugates(self):
        r = build_r(RepRow.ONE, SpinLabel(0))
        assert np.array_equal(apply_operator(r, np.array([1j])), np.array([-1j]))

    def test_row3_j0_swap_and_conjugate(self):
        r = build_r(RepRow.THREE, SpinLabel(0))
        out = apply_operator(r, np.array([1 + 1j, 2 + 0j]))
        assert np.array_equal(out, np.array([2 + 0j, 1 - 1j]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_operator(build_c_matrix(SpinLabel(1)), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("row", ALL_ROWS)
    def test_apply_respects_compose_exactly_on_gaussian_integers(self, row):
        # signed permutation matrices move entries without arithmetic, so
        # composition and nested application agree exactly even in floats
        spin = SpinLabel(1)
        rng = np.random.default_rng(7)
        a, b = build_t(row, spin), build_r(row, spin)
        v = rng.integers(-5, 6, a.dim) + 1j * rng.integers(-5, 6, a.dim)
        assert np.array_equal(apply_operator(compose(a, b), v),
                              apply_operator(a, apply_operator(b, v)))

    @pytest.mark.parametrize("row", ALL_ROWS)
    def test_apply_respects_compose_on_floats(self, row):
        spin = SpinLabel(3)
        rng = np.random.default_rng(11)
        a, b = build_r(row, spin), build_sigma(row, spin)
        v = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
        lhs = apply_operator(compose(a, b), v)
        rhs = apply_operator(a, apply_operator(b, v))
        assert np.max(np.abs(lhs - rhs)) <= 1e-15 * np.max(np.abs(lhs))


class TestGroupRelations:
    @pytest.mark.parametrize("row", ALL_ROWS)
    @pytest.mark.parametrize("spin", SPINS, ids=lambda s: f"2j={s.twice_j}")
    def test_core_relations_exact(self, row, spin):
        rep = verify_group_relations(row, spin)
        assert rep.sigma_squared_is_identity
        assert rep.r_squared_matches_eps_r
        assert rep.t_squared_matches_eps_t
        assert rep.t_equals_sigma_r

    @pytest.mark.parametrize("row", ALL_ROWS)
    @pytest.mark.parametrize("spin", SPINS, ids=lambda s: f"2j={s.twice_j}")
    def test_commutation_sign_is_eps_product(self, row, spin):
        # R Sigma = (eps_r eps_t) Sigma R: literal equality iff eps_r = eps_t,
        # anticommutation for rows two and three (forced by T^2 = eps_t I)
        rep = verify_group_relations(row, spin)
        assert rep.commutation_sign == rep.eps_r * rep.eps_t
        assert rep.sigma_r_equals_r_sigma == (rep.eps_r == rep.eps_t)

    @pytest.mark.parametrize("row", ALL_ROWS)
    def test_report_carries_checked_operators(self, row):
        spin = SpinLabel(3)
        rep = verify_group_relations(row, spin)
        assert rep.sigma == build_sigma(row, spin)
        assert rep.r == build_r(row, spin)
        assert rep.t == build_t(row, spin)
        assert hash(rep) == hash(verify_group_relations(row, spin))

    def test_row1_j0(self):
        rep = verify_group_relations(RepRow.ONE, SpinLabel(0))
        assert (rep.eps_r, rep.eps_t) == (1, 1)
        assert rep.sigma_r_equals_r_sigma

    def test_row2_j_half(self):
        rep = verify_group_relations(RepRow.TWO, SpinLabel(1))
        assert (rep.eps_r, rep.eps_t) == (1, -1)

    def test_row4_j1(self):
        rep = verify_group_relations(RepRow.FOUR, SpinLabel(2))
        assert (rep.eps_r, rep.eps_t) == (-1, -1)

    @pytest.mark.parametrize("twice_j", [1, 3])
    def test_kramers_sign_row1(self, twice_j):
        r = build_r(RepRow.ONE, SpinLabel(twice_j))
        sq = compose(r, r)
        assert np.array_equal(sq.matrix, -np.eye(sq.dim, dtype=np.int64))


class TestValueSemantics:
    def test_spin_validation(self):
        with pytest.raises(ValueError):
            SpinLabel(-1)
        with pytest.raises(ValueError):
            SpinLabel(1.5)

    def test_matrices_are_read_only(self):
        op = build_r(RepRow.TWO, SpinLabel(1))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            SymmetryOperator(np.zeros((2, 3)), antilinear=False)
