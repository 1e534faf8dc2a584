"""Co-representations of the Galilei spacetime group extended by inversions.

The extension of the spatial parity operator ``Sigma``, the time inversion
``R`` and the total inversion ``T = Sigma R`` to a spin-j carrier space admits
four inequivalent sign classes, distinguished by the pair

    R^2 = eps_r * I,    T^2 = eps_t * I,    eps_r, eps_t in {+1, -1},

with eps_r = eps_t = (-1)^{2j} for the familiar row-one class and the three
remaining sign patterns realized on a doubled carrier space (block matrices,
blocks of size 2j+1).  ``R`` and ``T`` are antilinear; ``Sigma`` is linear.

Conventions used throughout:

* spin basis ordered mu = j, j-1, ..., -j;
* the conjugation matrix ``C`` has entries c[mu, nu] = (-1)^{j+mu} for
  nu = -mu and zero otherwise (anti-diagonal), so that C @ C = (-1)^{2j} I;
* an antilinear operator is stored as a plain matrix plus a flag, acting as
  v -> M @ conj(v); composing a after b multiplies a.matrix by conj(b.matrix)
  when a is antilinear.

All matrices built here have integer entries in {-1, 0, +1} and exactly one
nonzero entry per row and column, so every group relation can be tested with
exact integer arithmetic.  One relation is sign-sensitive: when eps_t = -eps_r
(rows two and three) the operators R and Sigma anticommute, R Sigma =
-Sigma R, which is forced by T^2 = Sigma R Sigma R = (R Sigma = s Sigma R)
= s eps_r I.  The commutation sign s = eps_r * eps_t is reported alongside
the exact-equality flag.

Everything in this module is an immutable value; instances are safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "SpinLabel",
    "RepRow",
    "SymmetryOperator",
    "RelationReport",
    "build_c_matrix",
    "build_sigma",
    "build_r",
    "build_t",
    "compose",
    "apply_operator",
    "verify_group_relations",
]


@dataclass(frozen=True)
class SpinLabel:
    """Spin j stored as the integer 2j (so half-integers stay exact)."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, (int, np.integer)) or isinstance(self.twice_j, bool):
            raise ValueError(f"twice_j must be an integer, got {self.twice_j!r}")
        if self.twice_j < 0:
            raise ValueError(f"twice_j must be nonnegative, got {self.twice_j}")

    @property
    def j(self) -> float:
        return self.twice_j / 2

    @property
    def dim(self) -> int:
        """Dimension of the spin space, 2j + 1."""
        return self.twice_j + 1

    @property
    def parity_sign(self) -> int:
        """(-1)^{2j}: +1 for integer spin, -1 for half-integer spin."""
        return -1 if self.twice_j % 2 else 1


class RepRow(Enum):
    """The four sign classes, in the conventional table order."""

    ONE = 1
    TWO = 2
    THREE = 3
    FOUR = 4

    def eps_r(self, spin: SpinLabel) -> int:
        s = spin.parity_sign
        return s if self in (RepRow.ONE, RepRow.THREE) else -s

    def eps_t(self, spin: SpinLabel) -> int:
        s = spin.parity_sign
        return s if self in (RepRow.ONE, RepRow.TWO) else -s


@dataclass(frozen=True)
class SymmetryOperator:
    """A finite matrix together with an antilinearity flag.

    Antilinear operators conjugate their argument before the matrix acts:
    ``v -> matrix @ conj(v)``.  The matrix itself is stored unconjugated.
    """

    matrix: np.ndarray
    antilinear: bool

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetryOperator):
            return NotImplemented
        return (
            self.antilinear == other.antilinear
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )


def build_c_matrix(spin: SpinLabel) -> SymmetryOperator:
    """Anti-diagonal conjugation matrix C (the linear part of row-one R).

    Entries C[j - mu, j + mu] = (-1)^{j + mu}; with the basis ordered
    mu = j ... -j this is an anti-diagonal of alternating signs starting
    with +1 in the lower-left corner.  C @ C = (-1)^{2j} I.
    """
    n = spin.dim
    c = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        # row index i corresponds to mu = j - i, hence j + mu = 2j - i
        c[i, n - 1 - i] = -1 if (spin.twice_j - i) % 2 else 1
    return SymmetryOperator(c, antilinear=False)


def _off_diagonal_block(c: np.ndarray, lower_sign: int) -> np.ndarray:
    n = c.shape[0]
    z = np.zeros((n, n), dtype=np.int64)
    return np.block([[z, c], [lower_sign * c, z]])


def build_sigma(row: RepRow, spin: SpinLabel) -> SymmetryOperator:
    """Parity operator Sigma for the given row; linear, Sigma^2 = I."""
    n = spin.dim
    eye = np.eye(n, dtype=np.int64)
    if row is RepRow.ONE:
        return SymmetryOperator(eye, antilinear=False)
    if row in (RepRow.TWO, RepRow.THREE):
        z = np.zeros((n, n), dtype=np.int64)
        return SymmetryOperator(np.block([[eye, z], [z, -eye]]), antilinear=False)
    return SymmetryOperator(np.eye(2 * n, dtype=np.int64), antilinear=False)


def build_r(row: RepRow, spin: SpinLabel) -> SymmetryOperator:
    """Time inversion R for the given row; antilinear, R^2 = eps_r I."""
    c = build_c_matrix(spin).matrix
    if row is RepRow.ONE:
        return SymmetryOperator(c, antilinear=True)
    sign = 1 if row is RepRow.THREE else -1
    return SymmetryOperator(_off_diagonal_block(c, sign), antilinear=True)


def build_t(row: RepRow, spin: SpinLabel) -> SymmetryOperator:
    """Total inversion T for the given row; antilinear, equals Sigma after R."""
    c = build_c_matrix(spin).matrix
    if row is RepRow.ONE:
        return SymmetryOperator(c, antilinear=True)
    sign = 1 if row is RepRow.TWO else -1
    return SymmetryOperator(_off_diagonal_block(c, sign), antilinear=True)


def compose(a: SymmetryOperator, b: SymmetryOperator) -> SymmetryOperator:
    """Operator product a b ("apply b first"), with the antilinear twist.

    When a is antilinear it conjugates everything to its right, so the
    matrix of the product is a.matrix @ conj(b.matrix); the product is
    antilinear exactly when the flags differ.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    bm = np.conj(b.matrix) if a.antilinear else b.matrix
    return SymmetryOperator(a.matrix @ bm, antilinear=a.antilinear != b.antilinear)


def apply_operator(op: SymmetryOperator, v) -> np.ndarray:
    """Apply op to a complex vector: matrix @ v, conjugating v first if antilinear."""
    vec = np.asarray(v)
    if vec.shape != (op.dim,):
        raise ValueError(f"vector shape {vec.shape} does not match operator dimension {op.dim}")
    return op.matrix @ (np.conj(vec) if op.antilinear else vec)


@dataclass(frozen=True)
class RelationReport:
    """Exact (integer-arithmetic) check of the group relations for one row.

    sigma, r and t are the operators checked; being fixed by row and spin, they
    take no part in equality or hashing.
    """

    row: RepRow
    spin: SpinLabel
    eps_r: int
    eps_t: int
    sigma_squared_is_identity: bool
    r_squared_matches_eps_r: bool
    t_squared_matches_eps_t: bool
    t_equals_sigma_r: bool
    sigma_r_equals_r_sigma: bool
    commutation_sign: int
    """Sign s with R Sigma = s Sigma R; equals eps_r * eps_t for all four rows."""
    sigma: SymmetryOperator = field(compare=False)
    r: SymmetryOperator = field(compare=False)
    t: SymmetryOperator = field(compare=False)

    def as_dict(self) -> dict:
        return {
            "row": self.row.value,
            "twice_j": self.spin.twice_j,
            "eps_r": self.eps_r,
            "eps_t": self.eps_t,
            "sigma_squared_is_identity": self.sigma_squared_is_identity,
            "r_squared_matches_eps_r": self.r_squared_matches_eps_r,
            "t_squared_matches_eps_t": self.t_squared_matches_eps_t,
            "t_equals_sigma_r": self.t_equals_sigma_r,
            "sigma_r_equals_r_sigma": self.sigma_r_equals_r_sigma,
            "commutation_sign": self.commutation_sign,
        }


def _is_scaled_identity(m: np.ndarray, factor: int) -> bool:
    return bool(np.array_equal(m, factor * np.eye(m.shape[0], dtype=m.dtype)))


def verify_group_relations(row: RepRow, spin: SpinLabel) -> RelationReport:
    """Build Sigma, R, T for (row, spin), check every defining relation, and
    return the operators with the report.

    ``sigma_r_equals_r_sigma`` records literal matrix equality of the two
    orderings; when eps_t = -eps_r that equality is impossible (the operators
    anticommute) and the field is False while ``commutation_sign`` is -1.
    """
    sigma = build_sigma(row, spin)
    r = build_r(row, spin)
    t = build_t(row, spin)
    eps_r = row.eps_r(spin)
    eps_t = row.eps_t(spin)

    sigma_sq = compose(sigma, sigma)
    r_sq = compose(r, r)
    t_sq = compose(t, t)
    sigma_r = compose(sigma, r)
    r_sigma = compose(r, sigma)

    if np.array_equal(r_sigma.matrix, sigma_r.matrix):
        comm = 1
    elif np.array_equal(r_sigma.matrix, -sigma_r.matrix):
        comm = -1
    else:
        comm = 0

    return RelationReport(
        row=row,
        spin=spin,
        eps_r=eps_r,
        eps_t=eps_t,
        sigma_squared_is_identity=_is_scaled_identity(sigma_sq.matrix, 1)
        and not sigma_sq.antilinear,
        r_squared_matches_eps_r=_is_scaled_identity(r_sq.matrix, eps_r) and not r_sq.antilinear,
        t_squared_matches_eps_t=_is_scaled_identity(t_sq.matrix, eps_t) and not t_sq.antilinear,
        t_equals_sigma_r=sigma_r == t,
        sigma_r_equals_r_sigma=sigma_r == r_sigma,
        commutation_sign=comm,
        sigma=sigma,
        r=r,
        t=t,
    )
