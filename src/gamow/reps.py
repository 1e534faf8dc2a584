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
* row one is Sigma = I, R = T = C; the doubled rows are Sigma = diag(I, s_sigma I),
  R = [[0, C], [s_r C, 0]] and T = [[0, C], [s_t C, 0]], with (s_sigma, s_r, s_t)
  = (-1, -1, +1), (-1, +1, -1) and (+1, -1, -1) in rows two, three and four;
* an antilinear operator acts as v -> M @ conj(v); composing a after b
  multiplies a's matrix by conj(b's matrix) when a is antilinear.

Every operator has exactly one nonzero entry, +1 or -1, per row and column,
so it is held as a signed permutation (row i has signs[i] in column cols[i]).
The entries are real, so conjugation changes no product, and a product is an
index lookup: every group relation is checked exactly, in O(d) for carrier
dimension d, and the dense matrix is built only when asked for.  One relation
is sign-sensitive: when eps_t = -eps_r (rows two and three) the operators R
and Sigma anticommute, R Sigma = -Sigma R, which is forced by T^2 = Sigma R
Sigma R = (R Sigma = s Sigma R) = s eps_r I.  The commutation sign
s = eps_r * eps_t is reported alongside the exact-equality flag.

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
    """A signed permutation with an antilinearity flag: row i of its matrix has signs[i]
    (+1 or -1) in column cols[i], a permutation of 0..d-1, so it acts as
    ``v -> signs * v[cols]``, conjugating v first when antilinear.  Both are read-only int64.
    """

    cols: np.ndarray
    signs: np.ndarray
    antilinear: bool

    def __post_init__(self):
        cols, signs = np.asarray(self.cols), np.asarray(self.signs)
        if cols.ndim != 1 or signs.shape != cols.shape:
            raise ValueError(f"cols and signs must be 1-d of one length: {cols.shape}, {signs.shape}")
        if not (np.issubdtype(cols.dtype, np.integer) and cols.min(initial=0) >= 0
                and np.all(np.bincount(cols, minlength=cols.size) == 1)):
            raise ValueError("cols must be a permutation of 0..d-1")
        if not np.all((signs == 1) | (signs == -1)):
            raise ValueError("signs must be +1 or -1")
        for name, value in (("cols", cols), ("signs", signs)):
            object.__setattr__(self, name, value.astype(np.int64))
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return self.cols.size

    @property
    def matrix(self) -> np.ndarray:
        """The dense d x d int64 matrix, built on each access (read-only)."""
        m = np.zeros((self.dim, self.dim), dtype=np.int64)
        m[np.arange(self.dim), self.cols] = self.signs
        m.setflags(write=False)
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetryOperator):
            return NotImplemented
        return (self.antilinear == other.antilinear and bool(np.array_equal(self.cols, other.cols))
                and bool(np.array_equal(self.signs, other.signs)))


def build_c_matrix(spin: SpinLabel) -> SymmetryOperator:
    """Anti-diagonal conjugation matrix C (the linear part of row-one R).

    Entries C[j - mu, j + mu] = (-1)^{j + mu}; with the basis ordered
    mu = j ... -j this is an anti-diagonal of alternating signs starting
    with +1 in the lower-left corner.  C @ C = (-1)^{2j} I.
    """
    # row index i corresponds to mu = j - i, hence j + mu = 2j - i
    i = np.arange(spin.dim)
    return SymmetryOperator(i[::-1], 1 - 2 * ((spin.twice_j - i) % 2), antilinear=False)


def build_sigma(row: RepRow, spin: SpinLabel) -> SymmetryOperator:
    """Parity operator Sigma for the given row; linear, Sigma^2 = I.

    I in row one; diag(I, s I) on the doubled space, s = eps_r eps_t.
    """
    blocks = [1, row.eps_r(spin) * row.eps_t(spin)][:1 if row is RepRow.ONE else 2]
    return SymmetryOperator(np.arange(len(blocks) * spin.dim), np.repeat(blocks, spin.dim),
                            antilinear=False)


def _inversion(row: RepRow, spin: SpinLabel, eps: int) -> SymmetryOperator:
    """Antilinear C in row one; [[0, C], [s C, 0]] on the doubled space, with
    s = eps (-1)^{2j} so that its square is eps I."""
    c = build_c_matrix(spin)
    if row is RepRow.ONE:
        return SymmetryOperator(c.cols, c.signs, antilinear=True)
    lower = eps * spin.parity_sign
    return SymmetryOperator(np.concatenate([c.cols + spin.dim, c.cols]),
                            np.concatenate([c.signs, lower * c.signs]), antilinear=True)


def build_r(row: RepRow, spin: SpinLabel) -> SymmetryOperator:
    """Time inversion R for the given row; antilinear, R^2 = eps_r I."""
    return _inversion(row, spin, row.eps_r(spin))


def build_t(row: RepRow, spin: SpinLabel) -> SymmetryOperator:
    """Total inversion T for the given row; antilinear, equals Sigma after R."""
    return _inversion(row, spin, row.eps_t(spin))


def compose(a: SymmetryOperator, b: SymmetryOperator) -> SymmetryOperator:
    """Operator product a b ("apply b first"), with the antilinear twist.

    Row i of a b is signs_a[i] times row cols_a[i] of b.  When a is antilinear
    it conjugates b's entries, which are real, so the product is the same
    signed permutation either way; it is antilinear exactly when the flags differ.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return SymmetryOperator(b.cols[a.cols], a.signs * b.signs[a.cols],
                            antilinear=a.antilinear != b.antilinear)


def apply_operator(op: SymmetryOperator, v) -> np.ndarray:
    """Apply op to a complex vector: signs * v[cols], conjugating v first if antilinear."""
    vec = np.asarray(v)
    if vec.shape != (op.dim,):
        raise ValueError(f"vector shape {vec.shape} does not match operator dimension {op.dim}")
    return op.signs * (np.conj(vec) if op.antilinear else vec)[op.cols]


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


def _is_scaled_identity(op: SymmetryOperator, factor: int) -> bool:
    return (not op.antilinear and bool(np.array_equal(op.cols, np.arange(op.dim)))
            and bool(np.all(op.signs == factor)))


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

    sigma_r = compose(sigma, r)
    r_sigma = compose(r, sigma)
    minus_sigma_r = SymmetryOperator(sigma_r.cols, -sigma_r.signs, sigma_r.antilinear)
    comm = 1 if r_sigma == sigma_r else -1 if r_sigma == minus_sigma_r else 0

    return RelationReport(
        row=row,
        spin=spin,
        eps_r=eps_r,
        eps_t=eps_t,
        sigma_squared_is_identity=_is_scaled_identity(compose(sigma, sigma), 1),
        r_squared_matches_eps_r=_is_scaled_identity(compose(r, r), eps_r),
        t_squared_matches_eps_t=_is_scaled_identity(compose(t, t), eps_t),
        t_equals_sigma_r=sigma_r == t,
        sigma_r_equals_r_sigma=sigma_r == r_sigma,
        commutation_sign=comm,
        sigma=sigma,
        r=r,
        t=t,
    )
