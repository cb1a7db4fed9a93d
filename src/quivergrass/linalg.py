"""Exact dense linear algebra over prime fields F_p.

:class:`PrimeField` is the one arithmetic boundary: it decides how elements
are stored (the ``dtype`` of bulk element arrays, the ``dot_dtype`` of
accumulated products), reduces arrays mod p and inverts through one table
per prime.  Matrices are numpy int64 arrays with entries reduced mod p;
since p < 2^16, products of two entries fit in int64 and all arithmetic is
exact.  Big integers appear only in subspace counts (:func:`gaussian_binomial`).
"""

from __future__ import annotations

import functools

import numpy as np


class LinalgError(ValueError):
    pass


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@functools.lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    table = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    table.flags.writeable = False
    return table


class PrimeField:
    """The field F_p for a prime 2 <= p < 2^16."""

    def __init__(self, p: int):
        p = int(p)
        if not (2 <= p < 2**16):
            raise LinalgError(f"modulus {p} out of range")
        if not is_prime(p):
            raise LinalgError(f"modulus {p} is not prime")
        self.p = p
        # smallest signed integer type holding every element
        self.dtype = np.int8 if p < 2**7 else np.int16 if p < 2**15 else np.int32
        # read-only, one per prime: inverses[x] * x == 1 for x != 0, inverses[0] == 0
        self.inverses = _inverse_table(p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F({self.p})"

    def dot_dtype(self, terms: int):
        """Integer type holding an element minus a sum of ``terms`` products
        of two elements, so that one reduction after the sum is exact."""
        return np.int32 if (terms + 1) * (self.p - 1) ** 2 < 2**31 else np.int64

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Entries mod p (same integer type)."""
        return a % self.p

    def mat(self, data) -> np.ndarray:
        a = self.reduce(np.asarray(data, dtype=np.int64))
        if a.ndim != 2:
            raise LinalgError("expected a 2d array")
        return a

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(a @ b)

    def inv_scalar(self, x: int) -> int:
        return int(self.inverses[int(x) % self.p])

    def lift_signed(self, a: np.ndarray) -> np.ndarray:
        """Integer lift with entries in (-p/2, p/2]."""
        a = self.reduce(np.asarray(a, dtype=np.int64))
        return np.where(a > self.p // 2, a - self.p, a)

    # -- elimination --------------------------------------------------------

    def _eliminate(self, m: np.ndarray) -> tuple[np.ndarray, list[int], int]:
        """Gauss-Jordan elimination: rref, pivot columns and the product of
        the pivots met, negated once per row swap (the determinant of a
        square ``m`` of full rank)."""
        a = self.mat(m)
        rows, cols = a.shape
        pivots: list[int] = []
        det = 1
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nonzero = np.flatnonzero(a[r:, c])
            if not nonzero.size:
                continue
            if nonzero[0]:
                piv = r + int(nonzero[0])
                a[[r, piv]] = a[[piv, r]]
                det = -det
            det = det * int(a[r, c]) % self.p
            a[r] = self.reduce(a[r] * self.inv_scalar(a[r, c]))
            factors = a[:, c].copy()
            factors[r] = 0
            a = self.reduce(a - np.outer(factors, a[r]))
            pivots.append(c)
            r += 1
        return a, pivots, det

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and pivot column list."""
        a, pivots, _ = self._eliminate(m)
        return a, pivots

    def rank(self, m: np.ndarray) -> int:
        return len(self.rref(m)[1])

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns form a basis of the right kernel of ``m``."""
        a, pivots = self.rref(m)
        free = [c for c in range(a.shape[1]) if c not in pivots]
        return self._free_solutions(a, pivots, free).T

    def image_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns form a basis of the column span of ``m``."""
        a = self.mat(m)
        _, pivots = self.rref(a)
        # pivot columns of rref(m) index an independent subset of m's columns
        return a[:, pivots] if pivots else self.zeros(a.shape[0], 0)

    def solve(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """One solution x of a @ x = b, or None if inconsistent.

        ``b`` may be a vector or a matrix of stacked right-hand columns.
        """
        a = self.mat(a)
        b = self.reduce(np.asarray(b, dtype=np.int64))
        vec = b.ndim == 1
        if vec:
            b = b.reshape(-1, 1)
        if b.shape[0] != a.shape[0]:
            raise LinalgError("right-hand side has wrong length")
        aug = np.concatenate([a, b], axis=1)
        red, pivots = self.rref(aug)
        ncols = a.shape[1]
        if any(pc >= ncols for pc in pivots):
            return None
        x = self.zeros(ncols, b.shape[1])
        for r, pc in enumerate(pivots):
            x[pc] = red[r, ncols:]
        return x[:, 0] if vec else x

    def quotient_projection(self, u: np.ndarray) -> np.ndarray:
        """Projection V -> V/U in the complement-coordinate model.

        Complement coordinates are the non-pivot positions of rref(U^T);
        the projection kills U and is the identity on those coordinates.
        """
        u = self.mat(u)
        red, pivots = self.rref(u.T)
        free = [c for c in range(u.shape[0]) if c not in pivots]
        return self._free_solutions(red, pivots, free)

    def _free_solutions(self, red: np.ndarray, pivots: list[int], free: list[int]) -> np.ndarray:
        """Row k: the solution of rref ``red`` with free coordinate free[k]
        set to 1 and the other free coordinates 0."""
        out = self.zeros(len(free), red.shape[1])
        for k, fc in enumerate(free):
            out[k, fc] = 1
            for r, pc in enumerate(pivots):
                out[k, pc] = (-red[r, fc]) % self.p
        return out

    def det(self, m: np.ndarray) -> int:
        """Determinant of a square matrix in F_p."""
        a = self.mat(m)
        if a.shape[0] != a.shape[1]:
            raise LinalgError("determinant of a non-square matrix")
        _, pivots, det = self._eliminate(a)
        return det if len(pivots) == a.shape[0] else 0

    # -- batched elimination (used by the point-counting DP) ----------------

    def batched_rank(self, mats: np.ndarray) -> np.ndarray:
        """Ranks of a (B, m, n) stack of integer matrices (reduced here),
        vectorized over B."""
        a = self.reduce(np.asarray(mats, dtype=np.int64))
        if a.ndim != 3:
            raise LinalgError("expected a 3d stack")
        bsz, rows, cols = a.shape
        if bsz == 0:
            return np.zeros(0, dtype=np.int64)
        r = np.zeros(bsz, dtype=np.int64)  # current pivot row per matrix
        idx = np.arange(bsz)
        rowpos = np.arange(rows)[None, :]
        for c in range(cols):
            eligible = (rowpos >= r[:, None]) & (a[:, :, c] != 0)
            has = eligible.any(axis=1)
            if not has.any():
                continue
            piv = np.where(eligible, rowpos, rows).min(axis=1)
            bi, pr, rr = idx[has], piv[has], r[has]
            # swap pivot row into position rr (the right side is a copy)
            a[bi, pr], a[bi, rr] = a[bi, rr], a[bi, pr]
            # scale pivot row to 1
            inv = self.inverses[a[bi, rr, c]]
            a[bi, rr] = self.reduce(a[bi, rr] * inv[:, None])
            # eliminate below
            factors = np.where(rowpos > rr[:, None], a[bi, :, c], 0)
            a[bi] = self.reduce(a[bi] - factors[:, :, None] * a[bi, rr][:, None, :])
            r[has] += 1
        return r


def gaussian_binomial(n: int, k: int, q: int):
    """Number of k-dimensional subspaces of F_q^n, as an exact big integer."""
    n, k, q = int(n), int(k), int(q)
    if not (0 <= k <= n):
        raise LinalgError(f"gaussian binomial out of range: ({n}, {k})")
    if q < 2:
        raise LinalgError("q must be at least 2")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den
