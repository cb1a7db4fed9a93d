"""Exact dense linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Since p < 2^16,
products of two entries fit comfortably in int64 and all arithmetic is exact.
Big integers appear only in subspace counts (:func:`gaussian_binomial`).
"""

from __future__ import annotations

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


class PrimeField:
    """The field F_p for a prime 2 <= p < 2^16."""

    def __init__(self, p: int):
        p = int(p)
        if not (2 <= p < 2**16):
            raise LinalgError(f"modulus {p} out of range")
        if not is_prime(p):
            raise LinalgError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F({self.p})"

    def mat(self, data) -> np.ndarray:
        a = np.asarray(data, dtype=np.int64) % self.p
        if a.ndim != 2:
            raise LinalgError("expected a 2d array")
        return a

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a @ b) % self.p

    def inv_scalar(self, x: int) -> int:
        return pow(int(x) % self.p, self.p - 2, self.p)

    def lift_signed(self, a: np.ndarray) -> np.ndarray:
        """Integer lift with entries in (-p/2, p/2]."""
        a = np.asarray(a, dtype=np.int64) % self.p
        return np.where(a > self.p // 2, a - self.p, a)

    # -- elimination --------------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and pivot column list."""
        a = self.mat(m).copy()
        rows, cols = a.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            piv = None
            for i in range(r, rows):
                if a[i, c]:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                a[[r, piv]] = a[[piv, r]]
            a[r] = (a[r] * self.inv_scalar(a[r, c])) % self.p
            for i in range(rows):
                if i != r and a[i, c]:
                    a[i] = (a[i] - a[i, c] * a[r]) % self.p
            pivots.append(c)
            r += 1
        return a, pivots

    def rank(self, m: np.ndarray) -> int:
        return len(self.rref(m)[1])

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Columns form a basis of the right kernel of ``m``."""
        a, pivots = self.rref(m)
        rows, cols = a.shape
        free = [c for c in range(cols) if c not in pivots]
        basis = self.zeros(cols, len(free))
        for k, fc in enumerate(free):
            basis[fc, k] = 1
            for r, pc in enumerate(pivots):
                basis[pc, k] = (-a[r, fc]) % self.p
        return basis

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
        b = np.asarray(b, dtype=np.int64) % self.p
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
        dim = u.shape[0]
        red, pivots = self.rref(u.T)
        free = [c for c in range(dim) if c not in pivots]
        proj = self.zeros(len(free), dim)
        for k, fc in enumerate(free):
            proj[k, fc] = 1
            for r, pc in enumerate(pivots):
                proj[k, pc] = (-red[r, fc]) % self.p
        return proj

    def det(self, m: np.ndarray) -> int:
        """Determinant of a square matrix in F_p."""
        a = self.mat(m).copy()
        n, ncols = a.shape
        if n != ncols:
            raise LinalgError("determinant of a non-square matrix")
        det = 1
        for c in range(n):
            piv = None
            for i in range(c, n):
                if a[i, c]:
                    piv = i
                    break
            if piv is None:
                return 0
            if piv != c:
                a[[c, piv]] = a[[piv, c]]
                det = -det
            det = (det * a[c, c]) % self.p
            inv = self.inv_scalar(a[c, c])
            for i in range(c + 1, n):
                if a[i, c]:
                    a[i] = (a[i] - a[i, c] * inv * a[c]) % self.p
        return det % self.p

    # -- batched elimination (used by the point-counting DP) ----------------

    def batched_rank(self, mats: np.ndarray) -> np.ndarray:
        """Ranks of a (B, m, n) stack of matrices, vectorized over B."""
        a = (np.asarray(mats, dtype=np.int64) % self.p).copy()
        if a.ndim != 3:
            raise LinalgError("expected a 3d stack")
        bsz, rows, cols = a.shape
        if bsz == 0:
            return np.zeros(0, dtype=np.int64)
        r = np.zeros(bsz, dtype=np.int64)  # current pivot row per matrix
        idx = np.arange(bsz)
        inv_table = np.array([0] + [pow(x, self.p - 2, self.p) for x in range(1, self.p)],
                             dtype=np.int64)
        for c in range(cols):
            col = a[:, :, c]
            rowpos = np.arange(rows)[None, :]
            eligible = (rowpos >= r[:, None]) & (col != 0)
            has = eligible.any(axis=1)
            if not has.any():
                continue
            piv = np.where(eligible, rowpos, rows).min(axis=1)
            sel = has
            bi = idx[sel]
            pr = piv[sel]
            rr = r[sel]
            # swap pivot row into position rr
            tmp = a[bi, pr].copy()
            a[bi, pr] = a[bi, rr]
            a[bi, rr] = tmp
            # scale pivot row to 1
            inv = inv_table[a[bi, rr, c]]
            a[bi, rr] = (a[bi, rr] * inv[:, None]) % self.p
            # eliminate below
            factors = a[bi, :, c].copy()
            factors[np.arange(len(bi)), rr] = 0
            below = (np.arange(rows)[None, :] > rr[:, None])
            factors = np.where(below, factors, 0)
            a[bi] = (a[bi] - factors[:, :, None] * a[bi, rr][:, None, :]) % self.p
            r[sel] += 1
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
