import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivergrass.linalg import LinalgError, PrimeField, gaussian_binomial, is_prime


def random_matrix(rng, f, rows, cols):
    return f.mat(rng.integers(0, f.p, size=(rows, cols)))


def test_is_prime_small_oracle():
    def slow(n):
        return n >= 2 and all(n % k for k in range(2, n))
    for n in range(200):
        assert is_prime(n) == slow(n)


def test_field_construction_guards():
    with pytest.raises(LinalgError):
        PrimeField(6)
    with pytest.raises(LinalgError):
        PrimeField(1 << 17)
    assert PrimeField(2).p == 2


def test_inv_scalar():
    f = PrimeField(107)
    for x in range(1, 107):
        assert (x * f.inv_scalar(x)) % 107 == 1


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_rref_idempotent_and_rank(seed):
    rng = np.random.default_rng(seed)
    f = PrimeField(int(rng.choice([2, 3, 5, 107])))
    m = random_matrix(rng, f, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
    r, pivots = f.rref(m)
    r2, pivots2 = f.rref(r)
    assert np.array_equal(r, r2) and pivots == pivots2
    assert f.rank(m) == len(pivots)
    # pivot columns of the rref carry the identity
    for k, c in enumerate(pivots):
        col = r[:, c]
        assert col[k] == 1 and col.sum() == 1


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_rank_nullity(seed):
    rng = np.random.default_rng(seed)
    f = PrimeField(int(rng.choice([2, 3, 107])))
    m = random_matrix(rng, f, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
    ker = f.kernel_basis(m)
    img = f.image_basis(m)
    assert ker.shape[1] + img.shape[1] == m.shape[1]
    if ker.size:
        assert not f.mul(m, ker).any()


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_solve_consistency(seed):
    rng = np.random.default_rng(seed)
    f = PrimeField(int(rng.choice([2, 5, 107])))
    a = random_matrix(rng, f, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    x = random_matrix(rng, f, a.shape[1], 1)
    b = f.mul(a, x)
    sol = f.solve(a, b)
    assert sol is not None
    assert np.array_equal(f.mul(a, sol), b)


def test_solve_infeasible():
    f = PrimeField(3)
    a = f.mat([[1, 0], [0, 0]])
    b = f.mat([[0], [1]])
    assert f.solve(a, b) is None


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_det_multiplicative(seed):
    rng = np.random.default_rng(seed)
    f = PrimeField(int(rng.choice([2, 3, 101])))
    n = int(rng.integers(1, 6))
    a = random_matrix(rng, f, n, n)
    b = random_matrix(rng, f, n, n)
    assert f.det(f.mul(a, b)) == (f.det(a) * f.det(b)) % f.p
    assert (f.det(a) != 0) == (f.rank(a) == n)


def test_det_row_swaps_and_singular():
    f = PrimeField(7)
    assert f.det([[0, 1], [1, 0]]) == 6  # one swap: -1
    assert f.det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == (-30) % 7
    assert f.det([[1, 2], [2, 4]]) == 0
    assert f.det(f.zeros(0, 0)) == 1
    with pytest.raises(LinalgError):
        f.det(f.zeros(2, 3))


def test_det_leibniz_3x3():
    f = PrimeField(107)
    rng = np.random.default_rng(7)
    m = random_matrix(rng, f, 3, 3)
    lifted = m.astype(object)
    exact = round(float(np.linalg.det(m.astype(float))))
    # 3x3 determinant via the rule of Sarrus on exact integers
    a, b, c = lifted[0]
    d, e, g = lifted[1]
    h, i, j = lifted[2]
    sarrus = a * e * j + b * g * h + c * d * i - c * e * h - b * d * j - a * g * i
    assert f.det(m) == sarrus % f.p == exact % f.p


def test_quotient_projection_kills_subspace():
    f = PrimeField(5)
    u = f.mat([[1, 0], [2, 0], [0, 1]])  # columns span a plane in F_5^3
    proj = f.quotient_projection(u)
    assert proj.shape == (1, 3)
    assert not f.mul(proj, u).any()


@given(st.integers(0, 200))
@settings(max_examples=15, deadline=None)
def test_batched_rank_agrees(seed):
    rng = np.random.default_rng(seed)
    f = PrimeField(int(rng.choice([2, 3, 107])))
    mats = rng.integers(0, f.p, size=(6, 4, 5))
    ranks = f.batched_rank(mats)
    assert list(ranks) == [f.rank(f.mat(m)) for m in mats]


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 7) == 1
    with pytest.raises(LinalgError):
        gaussian_binomial(3, 4, 2)


@given(st.integers(1, 8), st.integers(0, 8), st.integers(2, 9))
def test_gaussian_binomial_symmetry(n, k, q):
    if k <= n:
        assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


@given(st.integers(2, 8), st.integers(1, 7), st.integers(2, 9))
def test_gaussian_binomial_pascal(n, k, q):
    if k <= n - 1:
        lhs = gaussian_binomial(n, k, q)
        rhs = gaussian_binomial(n - 1, k - 1, q) + q ** k * gaussian_binomial(n - 1, k, q)
        assert lhs == rhs


def test_field_inversion_stays_in_linalg():
    """Every module but linalg takes inverses from its PrimeField, so no
    other module calls the three-argument pow."""
    src = Path(__file__).resolve().parent.parent / "src" / "quivergrass"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "pow" and len(node.args) == 3):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_inverse_table_shared_per_prime():
    f, g = PrimeField(101), PrimeField(101)
    assert f.inverses is g.inverses
    assert not f.inverses.flags.writeable
    assert (np.arange(1, 101) * f.inverses[1:] % 101 == 1).all()
