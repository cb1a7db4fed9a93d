import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivergrass.catalog import Isoclass, get_catalog
from quivergrass.linalg import PrimeField
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass import reps

F = PrimeField(107)


def random_rep(quiver, rng, max_dim=3, field=F):
    dims = [int(rng.integers(0, max_dim + 1)) for _ in range(quiver.n)]
    if sum(dims) == 0:
        dims[0] = 1
    maps = []
    for a in range(len(quiver.arrows)):
        s, t = quiver.source(a), quiver.target(a)
        maps.append(field.mat(rng.integers(0, field.p, size=(dims[t], dims[s]))))
    return reps.Representation(quiver, field, dims, maps)


def test_projective_injective_dims_a3():
    q = linear_quiver(3, ">>")  # 1 -> 2 -> 3
    assert reps.projective(q, F, 0).dims == (1, 1, 1)
    assert reps.projective(q, F, 2).dims == (0, 0, 1)
    assert reps.injective(q, F, 0).dims == (1, 0, 0)
    assert reps.injective(q, F, 2).dims == (1, 1, 1)


def test_projective_injective_dims_d4():
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
    c = q.index(2)
    assert reps.projective(q, F, c).dims == (0, 1, 0, 0)
    assert reps.injective(q, F, c).dims == (1, 1, 1, 1)
    assert reps.projective(q, F, q.index(1)).dims == (1, 1, 0, 0)


def test_hom_ext_simples_on_arrow():
    q = linear_quiver(2)  # 1 -> 2
    s1 = reps.simple(q, F, 0)
    s2 = reps.simple(q, F, 1)
    assert reps.hom_dim(s1, s2) == 0
    assert reps.ext1_dim(s1, s2) == 1
    assert reps.ext1_dim(s2, s1) == 0
    assert reps.hom_dim(s1, s1) == 1


@pytest.mark.parametrize("quiver", [
    linear_quiver(3, ">>"),
    zigzag_quiver(3),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),
])
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_hom_minus_ext_is_euler(quiver, seed):
    rng = np.random.default_rng(seed)
    m = random_rep(quiver, rng)
    n = random_rep(quiver, rng)
    lhs = reps.hom_dim(m, n) - reps.ext1_dim(m, n)
    assert lhs == quiver.euler_form(m.dims, n.dims)


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_hom_from_projective_reads_dimension(seed):
    q = zigzag_quiver(3)
    rng = np.random.default_rng(seed)
    m = random_rep(q, rng)
    for v in range(q.n):
        assert reps.hom_dim(reps.projective(q, F, v), m) == m.dims[v]
        assert reps.hom_dim(m, reps.injective(q, F, v)) == m.dims[v]


def test_direct_sum_additivity():
    q = zigzag_quiver(3)
    rng = np.random.default_rng(11)
    a, b, c = (random_rep(q, rng) for _ in range(3))
    assert reps.hom_dim(reps.direct_sum(a, b), c) == \
        reps.hom_dim(a, c) + reps.hom_dim(b, c)
    assert reps.hom_dim(c, reps.direct_sum(a, b)) == \
        reps.hom_dim(c, a) + reps.hom_dim(c, b)


def naive_direct_sum(parts):
    """The block-diagonal sum built through the checking constructor."""
    q, field = parts[0].quiver, parts[0].field
    dims = [sum(r.dims[i] for r in parts) for i in range(q.n)]
    maps = []
    for a, (s, t) in enumerate(q.arrows):
        m = np.zeros((dims[t], dims[s]), dtype=np.int64)
        ro = co = 0
        for r in parts:
            for i in range(r.dims[t]):
                for j in range(r.dims[s]):
                    m[ro + i, co + j] = r.maps[a][i, j]
            ro += r.dims[t]
            co += r.dims[s]
        maps.append(m)
    return reps.Representation(q, field, dims, maps)


@pytest.mark.parametrize("p", [2, 3, 107])
def test_direct_sum_equals_a_naive_block_diagonal_build(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    for q in (zigzag_quiver(3), Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])):
        for k in (1, 2, 4):
            # max_dim 2 leaves some vertices at 0: empty blocks are skipped
            parts = [random_rep(q, rng, max_dim=2, field=field) for _ in range(k)]
            got, want = reps.direct_sum(*parts), naive_direct_sum(parts)
            assert got.dims == want.dims and type(got.dims) is tuple
            assert got.field == field and got.quiver == q and got.isoclass is None
            for a, b in zip(got.maps, want.maps):
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)


def test_direct_sum_does_not_alias_the_catalog_models():
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)])
    cat = get_catalog(q, 3)
    before = {lab: [m.copy() for m in x.maps] for lab, x in cat.models.items()}
    for label in cat.labels:
        for iso in (Isoclass({label: 1}), Isoclass({label: 2, cat.labels[0]: 1})):
            rep = cat.realize(iso)
            for m in rep.maps:
                m += 1
    for label, x in cat.models.items():
        assert all(np.array_equal(a, b) for a, b in zip(x.maps, before[label]))


def test_direct_sum_refuses_a_mismatch_and_realizes_the_empty_isoclass():
    q = zigzag_quiver(3)
    a = reps.simple(q, F, 0)
    with pytest.raises(reps.RepError, match="mismatched"):
        reps.direct_sum(a, reps.simple(linear_quiver(3), F, 0))
    with pytest.raises(reps.RepError, match="mismatched"):
        reps.direct_sum(a, reps.simple(q, PrimeField(3), 0))
    with pytest.raises(reps.RepError, match="empty direct sum"):
        reps.direct_sum()
    empty = get_catalog(q, 107).realize(Isoclass({}))
    zero = reps.zero_rep(q, F)
    assert empty.dims == zero.dims == (0, 0, 0)
    assert [m.shape for m in empty.maps] == [m.shape for m in zero.maps] == [(0, 0)] * 2
    assert empty.isoclass == Isoclass({})


def test_indecomposables_are_bricks():
    q = linear_quiver(2)
    u12 = reps.projective(q, F, 0)
    assert reps.end_dim(u12) == 1
    assert reps.is_rigid(u12)


# the quivers of tests/conftest.py plus the D4 subspace quiver
DUALITY_QUIVERS = [
    zigzag_quiver(3),
    linear_quiver(3, ">>"),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),
    Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),
]


@pytest.mark.parametrize("quiver", DUALITY_QUIVERS)
def test_dual_is_an_involution_and_gives_injectives(quiver):
    m = random_rep(quiver, np.random.default_rng(1))
    back = reps.dual(reps.dual(m))
    assert back.quiver == quiver and back.dims == m.dims
    assert all(np.array_equal(a, b) for a, b in zip(back.maps, m.maps))
    for v in range(quiver.n):
        i_v = reps.injective(quiver, F, v)
        assert i_v.quiver == quiver
        assert reps.hom_dim(m, i_v) == m.dims[v]


def test_reflection_functor_reflects_dimensions():
    q = linear_quiver(3, ">>")  # vertex 3 (index 2) is a sink
    m = reps.projective(q, F, 0)  # dims (1,1,1)
    r = reps.reflection_functor(m, 2)
    # sigma_3 (1,1,1) = (1,1, d1+... ), here (1,1, dims[1]-dims[2]) = (1,1,0)
    assert r.dims == (1, 1, 0)
    assert r.quiver == q.reversed_at(3)


@pytest.mark.parametrize("quiver", DUALITY_QUIVERS)
def test_reflection_round_trip_returns_the_indecomposable(quiver):
    # BGP: for X != S_k, reflecting at k twice (sink, then source, or the
    # other way round) gives X back up to isomorphism
    cat = get_catalog(quiver, 5)
    ends = [k for k in range(quiver.n) if quiver.is_sink(k) or quiver.is_source(k)]
    assert any(quiver.is_sink(k) for k in ends) and any(quiver.is_source(k) for k in ends)
    for k in ends:
        for lab in cat.labels:
            if lab == cat.simple_label(k):
                continue
            r = reps.reflection_functor(reps.reflection_functor(cat.models[lab], k), k)
            assert r.quiver == quiver
            assert cat.decompose(r) == Isoclass({lab: 1})


def test_reflection_on_one_vertex_quiver_terminates():
    # the only vertex is both a sink and a source
    q = Quiver([1], [])
    r = reps.reflection_functor(reps.simple(q, F, 0), 0)
    assert r.quiver == q and r.dims == (0,)
