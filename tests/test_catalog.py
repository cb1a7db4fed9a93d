import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivergrass.catalog import Catalog, CatalogError, Isoclass, get_catalog, positive_roots
from quivergrass.linalg import PrimeField
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass import reps


D4 = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_type_a_root_count(n):
    # positive roots of A_n are the intervals: n(n+1)/2 of them
    q = linear_quiver(n)
    assert len(positive_roots(q)) == n * (n + 1) // 2
    assert len(get_catalog(q).labels) == n * (n + 1) // 2


def test_type_a_roots_are_intervals():
    q = zigzag_quiver(3)
    roots = positive_roots(q)
    intervals = set()
    for i in range(3):
        for j in range(i, 3):
            intervals.add(tuple(1 if i <= k <= j else 0 for k in range(3)))
    assert roots == intervals


def test_d4_root_count():
    assert len(positive_roots(D4)) == 12
    cat = get_catalog(D4)
    assert len(cat.labels) == 12
    dims = {lab.dims for lab in cat.labels}
    assert (1, 2, 1, 1) in dims  # the highest root


def test_catalog_realizes_indecomposables():
    for q in (linear_quiver(3, ">>"), zigzag_quiver(3), D4):
        cat = get_catalog(q)
        for lab in cat.labels:
            m = cat.realize(Isoclass({lab: 1}))
            assert m.dims == lab.dims
            assert reps.end_dim(m) == 1  # indecomposable over a Dynkin quiver


def test_hom_matrix_against_direct_hom():
    cat = get_catalog(zigzag_quiver(3))
    h = cat.hom_matrix()
    for a, la in enumerate(cat.labels):
        for b, lb in enumerate(cat.labels):
            ma = cat.realize(Isoclass({la: 1}))
            mb = cat.realize(Isoclass({lb: 1}))
            assert h[a, b] == reps.hom_dim(ma, mb)


@pytest.mark.parametrize("quiver", [linear_quiver(3, ">>"), zigzag_quiver(3), D4])
@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_decompose_realize_roundtrip(quiver, seed):
    rng = np.random.default_rng(seed)
    cat = get_catalog(quiver)
    picks = rng.integers(0, 3, size=len(cat.labels))
    counts = {lab: int(k) for lab, k in zip(cat.labels, picks) if k}
    if not counts:
        counts = {cat.labels[0]: 1}
    iso = Isoclass(counts)
    assert cat.decompose(cat.realize(iso)) == iso


def test_parse_format_roundtrip():
    cat = get_catalog(zigzag_quiver(3))
    text = "2*U(1,1) + U(1,2) + U(2,3)"
    iso = cat.parse_isoclass(text)
    assert cat.parse_isoclass(str(iso)) == iso
    # two simples plus two length-2 intervals
    assert sum(iso.dims(3)) == 6


def test_parse_rejects_unknown_label():
    cat = get_catalog(linear_quiver(2))
    with pytest.raises(CatalogError):
        cat.parse_isoclass("U(1,5)")


def test_special_labels():
    q = linear_quiver(3, ">>")
    cat = get_catalog(q)
    for v in range(3):
        assert cat.simple_label(v).dims == tuple(1 if i == v else 0 for i in range(3))
        assert cat.projective_label(v).dims == reps.projective(q, cat.field, v).dims
        assert cat.injective_label(v).dims == reps.injective(q, cat.field, v).dims


def test_iso_fingerprint_additive():
    cat = get_catalog(D4)
    a, b = cat.labels[0], cat.labels[-1]
    fp = cat.iso_fingerprint(Isoclass({a: 2, b: 1}))
    fa = cat.iso_fingerprint(Isoclass({a: 1}))
    fb = cat.iso_fingerprint(Isoclass({b: 1}))
    assert np.array_equal(fp, 2 * fa + fb)


def test_isoclass_addition_and_dims():
    cat = get_catalog(linear_quiver(2))
    u = cat.label_by_name("U(1,2)")
    s1 = cat.label_by_name("U(1,1)")
    iso = Isoclass({u: 1}) + Isoclass({s1: 2})
    assert iso.counts[s1] == 2
    assert iso.dims(2) == (3, 1)
    assert cat.label_by_name(" U(1,2) ") == u
    for bad in ("U(2,3)", "U(0,1)", "U(1,)", "V(1,1)"):  # out of range or malformed
        with pytest.raises(CatalogError, match="unknown indecomposable"):
            cat.label_by_name(bad)


@pytest.mark.parametrize("quiver", [
    zigzag_quiver(3),
    linear_quiver(3),
    linear_quiver(4),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),  # A4 of the deficient fixture
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),  # D4 into the center
    Quiver([1, 2, 3, 4, 5], [(1, 2), (3, 2), (4, 2), (5, 4)]),  # D5 into the center
])
def test_fold_positions_leave_no_ext(quiver):
    # the check inside fold_positions reads hom and the Euler form; here
    # Ext^1 comes from its own solve
    cat = get_catalog(quiver, 2)
    position = cat.fold_positions()
    assert sorted(position.values()) == list(range(len(cat.labels)))
    for a in cat.labels:
        for b in cat.labels:
            if position[a] <= position[b]:
                assert reps.ext1_dim(cat.models[a], cat.models[b]) == 0, (a, b)


def test_fold_positions_reject_an_order_with_ext():
    # on 1 -> 2, Ext^1(S1, S2) != 0, so S1 may not come before S2
    cat = Catalog(linear_quiver(2), PrimeField(2))
    cat._order = cat._topological_order()[::-1]
    with pytest.raises(CatalogError, match="Ext"):
        cat.fold_positions()

