import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivergrass import catalog
from quivergrass.catalog import (
    LIFT_PRIME,
    Catalog,
    CatalogError,
    Isoclass,
    _admissible_sink_sequence,
    _label_for,
    get_catalog,
    positive_roots,
)
from quivergrass.linalg import PrimeField, is_prime
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass import reps

from oracles import small_dynkin_quivers


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
    # the Hom matrix comes from the integer models over F_107 once per
    # quiver; every catalog of the quiver must agree with its own solves
    for q in small_dynkin_quivers():
        for p in (2, 3, LIFT_PRIME):
            cat = get_catalog(q, p)
            models = [cat.models[lab] for lab in cat.labels]
            want = [[reps.hom_dim(a, b) for b in models] for a in models]
            assert cat.hom_matrix().tolist() == want, (q, p)


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


def test_parse_rejects_a_multiplicity_that_is_not_an_integer():
    cat = get_catalog(linear_quiver(2))
    for text in ("x*U(1,1)", "U(1,2) + 1.5*U(2,2)"):
        term = text.split("+")[-1].strip()
        with pytest.raises(CatalogError, match=re.escape(repr(term))):
            cat.parse_isoclass(text)


def test_parse_rejects_a_negative_multiplicity_naming_its_term():
    # each term is checked as it is read: a negative term cannot cancel
    # against a later one
    cat = get_catalog(linear_quiver(2))
    for text in ("-1*U(1,1)", "-1*U(1,1) + 2*U(1,1)", "U(1,2) + -2*U(2,2)"):
        term = next(t.strip() for t in text.split("+") if "-" in t)
        with pytest.raises(CatalogError, match=re.escape(f"{term!r} is negative")):
            cat.parse_isoclass(text)


def test_special_labels():
    # the labels read the quiver's reach sets; the modules are built from
    # its paths, and I_v as the dual of P_v over the opposite quiver
    for q in small_dynkin_quivers():
        cat = get_catalog(q)
        for v in range(q.n):
            assert cat.simple_label(v).dims == tuple(1 if i == v else 0 for i in range(q.n))
            assert cat.projective_label(v).dims == reps.projective(q, cat.field, v).dims, q
            assert cat.injective_label(v).dims == reps.injective(q, cat.field, v).dims, q


def test_interval_labels_by_position():
    # type A: (i, j) -> label -> (i, j) on every orientation, and every
    # label is one interval
    for q in small_dynkin_quivers():
        if q.dynkin != "A":
            continue
        cat = get_catalog(q)
        pairs = [(i, j) for i in range(1, q.n + 1) for j in range(i, q.n + 1)]
        labels = [cat.interval_label(i, j) for i, j in pairs]
        assert sorted(labels) == cat.labels
        for (i, j), label in zip(pairs, labels):
            assert label.name == f"U({i},{j})" and cat.interval(label) == (i, j)
        with pytest.raises(CatalogError, match="not a positive root"):
            cat.interval_label(2, 1)


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
    q = linear_quiver(2)
    labels, _, _, _, hom, order = catalog._integer_models(q)
    assert [labels[a].name for a in order] == ["U(2,2)", "U(1,2)", "U(1,1)"]
    catalog._check_order(q, labels, hom, order)
    with pytest.raises(CatalogError, match=r"Ext\^1\(U\(1,1\), U\(2,2\)\) != 0"):
        catalog._check_order(q, labels, hom, order[::-1])
    # and Hom may not point backward: a made-up Hom(S1, S2) != 0
    backward = hom.copy()
    backward[order[2], order[0]] = 1
    with pytest.raises(CatalogError, match=r"Hom\(U\(1,1\), U\(2,2\)\) != 0"):
        catalog._check_order(q, labels, backward, order)


def test_hom_matrix_is_shared_and_read_only():
    h = get_catalog(D4, 2).hom_matrix()
    assert get_catalog(D4, 3).hom_matrix() is h
    with pytest.raises(ValueError, match="read-only"):
        h[0, 0] = 2



# -- integer models against a per-prime reflection build -------------------

def reference_models(q: Quiver, field: PrimeField) -> dict:
    """label -> model, from the reflection word run over ``field`` itself:
    root beta_t = s_{k_1} ... s_{k_{t-1}} (e_{k_t}) is new when positive and
    not yet found, and its model is the simple at k_t reflected back along
    k_{t-1}, ..., k_1."""
    roots = positive_roots(q)
    base_seq = _admissible_sink_sequence(q)
    adj = q.neighbors()
    found, quivers, seq, t = {}, [q], [], 0
    while len(found) < len(roots):
        k = base_seq[t % q.n]
        beta = [1 if i == k else 0 for i in range(q.n)]
        for j in reversed(seq):
            beta[j] = sum(beta[i] for i in adj[j]) - beta[j]
        if tuple(beta) in roots and tuple(beta) not in found:
            found[tuple(beta)] = (t, k)
        seq.append(k)
        quivers.append(quivers[-1].reversed_at(quivers[-1].name(k)))
        t += 1
    models = {}
    for dims, (t, k) in found.items():
        m = reps.simple(quivers[t], field, k)
        for j in range(t - 1, -1, -1):
            m = reps.reflection_functor(m, seq[j])
        assert m.quiver == q and m.dims == dims
        models[_label_for(q, dims)] = m
    return models


FIXTURE_QUIVERS = [
    zigzag_quiver(3),  # zigzag A3 and P1xP1
    linear_quiver(3, ">>"),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),  # A4 deficient
    D4,  # D4 into the center
]


def _assert_models_equal(q: Quiver, p: int):
    cat = get_catalog(q, p)
    ref = reference_models(q, PrimeField(p))
    assert cat.labels == sorted(ref)
    for label in cat.labels:
        got, want = cat.models[label], ref[label]
        assert got.quiver == q and got.dims == want.dims, (q, p, label)
        for a, b in zip(got.maps, want.maps):
            assert np.array_equal(a, b), (q, p, label)


def test_models_equal_a_reflection_build_at_each_prime():
    # 30 orientations of A2-A5 and 24 of D4-D5
    quivers = list(small_dynkin_quivers())
    assert len(quivers) == 54
    for q in quivers:
        for p in (2, 3, 5, 7, 11, LIFT_PRIME):
            _assert_models_equal(q, p)
        # the module docstring's claim on the integer models
        entries = {int(x) for m in catalog._integer_models(q)[1] for a in m for x in a.flat}
        assert entries <= {-1, 0, 1}, q


def test_fixture_models_equal_a_reflection_build_at_every_prime():
    for q in FIXTURE_QUIVERS:
        for p in filter(is_prime, range(2, LIFT_PRIME + 1)):
            _assert_models_equal(q, p)


def test_a_model_that_splits_mod_p_is_refused(monkeypatch):
    # V(0,1,0,1) on D4 into the center is 0 -> F -> 0 with arrow 4 -> 2 the
    # identity; with that map doubled it splits into two simples mod 2 only
    labels, maps, ends, unknowns, hom, order = catalog._integer_models(D4)
    which = [lab.name for lab in labels].index("V(0,1,0,1)")
    doubled = tuple(2 * a for a in maps[which])
    assert doubled[2].tolist() == [[2]]  # arrow 4 -> 2
    x = reps.Representation(D4, PrimeField(LIFT_PRIME), labels[which].dims, doubled)
    system = reps._hom_system(x, x)
    ends = ends.copy()
    ends[which, : system.shape[0], : system.shape[1]] = system
    patched = (labels, maps[:which] + (doubled,) + maps[which + 1:], ends, unknowns, hom, order)
    monkeypatch.setattr(catalog, "_integer_models", lambda q: patched)
    with pytest.raises(CatalogError, match=r"V\(0,1,0,1\) is not a brick at p=2"):
        Catalog(D4, PrimeField(2))
    cat = Catalog(D4, PrimeField(3))
    assert cat.models[labels[which]].maps[2].tolist() == [[2]]
