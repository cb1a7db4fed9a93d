import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivergrass.catalog import Isoclass, get_catalog
from quivergrass.linalg import PrimeField, gaussian_binomial
from quivergrass.pointcount import (
    CountError,
    CountingPolynomial,
    _count_and_decode,
    _indecomposable_chi,
    _schedule,
    brute_force_count,
    classify,
    count_points,
    decode,
    enumerate_subspaces,
    euler_characteristic,
    interpolate,
)
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass.reps import Representation


def test_subspace_enum_counts():
    for p in (2, 3):
        for d in range(5):
            for e in range(d + 1):
                en = enumerate_subspaces(e, d, PrimeField(p))
                assert en.bases.shape[0] == gaussian_binomial(d, e, p)


def test_subspace_enum_bases_are_rref():
    f = PrimeField(3)
    en = enumerate_subspaces(2, 4, f)
    seen = set()
    for b in np.asarray(en.bases, dtype=np.int64):
        red, pivots = f.rref(f.mat(b))
        assert np.array_equal(red, f.mat(b))  # already reduced
        assert len(pivots) == 2
        seen.add(b.tobytes())
    assert len(seen) == en.bases.shape[0]  # all distinct


def test_zero_map_counts_factor():
    # 1 -> 2 with the zero map: subspaces are chosen independently
    q = linear_quiver(2)
    for p in (2, 3, 5):
        f = PrimeField(p)
        m = Representation(q, f, (3, 3), [f.zeros(3, 3)])
        assert count_points(m, (1, 2), p) == \
            gaussian_binomial(3, 1, p) * gaussian_binomial(3, 2, p)


def test_identity_map_counts_containment():
    # 1 -> 2 with the identity: e1-spaces inside the chosen e2-space
    q = linear_quiver(2)
    for p in (2, 3):
        f = PrimeField(p)
        m = Representation(q, f, (3, 3), [f.eye(3)])
        expected = gaussian_binomial(3, 2, p) * gaussian_binomial(2, 1, p)
        assert count_points(m, (1, 2), p) == expected


@pytest.mark.parametrize("quiver", [
    linear_quiver(2),
    zigzag_quiver(3),
    linear_quiver(3, ">>"),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),  # D4 into the center
    Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),  # D4 subspace orientation
    Quiver([1, 2, 3, 4], [(2, 1), (2, 3), (2, 4)]),  # D4 out of the center
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),  # A4: pair messages off the root
])
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3, 5]))
@settings(max_examples=25, deadline=None)
def test_dp_equals_brute_force(quiver, seed, p):
    rng = np.random.default_rng(seed)
    cat = get_catalog(quiver, p)
    # random multiset with per-vertex dimension at most 3: at p = 5 the
    # oracle then checks at most 31^4 tuples, well within its budget
    counts = {}
    total = [0] * quiver.n
    for k in rng.permutation(len(cat.labels)):
        lab = cat.labels[int(k)]
        if rng.random() < 0.7 and all(t + dv <= 3 for t, dv in zip(total, lab.dims)):
            counts[lab] = counts.get(lab, 0) + 1
            total = [t + dv for t, dv in zip(total, lab.dims)]
    if not counts:
        counts = {cat.labels[0]: 1}
    iso = Isoclass(counts)
    m = cat.realize(iso)
    e = tuple(int(rng.integers(0, dv + 1)) for dv in m.dims)
    assert count_points(m, e, p) == brute_force_count(m, e, p)


def test_count_rejects_bad_subdimension():
    q = linear_quiver(2)
    f = PrimeField(2)
    m = Representation(q, f, (1, 1), [f.eye(1)])
    with pytest.raises(CountError):
        count_points(m, (2, 0), 2)


def test_count_rejects_prime_of_another_field():
    # an isomorphism over F_5; read at p = 2, [[2]] would become the zero map
    q = linear_quiver(2)
    m = Representation(q, PrimeField(5), (1, 1), [[[2]]])
    assert count_points(m, (1, 0), 5) == brute_force_count(m, (1, 0), 5) == 0
    for count in (count_points, brute_force_count):
        with pytest.raises(CountError, match=r"p=2 .*F_5"):
            count(m, (1, 0), 2)


def test_enum_budget_enforced():
    with pytest.raises(CountError):
        enumerate_subspaces(5, 10, PrimeField(3), budget=1000)


def test_interpolate_recovers_polynomial():
    poly = lambda q: q ** 3 + 2 * q + 1
    nodes = [(p, poly(p)) for p in (2, 3, 5, 7, 11, 13)]
    f, ok = interpolate(nodes)
    assert ok
    assert f.coeffs == (Fraction(1), Fraction(2), Fraction(0), Fraction(1))
    assert f.degree == 3 and f.leading == 1


def test_interpolate_flags_insufficient_nodes():
    poly = lambda q: q ** 3
    nodes = [(p, poly(p)) for p in (2, 3, 5, 7)]
    f, ok = interpolate(nodes)
    assert not ok  # no spare nodes left for the held-out check


def test_interpolate_flags_non_polynomial_data():
    nodes = [(p, 2 ** p) for p in (2, 3, 5, 7, 11, 13, 17)]
    _, ok = interpolate(nodes)
    assert not ok


def test_interpolate_rejects_duplicates():
    with pytest.raises(CountError):
        interpolate([(2, 5), (2, 5), (3, 7)])


def test_counting_polynomial_str_and_eval():
    f = CountingPolynomial((Fraction(1), Fraction(2), Fraction(1)))
    assert str(f) == "q^2 + 2*q + 1"
    assert f(3) == 16
    assert f.is_integral()


def test_classify_grassmannian():
    # single quiver Grassmannian Gr(2, 4): dimension 4, one component
    q = Quiver([1], [])
    cls = classify(
        lambda p: Representation(q, PrimeField(p), (4,), []), (2,))
    assert cls.dimension == 4
    assert cls.top_count == 1
    assert cls.consistent
    assert cls.polynomial(2) == gaussian_binomial(4, 2, 2)


def test_classify_projective_line_squared():
    # 1 -> 2 <- 3 with generic maps on dims (1, 2, 1), e = (1, 1, 1):
    # the Grassmannian is P^1 x P^1 shrunk to points where lines meet
    cat2 = {p: get_catalog(zigzag_quiver(3), p) for p in (2, 3, 5, 7, 11, 13)}
    lab = {p: cat2[p].label_by_name("U(1,3)") for p in cat2}
    iso = lambda p: Isoclass({lab[p]: 1, cat2[p].simple_label(1): 1})
    cls = classify(lambda p: cat2[p].realize(iso(p)), (1, 1, 1))
    assert cls.consistent
    assert cls.polynomial.is_integral()


# -- the chi-bounded decode -------------------------------------------------

def _value(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_classify_empty_grassmannian_is_typed():
    # U(1,2) on 1 -> 2 is F --id--> F: no line at 1 maps into 0 at 2
    q = linear_quiver(2)
    iso = get_catalog(q, 2).parse_isoclass("U(1,2)")
    cls = classify(lambda p: get_catalog(q, p).realize(iso), (1, 0))
    assert cls.consistent and cls.reason == ""
    assert cls.dimension == -1 and cls.top_count == 0
    assert cls.polynomial.coeffs == ()
    assert sorted(cls.counts) == [2]  # the one count made, and it is 0
    assert cls.counts[2] == 0


def test_classify_needs_a_catalog():
    # E6 has no catalog, so no chi and no decode
    q = Quiver([1, 2, 3, 4, 5, 6], [(1, 2), (2, 3), (4, 3), (5, 4), (6, 3)])
    with pytest.raises(CountError, match="catalog"):
        classify(lambda p: Representation(q, PrimeField(p), (1,) * 6,
                                          [PrimeField(p).eye(1)] * 5), (1,) * 6)


def test_schedule_products_exceed_chi():
    assert _schedule(0) == ([2], [])
    assert _schedule(1) == ([2], [3, 5])
    assert _schedule(135) == ([2, 3, 5, 7], [11, 13])
    assert _schedule(3000) == ([2, 3, 5, 7, 11, 13], [17, 19])


@given(coeffs=st.lists(st.integers(0, 250), min_size=1, max_size=13))
@settings(max_examples=200, deadline=None)
def test_decode_recovers_non_negative_polynomials(coeffs):
    chi = sum(coeffs)
    primes, heldout = _schedule(chi)
    counts = {p: _value(coeffs, p) for p in primes}
    assert decode(counts, chi) == _strip(coeffs)
    got = _count_and_decode(lambda p: _value(coeffs, p), primes, heldout, chi, exact=True)
    assert got[1:] == (_strip(coeffs), "")


@given(coeffs=st.lists(st.integers(0, 40), min_size=1, max_size=9),
       which=st.integers(0, 7), delta=st.sampled_from(["+1", "-1", "+p", "-p"]))
@settings(max_examples=300, deadline=None)
def test_single_count_perturbation_never_consistent(coeffs, which, delta):
    chi = sum(coeffs)
    primes, heldout = _schedule(chi)
    schedule = primes + heldout
    bad = schedule[which % len(schedule)]
    shift = {"+1": 1, "-1": -1, "+p": bad, "-p": -bad}[delta]

    def count_at(p):
        return _value(coeffs, p) + (shift if p == bad else 0)

    _, _, reason = _count_and_decode(count_at, primes, heldout, chi, exact=True)
    assert reason.startswith(("decode failed", "held-out mismatch"))


def test_decode_failure_and_mismatch_are_told_apart():
    # q^2 + 1: chi = 2, decoded from p = 2, 3 and checked at 5, 7
    assert decode({2: 5, 3: 10}, 2) == [1, 0, 1]
    assert decode({2: 5, 3: 10}, 3) is None  # coefficients sum to 2, not 3
    assert decode({2: 5, 3: 10}, 3, exact=False) == [1, 0, 1]
    assert decode({2: 6, 3: 10}, 2) is None
    with pytest.raises(CountError, match="too few"):
        decode({2: 5}, 2)  # 2 does not exceed chi = 2
    counts = {2: 5, 3: 10, 5: 26, 7: 51}
    _, coeffs, reason = _count_and_decode(counts.get, [2, 3], [5, 7], 2, exact=True)
    assert coeffs == [1, 0, 1] and reason.startswith("held-out mismatch at p=7")
    counts[3] = 11
    _, coeffs, reason = _count_and_decode(counts.get, [2, 3], [5, 7], 2, exact=True)
    assert coeffs is None and reason.startswith("decode failed")


def _newton_schedule(m_for_prime, e):
    """Counts at 2, 3, 5, ... until Newton interpolation is consistent."""
    counts = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        counts[p] = count_points(m_for_prime(p), e, p)
        if len(counts) >= 3:
            poly, ok = interpolate(sorted(counts.items()))
            if ok:
                return poly
    raise AssertionError("Newton interpolation never became consistent")


@pytest.mark.parametrize("fixture", ["zigzag3_report", "p1xp1_report", "a4_report"])
def test_decode_equals_newton_on_fixture_nodes(fixture, request):
    report = request.getfixturevalue(fixture)
    cfg = report.config
    assert len(report.classifications) == len(report.poset.nodes)
    for iso, cls in report.classifications.items():
        def m_for_prime(p):
            return cfg.catalog_at(p).realize(iso)
        assert cls.consistent
        assert cls.polynomial == _newton_schedule(m_for_prime, cfg.e)
        assert euler_characteristic(m_for_prime(2), cfg.e) == cls.polynomial(1)


@pytest.mark.parametrize("quiver", [
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),  # D4 into the center
    Quiver([1, 2, 3, 4, 5], [(1, 2), (3, 2), (4, 2), (5, 4)]),  # D5
])
def test_chi_tables_equal_newton(quiver):
    cat = get_catalog(quiver, 2)
    for label in cat.labels:
        for f in itertools.product(*(range(x + 1) for x in label.dims)):
            nodes = [(p, count_points(get_catalog(quiver, p).models[label], f, p))
                     for p in (2, 3, 5, 7, 11)]
            poly, ok = interpolate(nodes)
            assert ok or all(c == 0 for _, c in nodes)
            assert _indecomposable_chi(quiver, label, f) == poly(1)
