import gc
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quivergrass.catalog import Isoclass, get_catalog
from quivergrass.lab import PrincipalConfig
from quivergrass.linalg import PrimeField, gaussian_binomial
from quivergrass import pointcount
from quivergrass.pointcount import (
    CountError,
    CountingPolynomial,
    _cheapest_root,
    _check_smooth,
    _count_and_decode,
    _indecomposable_poly,
    _product,
    _schedule,
    _sum_dims_with_fixed,
    brute_force_count,
    classify,
    count_points,
    decode,
    enumerate_subspaces,
    interpolate,
)
from quivergrass.poset import enumerate_isoclasses
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass.reps import Representation

from oracles import small_dynkin_quivers


def test_subspace_enum_counts():
    for p in (2, 3):
        for d in range(5):
            for e in range(d + 1):
                en = enumerate_subspaces(e, d, PrimeField(p))
                assert en.bases.shape[0] == gaussian_binomial(d, e, p)
            # the zero subspace is one block with no pivots and an empty basis
            en = enumerate_subspaces(0, d, PrimeField(p))
            assert en.blocks == [(0, 1, ())]
            assert en.bases.shape == (1, 0, d)


def test_enumerate_subspaces_refuses_a_float_cold_and_warm():
    # the enumeration memo compares 1.0 equal to 1
    field = PrimeField(2)
    pointcount._cached_enum.cache_clear()
    with pytest.raises(CountError, match=re.escape("dimension 1.0 or ambient 3 is not an integer")):
        enumerate_subspaces(1.0, 3, field)
    assert enumerate_subspaces(1, 3, field).size == 7
    with pytest.raises(CountError, match=re.escape("dimension 1.0 or ambient 3 is not an integer")):
        enumerate_subspaces(1.0, 3, field)
    assert enumerate_subspaces(np.int64(1), 3, field) is enumerate_subspaces(1, 3, field)


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
    # A2 with the zero map: subspaces are chosen independently.  In the
    # (20, 4) cases the DP root is the Gr(2, 4) vertex, and the count
    # Gr(10, 20) * Gr(2, 4) exceeds 2^63, in both orientations
    for orientation, d, e, primes in [(">", (3, 3), (1, 2), (2, 3, 5)),
                                      (">", (20, 4), (10, 2), (2,)),
                                      ("<", (20, 4), (10, 2), (2,))]:
        q = linear_quiver(2, orientation)
        s, t = q.arrows[0]
        for p in primes:
            f = PrimeField(p)
            m = Representation(q, f, d, [f.zeros(d[t], d[s])])
            expected = gaussian_binomial(d[0], e[0], p) * gaussian_binomial(d[1], e[1], p)
            assert count_points(m, e, p) == expected


def test_identity_map_counts_containment():
    # 1 -> 2 with the identity: e1-spaces inside the chosen e2-space
    q = linear_quiver(2)
    for p in (2, 3):
        f = PrimeField(p)
        m = Representation(q, f, (3, 3), [f.eye(3)])
        expected = gaussian_binomial(3, 2, p) * gaussian_binomial(2, 1, p)
        assert count_points(m, (1, 2), p) == expected


# -- one candidate point: every e_v is 0 or d_v --------------------------

def test_single_point_count_reads_the_maps_out_of_full_vertices():
    # 1 -> 2 with e = (d_1, 0): U_1 = M_1 must map into U_2 = 0
    q = linear_quiver(2)
    for p in (2, 3):
        f = PrimeField(p)
        rank_one = f.mat([[1, 0], [0, 0], [0, 0]])
        cases = [((1, 1), [f.eye(1)], (1, 0), 0),
                 ((2, 3), [rank_one], (2, 0), 0),  # one nonzero entry is enough
                 ((1, 1), [f.zeros(1, 1)], (1, 0), 1),
                 ((2, 3), [f.zeros(3, 2)], (2, 0), 1),
                 ((2, 3), [rank_one], (0, 3), 1)]  # a zero U_s maps anywhere
        for d, maps, e, want in cases:
            m = Representation(q, f, d, maps)
            assert count_points(m, e, p) == brute_force_count(m, e, p) == want


def test_single_point_count_is_one_at_zero_and_full():
    f = PrimeField(3)
    q = zigzag_quiver(3)  # 1 -> 2 <- 3
    for d in [(2, 3, 1), (2, 0, 1), (0, 0, 0), (0, 2, 0)]:
        m = Representation(q, f, d, [f.mat(np.ones((d[1], d[0]), dtype=np.int64)),
                                     f.mat(np.ones((d[1], d[2]), dtype=np.int64))])
        # where d_v = 0, e_v = 0 is both the zero and the full subspace
        for e in [(0, 0, 0), d]:
            assert count_points(m, e, 3) == brute_force_count(m, e, 3) == 1


def _small_orientations():
    """All orientations of A2-A4 and D4."""
    return [q for q in small_dynkin_quivers() if q.n <= 4]


def test_catalog_models_count_as_brute_force():
    # every (label, f <= dim X) of A2-A4 and D4: nearly all are thin, so
    # nearly every count takes the single-point path
    cases = single = 0
    for q in _small_orientations():
        for p in (2, 3):
            cat = get_catalog(q, p)
            for label in cat.labels:
                m = cat.models[label]
                for f in itertools.product(*(range(x + 1) for x in label.dims)):
                    assert count_points(m, f, p) == brute_force_count(m, f, p), (q, label, f, p)
                    cases += 1
                    single += all(x in (0, d) for x, d in zip(f, label.dims))
    assert (cases, single) == (2384, 2256)


def test_summand_polynomials_are_palindromes_of_the_expected_degree():
    # every P_{X,f} of A2-A4 and D4 passes the smoothness check on decode
    # (uncached, so that each decode runs the check here)
    pairs = nonempty = 0
    for q in _small_orientations():
        for label in get_catalog(q, 2).labels:
            for f in itertools.product(*(range(x + 1) for x in label.dims)):
                coeffs = pointcount._indecomposable_poly.__wrapped__(q, label, f)[0]
                pairs += 1
                nonempty += bool(coeffs)
    assert (pairs, nonempty) == (1192, 726)


def test_a_polynomial_that_is_not_smooth_is_refused(monkeypatch):
    # D4 into the center: Gr_(0,1,0,0)(V(1,2,1,1)) is the lines of M_2, a P^1
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
    label = get_catalog(q, 2).label_by_dims((1, 2, 1, 1))
    _check_smooth(q, label, (0, 1, 0, 0), [1, 1])
    _check_smooth(q, label, (1, 0, 0, 0), [])  # U_1 = M_1 has nowhere to go
    with pytest.raises(CountError, match=r"Gr_\(0, 1, 0, 0\)\(V\(1,2,1,1\)\).*"
                                         r"\[1, 2\].*degree <f, dim X - f> = 1$"):
        _check_smooth(q, label, (0, 1, 0, 0), [1, 2])
    with pytest.raises(CountError, match=r"\[1, 1\].* = 0$"):
        _check_smooth(q, label, (0, 0, 0, 0), [1, 1])
    # a doctored decode is refused by ``_indecomposable_poly`` itself
    monkeypatch.setattr(pointcount, "_count_and_decode", lambda *args: ([2, 1], ""))
    with pytest.raises(CountError, match=r"V\(1,2,1,1\)"):
        pointcount._indecomposable_poly.__wrapped__(q, label, (0, 1, 0, 0))


def test_counts_and_isoclass_enumeration_leave_no_cyclic_garbage(eq_a3_cfg, d4_center_cfg):
    # no recursive closure refers to itself, so nothing waits for the cyclic GC
    dp = eq_a3_cfg.catalog_at(3).realize(eq_a3_cfg.generic())
    star = d4_center_cfg.catalog_at(2).realize(d4_center_cfg.generic())
    assert _cheapest_root(dp.quiver, dp.dims, eq_a3_cfg.e, 3) == 1  # Gr(2, 4): no point root
    assert _cheapest_root(star.quiver, star.dims, d4_center_cfg.e, 2) == 1  # hyperplanes of F^5
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        count_points(dp, eq_a3_cfg.e, 3)
        count_points(star, d4_center_cfg.e, 2)
        enumerate_isoclasses(d4_center_cfg.catalog, d4_center_cfg.d)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("quiver", [
    linear_quiver(2),
    zigzag_quiver(3),
    linear_quiver(3, ">>"),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),  # D4 into the center
    Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),  # D4 subspace orientation
    Quiver([1, 2, 3, 4], [(2, 1), (2, 3), (2, 4)]),  # D4 out of the center
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),  # A4: pair messages off the root
    linear_quiver(4),  # weighted children on both sides of an arrow
    linear_quiver(4, "<<>"),
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


@given(p=st.sampled_from([2, 3, 5]), d=st.integers(0, 4), e=st.integers(0, 4),
       k=st.integers(0, 3), stack=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
@example(p=2, d=3, e=1, k=0, stack=2, seed=0)
@example(p=3, d=3, e=0, k=2, stack=4, seed=1)
@example(p=5, d=2, e=2, k=3, stack=3, seed=2)
@example(p=3, d=4, e=2, k=3, stack=4, seed=3)
@settings(max_examples=40, deadline=None)
def test_sum_dims_kernel_equals_stacked_rank(p, d, e, k, stack, seed):
    # with a chunk of 3 the slices cross chunk boundaries on both axes
    e = min(e, d)
    f = PrimeField(p)
    w = np.random.default_rng(seed).integers(0, p, size=(stack, k, d))
    en = enumerate_subspaces(e, d, f)
    sizes = []
    real = PrimeField.batched_rank

    def recording(self, mats):
        sizes.append(len(mats))
        return real(self, mats)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointcount, "_CHUNK", 3)
        mp.setattr(PrimeField, "batched_rank", recording)
        got = _sum_dims_with_fixed(en, w, f)
    assert got.shape == (stack, en.size)
    assert max(sizes, default=0) <= 3
    for j in range(stack):
        for x in range(en.size):
            assert got[j, x] == f.rank(np.concatenate([en.bases[x].astype(np.int64), w[j]]))


@pytest.mark.parametrize("quiver", [
    linear_quiver(3, ">>"),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),  # A4: pair messages off the root
    linear_quiver(4),  # weighted children on both sides of an arrow
    linear_quiver(4, "<<>"),
    Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),  # D4 subspace orientation
])
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3]), stack=st.integers(1, 4),
       chunk=st.sampled_from([3, 40, pointcount._CHUNK]))
@settings(max_examples=20, deadline=None)
def test_a_stack_of_random_modules_counts_as_brute_force(quiver, seed, p, stack, chunk):
    # one dimension vector, K random modules; a chunk of 3 splits every stack
    # into single modules, and one of 40 cuts the stacked messages along both
    # the module and the subspace axis
    rng = np.random.default_rng(seed)
    f = PrimeField(p)
    dims = [int(rng.integers(1, 4)) for _ in range(quiver.n)]
    ms = [Representation(quiver, f, dims,
                         [_random_map(rng, f, dims[t], dims[s]) for s, t in quiver.arrows])
          for _ in range(stack)]
    e = tuple(int(rng.integers(0, dv + 1)) for dv in dims)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pointcount, "_CHUNK", chunk)
        got = count_points(ms, e, p)
    assert got == [brute_force_count(m, e, p) for m in ms]


A4_LLR = linear_quiver(4, "<<>")


@pytest.mark.parametrize("name, step", [
    ("zigzag3_cfg", 1), ("eq_a3_cfg", 1), ("p1xp1_cfg", 1), ("a4_cfg", 1),
    ("d4_center_cfg", 1), ("a4_llr", 4),
])
def test_a_stacked_count_equals_the_per_module_counts(name, step, request):
    if name == "a4_llr":
        cfg = PrincipalConfig(A4_LLR, (1, 1, 1, 1), (1, 1, 1, 1))
    else:
        cfg = request.getfixturevalue(name)
    for p in (2, 3):
        ms = [cfg.catalog_at(p).realize(iso) for iso in cfg.poset.nodes[::step]]
        assert count_points(ms, cfg.e, p) == [count_points(m, cfg.e, p) for m in ms]


def test_a_stack_of_one_is_the_scalar_call(eq_a3_cfg, d4_center_cfg):
    # the tree DP, a point root and a single candidate point
    thin = Quiver([1, 2], [(1, 2)])
    m_thin = get_catalog(thin, 2).realize(Isoclass({get_catalog(thin, 2).labels[0]: 1}))
    cases = [(eq_a3_cfg.catalog_at(3).realize(eq_a3_cfg.generic()), eq_a3_cfg.e, 3),
             (d4_center_cfg.catalog_at(2).realize(d4_center_cfg.generic()), d4_center_cfg.e, 2),
             (m_thin, tuple(m_thin.dims), 2)]
    for m, e, p in cases:
        single = count_points(m, e, p)
        assert isinstance(single, int)
        assert count_points([m], e, p) == count_points((m,), e, p) == [single]
    assert count_points([], (1, 2, 3), 2) == []


def test_a_stack_must_share_quiver_dims_and_prime(eq_a3_cfg, zigzag3_cfg):
    cfg = eq_a3_cfg
    m = cfg.catalog_at(2).realize(cfg.generic())
    other = zigzag3_cfg.catalog_at(2).realize(zigzag3_cfg.generic())
    smaller = Representation(m.quiver, m.field, (1, 1, 1), [m.field.zeros(1, 1)] * 2)
    at_three = cfg.catalog_at(3).realize(cfg.generic())
    shared = "a stack of modules must share the quiver and dimension vector"
    with pytest.raises(CountError, match=shared):
        count_points([m, other], cfg.e, 2)
    with pytest.raises(CountError, match=shared):
        count_points([m, smaller], (0, 0, 0), 2)
    with pytest.raises(CountError, match=r"p=2 .*F_3"):
        count_points([m, at_three], cfg.e, 2)


def test_pair_budget_names_the_edge_and_both_sizes():
    # 1 -> 2 <- 3 <- 4, d = (3, 5, 4, 4), e = (1, 4, 2, 1): the root is 2 and
    # the weighted child 3 sends a pair message over Gr(2, 4) x Gr(4, 5)
    cfg = PrincipalConfig(Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),
                          (1, 1, 1, 1), (1, 1, 1, 1))
    m = cfg.catalog_at(2).realize(cfg.generic())
    n3, n2 = gaussian_binomial(4, 2, 2), gaussian_binomial(5, 4, 2)
    with pytest.raises(CountError, match=f"pair budget exceeded at edge 3-2: {n3} x {n2}"):
        count_points(m, cfg.e, 2, pair_budget=1)
    assert count_points(m, cfg.e, 2, pair_budget=n3 * n2) == count_points(m, cfg.e, 2)


def test_count_rejects_bad_subdimension():
    q = linear_quiver(2)
    f = PrimeField(2)
    m = Representation(q, f, (1, 1), [f.eye(1)])
    with pytest.raises(CountError):
        count_points(m, (2, 0), 2)
    # the error names the external vertex: vertex 2 of zigzag A3 is index 1
    m = Representation(zigzag_quiver(3), f, (1, 1, 1), [f.zeros(1, 1), f.zeros(1, 1)])
    with pytest.raises(CountError, match=r"^e = 2 exceeds d = 1 at vertex 2$"):
        count_points(m, (0, 2, 0), 2)


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
    got = _count_and_decode(lambda p: _value(coeffs, p), primes, heldout, chi)
    assert got == (_strip(coeffs), "")


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

    _, reason = _count_and_decode(count_at, primes, heldout, chi)
    assert reason.startswith(("decode failed", "held-out mismatch"))


def test_decode_failure_and_mismatch_are_told_apart():
    # q^2 + 1: chi = 2, decoded from p = 2, 3 and checked at 5, 7
    assert decode({2: 5, 3: 10}, 2) == [1, 0, 1]
    assert decode({2: 5, 3: 10}, 3) == [1, 0, 1]  # chi bounds the sum from above
    assert decode({2: 5, 3: 10}, 1) is None  # coefficients sum to 2 > 1
    assert decode({2: 6, 3: 10}, 2) is None
    with pytest.raises(CountError, match="too few"):
        decode({2: 5}, 2)  # 2 does not exceed chi = 2
    counts = {2: 5, 3: 10, 5: 26, 7: 51}
    coeffs, reason = _count_and_decode(counts.get, [2, 3], [5, 7], 2)
    assert coeffs == [1, 0, 1] and reason.startswith("held-out mismatch at p=7")
    counts[3] = 11
    coeffs, reason = _count_and_decode(counts.get, [2, 3], [5, 7], 2)
    assert coeffs is None and reason.startswith("decode failed")



def test_summand_decodes_count_each_prime_once(d4_center_cfg, monkeypatch):
    # the p = 2 count that bounds chi is also the decode's first count
    q = d4_center_cfg.quiver
    cat = get_catalog(q, 2)
    cases = [(label, g) for label in cat.labels
             for g in itertools.product(*(range(x + 1) for x in label.dims))]

    def decoded_from_scratch(label, g):
        def count_at(p):
            return count_points(get_catalog(q, p).models[label], g, p)
        bound = count_at(2)
        coeffs, reason = _count_and_decode(count_at, *_schedule(bound), bound)
        assert reason == ""
        return tuple(coeffs)

    want = {case: decoded_from_scratch(*case) for case in cases}
    seen = []

    def recording(m, f, p, *args, **kwargs):
        seen.append((m.dims, tuple(f), p))
        return count_points(m, f, p, *args, **kwargs)

    pointcount._indecomposable_poly.cache_clear()
    monkeypatch.setattr(pointcount, "count_points", recording)
    for label, g in cases:
        assert pointcount._indecomposable_poly(q, label, g)[0] == want[label, g]
    assert len(seen) == len(set(seen)) > len(cases)


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
        assert sum(_product(m_for_prime(2), cfg.e)[0]) == cls.polynomial(1)


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
            assert sum(_indecomposable_poly(quiver, label, f)[0]) == poly(1)


# -- point roots: lines and hyperplanes at the center of a star ------------

# stars with the center listed first: it is then always the root, since the
# root's cost ties break towards the smaller index
STARS = [
    Quiver([2, 1, 3, 4], [(1, 2), (3, 2), (4, 2)]),  # D4 into the center
    Quiver([2, 1, 3, 4], [(2, 1), (2, 3), (2, 4)]),  # D4 out of the center
    Quiver([2, 1, 3, 4], [(1, 2), (2, 3), (2, 4)]),  # D4 subspace orientation
    Quiver([2, 1, 3], [(1, 2), (3, 2)]),  # zigzag A3
]


def _random_map(rng, f, rows, cols):
    """A random matrix of random rank, so that images and kernels vary."""
    r = int(rng.integers(0, min(rows, cols) + 1))
    return f.mul(rng.integers(0, f.p, (rows, r)), rng.integers(0, f.p, (r, cols)))


@pytest.mark.parametrize("quiver", STARS)
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_point_root_equals_brute_force(quiver, seed, p):
    rng = np.random.default_rng(seed)
    f = PrimeField(p)
    dims = [int(rng.integers(2, 5))] + [int(rng.integers(0, 4)) for _ in range(quiver.n - 1)]
    m = Representation(quiver, f, dims,
                       [_random_map(rng, f, dims[t], dims[s]) for s, t in quiver.arrows])
    e = [int(rng.choice([1, dims[0] - 1]))] + [int(rng.integers(0, dv + 1)) for dv in dims[1:]]
    assert _cheapest_root(quiver, m.dims, tuple(e), p) == 0
    # the point root enumerates nothing, so no budget can trip
    assert count_points(m, e, p, enum_budget=1) == brute_force_count(m, e, p)


def _star_oracle(m, e, center):
    """Sum over U in Gr(e_center, M_center) of the product over the leaves
    of the number of compatible U_leaf, from the ranks of each U."""
    f, q = m.field, m.quiver
    en = enumerate_subspaces(e[center], m.dims[center], f)
    u = en.bases.astype(np.int64)
    weights = np.ones(en.size, dtype=object)
    for a, (s, t) in enumerate(q.arrows):
        leaf = s if t == center else t
        dl, el = m.dims[leaf], e[leaf]
        if t == center:  # U_leaf inside the preimage of U under A, whose
            # dimension is dim M_leaf - dim(U + im A) + dim U
            span = np.broadcast_to(m.maps[a].T, (en.size, dl, m.dims[center]))
            pre = dl - f.batched_rank(np.concatenate([u, span], axis=1)) + e[center]
            counts = [gaussian_binomial(n, el, f.p) if el <= n else 0 for n in pre]
        else:  # U_leaf containing B(U)
            ranks = f.batched_rank(u @ m.maps[a].T)
            counts = [gaussian_binomial(dl - r, el - r, f.p) if r <= el else 0 for r in ranks]
        weights *= np.array(counts, dtype=object)
    return int(weights.sum())


@pytest.mark.parametrize("arrows", [[(1, 2), (3, 2), (4, 2)], [(2, 1), (2, 3), (2, 4)]])
def test_point_root_equals_subspace_loop_on_d4_nodes(arrows):
    cfg = PrincipalConfig(Quiver([1, 2, 3, 4], arrows), (1, 1, 1, 1), (1, 1, 1, 1))
    nodes = enumerate_isoclasses(cfg.catalog, cfg.d)
    assert cfg.e[1] in (1, cfg.d[1] - 1)
    for iso in nodes[:: len(nodes) // 6][:6]:  # six nodes spread over the family
        for p in (5, 7):
            m = cfg.catalog_at(p).realize(iso)
            assert count_points(m, cfg.e, p, enum_budget=1) == _star_oracle(m, cfg.e, 1)


def test_point_root_ignores_enum_budget(d4_center_cfg):
    cfg = d4_center_cfg
    iso = cfg.poset.minimal_element()
    m = cfg.catalog_at(2).realize(iso)
    assert count_points(m, cfg.e, 2, enum_budget=1) == brute_force_count(m, cfg.e, 2)


@pytest.mark.parametrize("quiver", STARS)
@given(seed=st.integers(0, 10 ** 6), p=st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_point_root_of_a_realized_isoclass_equals_brute_force(quiver, seed, p):
    # a realized module sums its summands' point-root tables
    rng = np.random.default_rng(seed)
    cat = get_catalog(quiver, p)
    counts, total = {}, [0] * quiver.n
    while total[0] < 2:  # a point root needs 0 < e_center < d_center
        lab = cat.labels[int(rng.integers(len(cat.labels)))]
        if all(t + dv <= 3 for t, dv in zip(total, lab.dims)):
            counts[lab] = counts.get(lab, 0) + 1
            total = [t + dv for t, dv in zip(total, lab.dims)]
    m = cat.realize(Isoclass(counts))
    e = [int(rng.choice([1, m.dims[0] - 1]))] + [int(rng.integers(0, dv + 1)) for dv in m.dims[1:]]
    assert _cheapest_root(quiver, m.dims, tuple(e), p) == 0
    assert count_points(m, e, p, enum_budget=1) == brute_force_count(m, e, p)


@pytest.mark.parametrize("cfg_name", ["zigzag3_cfg", "d4_center_cfg"])
def test_recorded_isoclass_gives_the_decomposed_chi(cfg_name, request):
    cfg = request.getfixturevalue(cfg_name)
    for iso in cfg.poset.nodes:
        for p in (2, 3, 5, 7, 11, 13):
            m = cfg.catalog_at(p).realize(iso)
            assert m.isoclass == iso
            copy = Representation(m.quiver, m.field, m.dims, m.maps)
            assert copy.isoclass is None
            # summed per-summand tables against the module as one summand
            assert count_points(m, cfg.e, p) == count_points(copy, cfg.e, p)
            if p == 2:
                assert _product(m, cfg.e) == _product(copy, cfg.e)


def test_chi_past_int64_stays_exact():
    # chi(Gr_35(F^70)) = C(70, 35) > 2^63: the product runs on Python ints
    q = zigzag_quiver(3)
    cat = get_catalog(q, 2)
    m = cat.realize(Isoclass({cat.simple_label(1): 70}))
    assert sum(_product(m, (0, 35, 0))[0]) == math.comb(70, 35) > 2**63
    assert sum(_product(m, (0, 1, 0))[0]) == 70


def _knapsack_chi(quiver, iso, e):
    """chi(Gr_e(M)) by a knapsack over the summands in a dict of partial
    sub-dimension vectors: the oracle of the dense product."""
    chis = {(0,) * quiver.n: 1}
    for label, mult in iso.counts.items():
        for _ in range(mult):
            grown = {}
            for g, c in chis.items():
                ranges = [range(min(x, ei - gi) + 1) for x, ei, gi in zip(label.dims, e, g)]
                for f in itertools.product(*ranges):
                    cx = sum(_indecomposable_poly(quiver, label, f)[0])
                    if cx:
                        h = tuple(a + b for a, b in zip(g, f))
                        grown[h] = grown.get(h, 0) + c * cx
            chis = grown
    return chis.get(tuple(e), 0)


@pytest.mark.parametrize("cfg_name", ["zigzag3_cfg", "eq_a3_cfg", "p1xp1_cfg", "a4_cfg",
                                      "d4_center_cfg"])
def test_chi_product_equals_the_knapsack(cfg_name, request):
    cfg = request.getfixturevalue(cfg_name)
    for iso in cfg.poset.nodes:
        m = cfg.catalog_at(2).realize(iso)
        assert sum(_product(m, cfg.e)[0]) == _knapsack_chi(cfg.quiver, iso, cfg.e)


# -- the twisted product over catalog summands -----------------------------

def _q_binomial(n, k):
    """Coefficients of [n, k]_q = prod over i <= k of (1 - q^(n-k+i)) / (1 - q^i)."""
    poly = [1]
    for i in range(1, k + 1):
        a = n - k + i
        poly = poly + [0] * a
        for j in range(len(poly) - 1, a - 1, -1):
            poly[j] -= poly[j - a]
        for j in range(i, len(poly)):  # exact division by 1 - q^i
            poly[j] += poly[j - i]
        poly = _strip(poly)
    return poly


def test_product_past_two_to_the_64_stays_exact():
    # Gr_70(F^140) as 140 copies of a simple: the fields are sized from the
    # bound 2^140 on chi, and the largest coefficient exceeds 2^64
    q = zigzag_quiver(3)
    cat = get_catalog(q, 2)
    m = cat.realize(Isoclass({cat.simple_label(1): 140}))
    expected = _q_binomial(140, 70)
    assert max(expected) > 2**64 and sum(expected) == math.comb(140, 70)
    assert _product(m, (0, 70, 0))[0] == expected


def test_check_mismatch_is_typed(eq_a3_cfg):
    # the matrices are one node's, the recorded isoclass another's of the
    # same dimension: the product reads the record, the DP the matrices
    cfg = eq_a3_cfg

    def honest(iso):
        return classify(lambda p: cfg.catalog_at(p).realize(iso), cfg.e).polynomial

    real = cfg.generic()
    counted = honest(real)(2)
    recorded = next(iso for iso in cfg.poset.nodes if honest(iso)(2) != counted)

    def mislabeled(p):
        m = cfg.catalog_at(p).realize(real)
        m.isoclass = recorded
        return m

    cls = classify(mislabeled, cfg.e)
    assert not cls.consistent
    assert cls.reason == (f"check mismatch at p=2: counted {counted}, "
                          f"product gives {honest(recorded)(2)}")
    assert cls.polynomial == honest(recorded) and sorted(cls.counts) == [2]


def test_product_equals_newton_on_a_d4_sample(d4_center_cfg):
    cfg = d4_center_cfg
    nodes = cfg.poset.nodes
    for iso in nodes[:: len(nodes) // 40][:40]:
        def m_for_prime(p):
            return cfg.catalog_at(p).realize(iso)
        assert classify(m_for_prime, cfg.e).polynomial == _newton_schedule(m_for_prime, cfg.e)


def test_product_equals_the_decoded_counts_on_eq_a3(eq_a3_report):
    # Newton would need counts up to p = 41 here (degrees up to 10), which
    # take minutes of enumeration; the decode needs primes whose product
    # exceeds chi, and two held-out primes must agree with it
    cfg = eq_a3_report.config
    assert len(eq_a3_report.classifications) == len(cfg.poset.nodes) == 35
    for iso, cls in eq_a3_report.classifications.items():
        coeffs = [int(c) for c in cls.polynomial.coeffs]
        primes, heldout = _schedule(sum(coeffs))

        def count_at(p):
            return count_points(cfg.catalog_at(p).realize(iso), cfg.e, p)

        assert _count_and_decode(count_at, primes, heldout, sum(coeffs)) == (coeffs, "")


D5_CENTER = Quiver([1, 2, 3, 4, 5], [(1, 2), (3, 2), (4, 2), (5, 4)])


@pytest.mark.parametrize("which", ["P+I", "mixed", "semisimple"])
def test_product_equals_dp_on_d5_isoclasses(which):
    # three isoclasses of dimension d = (3, 6, 3, 4, 4); no root is a point
    # root, so the DP reads the matrices of a copy without the record
    cfg = PrincipalConfig(D5_CENTER, (1,) * 5, (1,) * 5)
    cat = cfg.catalog_at(2)
    iso = {
        "P+I": cfg.proj_iso + cfg.inj_iso,
        "mixed": cat.parse_isoclass("V(1,2,1,2,1) + V(1,2,1,1,1) + V(1,1,1,1,1) + "
                                    "V(0,1,0,0,0) + V(0,0,0,0,1)"),
        "semisimple": Isoclass({cat.simple_label(v): cfg.d[v] for v in range(5)}),
    }[which]
    assert iso.dims(5) == cfg.d == (3, 6, 3, 4, 4)
    m = cat.realize(iso)
    copy = Representation(m.quiver, m.field, m.dims, m.maps)
    coeffs = _product(m, cfg.e)[0]
    assert _product(copy, cfg.e)[0] == coeffs  # the decomposed summands
    assert count_points(copy, cfg.e, 2) == _value(coeffs, 2)
