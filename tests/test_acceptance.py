"""Acceptance suite: one test (one pass/fail line under ``pytest -v``) per
published criterion, against the values tabulated in the accompanying
write-up.  The expensive full-poset classifications come from the shared
session fixtures in conftest.py."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from quivergrass.catalog import Isoclass, get_catalog
from quivergrass.groebner import groebner_basis, hilbert_component
from quivergrass.lab import (
    PrincipalConfig,
    check_conjecture,
    conjectured_m2,
    hom_criterion_set,
    split_at_deficient,
)
from quivergrass.linalg import PrimeField
from quivergrass.pluecker import ideal, pluecker_coordinates
from quivergrass.pointcount import brute_force_count, count_points, enumerate_subspaces
from quivergrass.poset import build_poset, generic_isoclass
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass import reps

from oracles import dual_degenerates_to, rank_order

D4_CENTER = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
D4_SUBSPACE = Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)])


def poly_product(*factors):
    """Multiply polynomials given as ascending coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        new = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * Fraction(b)
        out = new
    return tuple(out)


def test_criterion_01_euler_form_identities():
    for n in range(2, 7):
        q = linear_quiver(n, ">" * (n - 1))
        cfg = PrincipalConfig(q, (1,) * n, (1,) * n)
        assert cfg.expected_dim == n * (n + 1) // 2


@pytest.mark.parametrize("quiver", [linear_quiver(3, ">>"), D4_CENTER])
def test_criterion_02_hom_ext_consistency(quiver):
    cat = get_catalog(quiver)
    h = cat.hom_matrix()
    singles = [cat.realize(Isoclass({lab: 1})) for lab in cat.labels]
    for a, la in enumerate(cat.labels):
        for b, lb in enumerate(cat.labels):
            ext = reps.ext1_dim(singles[a], singles[b])
            assert h[a, b] - ext == quiver.euler_form(la.dims, lb.dims)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        picks = rng.integers(0, 3, size=len(cat.labels))
        counts = {lab: int(k) for lab, k in zip(cat.labels, picks) if k}
        if not counts:
            continue
        iso = Isoclass(counts)
        m = cat.realize(iso)
        for j in range(quiver.n):
            inj = cat.realize(Isoclass({cat.injective_label(j): 1}))
            assert reps.hom_dim(m, inj) == m.dims[j]


def test_criterion_03_bongartz_cross_check():
    for quiver, d in [(linear_quiver(3, ">>"), (4, 4, 4)),
                      (zigzag_quiver(3), (3, 4, 3))]:
        cat = get_catalog(quiver)
        poset = build_poset(cat, d)
        for m, n in itertools.product(poset.nodes, repeat=2):
            primal = poset.less_equal(m, n)
            assert primal == dual_degenerates_to(cat, m, n)
            assert primal == rank_order(cat, m, n)


def test_criterion_04_a3_zigzag_loci(zigzag3_cfg, zigzag3_report):
    rep = zigzag3_report
    p_plus_i = zigzag3_cfg.proj_iso + zigzag3_cfg.inj_iso
    assert rep.gamma1_sinks() == [p_plus_i]
    # gamma2 is a lower ideal of the degeneration poset
    ideal_nodes = rep.poset.lower_ideal(lambda x: x in set(rep.gamma2))
    assert set(ideal_nodes) == set(rep.gamma2)
    # every node has dimension >= 5 with equality exactly on gamma2
    for iso, cls in rep.classifications.items():
        assert cls.dimension >= 5
        assert (cls.dimension == 5) == (iso in set(rep.gamma2))


def test_criterion_05_p1xp1_degenerate_case(p1xp1_cfg, p1xp1_report):
    rep = p1xp1_report
    for cls in rep.classifications.values():
        assert tuple(cls.polynomial.coeffs) == (1, 2, 1)  # (q + 1)^2
    assert set(rep.gamma1) == set(rep.poset.nodes)
    cat = p1xp1_cfg.catalog
    sink = Isoclass({cat.simple_label(0): 2, cat.simple_label(1): 3,
                     cat.simple_label(2): 2})
    assert rep.gamma1_sinks() == [sink]


def test_criterion_06_a4_deficient_vertex(a4_cfg, a4_report):
    assert a4_cfg.d == (2, 4, 3, 3)
    assert a4_cfg.e == (1, 4, 2, 1)
    assert a4_cfg.expected_dim == 4
    cat = a4_cfg.catalog
    m1 = cat.parse_isoclass(
        "2*U(1,1) + 4*U(2,2) + U(3,3) + 2*U(3,4) + U(4,4)")
    assert a4_report.gamma1_sinks() == [m1]
    assert split_at_deficient(a4_cfg) == m1


def test_criterion_07_zigzag_components(zigzag3_cfg, zigzag3_report):
    cat = zigzag3_cfg.catalog
    m2 = cat.parse_isoclass(
        "U(1,2) + U(2,3) + 2*U(1,1) + 2*U(2,2) + 2*U(3,3)")
    assert zigzag3_report.gamma2_sinks() == [m2]
    cls = zigzag3_report.classification(m2)
    assert cls.dimension == 5  # 2n - 1 for n = 3
    assert cls.top_count == 4  # 2^(n-1)


def test_criterion_08_equioriented_flat_family(eq_a3_cfg, eq_a3_report, mod_socle):
    rep = eq_a3_report
    cat = eq_a3_cfg.catalog
    generic = generic_isoclass(cat, eq_a3_cfg.d)
    m0 = rep.classification(generic)
    assert (m0.dimension, m0.top_count) == (6, 1)
    # full flag variety of k^4: product of q-integers [2][3][4]
    flag = poly_product([1, 1], [1, 1, 1], [1, 1, 1, 1])
    assert tuple(m0.polynomial.coeffs) == flag
    # gamma2 sink is P + S + I/S
    counts = dict(eq_a3_cfg.proj_iso.counts)
    for v in range(3):
        counts[cat.simple_label(v)] = counts.get(cat.simple_label(v), 0) + 1
    for v in range(3):
        inj = cat.realize(Isoclass({cat.injective_label(v): 1}))
        quot = mod_socle(inj)
        if quot.total_dim:
            for lab, k in cat.decompose(quot).counts.items():
                counts[lab] = counts.get(lab, 0) + k
    m2 = Isoclass(counts)
    assert rep.gamma2_sinks() == [m2]
    assert rep.classification(m2).top_count == 5  # the Catalan number C_3


def test_criterion_09_d4_into_center(d4_center_cfg, d4_center_report):
    assert d4_center_cfg.expected_dim == 7
    cat = d4_center_cfg.catalog
    m2 = cat.parse_isoclass(
        "2*V(1,0,0,0) + V(1,1,0,0) + 2*V(0,1,0,0) + V(0,1,1,0) + "
        "2*V(0,0,1,0) + V(0,1,0,1) + 2*V(0,0,0,1)")
    assert d4_center_report.gamma2_sinks() == [m2]
    cls = d4_center_report.classification(m2)
    assert (cls.dimension, cls.top_count) == (7, 8)


def test_criterion_10_d4_subspace_sinks():
    cfg = PrincipalConfig(D4_SUBSPACE, (1, 1, 1, 1), (1, 1, 1, 1))
    assert cfg.d == (5, 5, 4, 4)
    assert cfg.e == (1, 2, 3, 3)
    assert cfg.expected_dim == 9
    cat = cfg.catalog
    m2s = [cat.parse_isoclass(text) for text in (
        "2*V(1,0,0,0) + V(1,1,0,0) + V(0,1,0,0) + V(1,1,1,0) + "
        "2*V(0,0,1,0) + V(0,1,0,1) + 2*V(0,0,0,1) + V(1,1,1,1)",
        "2*V(1,0,0,0) + V(1,1,0,0) + V(0,1,0,0) + V(0,1,1,0) + "
        "2*V(0,0,1,0) + V(1,1,0,1) + 2*V(0,0,0,1) + V(1,1,1,1)",
        "2*V(1,0,0,0) + V(1,1,0,0) + V(1,1,1,0) + V(0,1,1,0) + "
        "2*V(0,0,1,0) + V(1,1,0,1) + V(0,1,0,1) + 2*V(0,0,0,1)",
    )]
    for m in m2s:
        assert m.dims(4) == cfg.d
    for a, b in itertools.permutations(m2s, 2):
        assert not cfg.poset.less_equal(a, b)
    inj = {cat.injective_label(i) for i in range(4)}
    hom_p = cat.dual_iso_fingerprint(cfg.proj_iso)
    homs = [cat.dual_iso_fingerprint(m) for m in m2s]
    for b, lab in enumerate(cat.labels):
        if lab in inj:
            continue
        assert max(h[b] for h in homs) == hom_p[b] + 1


def test_criterion_11_hom_bound_counterexample():
    cfg = PrincipalConfig(D4_SUBSPACE, (1, 0, 1, 1), (1, 1, 1, 1))
    cat = cfg.catalog
    m2 = cat.parse_isoclass(
        "2*V(1,0,0,0) + V(1,1,0,0) + V(0,1,0,0) + V(1,1,1,0) + "
        "2*V(0,0,1,0) + V(1,1,0,1) + 2*V(0,0,0,1)")
    assert m2.dims(4) == cfg.d
    x = cat.realize(cat.parse_isoclass("V(0,1,1,1)"))
    hom_m2 = reps.hom_dim(cat.realize(m2), x)
    hom_p = reps.hom_dim(cat.realize(cfg.proj_iso), x)
    assert hom_m2 == 4 == hom_p + 2
    crit = hom_criterion_set(cfg)
    assert len(crit.sinks) == 4


def zigzag_hilbert_formula(m):
    u1, u2, u3 = (mi + 1 for mi in m)
    val = Fraction(u1 * u2 * u3, 12) * (
        3 * u1 * u2 + 3 * u1 * u3 + 3 * u2 * u3 + 2 * u2 ** 2 + 1)
    assert val.denominator == 1
    return int(val)


def test_criterion_12_hilbert_formulas(zigzag3_cfg, d4_center_cfg):
    cat = zigzag3_cfg.catalog
    m0 = generic_isoclass(cat, zigzag3_cfg.d)
    ring, gens = ideal(cat.realize(m0), zigzag3_cfg.e, scope="paths")
    basis = groebner_basis(ring, gens, 107, max_degree=6)
    for m in itertools.product(range(3), repeat=3):
        assert hilbert_component(ring, basis, m) == zigzag_hilbert_formula(m)
    assert zigzag_hilbert_formula((1, 1, 1)) == 30
    # D4 into-center generic, multidegree (1, 1, 1, 1)
    cat4 = d4_center_cfg.catalog
    g4 = generic_isoclass(cat4, d4_center_cfg.d)
    ring4, gens4 = ideal(cat4.realize(g4), d4_center_cfg.e, scope="paths")
    basis4 = groebner_basis(ring4, gens4, 107, max_degree=4)
    assert hilbert_component(ring4, basis4, (1, 1, 1, 1)) == 108


def test_criterion_13_multigraded_dimension_probe(zigzag3_cfg, zigzag3_report):
    verdict = check_conjecture(zigzag3_cfg, "E", report=zigzag3_report)
    assert verdict.holds is True
    assert not verdict.details["violations"]


def test_criterion_14_property_suites(zigzag3_report, eq_a3_report,
                                      p1xp1_report):
    # (a) DP equals brute force at p in {2, 3} on fixed instances
    for quiver, iso_text, e in [
        (zigzag_quiver(3), "U(1,3) + U(1,2) + U(2,2)", (1, 2, 1)),
        (linear_quiver(3, ">>"), "2*U(1,3) + U(2,2)", (1, 2, 2)),
        (D4_CENTER, "V(1,2,1,1) + V(0,1,0,0)", (1, 2, 1, 1)),
    ]:
        for p in (2, 3):
            cat = get_catalog(quiver, p)
            m = cat.realize(cat.parse_isoclass(iso_text))
            assert count_points(m, e, p) == brute_force_count(m, e, p)
    # (b) every relation vanishes on every enumerated point
    p = 2
    cat = get_catalog(zigzag_quiver(3), p)
    m = cat.realize(cat.parse_isoclass("U(1,3) + U(2,2)"))
    e = (1, 1, 1)
    ring, gens = ideal(m, e, scope="paths")
    f = PrimeField(p)
    enums = [enumerate_subspaces(e[v], m.dims[v], f) for v in range(3)]
    for choice in itertools.product(*[range(en.bases.shape[0]) for en in enums]):
        bases = [f.mat(np.asarray(enums[v].bases[choice[v]], dtype=np.int64))
                 for v in range(3)]
        on_grassmannian = all(
            f.solve(bases[m.quiver.target(a)].T,
                    f.mul(m.maps[a], bases[m.quiver.source(a)].T)) is not None
            for a in range(2))
        if on_grassmannian:
            coords = pluecker_coordinates(ring, bases, f)
            assert all(g.evaluate(coords, f) == 0 for g in gens)
    # (c) reduced Groebner bases are invariant under generator shuffling
    base = groebner_basis(ring, gens, p)
    rng = np.random.default_rng(14)
    shuffled = [gens[i] for i in rng.permutation(len(gens))]
    assert [g.coeffs for g in groebner_basis(ring, shuffled, p)] == \
        [g.coeffs for g in base]
    # (d) interpolation held-out consistency on every reported classification
    for report in (zigzag3_report, eq_a3_report, p1xp1_report):
        assert report.classifications
        for cls in report.classifications.values():
            assert cls.consistent


def test_a5_hom_level_check():
    # 1 -> 2 <- 3 <- 4 <- 5, full principal; the conjectured deepest
    # minimal-dimension representation satisfies the +1 Hom identity
    q = Quiver([1, 2, 3, 4, 5], [(1, 2), (3, 2), (4, 3), (5, 4)])
    cfg = PrincipalConfig(q, (1,) * 5, (1,) * 5)
    cat = cfg.catalog
    m2 = cat.parse_isoclass(
        "2*U(1,1) + U(1,2) + 2*U(2,2) + U(2,3) + U(3,3) + U(2,4) + "
        "U(4,4) + U(2,5) + U(3,5) + U(4,5) + 2*U(5,5)")
    assert conjectured_m2(cfg) == m2
    assert m2.dims(5) == cfg.d
    inj = {cat.injective_label(i) for i in range(5)}
    hom_m2 = cat.dual_iso_fingerprint(m2)
    hom_p = cat.dual_iso_fingerprint(cfg.proj_iso)
    for b, lab in enumerate(cat.labels):
        if lab not in inj:
            assert hom_m2[b] == hom_p[b] + 1
