import itertools
import re
from math import comb

import numpy as np
import pytest

from quivergrass import pluecker as pluecker_module
from quivergrass.catalog import Isoclass, get_catalog
from quivergrass.lab import PrincipalConfig
from quivergrass.linalg import PrimeField
from quivergrass.pluecker import (
    MPoly,
    PlueckerError,
    PlueckerRing,
    _normalized,
    export_macaulay2,
    export_text,
    grassmann_relations,
    ideal,
    pluecker_coordinates,
)
from quivergrass.pointcount import enumerate_subspaces
from quivergrass.quiver import Quiver, QuiverError, linear_quiver, zigzag_quiver
from quivergrass.reps import Representation


def test_ring_variable_count():
    q = zigzag_quiver(3)
    ring = PlueckerRing(q, (3, 4, 3), (1, 3, 1))
    assert len(ring) == comb(3, 1) + comb(4, 3) + comb(3, 1)
    # multidegree of a product of one variable per vertex is (1, 1, 1)
    mono = (0, 3, 3 + comb(4, 3))
    assert ring.multidegree(tuple(sorted(mono))) == (1, 1, 1)


def test_ring_index_sorts_columns_and_rejects_missing_variables():
    q = zigzag_quiver(3)
    ring = PlueckerRing(q, (3, 4, 3), (1, 3, 1))
    for idx, var in enumerate(ring.variables):
        vertex = ring.vertex_of[idx]
        assert ring.index(vertex, var.cols) == idx
        assert ring.index(vertex, tuple(reversed(var.cols))) == idx
    # 3 columns at an e = 1 vertex, a column beyond d, a size-1 set at e = 3
    for vertex, cols in [(0, (1, 2, 3)), (0, (4,)), (1, (2,))]:
        with pytest.raises(PlueckerError, match="no variable D"):
            ring.index(vertex, cols)


def test_gr24_single_exchange_quadric():
    # Gr(2, 4) has exactly one Pluecker relation:
    # D12*D34 - D13*D24 + D14*D23
    q = Quiver([1], [])
    ring = PlueckerRing(q, (4,), (2,))
    rels = grassmann_relations(ring, 0)
    assert len(rels) == 1
    f = PrimeField(5)
    idx = {cols: ring.index(0, cols)
           for cols in itertools.combinations(range(1, 5), 2)}
    coords = {v: 0 for v in range(len(ring))}
    coords[idx[(1, 2)]] = 1
    coords[idx[(3, 4)]] = 1
    # the point with only D12 and D34 nonzero is NOT on the Grassmannian
    assert rels[0].evaluate(coords, f) != 0


@pytest.mark.parametrize("e, d, count", [(2, 4, 1), (2, 5, 5), (3, 6, 45)])
def test_grassmann_relation_counts(e, d, count):
    # distinct exchange quadrics up to sign, all with coefficients +-1
    ring = PlueckerRing(Quiver([1], []), (d,), (e,))
    rels = grassmann_relations(ring, 0)
    assert len(rels) == count
    assert {c for g in rels for c in g.coeffs.values()} == {1, -1}


def test_grassmann_relations_vanish_on_all_subspaces():
    q = Quiver([1], [])
    for d, e in [(4, 2), (5, 2)]:
        ring = PlueckerRing(q, (d,), (e,))
        rels = grassmann_relations(ring, 0)
        f = PrimeField(2)
        en = enumerate_subspaces(e, d, f)
        for b in np.asarray(en.bases, dtype=np.int64):
            coords = pluecker_coordinates(ring, [f.mat(b)], f)
            for g in rels:
                assert g.evaluate(coords, f) == 0


def vanishing_locus_matches_points(quiver, iso_labels, e, p, scope):
    """All relations vanish exactly on the Grassmannian's points."""
    cat = get_catalog(quiver, p)
    iso = cat.parse_isoclass(iso_labels)
    m = cat.realize(iso)
    ring, gens = ideal(m, e, scope=scope)
    f = PrimeField(p)
    enums = [enumerate_subspaces(e[v], m.dims[v], f) for v in range(quiver.n)]
    n_points = 0
    for choice in itertools.product(*[range(en.bases.shape[0]) for en in enums]):
        bases = [f.mat(np.asarray(enums[v].bases[choice[v]], dtype=np.int64))
                 for v in range(quiver.n)]
        is_point = all(
            f.solve(bases[quiver.target(a)].T,
                    f.mul(m.maps[a], bases[quiver.source(a)].T)) is not None
            for a in range(len(quiver.arrows)))
        coords = pluecker_coordinates(ring, bases, f)
        vanishes = all(g.evaluate(coords, f) == 0 for g in gens)
        assert vanishes == is_point
        n_points += is_point
    return n_points


@pytest.mark.parametrize("scope", ["arrows", "paths"])
def test_ideal_cuts_out_exactly_the_points(scope):
    from quivergrass.pointcount import count_points
    q = zigzag_quiver(3)
    cat = get_catalog(q, 2)
    n = vanishing_locus_matches_points(q, "U(1,3) + U(2,2)", (1, 1, 1), 2, scope)
    m = cat.realize(cat.parse_isoclass("U(1,3) + U(2,2)"))
    assert n == count_points(m, (1, 1, 1), 2)


def test_path_scope_on_equioriented_a3():
    q = linear_quiver(3, ">>")
    vanishing_locus_matches_points(q, "2*U(1,3)", (1, 1, 1), 2, "paths")


def test_generators_are_multihomogeneous():
    q = zigzag_quiver(3)
    cat = get_catalog(q)
    m = cat.realize(cat.parse_isoclass("U(1,3) + U(1,2) + U(2,3) + U(2,2)"))
    ring, gens = ideal(m, (1, 3, 1))
    for g in gens:
        degs = {ring.multidegree(mono) for mono in g.coeffs}
        assert len(degs) == 1


def test_empty_side_yields_no_arrow_relations():
    # e = 0 at the source: no bilinear relations for that arrow
    q = linear_quiver(2)
    f = PrimeField(107)
    m = Representation(q, f, (2, 2), [f.eye(2)])
    ring, gens = ideal(m, (0, 1))
    assert gens == []


def test_exports():
    q = linear_quiver(2)
    f = PrimeField(107)
    m = Representation(q, f, (2, 2), [f.eye(2)])
    ring, gens = ideal(m, (1, 1))
    text = export_text(gens)
    assert text.count("\n") == len(gens)
    m2 = export_macaulay2(ring, gens, 107)
    assert "ZZ/107" in m2 and "ideal" in m2
    assert "Degrees" in m2


def reference_bilinear_family(ring, s, t, mat):
    """The relations R(pi, I, J) of one signed integer matrix, summed term
    by term: p over the columns outside I, q over J."""
    es, et = ring.e[s], ring.e[t]
    ds, dt = ring.d[s], ring.d[t]
    out = []
    if es == 0 or et >= dt:
        return out
    entries = mat.tolist()
    for i_set in itertools.combinations(range(1, ds + 1), es - 1):
        for j_set in itertools.combinations(range(1, dt + 1), et + 1):
            coeffs = {}
            for p_col in range(1, ds + 1):
                if p_col in i_set:
                    continue
                v1 = ring.index(s, i_set + (p_col,))
                sign_p = (-1) ** sum(1 for x in i_set if x <= p_col)
                for q_col in j_set:
                    coeff = entries[q_col - 1][p_col - 1]
                    if coeff == 0:
                        continue
                    v2 = ring.index(t, tuple(x for x in j_set if x != q_col))
                    sign_q = (-1) ** sum(1 for x in j_set if x <= q_col)
                    mono = tuple(sorted((v1, v2)))
                    coeffs[mono] = coeffs.get(mono, 0) + sign_p * sign_q * coeff
            poly = MPoly(ring, coeffs)
            if poly:
                out.append(poly)
    return out


def reference_ideal(m, e, scope):
    """``ideal`` from scratch: a fresh ring, no memo."""
    q, f = m.quiver, m.field
    ring = PlueckerRing(q, m.dims, e)
    gens = [g for v in range(q.n) for g in grassmann_relations(ring, v)]
    if scope == "arrows":
        maps = [(s, t, m.maps[a]) for a, (s, t) in enumerate(q.arrows)]
    else:
        maps = [(path.source, path.target, m.path_matrix(path)) for path in q.paths()]
    for s, t, mat in maps:
        gens.extend(reference_bilinear_family(ring, s, t, f.lift_signed(mat)))
    seen, unique = set(), []
    for g in gens:
        key = _normalized(g, f)
        if key is not None and key not in seen:
            seen.add(key)
            unique.append(g)
    return ring, unique


def d4_subspace_cfg():
    # the configuration of the benchmark's Hilbert workload
    return PrincipalConfig(Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),
                           (1, 0, 1, 1), (1, 1, 1, 1))


def test_memoized_ideal_equals_a_fresh_construction(request):
    cfgs = [request.getfixturevalue(name) for name in
            ("zigzag3_cfg", "eq_a3_cfg", "p1xp1_cfg", "a4_cfg", "d4_center_cfg")]
    checked = 0
    # configurations and scopes interleave, so every memo is read warm
    # after other (quiver, d, e) keys went in
    for cfg in cfgs + [d4_subspace_cfg()]:
        for iso in cfg.poset.nodes:
            m = cfg.catalog.realize(iso)
            for scope in ("arrows", "paths"):
                ring, gens = ideal(m, cfg.e, scope=scope)
                fresh, expected = reference_ideal(m, cfg.e, scope)
                assert ring.variables == fresh.variables and ring.block == fresh.block
                # the same generators in the same order, each term in the same order
                assert [list(g.coeffs.items()) for g in gens] == \
                    [list(g.coeffs.items()) for g in expected]
                assert all(g.ring is ring for g in gens)
                checked += 1
    assert checked == 2 * sum(len(cfg.poset.nodes) for cfg in cfgs) + 2 * 302


def test_memoized_ideal_follows_d_and_e_on_one_quiver():
    q = linear_quiver(2)
    f = PrimeField(5)
    rng = np.random.default_rng(3)
    for d, e in [((4, 4), (2, 2)), ((4, 4), (2, 1)), ((4, 5), (2, 2)), ((4, 4), (1, 2)),
                 ((4, 4), (2, 2))]:
        m = Representation(q, f, d, [rng.integers(0, 5, size=(d[1], d[0]))])
        for scope in ("arrows", "paths"):
            ring, gens = ideal(m, e, scope=scope)
            fresh, expected = reference_ideal(m, e, scope)
            assert (ring.d, ring.e, ring.variables) == (fresh.d, fresh.e, fresh.variables)
            assert [g.coeffs for g in gens] == [g.coeffs for g in expected]


def test_ideal_errors_with_warm_memos():
    q = linear_quiver(2)
    f = PrimeField(107)
    m = Representation(q, f, (2, 2), [f.eye(2)])
    ring, gens = ideal(m, (1, 1))
    for _ in range(2):
        with pytest.raises(PlueckerError, match="e exceeds d at vertex 1"):
            ideal(m, (3, 1))
        with pytest.raises(PlueckerError, match="unknown scope"):
            ideal(m, (1, 1), scope="edges")
    again, same = ideal(m, [1, 1])  # a list e finds the same memo entry
    assert again is ring and [g.coeffs for g in same] == [g.coeffs for g in gens]


def test_ideal_refuses_a_float_entry_cold_and_warm():
    # the ring and relation memos compare (1.0, 1) equal to (1, 1)
    q = linear_quiver(2)
    m = Representation(q, PrimeField(3), (3, 2))
    pluecker_module._ring.cache_clear()
    with pytest.raises(QuiverError, match=re.escape("entry 1.0 at vertex 1 is not an integer")):
        ideal(m, (1.0, 1))
    ring, _ = ideal(m, (1, 1))
    assert ring.e == (1, 1)
    with pytest.raises(QuiverError, match=re.escape("entry 1.0 at vertex 1 is not an integer")):
        ideal(m, (1.0, 1))
