import heapq
import itertools
import operator
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivergrass import groebner, lab, pointcount
from quivergrass.groebner import (
    GPoly,
    GroebnerError,
    groebner_basis,
    hilbert_component,
    hilbert_table,
    krull_dimension,
    projective_dimension,
)
from quivergrass.linalg import PrimeField
from quivergrass.lab import PrincipalConfig
from quivergrass.pluecker import MPoly, PlueckerRing, ideal
from quivergrass.quiver import Quiver, QuiverError, linear_quiver, zigzag_quiver
from quivergrass.reps import Representation


def _grevlex_key(mono: tuple[int, ...]):
    # first listed variable is largest; standard grevlex tie-break
    return (sum(mono), tuple(-x for x in reversed(mono)))


def gp(coeffs, p=107):
    """The polynomial on exponent tuples with coefficients reduced mod p and
    its grevlex lead (None when it is zero)."""
    coeffs = {m: c % p for m, c in dict(coeffs).items() if c % p}
    return GPoly(coeffs, max(coeffs, key=_grevlex_key) if coeffs else None)


def single_vertex_ring(d, e):
    return PlueckerRing(Quiver([1], []), (d,), (e,))


def tuple_basis(gens, p, nvars=None, *, max_degree=None,
                pair_budget=groebner.DEFAULT_PAIR_BUDGET):
    """``groebner_basis`` on exponent-tuple generators: on Gr(1, n) the n
    Pluecker variables are the polynomial ring's, and a monomial is its
    sorted variable indices.  ``pair_budget`` replaces the module's S-pair
    budget for the call."""
    if nvars is None:
        nvars = len(next(m for g in gens for m in g.coeffs))
    ring = single_vertex_ring(nvars, 1)
    mpolys = [MPoly(ring, {tuple(i for i, x in enumerate(m) for _ in range(x)): c
                           for m, c in g.coeffs.items()}) for g in gens]
    with mock.patch.object(groebner, "DEFAULT_PAIR_BUDGET", pair_budget):
        return groebner_basis(ring, mpolys, p, max_degree=max_degree)


def brute_hilbert(ring, basis, m):
    """Oracle: list every multidegree-m monomial and test it against every
    leading term."""
    nvars = len(ring)
    leads = [g.lead for g in basis]
    per_block = [
        list(itertools.combinations_with_replacement(range(lo, hi), deg))
        for (lo, hi), deg in zip(ring.block, m)
    ]
    count = 0
    for combos in itertools.product(*per_block):
        exps = [0] * nvars
        for combo in combos:
            for idx in combo:
                exps[idx] += 1
        if not any(all(map(operator.le, lead, exps)) for lead in leads):
            count += 1
    return count


def layout_ring(sizes):
    """A ring on a type A quiver whose vertex blocks have the given numbers
    of variables: Gr(1, k) for k >= 2, Gr(0, 1) for k = 1."""
    q = linear_quiver(len(sizes))
    d = tuple(sizes)
    e = tuple(0 if k == 1 else 1 for k in sizes)
    return PlueckerRing(q, d, e)


def monomial_basis(leads, p=107):
    return [gp({tuple(lead): 1}, p) for lead in leads]


def leads_on(ring):
    lead = st.lists(st.integers(0, 2), min_size=len(ring), max_size=len(ring))
    return st.lists(lead, max_size=12)


@st.composite
def monomial_ideals(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    ring = layout_ring(sizes)
    leads = draw(leads_on(ring))
    m = draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
    return ring, monomial_basis(leads), tuple(m)


def test_normal_form_reduces_members_to_zero():
    # x^2 - y, y^2 - x in k[x, y]; x^4 - x reduces to zero
    p = 7
    g1 = gp({(2, 0): 1, (0, 1): p - 1}, p)
    g2 = gp({(0, 2): 1, (1, 0): p - 1}, p)
    basis = tuple_basis([g1, g2], p)
    member = gp({(4, 0): 1, (1, 0): p - 1}, p)  # x^4 - x = (x^2+y)(x^2-y) + (y^2-x)
    assert not reference_normal_form(member, basis, PrimeField(p)).coeffs


def test_groebner_reduced_basis_unique_under_shuffle():
    q = zigzag_quiver(3)
    f = PrimeField(107)
    rng = np.random.default_rng(0)
    m = Representation(q, f, (2, 3, 2), [
        f.mat(rng.integers(0, 107, size=(3, 2))),
        f.mat(rng.integers(0, 107, size=(3, 2)))])
    ring, gens = ideal(m, (1, 2, 1))
    base = groebner_basis(ring, gens, 107)
    for seed in range(3):
        rng2 = np.random.default_rng(seed)
        shuffled = [gens[i] for i in rng2.permutation(len(gens))]
        other = groebner_basis(ring, shuffled, 107)
        assert [g.coeffs for g in other] == [g.coeffs for g in base]


def test_sq_polynomial_criterion():
    # a reduced Groebner basis has pairwise zero-reducing S-polynomials;
    # sanity check with the twisted cubic: ideal(xz - y^2, yw - z^2, xw - yz)
    p = 101
    x, y, z, w = range(4)
    def mono(**kw):
        e = [0, 0, 0, 0]
        for k, v in kw.items():
            e["xyzw".index(k)] = v
        return tuple(e)
    gens = [
        gp({mono(x=1, z=1): 1, mono(y=2): p - 1}, p),
        gp({mono(y=1, w=1): 1, mono(z=2): p - 1}, p),
        gp({mono(x=1, w=1): 1, mono(y=1, z=1): p - 1}, p),
    ]
    basis = tuple_basis(gens, p)
    # the cone over the twisted cubic has Krull dimension 2
    assert krull_dimension(basis, 4) == 2
    for g in gens:
        assert not reference_normal_form(g, basis, PrimeField(p)).coeffs


def test_krull_dimension_monomial_cases():
    p = 7
    # <x> in k[x,y]: dimension 1; <x,y>: 0; <xy>: 1; <> : 2
    assert krull_dimension([gp({(1, 0): 1}, p)], 2) == 1
    assert krull_dimension([gp({(1, 0): 1}, p), gp({(0, 1): 1}, p)], 2) == 0
    assert krull_dimension([gp({(1, 1): 1}, p)], 2) == 1
    assert krull_dimension([], 2) == 2


def test_hilbert_component_brute_oracle():
    # quiver 1 -> 2 with identity map on dims (2, 2), e = (1, 1)
    q = linear_quiver(2)
    f = PrimeField(107)
    m = Representation(q, f, (2, 2), [f.eye(2)])
    ring, gens = ideal(m, (1, 1))
    basis = groebner_basis(ring, gens, 107, max_degree=6)
    for mdeg in [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
        assert hilbert_component(ring, basis, mdeg) == brute_hilbert(ring, basis, mdeg)


@settings(max_examples=200, deadline=None)
@given(monomial_ideals())
def test_hilbert_component_matches_oracle_on_random_monomial_ideals(case):
    ring, basis, m = case
    assert hilbert_component(ring, basis, m) == brute_hilbert(ring, basis, m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hilbert_component_shared_tables_on_interleaved_bases(data):
    # every multidegree <= 2 in a shuffled order, two bases interleaved
    # (A, B, A): the calls share block masks and prefix folds, and earlier
    # examples' tables are evicted from the two-entry cache
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    ring = layout_ring(sizes)
    first = monomial_basis(data.draw(leads_on(ring)))
    second = monomial_basis(data.draw(leads_on(ring)))
    degrees = data.draw(st.permutations(list(itertools.product(range(3), repeat=len(sizes)))))
    for m in degrees:
        expected = {id(b): brute_hilbert(ring, b, m) for b in (first, second)}
        for basis in (first, second, first):
            assert hilbert_component(ring, basis, m) == expected[id(basis)]
    assert groebner._lead_tables.cache_info().currsize <= 2


def test_hilbert_component_constant_lead():
    ring = layout_ring([3, 1, 2])
    for leads in [[(0,) * 6], [(0,) * 6, (1, 0, 0, 0, 1, 0)]]:
        basis = monomial_basis(leads)
        for m in itertools.product(range(3), repeat=3):
            assert hilbert_component(ring, basis, m) == 0


def test_hilbert_component_tables_keyed_by_block_layout():
    # x0*x2 spans two blocks of [2, 3] but lies in the first block of [3, 2]
    split, joined = layout_ring([2, 3]), layout_ring([3, 2])
    leads = [(1, 0, 1, 0, 0)]
    for m, values in [((1, 1), (5, 6)), ((2, 0), (3, 5)), ((2, 1), (7, 10))]:
        for ring, value in zip((split, joined), values):
            basis = monomial_basis(leads)
            assert brute_hilbert(ring, basis, m) == value
            assert hilbert_component(ring, basis, m) == value


def test_hilbert_table_memo_keyed_by_block_layout():
    # one lead x0*x2 and one degree list on two layouts of five variables:
    # a table memo keyed without the layout would give both the same values
    split, joined = layout_ring([2, 3]), layout_ring([3, 2])
    degrees = [(1, 1), (2, 0), (2, 1)]
    for _ in range(2):
        for ring, values in [(split, [5, 3, 7]), (joined, [6, 5, 10])]:
            table = hilbert_table(ring, [MPoly(ring, {(0, 2): 1})], 107, degrees)
            assert [row["dim"] for row in table] == values
            assert [row["m"] for row in table] == [list(m) for m in degrees]


def test_hilbert_table_reads_one_table_per_leading_term_ideal():
    # x0*x2 and x0*x2 + x1*x2 have one lead in grevlex: the second ideal's
    # values come from the first's table, and a warm degree list is one hit
    # of the check memo, not checked entry by entry again
    ring = layout_ring([2, 3])
    degrees = [(1, 1), (2, 0), (2, 1)]
    first = hilbert_table(ring, [MPoly(ring, {(0, 2): 1})], 107, degrees)
    hits = groebner._table_values.cache_info().hits
    checks = groebner._checked.cache_info()
    second = hilbert_table(ring, [MPoly(ring, {(0, 2): 1, (1, 2): 1})], 107, degrees)
    assert second == first
    assert groebner._table_values.cache_info().hits == hits + 1
    assert groebner._checked.cache_info()[:2] == (checks.hits + 1, checks.misses)
    assert groebner._table_values.cache_info().maxsize == groebner.TABLE_MEMO == 256


def test_hilbert_component_edge_cases():
    ring = layout_ring([3, 1, 4])  # the middle block is Gr(0, 1): one variable
    basis = monomial_basis([(1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 2, 0)])
    # m = 0: only the constant monomial
    assert hilbert_component(ring, basis, (0, 0, 0)) == 1
    # empty basis: all prod_i C(k_i + m_i - 1, m_i) candidates are standard
    for m, total in [((0, 0, 0), 1), ((2, 3, 1), 6 * 1 * 4), ((3, 0, 2), 10 * 1 * 10)]:
        assert hilbert_component(ring, [], m) == total
    # one-variable block: its only degree-m_i monomial is x^m_i
    assert hilbert_component(ring, [], (0, 5, 0)) == 1
    single = monomial_basis([(0, 0, 0, 2, 0, 0, 0, 0)])
    assert hilbert_component(ring, single, (0, 1, 0)) == 1
    assert hilbert_component(ring, single, (1, 2, 1)) == 0
    # the second lead has degree 2 > m_3 = 1 in the last block: it divides
    # nothing, so only the first lead cuts (5 of 6 block-1 quadrics survive)
    for m in [(2, 1, 1), (2, 0, 1)]:
        expected = brute_hilbert(ring, basis, m)
        assert hilbert_component(ring, basis, m) == expected
        assert hilbert_component(ring, basis[:1], m) == expected
    assert hilbert_component(ring, basis, (2, 0, 1)) == 5 * 4


D4_SUBSPACE_NODES = [
    # the smallest Hilbert values in degrees <= 2 (demo 04's M2), middling
    # values and the largest ones
    "2*V(1,0,0,0) + V(1,1,0,0) + V(0,1,0,0) + V(1,1,1,0) + "
    "2*V(0,0,1,0) + V(1,1,0,1) + 2*V(0,0,0,1)",
    "3*V(0,0,0,1) + 2*V(0,0,1,0) + V(1,0,0,0) + 3*V(1,1,0,0) + V(1,1,1,0)",
    "3*V(0,0,0,1) + 3*V(0,0,1,0) + 4*V(0,1,0,0) + 5*V(1,0,0,0)",
]


@pytest.mark.parametrize("scope", ["arrows", "paths"])
def test_hilbert_component_matches_oracle_on_d4_subspace_ideals(scope):
    cfg = PrincipalConfig(Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),
                          (1, 0, 1, 1), (1, 1, 1, 1))
    for text in D4_SUBSPACE_NODES:
        rep = cfg.catalog.realize(cfg.catalog.parse_isoclass(text))
        ring, gens = ideal(rep, cfg.e, scope=scope)
        basis = groebner_basis(ring, gens, cfg.catalog_prime, max_degree=8)
        for m in itertools.product(range(3), repeat=4):
            assert hilbert_component(ring, basis, m) == brute_hilbert(ring, basis, m)


def test_hilbert_component_budget_error_names_both_numbers():
    ring = layout_ring([3, 2])
    with pytest.raises(GroebnerError, match=r"\b6\b.*\b1\b"):
        hilbert_component(ring, [], (1, 1), budget=1)
    assert hilbert_component(ring, [], (1, 1), budget=6) == 6


def test_hilbert_component_budget_checked_before_any_table():
    ring = layout_ring([3, 2])
    basis = monomial_basis([(1, 0, 0, 1, 0), (0, 2, 0, 0, 0)])
    misses = groebner._lead_tables.cache_info().misses
    with pytest.raises(GroebnerError):
        hilbert_component(ring, basis, (2, 2), budget=17)
    assert groebner._lead_tables.cache_info().misses == misses


def test_hilbert_component_errors_with_warm_memos():
    # a pass at the default budget fills the check memo; errors are not
    # cached, so each call raises again with the same text
    ring = layout_ring([3, 2])
    basis = monomial_basis([(1, 0, 0, 1, 0)])
    value = hilbert_component(ring, basis, (2, 2))
    texts = []
    for _ in range(2):
        with pytest.raises(GroebnerError) as err:
            hilbert_component(ring, basis, (2, 2), budget=17)
        texts.append(str(err.value))
        with pytest.raises(QuiverError, match="length 3"):
            hilbert_component(ring, basis, (2, 2, 1))
    assert texts == ["18 candidate monomials of multidegree [2, 2] exceed the budget 17"] * 2
    assert hilbert_component(ring, basis, [2, 2]) == value == brute_hilbert(ring, basis, (2, 2))


def test_hilbert_table_validates_its_degree_list_before_any_table():
    # C(3 + 2000 - 1, 2000) * 2 = 4,006,002 candidates exceed the budget
    ring = layout_ring([3, 2])
    misses = groebner._lead_tables.cache_info().misses
    with pytest.raises(GroebnerError, match=re.escape("multidegree [2000, 1] exceed")):
        hilbert_table(ring, [], 107, [(1, 1), (2000, 1), (3000, 1)])
    with pytest.raises(QuiverError, match="length 3"):
        hilbert_table(ring, [], 107, [(1, 1), (1, 1, 1)])
    with pytest.raises(QuiverError, match="negative"):
        hilbert_table(ring, [], 107, [(1, 1), (2, -1)])
    with pytest.raises(QuiverError, match=r"1\.7 at vertex 1 is not an integer"):
        hilbert_table(ring, [], 107, [(1, 1), (1.7, 1)])
    assert groebner._lead_tables.cache_info().misses == misses
    assert hilbert_table(ring, [], 107, [(2, 1), (1, 0)]) == [
        {"m": [2, 1], "dim": 12}, {"m": [1, 0], "dim": 3}]


FLOAT_ENTRY = re.escape("entry 1.0 at vertex 1 is not an integer")


def test_hilbert_component_refuses_a_float_entry_cold_and_warm():
    # the check memo compares (1.0, 1) equal to (1, 1): a float must not
    # pass once the int multidegree is warm
    ring = PlueckerRing(linear_quiver(2), (3, 2), (1, 1))
    groebner._checked.cache_clear()
    with pytest.raises(QuiverError, match=FLOAT_ENTRY):
        hilbert_component(ring, [], (1.0, 1))
    assert hilbert_component(ring, [], (1, 1)) == 6
    with pytest.raises(QuiverError, match=FLOAT_ENTRY):
        hilbert_component(ring, [], (1.0, 1))
    assert hilbert_component(ring, [], np.array([1, 1])) == 6


def test_hilbert_table_refuses_a_float_entry_cold_and_warm():
    ring = PlueckerRing(linear_quiver(2), (3, 2), (1, 1))
    groebner._checked.cache_clear()
    with pytest.raises(QuiverError, match=FLOAT_ENTRY):
        hilbert_table(ring, [], 107, [(1.0, 1)])
    assert hilbert_table(ring, [], 107, [(1, 1)]) == [{"m": [1, 1], "dim": 6}]
    with pytest.raises(QuiverError, match=FLOAT_ENTRY):
        hilbert_table(ring, [], 107, [(1.0, 1)])
    assert hilbert_table(ring, [], 107, [np.array([1, 1])]) == [{"m": [1, 1], "dim": 6}]


def test_groebner_memos_emptied_by_the_benchmark_cache_rule():
    # perfbench/run.py:clear_caches calls cache_clear on every module-level
    # callable of quivergrass that has one, so each memo must be such a
    # cache; the point counts, the catalogs' integer models, the reflected
    # quivers and the Pluecker rings, quadrics and relation terms keep their
    # tables under the same rule, or a "cold" set-up would run warm
    ring = layout_ring([3, 2])
    hilbert_table(ring, [], 107, [(1, 1), (2, 1)])
    hilbert_component(ring, monomial_basis([(1, 0, 0, 1, 0)]), (2, 2))
    cfg = PrincipalConfig(Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),
                          (1, 1, 1, 1), (1, 1, 1, 1))
    m = cfg.catalog_at(3).realize(cfg.generic())
    pointcount.classify(lambda p: cfg.catalog_at(p).realize(cfg.generic()), cfg.e)
    pointcount.count_points(m, (1, 2, 1, 1), 3)  # not a point root: enumerates
    ideal(m, cfg.e, scope="paths")
    lab.ExperimentReport(cfg).hilbert_values(cfg.generic(), "paths")
    memos = {"quivergrass.groebner": {"_lead_tables", "_monomials", "_checked",
                                      "_table_values"},
             "quivergrass.pluecker": {"_ring", "_quadrics", "_terms"},
             "quivergrass.pointcount": {"_cached_enum", "_gauss_table", "_cheapest_root",
                                        "_summand_point_ranks", "_indecomposable_poly",
                                        "_summand_terms", "_box", "_power_table"},
             "quivergrass.catalog": {"_cached_catalog", "_integer_models"},
             "quivergrass.quiver": {"_reversed_at", "_opposite"},
             "quivergrass.poset": set()}
    for module_name, expected in memos.items():
        module = sys.modules[module_name]
        cleared = []
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)):
                assert obj.cache_info().currsize or name not in expected, name
                obj.cache_clear()
                cleared.append(name)
        assert expected <= set(cleared)
        for name in cleared:
            assert getattr(module, name).cache_info().currsize == 0, name
        # no memo outside those caches: no filled module-level container
        held = [name for name, obj in vars(module).items()
                if not name.startswith("__") and isinstance(obj, (dict, list, set)) and obj]
        assert held == []
    # lab's module-level dicts are constants; its two memos are caches too
    for memo in (lab._inner, lab._path_labels):
        assert memo.cache_info().currsize
        memo.cache_clear()


def test_hilbert_values_flag_example():
    # Gr(1, 2) x Gr(1, 2) with identity gluing: the ideal of P^1 embedded
    # diagonally-compatibly; h(1, 1) counts sections of O(1, 1) on the
    # incidence variety {line in plane containment}
    q = linear_quiver(2)
    f = PrimeField(107)
    m = Representation(q, f, (2, 2), [f.eye(2)])
    ring, gens = ideal(m, (1, 1))
    table = hilbert_table(ring, gens, 107, [(0, 0), (1, 0), (0, 1), (1, 1)])
    vals = {tuple(entry["m"]): entry["dim"] for entry in table}
    assert vals[(0, 0)] == 1
    assert vals[(1, 0)] == 2
    assert vals[(0, 1)] == 2
    # P(ker) incidence: h^0 of O(1,1) on the flag variety of k^2 = 3
    assert vals[(1, 1)] == 3


def test_projective_dimension_grassmannian():
    # cone over Gr(2, 4) in P^5: Krull dimension 5, projective dimension 4
    ring = single_vertex_ring(4, 2)
    from quivergrass.pluecker import grassmann_relations
    gens = grassmann_relations(ring, 0)
    basis = groebner_basis(ring, gens, 107)
    assert krull_dimension(basis, len(ring)) == 5
    assert projective_dimension(ring, basis) == 4


def test_pair_budget_enforced():
    # the twisted cubic needs at least one genuine S-pair reduction
    p = 101
    gens = [
        gp({(1, 0, 1, 0): 1, (0, 2, 0, 0): p - 1}, p),
        gp({(0, 1, 0, 1): 1, (0, 0, 2, 0): p - 1}, p),
        gp({(1, 0, 0, 1): 1, (0, 1, 1, 0): p - 1}, p),
    ]
    with pytest.raises(GroebnerError):
        tuple_basis(gens, p, pair_budget=0)
    # the error names the budget, the pairs processed and pending, and the
    # basis length (every S-pair of this basis reduces to zero)
    with pytest.raises(GroebnerError,
                       match=r"budget 1\b.*\b1 processed, 2 pending, 3 basis elements"):
        tuple_basis(gens, p, pair_budget=1)
    assert len(tuple_basis(gens, p, pair_budget=3)) == 3


# -- the tuple Buchberger as an oracle for the packed one ---------------------

def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ref_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _ref_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_normal_form(f, basis, field):
    """Division on exponent tuples, leading term by max over the dict."""
    p = field.p
    work = dict(f.coeffs)
    remainder = {}
    while work:
        m = max(work, key=_grevlex_key)
        c = work[m] % p
        if not c:
            del work[m]
            continue
        for g in basis:
            if g.lead is not None and _ref_divides(g.lead, m):
                shift = _ref_div(m, g.lead)
                factor = (c * field.inv_scalar(g.coeffs[g.lead])) % p
                for gm, gc in g.coeffs.items():
                    key = _ref_mul(gm, shift)
                    val = (work.get(key, 0) - factor * gc) % p
                    if val:
                        work[key] = val
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return gp(remainder, p)


def reference_buchberger(gens, field, *, max_degree=None, pair_budget=200_000):
    """Buchberger on exponent tuples with the packed one's pair order (lcm
    degree, then index), interreduced the same way."""
    p = field.p
    basis = [g for g in gens if g.coeffs]
    heap = [(sum(_ref_lcm(basis[i].lead, basis[j].lead)), i, j)
            for i in range(len(basis)) for j in range(i)]
    heapq.heapify(heap)
    processed = 0
    while heap:
        processed += 1
        if processed > pair_budget:
            raise GroebnerError(f"S-pair budget {pair_budget} exhausted")
        _, i, j = heapq.heappop(heap)
        gi, gj = basis[i], basis[j]
        lcm = _ref_lcm(gi.lead, gj.lead)
        if max_degree is not None and sum(lcm) > max_degree:
            continue
        if lcm == _ref_mul(gi.lead, gj.lead):
            continue
        ci = field.inv_scalar(gi.coeffs[gi.lead])
        cj = field.inv_scalar(gj.coeffs[gj.lead])
        s = {}
        for m, c in gi.coeffs.items():
            key = _ref_mul(m, _ref_div(lcm, gi.lead))
            s[key] = (s.get(key, 0) + c * ci) % p
        for m, c in gj.coeffs.items():
            key = _ref_mul(m, _ref_div(lcm, gj.lead))
            s[key] = (s.get(key, 0) - c * cj) % p
        rem = reference_normal_form(gp(s, p), basis, field)
        if rem.coeffs:
            k = len(basis)
            basis.append(rem)
            for t in range(k):
                heapq.heappush(heap, (sum(_ref_lcm(rem.lead, basis[t].lead)), k, t))
    kept = []
    for g in sorted(basis, key=lambda g: _grevlex_key(g.lead)):
        if not any(_ref_divides(h.lead, g.lead) for h in kept):
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        r = reference_normal_form(g, kept[:i] + kept[i + 1:], field)
        if r.coeffs:
            inv = field.inv_scalar(r.coeffs[r.lead])
            out.append(gp({m: c * inv for m, c in r.coeffs.items()}, p))
    out.sort(key=lambda g: _grevlex_key(g.lead))
    return out


def terms_of(basis):
    return [(g.lead, g.coeffs) for g in basis]


def outcome(run):
    """The basis ``run()`` returns as (lead, coefficients) pairs, or "budget"
    when it runs out."""
    try:
        return terms_of(run())
    except GroebnerError:
        return "budget"


@st.composite
def homogeneous_ideals(draw):
    nvars = draw(st.integers(1, 6))
    p = draw(st.sampled_from([2, 3, 107]))
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.sampled_from([2, 3]))
        mono = st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)
        terms = {}
        for idx in draw(st.lists(mono, min_size=1, max_size=5)):
            exps = [0] * nvars
            for i in idx:
                exps[i] += 1
            terms[tuple(exps)] = draw(st.integers(1, 300))
        gens.append(gp(terms, p))
    max_degree = draw(st.sampled_from([None, 2, 3, 4, 5, 6]))
    return nvars, gens, PrimeField(p), max_degree


@settings(max_examples=150, deadline=None)
@given(homogeneous_ideals())
def test_packed_buchberger_equals_tuple_oracle(case):
    nvars, gens, field, max_degree = case
    # same pair order, so a budget runs out on both sides or on neither
    kw = dict(max_degree=max_degree, pair_budget=300)
    assert outcome(lambda: tuple_basis(gens, field.p, nvars, **kw)) == \
        outcome(lambda: reference_buchberger(gens, field, **kw))


@pytest.mark.parametrize("scope, max_degree", [("arrows", 8), ("arrows", 4), ("paths", 4)])
def test_groebner_basis_equals_tuple_oracle_on_d4_subspace_ideals(scope, max_degree):
    cfg = PrincipalConfig(Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),
                          (1, 0, 1, 1), (1, 1, 1, 1))
    p = cfg.catalog_prime
    for text in D4_SUBSPACE_NODES:
        ring, gens = ideal(cfg.catalog.realize(cfg.catalog.parse_isoclass(text)), cfg.e,
                           scope=scope)
        tuples = []
        for g in gens:
            coeffs = {}
            for mono, c in g.coeffs.items():
                exps = tuple(mono.count(i) for i in range(len(ring)))
                coeffs[exps] = coeffs.get(exps, 0) + c
            tuples.append(gp(coeffs, p))
        expected = reference_buchberger(tuples, PrimeField(p), max_degree=max_degree)
        assert terms_of(groebner_basis(ring, gens, p, max_degree=max_degree)) == \
            terms_of(expected)


def exponent_tuples(n):
    return st.tuples(*[st.integers(0, 3) | st.integers(0, 90)] * n)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_keys_follow_exponent_tuples(data):
    n = data.draw(st.integers(1, 6))
    a, b = data.draw(exponent_tuples(n)), data.draw(exponent_tuples(n))
    # byte fields: one byte up to degree 127, two bytes beyond
    pk = groebner._Packing(len(a), sum(a) + sum(b))
    ka, kb, one = pk.pack(a), pk.pack(b), pk.pack((0,) * len(a))
    assert pk.unpack(ka) == a and pk.unpack(kb) == b
    assert (ka < kb) == (_grevlex_key(a) < _grevlex_key(b))
    assert (ka == kb) == (a == b)
    assert pk.unpack(ka + kb - one) == tuple(x + y for x, y in zip(a, b))
    assert pk.pack(tuple(x + y for x, y in zip(a, b))) == ka + kb - one
    assert (not (ka - kb) & pk.guard) == all(x <= y for x, y in zip(a, b))
    assert pk.lcm(ka, kb) == pk.pack(tuple(max(x, y) for x, y in zip(a, b)))


def test_untruncated_basis_outgrowing_one_byte_fields_is_exact():
    # leads x^64 y and x y^64 fit one-byte fields (degree <= 127); their
    # S-pair has degree 128 and the basis reaches degree 192
    p = 101
    gens = [gp({(64, 1, 0): 1, (0, 0, 65): p - 1}, p),
            gp({(1, 64, 0): 1, (0, 0, 65): p - 1}, p)]
    basis = tuple_basis(gens, p)
    assert max(sum(g.lead) for g in basis) == 192
    assert terms_of(basis) == terms_of(reference_buchberger(gens, PrimeField(p)))


def test_degree_beyond_the_widest_fields_is_a_typed_error():
    p = 7
    degree = 1 << 63
    # no tuple of 2 ** 63 indices exists: the truncation degree asks for it
    with pytest.raises(GroebnerError, match=str(degree)):
        tuple_basis([gp({(1,): 1}, p)], p, max_degree=degree)
