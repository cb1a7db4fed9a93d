import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quivergrass import poset as poset_module
from quivergrass.catalog import Isoclass, get_catalog
from quivergrass.poset import (
    IsoclassPoset,
    PosetError,
    build_poset,
    enumerate_isoclasses,
    generic_isoclass,
)
from quivergrass.quiver import Quiver, linear_quiver, zigzag_quiver
from quivergrass import reps

from oracles import dual_degenerates_to, rank_order


def count_multisets(roots, d):
    """Independent oracle: number of multisets of root vectors summing to d,
    by plain dynamic programming over the dimension lattice."""
    roots = sorted(roots)
    states = {tuple(d): 1}
    for r in roots:
        new = {}
        for rem, ways in states.items():
            k = 0
            cur = rem
            while True:
                new[cur] = new.get(cur, 0) + ways
                if any(c < rc for c, rc in zip(cur, r)):
                    break
                nxt = tuple(c - rc for c, rc in zip(cur, r))
                cur = nxt
                k += 1
        states = new
    return states.get(tuple([0] * len(d)), 0)


@pytest.mark.parametrize("quiver,d", [
    (linear_quiver(2), (2, 2)),
    (zigzag_quiver(3), (3, 4, 3)),
    (linear_quiver(3, ">>"), (2, 2, 2)),
])
def test_enumeration_count_matches_knapsack_oracle(quiver, d):
    cat = get_catalog(quiver)
    isos = enumerate_isoclasses(cat, d)
    roots = [lab.dims for lab in cat.labels]
    assert len(isos) == count_multisets(roots, d)
    assert len(set(isos)) == len(isos)
    for iso in isos:
        assert iso.dims(quiver.n) == tuple(d)


def test_semisimple_always_present():
    cat = get_catalog(zigzag_quiver(3))
    isos = enumerate_isoclasses(cat, (2, 1, 1))
    ss = Isoclass({cat.simple_label(0): 2, cat.simple_label(1): 1,
                   cat.simple_label(2): 1})
    assert ss in isos


def test_budget_enforced():
    cat = get_catalog(linear_quiver(3, ">>"))
    with pytest.raises(PosetError):
        enumerate_isoclasses(cat, (6, 6, 6), budget=10)


@pytest.mark.parametrize("d", [(3, 4, 3), (0, 0, 0)])
def test_budget_raises_at_the_isoclass_past_it(d):
    cat = get_catalog(zigzag_quiver(3))
    nodes = enumerate_isoclasses(cat, d)
    assert enumerate_isoclasses(cat, d, budget=len(nodes)) == nodes
    with pytest.raises(PosetError, match=re.escape(f"d={d}")):
        enumerate_isoclasses(cat, d, budget=len(nodes) - 1)
    # a negative budget is no budget either: it refuses the first isoclass
    with pytest.raises(PosetError, match=re.escape("budget -1 exceeded")):
        enumerate_isoclasses(cat, d, budget=-1)


def test_order_axioms_small():
    poset = build_poset(get_catalog(zigzag_quiver(3)), (1, 2, 1))
    leq = poset.less_equal
    for m in poset.nodes:
        assert leq(m, m)
    for m, n in itertools.permutations(poset.nodes, 2):
        if leq(m, n) and leq(n, m):
            assert m == n
    for m, n, k in itertools.product(poset.nodes, repeat=3):
        if leq(m, n) and leq(n, k):
            assert leq(m, k)


def test_primal_dual_rank_agree():
    for quiver, d in [(linear_quiver(3, ">>"), (2, 3, 2)),
                      (zigzag_quiver(3), (2, 3, 2)),
                      (linear_quiver(4, "><>"), (1, 2, 2, 1))]:
        cat = get_catalog(quiver)
        poset = build_poset(cat, d)
        for m, n in itertools.product(poset.nodes, repeat=2):
            a = poset.less_equal(m, n)
            assert a == dual_degenerates_to(cat, m, n)
            assert a == rank_order(cat, m, n)


def test_rank_order_rejects_type_d():
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
    cat = get_catalog(q)
    s = Isoclass({cat.simple_label(0): 1})
    with pytest.raises(PosetError):
        rank_order(cat, s, s)


def test_generic_isoclass_is_rigid_and_minimal():
    cat = get_catalog(zigzag_quiver(3))
    d = (3, 4, 3)
    g = generic_isoclass(cat, d)
    assert reps.is_rigid(cat.realize(g))
    poset = build_poset(cat, d)
    assert poset.minimal_element() == g
    for iso in poset.nodes:
        assert poset.less_equal(g, iso)


def test_generic_equioriented_full_dim():
    # equioriented A_n with constant dimension vector (n+1, ..., n+1):
    # the open orbit is (n+1) copies of the long interval
    n = 3
    cat = get_catalog(linear_quiver(n, ">" * (n - 1)))
    g = generic_isoclass(cat, (n + 1,) * n)
    long = cat.label_by_name(f"U(1,{n})")
    assert g == Isoclass({long: n + 1})


def test_semisimple_is_unique_maximal():
    cat = get_catalog(zigzag_quiver(3))
    poset = build_poset(cat, (2, 2, 2))
    tops = poset.maximal_elements()
    ss = Isoclass({cat.simple_label(v): 2 for v in range(3)})
    assert tops == [ss]


def test_hasse_is_transitive_reduction():
    cat = get_catalog(linear_quiver(2))
    poset = build_poset(cat, (2, 2))
    edges = poset.hasse()
    # no edge is implied by a two-step chain
    leq = {(m, n) for m in poset.nodes for n in poset.nodes
           if m != n and poset.less_equal(m, n)}
    for m, n in edges:
        assert (m, n) in leq
        for k in poset.nodes:
            if k not in (m, n):
                assert not ((m, k) in leq and (k, n) in leq)
    # reachability through hasse edges recovers the full order
    reach = {m: {m} for m in poset.nodes}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for src, seen in reach.items():
                if a in seen and b not in seen:
                    seen.add(b)
                    changed = True
    for m, n in leq:
        assert n in reach[m]


def test_lower_ideal_validation():
    cat = get_catalog(linear_quiver(2))
    poset = build_poset(cat, (1, 1))
    g = poset.minimal_element()
    assert poset.lower_ideal(lambda x: x == g) == [g]
    with pytest.raises(PosetError):
        # the semisimple alone is not downward closed
        poset.lower_ideal(lambda x: x != g)


def test_sinks_of_subset():
    cat = get_catalog(linear_quiver(2))
    poset = build_poset(cat, (1, 1))
    assert poset.sinks(poset.nodes) == poset.maximal_elements()


def test_json_and_dot_are_deterministic():
    cat = get_catalog(zigzag_quiver(3))
    p1 = build_poset(cat, (1, 2, 1))
    p2 = build_poset(cat, (1, 2, 1))
    assert p1.to_json() == p2.to_json()
    assert p1.to_dot() == p2.to_dot()
    data = json.loads(p1.to_json())
    assert len(data["nodes"]) == len(p1.nodes)
    assert p1.to_dot().startswith("digraph")


# -- the order-matrix queries against the double loops they replaced --------

def reference_hasse(poset):
    n = len(poset)
    strict = poset.leq & ~np.eye(n, dtype=bool)
    covers = []
    for i in range(n):
        for j in range(n):
            if strict[i, j] and not (strict[i] & strict[:, j]).any():
                covers.append((poset.nodes[i], poset.nodes[j]))
    return covers


def reference_lower_ideal(poset, predicate):
    member = [bool(predicate(x)) for x in poset.nodes]
    n = len(poset)
    for i in range(n):
        for j in range(n):
            if poset.leq[i, j] and member[j] and not member[i]:
                raise PosetError("predicate is not downward closed")
    return [x for x, ok in zip(poset.nodes, member) if ok]


def reference_sinks(poset, subset):
    sub = [poset.nodes.index(x) for x in subset]
    return [poset.nodes[j] for j in sub
            if not any(i != j and poset.leq[j, i] for i in sub)]


def reference_maximal_elements(poset):
    n = len(poset)
    strict = poset.leq & ~np.eye(n, dtype=bool)
    return [poset.nodes[j] for j in range(n) if not strict[j].any()]


def lower_ideal_outcome(query, poset, members):
    try:
        return query(poset, members.__contains__)
    except PosetError:
        return "rejected"


@pytest.mark.parametrize("source", [
    "zigzag3_cfg", "eq_a3_cfg", "p1xp1_cfg", "a4_cfg", "d4_center_cfg",
    (linear_quiver(2), (2, 2)), (zigzag_quiver(3), (1, 2, 1)),
])
def test_queries_equal_the_reference_loops(request, source):
    if isinstance(source, str):
        poset = request.getfixturevalue(source).poset
    else:
        poset = build_poset(get_catalog(source[0]), source[1])
    nodes = poset.nodes
    rng = random.Random(len(nodes))
    assert poset.hasse() == reference_hasse(poset)
    assert poset.maximal_elements() == reference_maximal_elements(poset)
    assert [poset.index(x) for x in nodes] == list(range(len(nodes)))
    outcomes = []
    for _ in range(5):
        subset = rng.sample(nodes, rng.randint(0, len(nodes)))
        assert poset.sinks(subset) == reference_sinks(poset, subset)
        top = rng.choice(nodes)
        below = {x for x in nodes if poset.less_equal(x, top)}
        assert (lower_ideal_outcome(IsoclassPoset.lower_ideal, poset, below)
                == lower_ideal_outcome(reference_lower_ideal, poset, below)
                == [x for x in nodes if x in below])
        outcome = lower_ideal_outcome(IsoclassPoset.lower_ideal, poset, set(subset))
        assert outcome == lower_ideal_outcome(reference_lower_ideal, poset, set(subset))
        outcomes.append(outcome)
    if len(nodes) > 2:
        assert "rejected" in outcomes  # a random subset that is not downward closed


# -- the pruned enumeration and column-wise order against the code they replaced

def reference_enumerate(cat, d):
    """The unpruned knapsack: it recurses into every remainder down to the
    last label, whether or not any isoclass completes it."""
    labels = cat.labels
    out = []

    def rec(idx, remaining, picked):
        if not any(remaining):
            out.append(Isoclass(dict(picked)))
            return
        if idx == len(labels):
            return
        lab = labels[idx]
        max_mult = min((rem // x for rem, x in zip(remaining, lab.dims) if x), default=0)
        for mult in range(max_mult, -1, -1):
            rem2 = tuple(r - mult * x for r, x in zip(remaining, lab.dims))
            rec(idx + 1, rem2, picked + [(lab, mult)] if mult else picked)

    rec(0, tuple(d), [])
    return out


def reference_leq(poset):
    """The order matrix filled one row at a time."""
    fps = poset.multiplicities @ poset.catalog.hom_matrix()
    leq = np.zeros((len(poset), len(poset)), dtype=bool)
    for i in range(len(poset)):
        leq[i] = (fps[i][None, :] <= fps).all(axis=1)
    return leq


ENUMERATION_QUIVERS = [
    zigzag_quiver(3),
    linear_quiver(4, "><<"),
    Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)]),
    Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)]),
    Quiver([1, 2, 3, 4], [(2, 1), (2, 3), (2, 4)]),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ENUMERATION_QUIVERS), st.data())
def test_enumeration_equals_the_unpruned_knapsack(quiver, data):
    d = tuple(data.draw(st.lists(st.integers(0, 3), min_size=quiver.n, max_size=quiver.n)))
    cat = get_catalog(quiver)
    assert enumerate_isoclasses(cat, d) == reference_enumerate(cat, d)


@pytest.mark.parametrize("name", ["zigzag3_cfg", "eq_a3_cfg", "p1xp1_cfg", "a4_cfg"])
def test_leq_equals_pairwise_degeneration(request, name):
    poset = request.getfixturevalue(name).poset
    cat = poset.catalog
    assert poset.nodes == reference_enumerate(cat, poset.d)
    pairwise = [[dual_degenerates_to(cat, m, n) for n in poset.nodes] for m in poset.nodes]
    assert np.array_equal(poset.leq, np.array(pairwise, dtype=bool))


@pytest.mark.parametrize("name", ["zigzag3_cfg", "eq_a3_cfg", "p1xp1_cfg"])
def test_leq_equals_the_rank_criterion(request, name):
    poset = request.getfixturevalue(name).poset
    assert len(poset) <= 35
    pairwise = [[rank_order(poset.catalog, m, n) for n in poset.nodes] for m in poset.nodes]
    assert np.array_equal(poset.leq, np.array(pairwise, dtype=bool))


def test_leq_equals_the_row_loop_on_d4(d4_center_cfg):
    poset = d4_center_cfg.poset
    assert len(poset) == 424
    assert poset.nodes == reference_enumerate(poset.catalog, poset.d)
    assert np.array_equal(poset.leq, reference_leq(poset))


@pytest.mark.parametrize("name", ["a4_cfg", "d4_center_cfg"])
def test_hasse_row_blocks_keep_the_covers(request, monkeypatch, name):
    poset = request.getfixturevalue(name).poset
    covers = poset.hasse()
    monkeypatch.setattr(poset_module, "_HASSE_ROWS", 7)
    assert poset.hasse() == covers == reference_hasse(poset)
