import numpy as np
import pytest
from hypothesis import given, strategies as st

from quivergrass.quiver import (
    Quiver,
    QuiverError,
    dynkin_type,
    format_quiver,
    linear_quiver,
    parse_quiver,
    zigzag_quiver,
)

from oracles import small_dynkin_quivers


def test_basic_structure():
    q = Quiver([1, 2, 3], [(1, 2), (3, 2)])
    assert q.n == 3
    assert q.index(3) == 2 and q.name(2) == 3
    assert q.is_sink(q.index(2))
    assert q.is_source(q.index(1)) and q.is_source(q.index(3))
    assert not q.is_sink(q.index(1))


def test_linear_and_zigzag_constructors():
    assert linear_quiver(3, ">>").arrows == ((0, 1), (1, 2))
    assert linear_quiver(3, "<<").arrows == ((1, 0), (2, 1))
    z = zigzag_quiver(3)
    assert sorted(z.arrows) == [(0, 1), (2, 1)]


def test_dynkin_classification():
    assert dynkin_type(linear_quiver(5)) == "A_5"
    assert dynkin_type(Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])) == "D_4"
    assert linear_quiver(4).dynkin == "A"


def test_non_tree_rejected():
    with pytest.raises(QuiverError):
        Quiver([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(QuiverError):
        Quiver([1, 2], [(1, 2), (1, 2)])


def test_disconnected_rejected():
    with pytest.raises(QuiverError):
        Quiver([1, 2, 3, 4], [(1, 2), (3, 4)])


def test_parse_format_roundtrip():
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)])
    assert parse_quiver(format_quiver(q)) == q


def test_parse_with_comments():
    text = """
    # an A3 zigzag
    vertices: 1 2 3
    arrow: 1 -> 2
    arrow: 3 -> 2
    """
    assert parse_quiver(text) == zigzag_quiver(3)


def test_euler_form_known_values():
    q = linear_quiver(2)  # 1 -> 2
    assert q.euler_form((1, 0), (0, 1)) == -1
    assert q.euler_form((0, 1), (1, 0)) == 0
    assert q.euler_form((1, 1), (1, 1)) == 1


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.integers(-3, 3))
def test_euler_form_bilinear(a, b, c, t):
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)])
    lhs = q.euler_form([x + t * y for x, y in zip(a, b)], c)
    rhs = q.euler_form(a, c) + t * q.euler_form(b, c)
    assert lhs == rhs
    lhs2 = q.euler_form(c, [x + t * y for x, y in zip(a, b)])
    assert lhs2 == q.euler_form(c, a) + t * q.euler_form(c, b)


def test_path_order_is_line_walk():
    q = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)])
    order = q.path_order()
    # consecutive positions are adjacent in the underlying graph
    und = {frozenset((q.source(a), q.target(a))) for a in range(len(q.arrows))}
    for u, v in zip(order, order[1:]):
        assert frozenset((u, v)) in und
    assert len(order) == q.n


def test_paths_count_equioriented():
    q = linear_quiver(4, ">>>")
    # one path for every interval of length >= 1
    assert len(q.paths()) == 6


def test_reversed_at_and_opposite():
    q = linear_quiver(3, ">>")
    r = q.reversed_at(3)
    assert sorted(r.arrows) == [(0, 1), (2, 1)]
    assert sorted(q.opposite().arrows) == [(1, 0), (2, 1)]


def test_check_dimvector():
    q = linear_quiver(3)
    assert q.check_dimvector([1, 2, 3]) == (1, 2, 3)
    with pytest.raises(QuiverError):
        q.check_dimvector([1, 2])
    with pytest.raises(QuiverError):
        q.check_dimvector([1, -1, 0])
    # numpy integers pass; a float is refused, never truncated
    assert q.check_dimvector(np.array([1, 2, 3])) == (1, 2, 3)
    assert all(type(x) is int for x in q.check_dimvector(np.array([1, 2, 3])))
    assert q.euler_form(np.array([1, 0, -1]), (0, 1, 0)) == -1
    with pytest.raises(QuiverError, match=r"1\.7 at vertex 2 is not an integer"):
        q.check_dimvector([1, 1.7, 0])
    with pytest.raises(QuiverError, match="'1' at vertex 1"):
        q.check_dimvector(["1", 0, 0])
    with pytest.raises(QuiverError, match=r"0\.5 at vertex 3"):
        q.euler_form((1, 0, 0), (0, 0, 0.5))
    with pytest.raises(QuiverError, match=r"-1\.0 at vertex 1"):
        q.euler_form((-1.0, 0, 0), (0, 0, 1))


def _plain_facts(q):
    """Every fact the quiver stores, recomputed from ``arrows`` alone: the
    neighbours in arrow order, the arrows out and in, the directed paths by
    a breadth-first walk from each vertex, the reach sets from the paths'
    endpoints and, in type A, the line walked from the smaller-named end."""
    adj = [[] for _ in range(q.n)]
    for s, t in q.arrows:
        adj[s].append(t)
        adj[t].append(s)
    out = [tuple(a for a, (s, _) in enumerate(q.arrows) if s == v) for v in range(q.n)]
    into = [tuple(a for a, (_, t) in enumerate(q.arrows) if t == v) for v in range(q.n)]
    paths, frontier = [], [((), v, v) for v in range(q.n)]
    while frontier:
        frontier = [(arrs + (a,), v, q.arrows[a][1])
                    for arrs, v, w in frontier for a in out[w]]
        paths.extend(sorted(frontier))
    reaches = [{v} | {w for _, u, w in paths if u == v} for v in range(q.n)]
    reached_by = [{v} | {u for _, u, w in paths if w == v} for v in range(q.n)]
    line = None
    if all(len(x) <= 2 for x in adj):
        ends = [v for v in range(q.n) if len(adj[v]) <= 1]
        line = [min(ends, key=q.name)]
        while len(line) < q.n:
            line.append(next(w for w in adj[line[-1]] if w not in line))
    return adj, out, into, paths, reaches, reached_by, line


def test_stored_facts_equal_a_plain_recomputation():
    for q in small_dynkin_quivers():
        adj, out, into, paths, reaches, reached_by, line = _plain_facts(q)
        assert [list(x) for x in q.neighbors()] == adj, q
        assert [q.arrows_out(v) for v in range(q.n)] == out, q
        assert [q.arrows_in(v) for v in range(q.n)] == into, q
        assert [q.is_sink(v) for v in range(q.n)] == [not x for x in out], q
        assert [q.is_source(v) for v in range(q.n)] == [not x for x in into], q
        assert [(p.arrows, p.source, p.target) for p in q.paths()] == paths, q
        assert [set(x) for x in q.reaches] == reaches, q
        assert [set(x) for x in q.reached_by] == reached_by, q
        if line is None:
            with pytest.raises(QuiverError, match="not a type A quiver"):
                q.path_order()
        else:
            assert list(q.path_order()) == line, q
        # built once in the constructor, as immutable values
        assert q.paths() is q.paths() and q.neighbors() is q.neighbors()
        assert all(type(x) is tuple for x in (q.paths(), q.neighbors(), q.neighbors()[0],
                                              q.arrows_out(0), q.arrows_in(0)))
        assert all(type(x) is frozenset for x in q.reaches + q.reached_by)

