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
