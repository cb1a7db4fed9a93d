"""Quivers as directed trees: vertices, arrows, paths and the Euler form.

A quiver here is always an orientation of a tree, and in practice an
orientation of a simply-laced Dynkin diagram (type A or D).  Vertices carry
external integer names (matching the usual figures); internally everything
is indexed densely from 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Path:
    """A directed path: a non-empty sequence of composable arrow indices."""

    arrows: tuple[int, ...]
    source: int  # internal vertex index
    target: int  # internal vertex index

    def __len__(self):
        return len(self.arrows)


class Quiver:
    """A directed tree with stable vertex and arrow indices.

    Vertices are externally named by positive integers; ``arrows`` is a list
    of (source_name, target_name) pairs.  The underlying undirected graph
    must be a tree (no loops, no multiple edges, connected).
    """

    def __init__(self, vertices: Sequence[int], arrows: Iterable[tuple[int, int]]):
        self.vertex_names = tuple(vertices)
        if len(set(self.vertex_names)) != len(self.vertex_names):
            raise QuiverError("duplicate vertex names")
        self._index = {v: k for k, v in enumerate(self.vertex_names)}
        self.n = len(self.vertex_names)
        arrow_list = []
        seen_edges = set()
        for s, t in arrows:
            if s not in self._index or t not in self._index:
                raise QuiverError(f"arrow {s}->{t} uses unknown vertex")
            if s == t:
                raise QuiverError(f"loop at vertex {s}")
            edge = frozenset((s, t))
            if edge in seen_edges:
                raise QuiverError(f"multiple edge between {s} and {t}")
            seen_edges.add(edge)
            arrow_list.append((self._index[s], self._index[t]))
        self.arrows = tuple(arrow_list)  # internal (source, target) pairs
        # the arrow on each edge, keyed by its endpoints in either order
        self.edge_arrow = {e: a for a, (s, t) in enumerate(self.arrows) for e in ((s, t), (t, s))}
        if len(self.arrows) != self.n - 1:
            raise QuiverError("underlying graph is not a tree (wrong edge count)")
        # the combinatorics every layer reads, built once and never mutated:
        # the arrows out of and into each vertex, in index order, and the
        # neighbours of each vertex, in arrow order
        out, into, adj = ([[] for _ in range(self.n)] for _ in range(3))
        for a, (s, t) in enumerate(self.arrows):
            out[s].append(a)
            into[t].append(a)
            adj[s].append(t)
            adj[t].append(s)
        self._out, self._in, self._adj = (tuple(map(tuple, x)) for x in (out, into, adj))
        if self.n and not self._connected():
            raise QuiverError("underlying graph is not connected")
        # the directed paths, one per pair of endpoints on a tree, walked
        # along the arrows from each vertex, and the vertices each walk
        # reaches, itself included: on a tree, the support of P_v
        paths, reaches = [], []
        for v in range(self.n):
            stack, seen = [(v, ())], []
            while stack:
                cur, arrs = stack.pop()
                seen.append(cur)
                if arrs:
                    paths.append(Path(arrs, v, cur))
                stack.extend([(self.arrows[a][1], arrs + (a,)) for a in out[cur]])
            reaches.append(frozenset(seen))
        self._paths = tuple(sorted(paths, key=lambda p: (len(p.arrows), p.arrows)))
        self.reaches = tuple(reaches)
        # the vertices that reach each vertex: the support of I_v
        self.reached_by = tuple(frozenset([v for v in range(self.n) if w in reaches[v]])
                                for w in range(self.n))
        self.dynkin = classify_tree(self)
        # in type A, the line walked from the end with the smaller name
        self._line = None
        if self.dynkin == "A":
            line = [min((v for v in range(self.n) if len(adj[v]) < 2), key=self.name)]
            while len(line) < self.n:
                line.append(next(w for w in adj[line[-1]] if w not in line[-2:]))
            self._line = tuple(line)
        # quivers key the per-summand tables of every count: hash once
        self._hash = hash((self.vertex_names, self.arrows))

    # -- basic structure ---------------------------------------------------

    def _connected(self) -> bool:
        adj = self._adj
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def index(self, name: int) -> int:
        return self._index[name]

    def name(self, idx: int) -> int:
        return self.vertex_names[idx]

    def source(self, a: int) -> int:
        return self.arrows[a][0]

    def target(self, a: int) -> int:
        return self.arrows[a][1]

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def arrows_out(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def arrows_in(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def is_sink(self, v: int) -> bool:
        return not self._out[v]

    def is_source(self, v: int) -> bool:
        return not self._in[v]

    def reversed_at(self, v: int) -> "Quiver":
        """The quiver with every arrow incident to vertex ``v`` (external name)
        reversed; one shared object per (quiver, v)."""
        return _reversed_at(self, v)

    def opposite(self) -> "Quiver":
        """The quiver with every arrow reversed; one shared object per quiver."""
        return _opposite(self)

    def check_dimvector(self, d: Sequence[int]) -> tuple[int, ...]:
        d = self.check_dimvector_signed(d)
        if any(x < 0 for x in d):
            raise QuiverError("negative entry in dimension vector")
        return d

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Quiver)
            and self.vertex_names == other.vertex_names
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        arrows = ", ".join(f"{self.name(s)}->{self.name(t)}" for s, t in self.arrows)
        return f"Quiver({list(self.vertex_names)}; {arrows})"

    # -- Euler form and paths ----------------------------------------------

    def euler_form(self, a: Sequence[int], b: Sequence[int]) -> int:
        """<a, b> = sum_i a_i b_i - sum_{alpha} a_{s(alpha)} b_{t(alpha)}."""
        a = self.check_dimvector_signed(a)
        b = self.check_dimvector_signed(b)
        val = sum(x * y for x, y in zip(a, b))
        val -= sum(a[s] * b[t] for s, t in self.arrows)
        return val

    def check_dimvector_signed(self, d: Sequence[int]) -> tuple[int, ...]:
        """``d`` as a tuple of n ints: numpy integers pass, and an entry that
        is not an integer (a float, a string) is refused, not truncated."""
        d = tuple(d)
        if len(d) != self.n:
            raise QuiverError(f"dimension vector of length {len(d)}, expected {self.n}")
        out = []
        for i, x in enumerate(d):
            try:
                out.append(operator.index(x))
            except TypeError:
                raise QuiverError(f"dimension vector entry {x!r} at vertex {self.name(i)} "
                                  "is not an integer") from None
        return tuple(out)

    def paths(self) -> tuple[Path, ...]:
        """All directed paths of length >= 1, each exactly once, shortest
        first and then by arrow indices."""
        return self._paths

    def path_order(self) -> tuple[int, ...]:
        """For type A: internal vertex indices along the underlying path.

        Oriented so that the endpoint with the smaller external name comes
        first; for a single vertex, trivial.
        """
        if self._line is None:
            raise QuiverError("not a type A quiver")
        return self._line


# The reflected quivers of catalog builds and BGP reflections: a tree has at
# most 2^(n-1) orientations, so these caches stay small.
@lru_cache(maxsize=None)
def _reversed_at(q: Quiver, v: int) -> Quiver:
    vi = q.index(v)
    new = []
    for s, t in q.arrows:
        if vi in (s, t):
            s, t = t, s
        new.append((q.name(s), q.name(t)))
    return Quiver(q.vertex_names, new)


@lru_cache(maxsize=None)
def _opposite(q: Quiver) -> Quiver:
    return Quiver(q.vertex_names, [(q.name(t), q.name(s)) for s, t in q.arrows])


def classify_tree(q: Quiver) -> str:
    """Classify the underlying tree: 'A', 'D' or 'other-tree'."""
    if q.n == 0:
        raise QuiverError("empty quiver")
    adj = q.neighbors()
    degs = [len(w) for w in adj]
    if max(degs) <= 2:
        return "A"
    branch = [v for v in range(q.n) if degs[v] >= 3]
    # D_n: one degree-3 vertex, at least two of whose neighbours are leaves
    leaves = sum(degs[w] == 1 for w in adj[branch[0]])
    if len(branch) == 1 and degs[branch[0]] == 3 and leaves >= 2:
        return "D"
    return "other-tree"


def dynkin_type(q: Quiver) -> str:
    """Tag 'A_n', 'D_n' or 'other-tree' for the underlying graph."""
    t = classify_tree(q)
    if t in ("A", "D"):
        return f"{t}_{q.n}"
    return "other-tree"


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver text format.

    One declaration per line::

        vertices: 1 2 3 4
        arrow: 1 -> 2

    Whitespace-insensitive; ``#`` starts a comment.
    """
    vertices: list[int] | None = None
    arrows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise QuiverError(f"line {lineno}: expected 'key: value'")
        key, _, val = line.partition(":")
        key = key.strip().lower()
        if key == "vertices":
            vertices = [_vertex_name(tok, lineno) for tok in val.split()]
        elif key == "arrow":
            ends = val.split("->")
            if len(ends) != 2:
                raise QuiverError(f"line {lineno}: arrow needs 'a -> b'")
            arrows.append((_vertex_name(ends[0], lineno), _vertex_name(ends[1], lineno)))
        else:
            raise QuiverError(f"line {lineno}: unknown declaration {key!r}")
    if vertices is None:
        raise QuiverError("missing 'vertices:' declaration")
    return Quiver(vertices, arrows)


def _vertex_name(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise QuiverError(f"line {lineno}: vertex name {token.strip()!r} "
                          "is not an integer") from None


def format_quiver(q: Quiver) -> str:
    lines = ["vertices: " + " ".join(str(v) for v in q.vertex_names)]
    for s, t in q.arrows:
        lines.append(f"arrow: {q.name(s)} -> {q.name(t)}")
    return "\n".join(lines) + "\n"


# -- convenience constructors used all over the test corpus ----------------

def linear_quiver(n: int, orientation: str | None = None) -> Quiver:
    """Type A_n quiver on vertices 1..n.

    ``orientation`` is a string of '>' and '<' of length n-1; default is
    equioriented 1 -> 2 -> ... -> n.
    """
    if orientation is None:
        orientation = ">" * (n - 1)
    if len(orientation) != n - 1:
        raise QuiverError("orientation string has wrong length")
    arrows = []
    for i, c in enumerate(orientation, start=1):
        if c == ">":
            arrows.append((i, i + 1))
        elif c == "<":
            arrows.append((i + 1, i))
        else:
            raise QuiverError(f"bad orientation char {c!r}")
    return Quiver(range(1, n + 1), arrows)


def zigzag_quiver(n: int) -> Quiver:
    """Alternating orientation 1 -> 2 <- 3 -> 4 ... on n vertices."""
    return linear_quiver(n, "".join("><"[i % 2] for i in range(n - 1)))
