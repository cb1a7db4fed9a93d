"""The degeneration poset of isoclasses of a fixed dimension vector.

Ordering is the Bongartz criterion: M <= N (M degenerates to N) iff
dim Hom(M, X) <= dim Hom(N, X) for every indecomposable X.  The nodes come
from a knapsack over the catalog labels that enters only remainders some
isoclass completes.  All fingerprints come from one product of the node x
label multiplicity matrix with the catalog's Hom matrix, the order matrix
is an AND of one comparison per label column, and every query reads the
order matrix.  Two independent criteria for the same order, the dual Hom
criterion and the type-A rank criterion, are test references
(``tests/oracles.py``).
"""

from __future__ import annotations

import json

import numpy as np

from .catalog import Catalog, Isoclass
from .reps import is_rigid


class PosetError(ValueError):
    pass


DEFAULT_NODE_BUDGET = 20000
_HASSE_ROWS = 1024  # rows and columns of the strict order per product in ``hasse``


def enumerate_isoclasses(cat: Catalog, d, *, budget: int = DEFAULT_NODE_BUDGET) -> list[Isoclass]:
    """All multisets of catalog labels with dimension vectors summing to d.

    Bounded knapsack over the positive roots, deterministic order: the first
    label's multiplicity from its largest value down, then the next label's.
    ``reach[idx]`` holds the vectors <= d that labels idx.. can sum to, so the
    search enters only remainders that some isoclass completes.  Raises
    ``PosetError`` at the (budget + 1)-th isoclass, at the first when budget < 1.
    """
    d = cat.quiver.check_dimvector(d)
    roots = [lab.dims for lab in cat.labels]
    zero = (0,) * len(d)
    reach = [{zero}]
    for dims in reversed(roots):
        level = set(reach[-1])
        frontier = list(level)
        while frontier:  # add one more copy of this label
            grown = [tuple(a + b for a, b in zip(v, dims)) for v in frontier]
            frontier = [w for w in grown
                        if w not in level and all(x <= y for x, y in zip(w, d))]
            level.update(frontier)
        reach.append(level)
    reach.reverse()
    out: list[Isoclass] = []
    # depth first; a branch's multiplicities are pushed smallest first, so
    # the largest is searched first
    stack = [(0, d, ())]
    while stack:
        idx, remaining, picked = stack.pop()
        if remaining == zero:
            if len(out) >= budget:
                raise PosetError(f"isoclass budget {budget} exceeded for d={d}")
            out.append(Isoclass(dict(picked)))
            continue
        lab, dims, ahead = cat.labels[idx], roots[idx], reach[idx + 1]
        max_mult = min((rem // x for rem, x in zip(remaining, dims) if x), default=0)
        for mult in range(max_mult + 1):
            rem2 = tuple(r - mult * x for r, x in zip(remaining, dims))
            if rem2 in ahead:
                stack.append((idx + 1, rem2, picked + ((lab, mult),) if mult else picked))
    return out


def generic_isoclass(cat: Catalog, d, *, budget: int = DEFAULT_NODE_BUDGET) -> Isoclass:
    """The unique rigid isoclass of dimension d (open dense orbit)."""
    d = cat.quiver.check_dimvector(d)
    euler_dd = cat.quiver.euler_form(d, d)
    hits = []
    for iso in enumerate_isoclasses(cat, d, budget=budget):
        # end_dim from the Hom matrix; rigid iff it equals <d, d>
        mult = cat.multiplicities(iso)
        if mult @ cat.hom_matrix() @ mult == euler_dd:
            hits.append(iso)
    if len(hits) != 1:
        raise PosetError(f"found {len(hits)} rigid isoclasses for d={d} (internal error)")
    assert is_rigid(cat.realize(hits[0]))
    return hits[0]


class IsoclassPoset:
    """Degeneration poset of all isoclasses of one dimension vector: the
    order matrix ``leq`` and the node x label ``multiplicities``."""

    def __init__(self, cat: Catalog, d, *, budget: int = DEFAULT_NODE_BUDGET):
        self.catalog = cat
        self.d = cat.quiver.check_dimvector(d)
        self.nodes = enumerate_isoclasses(cat, d, budget=budget)
        self._position = {x: i for i, x in enumerate(self.nodes)}
        self.multiplicities = np.array([cat.multiplicities(iso) for iso in self.nodes])
        fps = self.multiplicities @ cat.hom_matrix()  # dual fingerprints, hom(M, X_a)
        n = len(self.nodes)
        # leq[i, j]: node i degenerates to node j, an AND over the label
        # columns; each column contiguous, in the smallest unsigned type
        cols = np.ascontiguousarray(fps.T, dtype=np.min_scalar_type(fps.max()))
        self.leq = np.ones((n, n), dtype=bool)
        step = np.empty((n, n), dtype=bool)
        for col in cols:
            np.less_equal(col[:, None], col[None, :], out=step)
            self.leq &= step
        # antisymmetry (leq is reflexive): equal fingerprints would mean isomorphic nodes
        np.logical_and(self.leq, self.leq.T, out=step)
        if np.count_nonzero(step) != n:
            raise PosetError("distinct isoclasses with identical fingerprints")

    def __len__(self):
        return len(self.nodes)

    def index(self, iso: Isoclass) -> int:
        return self._position[iso]

    def less_equal(self, m: Isoclass, n: Isoclass) -> bool:
        return bool(self.leq[self.index(m), self.index(n)])

    def minimal_element(self) -> Isoclass:
        mins = np.flatnonzero(self.leq.all(axis=1))
        if len(mins) != 1:
            raise PosetError("poset lacks a unique minimal element (internal error)")
        return self.nodes[mins[0]]

    def maximal_elements(self) -> list[Isoclass]:
        return self.sinks(self.nodes)

    def hasse(self) -> list[tuple[Isoclass, Isoclass]]:
        """Cover relations, the transitive reduction of the order, row by row.

        i < j is a cover unless some k has i < k < j.  The two-step counts
        come from float32 (BLAS) products of ``_HASSE_ROWS`` rows of the
        strict order with ``_HASSE_ROWS`` of its columns, exact below 2^24
        nodes.  The rows are converted from ``leq`` once per block and the
        columns once per product, so no n x n float array is held."""
        n, step = len(self), _HASSE_ROWS
        covers = []
        for r0 in range(0, n, step):
            rows = self._strict(r0, min(r0 + step, n), 0, n)
            no_detour = np.empty(rows.shape, dtype=bool)
            for c0 in range(0, n, step):
                c1 = min(c0 + step, n)
                np.equal(rows @ self._strict(0, n, c0, c1), 0, out=no_detour[:, c0:c1])
            i, j = np.nonzero((rows > 0) & no_detour)
            covers.extend((self.nodes[r0 + a], self.nodes[b])
                          for a, b in zip(i.tolist(), j.tolist()))
        return covers

    def _strict(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """The strict order's rows r0:r1 and columns c0:c1 as float32."""
        block = self.leq[r0:r1, c0:c1].astype(np.float32)
        k = np.arange(max(r0, c0), min(r1, c1))
        block[k - r0, k - c0] = 0
        return block

    def lower_ideal(self, predicate) -> list[Isoclass]:
        """Nodes satisfying a predicate; errors unless downward closed."""
        member = np.array([bool(predicate(x)) for x in self.nodes], dtype=bool)
        # some non-member i below a member j
        if self.leq[np.ix_(~member, member)].any():
            raise PosetError("predicate is not downward closed")
        return [x for x, ok in zip(self.nodes, member.tolist()) if ok]

    def sinks(self, subset) -> list[Isoclass]:
        """Maximal elements of a sub-poset given as a node collection, in
        the collection's order."""
        sub = np.array([self.index(x) for x in subset], dtype=np.intp)
        above = self.leq[np.ix_(sub, sub)] & (sub[:, None] != sub[None, :])
        return [self.nodes[j] for j, up in zip(sub.tolist(), above.any(axis=1).tolist()) if not up]

    # -- exports -----------------------------------------------------------

    def to_json(self) -> str:
        data = {
            "dimension_vector": list(self.d),
            "nodes": [str(x) for x in self.nodes],
            "hasse": [[str(a), str(b)] for a, b in self.hasse()],
        }
        return json.dumps(data, indent=2, sort_keys=True)

    def to_dot(self, color_classes: dict[str, list[Isoclass]] | None = None) -> str:
        """DOT digraph with Hasse edges, minimal element on top.

        ``color_classes`` maps a fill color to the nodes it marks; later
        entries win on overlap.
        """
        colors: dict[Isoclass, str] = {}
        for color, members in (color_classes or {}).items():
            for x in members:
                colors[x] = color
        lines = ["digraph degeneration {", '  rankdir="TB";', '  node [shape=box];']
        for x in self.nodes:
            attrs = [f'label="{x}"']
            if x in colors:
                attrs.append(f'style=filled fillcolor="{colors[x]}"')
            lines.append(f'  "{x}" [{" ".join(attrs)}];')
        for a, b in self.hasse():
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(cat: Catalog, d, *, budget: int = DEFAULT_NODE_BUDGET) -> IsoclassPoset:
    return IsoclassPoset(cat, d, budget=budget)
