"""Test references: the small Dynkin quivers that many tests sweep, and
independent criteria for the degeneration order, kept as references for
``IsoclassPoset.leq`` (Bongartz, "On degenerations and extensions of finite
dimensional modules", 1996).  ``leq`` computes M <= N iff hom(M, X) <=
hom(N, X) for every indecomposable X; the dual Hom criterion and, in type A,
the rank criterion give the same order by different arithmetic."""

import itertools

import numpy as np

from quivergrass.poset import PosetError
from quivergrass.quiver import Quiver


def small_dynkin_quivers():
    """Every orientation of A2-A5 (30 quivers) and then of D4-D5 (24), each
    on vertices 1..n, in the order of the arrow flips."""
    lines = [[(i, i + 1) for i in range(1, n)] for n in (2, 3, 4, 5)]
    for edges in lines + [[(1, 2), (3, 2), (4, 2)], [(1, 2), (3, 2), (4, 2), (5, 4)]]:
        for flips in itertools.product((False, True), repeat=len(edges)):
            yield Quiver(list(range(1, len(edges) + 2)),
                         [(t, s) if flip else (s, t) for (s, t), flip in zip(edges, flips)])


def dual_degenerates_to(cat, m, n) -> bool:
    """Dual Hom criterion: hom(X, M) <= hom(X, N) for all catalog X."""
    return bool((cat.iso_fingerprint(m) <= cat.iso_fingerprint(n)).all())


def rank_order(cat, m, n) -> bool:
    """Rank criterion, type A only: M <= N iff for every interval of the
    underlying line, the rank of the interval's source-to-sink block matrix
    in M is no smaller than in N.  For the equioriented orientation each
    interval carries a single path and this is the classical path-rank test.
    """
    q = cat.quiver
    if q.dynkin != "A":
        raise PosetError("rank criterion applies to type A only")
    f = cat.field
    rm = cat.realize(m)
    rn = cat.realize(n)
    order = q.path_order()
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            seg = order[i:j + 1]
            if f.rank(_interval_matrix(rm, seg)) < f.rank(_interval_matrix(rn, seg)):
                return False
    return True


def _interval_matrix(rep, seg) -> np.ndarray:
    """Block matrix of all path maps inside the vertex interval `seg`,
    from the interval's local sources to its local sinks."""
    q = rep.quiver
    inside = set(seg)
    sources = [v for v in seg
               if all(q.source(a) not in inside for a in q.arrows_in(v))]
    sinks = [v for v in seg
             if all(q.target(a) not in inside for a in q.arrows_out(v))]
    rows = sum(rep.dims[w] for w in sinks)
    cols = sum(rep.dims[v] for v in sources)
    mat = np.zeros((rows, cols), dtype=np.int64)
    paths = {(p.source, p.target): p for p in q.paths()}
    r0 = 0
    for w in sinks:
        c0 = 0
        for v in sources:
            path = paths.get((v, w))
            if path is not None and all(x in inside for x in
                                        [q.source(a) for a in path.arrows] +
                                        [q.target(a) for a in path.arrows]):
                mat[r0:r0 + rep.dims[w], c0:c0 + rep.dims[v]] = rep.path_matrix(path)
            c0 += rep.dims[v]
        r0 += rep.dims[w]
    return mat
