"""Representations of a tree quiver over a prime field.

A representation assigns a vector space F_p^{d_i} to each vertex and a
matrix of shape (d_{t(alpha)}, d_{s(alpha)}) to each arrow.  Morphisms are
vertex-wise matrices satisfying the commuting-square equations, and all
Hom/Ext dimensions come from the exact solver for that linear system.
"""

from __future__ import annotations

import numpy as np

from .linalg import PrimeField
from .quiver import Path, Quiver, QuiverError


class RepError(ValueError):
    pass


class Representation:
    """Vertex dimensions plus one matrix per arrow, over a fixed prime field."""

    def __init__(self, quiver: Quiver, field: PrimeField, dims, maps=None):
        self.quiver = quiver
        self.field = field
        self.dims = quiver.check_dimvector(dims)
        # the catalog Isoclass this module is a direct sum of, when known
        # (``Catalog.realize`` records it); None means "decompose to find out"
        self.isoclass = None
        self.maps: list[np.ndarray] = []
        maps = maps if maps is not None else {}
        for a, (s, t) in enumerate(quiver.arrows):
            m = maps.get(a) if isinstance(maps, dict) else maps[a]
            if m is None:
                m = field.zeros(self.dims[t], self.dims[s])
            else:
                m = field.mat(m)
                if m.shape != (self.dims[t], self.dims[s]):
                    raise RepError(
                        f"arrow {a}: matrix shape {m.shape}, expected "
                        f"({self.dims[t]}, {self.dims[s]})"
                    )
            self.maps.append(m)

    @classmethod
    def _of_checked(cls, quiver: Quiver, field: PrimeField, dims: tuple,
                    maps: list) -> "Representation":
        """A representation of a checked dimension tuple and a list of
        reduced maps of the right shapes, taken as they are."""
        m = cls.__new__(cls)
        m.quiver, m.field, m.dims, m.isoclass, m.maps = quiver, field, dims, None, maps
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def path_matrix(self, path: Path) -> np.ndarray:
        """Product of arrow matrices along a directed path."""
        m = self.field.eye(self.dims[path.source])
        for a in path.arrows:
            m = self.field.mul(self.maps[a], m)
        return m

    def __repr__(self):
        return f"Representation(dims={self.dims}, p={self.field.p})"


def zero_rep(quiver: Quiver, field: PrimeField) -> Representation:
    return Representation(quiver, field, [0] * quiver.n)


def simple(quiver: Quiver, field: PrimeField, vertex: int) -> Representation:
    """The simple S_i (``vertex`` is an internal index)."""
    dims = [0] * quiver.n
    dims[vertex] = 1
    return Representation(quiver, field, dims)


def projective(quiver: Quiver, field: PrimeField, vertex: int) -> Representation:
    """The indecomposable projective P_i: basis given by paths starting at i.

    On a tree there is at most one path from i to each vertex, so each space
    is 0 or 1-dimensional, and an arrow s -> t acts as [[1]] exactly when s
    is reached (t is then reached through it)."""
    reached = quiver.reaches[vertex]
    dims = [int(v in reached) for v in range(quiver.n)]
    maps = [[[1]] if s in reached else None for s, _ in quiver.arrows]
    return Representation(quiver, field, dims, maps)


def dual(m: Representation) -> Representation:
    """The transpose dual D M over the opposite quiver: (DM)_a = (M_a)^T.

    D swaps projectives and injectives, tops and socles, and sinks and
    sources (arrow indices are kept, so D D M = M).
    """
    return Representation(m.quiver.opposite(), m.field, m.dims,
                          [x.T for x in m.maps])


def injective(quiver: Quiver, field: PrimeField, vertex: int) -> Representation:
    """The indecomposable injective I_i = D P_i(Q^op): basis given by paths ending at i."""
    return dual(projective(quiver.opposite(), field, vertex))


def direct_sum(*reps: Representation) -> Representation:
    """The block-diagonal sum.  Its maps are new arrays, filled from the
    summands' reduced, shape-checked maps without checking them again."""
    if not reps:
        raise RepError("empty direct sum needs an explicit quiver; use zero_rep")
    quiver, field = reps[0].quiver, reps[0].field
    for r in reps[1:]:
        if r.quiver != quiver or r.field != field:
            raise RepError("direct sum over mismatched quiver or field")
    dims = tuple([sum([r.dims[i] for r in reps]) for i in range(quiver.n)])
    maps = []
    for a, (s, t) in enumerate(quiver.arrows):
        m = field.zeros(dims[t], dims[s])
        ro = co = 0
        for r in reps:
            rt, rs = r.dims[t], r.dims[s]
            if rt and rs:
                m[ro : ro + rt, co : co + rs] = r.maps[a]
            ro += rt
            co += rs
        maps.append(m)
    return Representation._of_checked(quiver, field, dims, maps)


# -- Hom and Ext -----------------------------------------------------------

def _hom_system(m: Representation, n: Representation) -> np.ndarray:
    """Coefficient matrix of the commuting-square system.

    Unknowns: vec(phi_i) for all vertices (column-major per vertex block).
    One row block per arrow: N_a phi_s - phi_t M_a = 0.  Entries are
    integer lifts; the field's elimination reduces them.
    """
    q = m.quiver
    offsets = []
    off = 0
    for i in range(q.n):
        offsets.append(off)
        off += m.dims[i] * n.dims[i]
    ncols = off
    blocks = []
    for a, (s, t) in enumerate(q.arrows):
        nrows = n.dims[t] * m.dims[s]
        row = np.zeros((nrows, ncols), dtype=np.int64)
        if nrows:
            # vec(N_a phi_s) = (I_{m_s} kron N_a) vec(phi_s)
            if m.dims[s] and n.dims[s]:
                row[:, offsets[s] : offsets[s] + m.dims[s] * n.dims[s]] = np.kron(
                    np.eye(m.dims[s], dtype=np.int64), n.maps[a]
                )
            # vec(phi_t M_a) = (M_a^T kron I_{n_t}) vec(phi_t)
            if m.dims[t] and n.dims[t]:
                row[:, offsets[t] : offsets[t] + m.dims[t] * n.dims[t]] -= np.kron(
                    m.maps[a].T, np.eye(n.dims[t], dtype=np.int64)
                )
        blocks.append(row)
    if not blocks:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom_Q(M, N), the nullity of the commuting-square system."""
    if m.quiver != n.quiver or m.field != n.field:
        raise RepError("Hom between mismatched representations")
    sys = _hom_system(m, n)
    return sys.shape[1] - m.field.rank(sys)


def ext1_dim(m: Representation, n: Representation) -> int:
    """dim Ext^1_Q(M, N): the corank of the same system.

    The commuting-square matrix is the middle map of the standard projective
    resolution of M applied to Hom(-, N), so its cokernel computes Ext^1.
    """
    if m.quiver != n.quiver or m.field != n.field:
        raise RepError("Ext between mismatched representations")
    sys = _hom_system(m, n)
    return sys.shape[0] - m.field.rank(sys)


def end_dim(m: Representation) -> int:
    return hom_dim(m, m)


def is_rigid(m: Representation) -> bool:
    """True iff Ext^1(M, M) = 0, i.e. the orbit of M is dense."""
    return ext1_dim(m, m) == 0


# -- reflection functors ---------------------------------------------------

def reflection_functor(m: Representation, vertex: int) -> Representation:
    """BGP reflection of ``m`` at a sink or source ``vertex`` (internal index).

    At a source the new space is the cokernel of the assembled map out of
    M_k.  A sink k of Q is a source of Q^op, so there the reflection is the
    dual of the source reflection of DM at k (that cokernel is the transpose
    of the sink kernel).  The source test comes first, so a one-vertex
    quiver does not recurse.  The result lives over the quiver with all
    arrows at ``vertex`` reversed.
    """
    q = m.quiver
    f = m.field
    k = vertex
    if q.is_source(k):
        arrows_out = q.arrows_out(k)
        assembled = np.concatenate([m.maps[a] for a in arrows_out] + [f.zeros(0, m.dims[k])])
        proj = f.quotient_projection(f.image_basis(assembled))
        dims = list(m.dims)
        dims[k] = proj.shape[0]
        maps = {a: m.maps[a] for a, (s, _) in enumerate(q.arrows) if s != k}
        off = 0
        for a in arrows_out:
            # reversed arrow t(a) -> k: the projection restricted to a's block
            d = m.dims[q.target(a)]
            maps[a] = proj[:, off : off + d]
            off += d
        return Representation(q.reversed_at(q.name(k)), f, dims, maps)
    if q.is_sink(k):
        return dual(reflection_functor(dual(m), k))
    raise QuiverError(f"vertex {q.name(k)} is neither a sink nor a source")
