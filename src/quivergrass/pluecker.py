"""Plücker coordinates and the defining relations of a quiver Grassmannian.

For each vertex i the coordinates are the maximal minors D[i][J] of a basis
of the subspace U_i (columns J of size e_i, colex order).  The ideal is
generated by the classical Grassmannian exchange relations at each vertex
together with one bilinear family per arrow (or per path) coupling the
coordinates at its endpoints through the matrix of the representation map.
The ring, the exchange quadrics and the monomials and signs of every bilinear
family depend only on (quiver, d, e) and are built once per triple; a call of
``ideal`` reads only the coefficients from the representation's matrices.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import PrimeField
from .quiver import Quiver
from .reps import Representation


class PlueckerError(ValueError):
    pass


@dataclass(frozen=True)
class PlueckerVariable:
    """The minor D[vertex][cols]; ``vertex`` is the external vertex name,
    ``cols`` a sorted tuple of 1-based column indices."""

    vertex: int
    cols: tuple[int, ...]

    def __str__(self):
        return f"D[{self.vertex}][{','.join(str(c) for c in self.cols)}]"


def _colex_key(cols):
    return tuple(sorted(cols, reverse=True))


class PlueckerRing:
    """The multihomogeneous coordinate ring's variable bookkeeping.

    Variables are grouped by vertex (in quiver order) and listed in colex
    order within each vertex.
    """

    def __init__(self, quiver: Quiver, d, e):
        self.quiver = quiver
        self.d = quiver.check_dimvector(d)
        self.e = quiver.check_dimvector(e)
        for i in range(quiver.n):
            if self.e[i] > self.d[i]:
                raise PlueckerError(f"e exceeds d at vertex {quiver.name(i)}")
        variables, vertex_of, block = [], [], []
        self._index: dict[tuple, int] = {}  # (internal vertex, sorted cols)
        for i in range(quiver.n):
            start = len(variables)
            subsets = sorted(
                itertools.combinations(range(1, self.d[i] + 1), self.e[i]),
                key=_colex_key,
            )
            for cols in subsets:
                self._index[i, cols] = len(variables)
                variables.append(PlueckerVariable(quiver.name(i), cols))
                vertex_of.append(i)
            block.append((start, len(variables)))
        # tuples: one ring serves every ideal of its (quiver, d, e)
        self.variables: tuple[PlueckerVariable, ...] = tuple(variables)
        self.vertex_of = tuple(vertex_of)  # internal vertex index per variable
        self.block = tuple(block)  # [start, stop) per vertex

    def __len__(self):
        return len(self.variables)

    def index(self, vertex_internal: int, cols) -> int:
        cols = tuple(sorted(cols))
        try:
            return self._index[vertex_internal, cols]
        except KeyError:
            var = PlueckerVariable(self.quiver.name(vertex_internal), cols)
            raise PlueckerError(f"no variable {var}") from None

    def multidegree(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        deg = [0] * self.quiver.n
        for v in mono:
            deg[self.vertex_of[v]] += 1
        return tuple(deg)


class MPoly:
    """Sparse polynomial with integer coefficients in the ring's variables.

    Monomials are sorted tuples of variable indices (with repetition).
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: PlueckerRing, coeffs: dict):
        self.ring = ring
        self.coeffs = {m: c for m, c in coeffs.items() if c != 0}

    def __bool__(self):
        return bool(self.coeffs)

    def evaluate(self, coords, field: PrimeField) -> int:
        """Value mod p given per-variable coordinate values (reduced term by
        term inline, like the Gröbner coefficients)."""
        p = field.p
        total = 0
        for m, c in self.coeffs.items():
            v = c % p
            for idx in m:
                v = (v * coords[idx]) % p
            total = (total + v) % p
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            mono = "*".join(str(self.ring.variables[i]) for i in m) or "1"
            if not parts:
                sign = "-" if c < 0 else ""
            else:
                sign = " - " if c < 0 else " + "
            mag = abs(c)
            parts.append(f"{sign}{mono}" if mag == 1 and m else f"{sign}{mag}*{mono}")
        return "".join(parts)


def _normalized(poly: MPoly, field: PrimeField) -> tuple | None:
    """Canonical monic-mod-p form used to deduplicate scalar multiples."""
    p = field.p
    items = sorted((m, c % p) for m, c in poly.coeffs.items() if c % p)
    if not items:
        return None
    inv = field.inv_scalar(items[0][1])
    return tuple((m, (c * inv) % p) for m, c in items)


def grassmann_relations(ring: PlueckerRing, vertex: int) -> list[MPoly]:
    """Exchange quadrics of Gr(e_i, d_i) at one internal vertex index.

    Empty whenever e_i is 0, 1, d_i - 1 or d_i (the Grassmannian is then a
    projective space or a point and has no relations).
    """
    a, dv = ring.e[vertex], ring.d[vertex]
    if a in (0, 1) or a >= dv - 1:
        return []
    seen = set()
    out = []
    cols = range(1, dv + 1)
    for i_set in itertools.combinations(cols, a - 1):
        for j_set in itertools.combinations(cols, a + 1):
            coeffs: dict = {}
            for pos, q in enumerate(j_set):
                if q in i_set:
                    continue
                v1 = ring.index(vertex, i_set + (q,))
                v2 = ring.index(vertex, tuple(x for x in j_set if x != q))
                # sorting-insertion sign of q into i_set
                ins = sum(1 for x in i_set if x > q)
                mono = tuple(sorted((v1, v2)))
                coeffs[mono] = coeffs.get(mono, 0) + (-1) ** (pos + ins)
            poly = MPoly(ring, coeffs)
            # g and -g share a key: scale by the first coefficient (+-1)
            items = sorted(poly.coeffs.items())
            key = tuple((m, c * items[0][1]) for m, c in items) if items else None
            if key and key not in seen:
                seen.add(key)
                out.append(poly)
    return out


def _bilinear_terms(ring: PlueckerRing, s: int, t: int) -> tuple:
    """The relations R(pi, I, J) of a map pi: vertex s -> vertex t, without
    their coefficients: per (I, J) the (monomial, sign, flat index into pi)
    of each term.

    I runs over (e_s - 1)-subsets at s, J over (e_t + 1)-subsets at t; each
    relation is sum over p not in I, q in J of
    (-1)^(eps(p,I) + eps(q,J)) * pi[q,p] * D[s][I+p] * D[t][J-q],
    p the outer index.  Since s != t every term has its own monomial.
    """
    es, et = ring.e[s], ring.e[t]
    ds, dt = ring.d[s], ring.d[t]
    if es == 0 or et >= dt:
        return ()
    # (variable, sign, column) of D[s][I+p] per I and of D[t][J-q] per J
    rows = [[(ring.index(s, i_set + (p_col,)),
              (-1) ** sum(1 for x in i_set if x <= p_col), p_col - 1)
             for p_col in range(1, ds + 1) if p_col not in i_set]
            for i_set in itertools.combinations(range(1, ds + 1), es - 1)]
    cols = [[(ring.index(t, tuple(x for x in j_set if x != q_col)),
              (-1) ** sum(1 for x in j_set if x <= q_col), q_col - 1) for q_col in j_set]
            for j_set in itertools.combinations(range(1, dt + 1), et + 1)]
    return tuple(tuple(((v1, v2) if v1 <= v2 else (v2, v1), sign_p * sign_q, qc * ds + pc)
                       for v1, sign_p, pc in row for v2, sign_q, qc in col)
                 for row in rows for col in cols)


def _with_coefficients(ring: PlueckerRing, terms: tuple, mat: np.ndarray) -> list[MPoly]:
    """The nonzero relations of ``_bilinear_terms`` for pi = ``mat``, a
    signed integer matrix."""
    entries = mat.ravel().tolist()
    out = []
    for relation in terms:
        coeffs = {mono: sign * entries[k] for mono, sign, k in relation if entries[k]}
        if coeffs:
            out.append(MPoly(ring, coeffs))
    return out


@functools.lru_cache(maxsize=64)
def _ring(quiver: Quiver, d: tuple, e: tuple) -> PlueckerRing:
    return PlueckerRing(quiver, d, e)


@functools.lru_cache(maxsize=64)
def _quadrics(quiver: Quiver, d: tuple, e: tuple) -> tuple[MPoly, ...]:
    """The exchange quadrics of every vertex, in vertex order."""
    ring = _ring(quiver, d, e)
    return tuple(g for v in range(quiver.n) for g in grassmann_relations(ring, v))


@functools.lru_cache(maxsize=256)
def _terms(quiver: Quiver, d: tuple, e: tuple, s: int, t: int) -> tuple:
    return _bilinear_terms(_ring(quiver, d, e), s, t)


def ideal(m: Representation, e, *, scope: str = "arrows") -> tuple[PlueckerRing, list[MPoly]]:
    """Generators of the defining ideal of Gr_e(M) in Plücker coordinates.

    ``scope`` chooses the bilinear families: "arrows" or "paths".  The
    Grassmannian exchange relations at every vertex are always included.
    Generators that agree up to a scalar mod p are deduplicated.  The ring
    and the exchange quadrics are shared by every call with the same
    (quiver, d, e) and must not be modified.
    """
    # checked before the memos, under whose keys a float entry equals an int
    q, d, e = m.quiver, m.dims, m.quiver.check_dimvector(e)
    ring = _ring(q, d, e)
    if scope == "arrows":
        maps = [(s, t, m.maps[a]) for a, (s, t) in enumerate(q.arrows)]
    elif scope == "paths":
        maps = [(path.source, path.target, m.path_matrix(path)) for path in q.paths()]
    else:
        raise PlueckerError(f"unknown scope {scope!r}")
    gens = list(_quadrics(q, d, e))
    for s, t, mat in maps:
        gens.extend(_with_coefficients(ring, _terms(q, d, e, s, t), m.field.lift_signed(mat)))
    seen = set()
    unique = []
    for g in gens:
        key = _normalized(g, m.field)
        if key is None or key in seen:
            continue
        seen.add(key)
        unique.append(g)
    return ring, unique


# -- evaluation at points ---------------------------------------------------

def pluecker_coordinates(ring: PlueckerRing, bases, field: PrimeField) -> dict[int, int]:
    """All minors D[i][J] of per-vertex basis matrices (shape e_i x d_i)."""
    coords: dict[int, int] = {}
    for i in range(ring.quiver.n):
        b = field.mat(bases[i]) if ring.e[i] else field.zeros(0, ring.d[i])
        if b.shape != (ring.e[i], ring.d[i]):
            raise PlueckerError(f"basis at vertex {ring.quiver.name(i)} has wrong shape")
        lo, hi = ring.block[i]
        for idx in range(lo, hi):
            cols = [c - 1 for c in ring.variables[idx].cols]
            # the empty minor (e_i = 0) is 1 by convention
            coords[idx] = field.det(b[:, cols]) if cols else 1
    return coords


# -- exports ----------------------------------------------------------------

def export_text(gens: list[MPoly]) -> str:
    return "\n".join(str(g) for g in gens) + "\n"


def _m2_name(var: PlueckerVariable) -> str:
    sep = "" if not var.cols or max(var.cols) < 10 else "x"
    return f"D{var.vertex}_{sep.join(str(c) for c in var.cols)}"


def export_macaulay2(ring: PlueckerRing, gens: list[MPoly], p: int) -> str:
    """A self-contained Macaulay2 script defining the multigraded ideal."""
    names = [_m2_name(v) for v in ring.variables]
    degs = []
    for idx in range(len(ring)):
        unit = [0] * ring.quiver.n
        unit[ring.vertex_of[idx]] = 1
        degs.append("{" + ",".join(str(x) for x in unit) + "}")
    lines = [
        f"-- quiver Grassmannian ideal, {len(gens)} generators",
        f"kk = ZZ/{p};",
        "R = kk[" + ", ".join(names)
        + ", Degrees => {" + ", ".join(degs) + "}];",
    ]
    polys = []
    for g in gens:
        terms = []
        for m_idx in sorted(g.coeffs):
            c = g.coeffs[m_idx]
            mono = "*".join(names[i] for i in m_idx) or "1"
            terms.append(f"({c})*{mono}")
        polys.append(" + ".join(terms))
    lines.append("I = ideal(\n  " + ",\n  ".join(polys) + "\n);")
    return "\n".join(lines) + "\n"
