"""Exact point counts of quiver Grassmannians over prime fields.

``count_points`` runs a tree dynamic program that eliminates leaves with
closed-form subspace counts where possible; ``brute_force_count`` is the
slow independent oracle.  ``classify`` decodes the counting polynomial
P(q) = sum c_i q^i, whose degree and leading coefficient classify the
variety (dimension, number of top-dimensional components).  Dynkin quiver
Grassmannians have affine pavings, so every c_i >= 0 and sum c_i = P(1) =
chi, the Euler characteristic; chi is a knapsack over the catalog summands
(``euler_characteristic``), and once the product of the primes counted
exceeds chi every c_i is a CRT residue of the counts (``decode``).  Newton
interpolation (``interpolate``) is the independent oracle of the decode.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .catalog import CatalogError, get_catalog
from .linalg import PrimeField, gaussian_binomial, is_prime
from .quiver import Quiver
from .reps import Representation


class CountError(ValueError):
    pass


DEFAULT_ENUM_BUDGET = 6_000_000
DEFAULT_PAIR_BUDGET = 30_000_000
BRUTE_BUDGET = 10_000_000
HELDOUT = 2  # primes past the decode that a consistent polynomial must fit
_CHUNK = 200_000


class SubspaceEnum:
    """All e-dimensional subspaces of F_p^d as canonical rref bases.

    ``bases`` has shape (N, e, d) and the field's element type; each
    subspace appears exactly once.
    Rows are grouped into contiguous blocks sharing one pivot-column
    pattern (``blocks`` lists (start, stop, pivots)), which downstream rank
    computations exploit: the basis rows are already in echelon form.
    """

    def __init__(self, e: int, d: int, field: PrimeField, *, budget: int = DEFAULT_ENUM_BUDGET):
        if not (0 <= e <= d):
            raise CountError(f"subspace dimension {e} out of range for ambient {d}")
        p = field.p
        self.e, self.d = e, d
        total = gaussian_binomial(d, e, p)
        if total > budget:
            raise CountError(f"enumeration budget exceeded: {total} subspaces of Gr({e},{d}) at p={p}")
        self.size = int(total)
        chunks = []
        self.blocks: list[tuple[int, int, tuple[int, ...]]] = []
        pos = 0
        for pivots in itertools.combinations(range(d), e):
            free = [
                (i, j)
                for i in range(e)
                for j in range(pivots[i] + 1, d)
                if j not in pivots
            ]
            count = p ** len(free)
            block = np.zeros((count, e, d), dtype=field.dtype)
            for i, c in enumerate(pivots):
                block[:, i, c] = 1
            if free:
                digits = np.arange(count)
                for k, (i, j) in enumerate(free):  # base-p digits
                    block[:, i, j] = (digits // p**k) % p
            chunks.append(block)
            self.blocks.append((pos, pos + count, pivots))
            pos += count
        self.bases = (
            np.concatenate(chunks, axis=0) if chunks else np.zeros((1, 0, d), dtype=field.dtype)
        )
        if not chunks:
            self.blocks = [(0, 1, ())]
        assert self.bases.shape[0] == self.size


@functools.lru_cache(maxsize=16)
def _cached_enum(e: int, d: int, field: PrimeField, budget: int) -> SubspaceEnum:
    return SubspaceEnum(e, d, field, budget=budget)


def enumerate_subspaces(e: int, d: int, field: PrimeField, *,
                        budget: int = DEFAULT_ENUM_BUDGET) -> SubspaceEnum:
    return _cached_enum(e, d, field, budget)


def _sum_dims_with_fixed(en: SubspaceEnum, w: np.ndarray, f: PrimeField) -> np.ndarray:
    """dim(U + rowspace(w)) for every subspace U in the enumeration.

    Exploits the rref structure: reducing the fixed rows ``w`` by the pivot
    rows of each basis costs one small matrix product per block, and the
    leftover rank is computed on the non-pivot columns only.
    """
    k, d = w.shape
    e = en.e
    out = np.empty(en.size, dtype=np.int64)
    if k == 0 or e == d:
        out[:] = e
        return out
    dtype = f.dot_dtype(e)
    w = w.astype(dtype)
    for start, stop, pivots in en.blocks:
        nonpiv = [c for c in range(d) if c not in pivots]
        w_piv = w[:, pivots]
        w_rest = w[:, nonpiv]
        for lo in range(start, stop, _CHUNK):
            hi = min(lo + _CHUNK, stop)
            # the pivot columns of an rref basis form the identity, so only
            # the non-pivot columns of the reduced rows can be nonzero
            b = en.bases[lo:hi, :, :][:, :, nonpiv].astype(dtype)
            rest = w_rest[None, :, :] - np.einsum("ke,nef->nkf", w_piv, b)
            if rest.shape[2] == 1:
                out[lo:hi] = e + (f.reduce(rest[:, :, 0]) != 0).any(axis=1)
            else:
                out[lo:hi] = e + f.batched_rank(rest)  # reduces its input
    return out


def _gauss_table(p: int, nmax: int) -> list[list[int]]:
    return [
        [gaussian_binomial(n, k, p) if k <= n else 0 for k in range(nmax + 2)]
        for n in range(nmax + 1)
    ]


class _Coded:
    """A per-subspace weight function with few distinct (big-int) values.

    ``codes`` maps each subspace index to an entry of ``values``; keeping
    big integers out of the bulk arrays makes the final reduction cheap.
    """

    __slots__ = ("codes", "values")

    def __init__(self, codes: np.ndarray, values: list):
        self.codes = codes
        self.values = values

    def to_object(self) -> np.ndarray:
        table = np.empty(len(self.values), dtype=object)
        table[:] = self.values
        return table[self.codes]

    @staticmethod
    def combine_and_sum(msgs: list["_Coded"]) -> int:
        """Sum over subspaces of the product of the message values."""
        code = np.zeros_like(msgs[0].codes)
        radix = 1
        for m in msgs:
            code = code + radix * m.codes
            radix *= len(m.values)
        uniq, counts = np.unique(code, return_counts=True)
        total = 0
        for u, c in zip(uniq.tolist(), counts.tolist()):
            val = 1
            rest = u
            for m in msgs:
                rest, digit = divmod(rest, len(m.values))
                val *= m.values[digit]
            total += int(c) * val
        return total

    @staticmethod
    def combine_to_object(msgs: list) -> np.ndarray:
        out = None
        for m in msgs:
            arr = m.to_object() if isinstance(m, _Coded) else m
            out = arr if out is None else out * arr
        return out


def _field_of(m: Representation, p: int) -> PrimeField:
    """The field of ``m``, which must be F_p."""
    if p != m.field.p:
        raise CountError(f"count at p={p} of a representation over F_{m.field.p}")
    return m.field


def count_points(m: Representation, e, p: int, *,
                 enum_budget: int = DEFAULT_ENUM_BUDGET,
                 pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """|Gr_e(M)(F_p)|: tuples of subspaces U_i with M_a(U_{s(a)}) in U_{t(a)}.

    ``p`` must be the prime of ``m.field``."""
    q = m.quiver
    e = q.check_dimvector(e)
    for i in range(q.n):
        if e[i] > m.dims[i]:
            raise CountError(f"e_{i} exceeds d_{i}")
    f = _field_of(m, p)
    gauss = _gauss_table(p, max(m.dims, default=0))
    adj = q.neighbors()
    root = _choose_root(q, m.dims, e, p)

    def enum(v: int) -> SubspaceEnum:
        return enumerate_subspaces(e[v], m.dims[v], f, budget=enum_budget)

    def closed_message(child: int, v: int) -> _Coded:
        """Message of an unweighted leaf ``child`` into ``v``, per U_v."""
        a = _edge_arrow(q, child, v)
        ev = enum(v)
        if q.source(a) == child:  # arrow child -> v, map A: M_child -> M_v
            # dim of the preimage of U under A, then count subspaces inside
            dim_sum = _sum_dims_with_fixed(ev, m.maps[a].T, f)
            dpre = m.dims[child] - dim_sum + e[v]
            values = [gauss[n][e[child]] if 0 <= n <= m.dims[child] else 0
                      for n in range(m.dims[child] + 1)]
            return _Coded(dpre, values)
        # arrow v -> child, map B: M_v -> M_c: count U_c containing B(U_v)
        B = m.maps[a]
        r = np.empty(ev.size, dtype=np.int64)
        for lo in range(0, ev.size, _CHUNK):
            hi = min(lo + _CHUNK, ev.size)
            bu = ev.bases[lo:hi].astype(np.int64)
            r[lo:hi] = f.batched_rank(np.einsum("nij,kj->nik", bu, B))  # reduces its input
        dc, ec = m.dims[child], e[child]
        values = [gauss[dc - rr][ec - rr] if rr <= ec else 0
                  for rr in range(min(e[v], dc) + 1)]
        return _Coded(r, values)

    def pair_message(child: int, v: int, w_child: np.ndarray) -> np.ndarray:
        """Fallback: explicit containment sum for a weighted child."""
        a = _edge_arrow(q, child, v)
        ec, ev = enum(child), enum(v)
        if ec.size * ev.size > pair_budget:
            raise CountError(
                f"pair budget exceeded at edge {q.name(child)}-{q.name(v)}: "
                f"{ec.size} x {ev.size}"
            )
        out = np.zeros(ev.size, dtype=object)
        bc = ec.bases.astype(np.int64)
        into_v = q.source(a) == child
        if into_v:
            img_c = bc @ m.maps[a].T  # (Nc, e_c, d_v), the same for every chunk
        step = max(1, _CHUNK // max(1, ec.size))
        for lo in range(0, ev.size, step):
            hi = min(lo + step, ev.size)
            bv = ev.bases[lo:hi].astype(np.int64)
            if into_v:
                comp = _containment(f, img_c, bv, e[v])
            else:
                img = bv @ m.maps[a].T  # (chunk, e_v, d_child)
                comp = _containment(f, img, bc, e[child]).T
            # comp[x, y]: U_c[y] compatible with U_v[lo + x]
            for x in range(hi - lo):
                out[lo + x] = sum(
                    int(wv) for wv, okv in zip(w_child, comp[x]) if okv
                )
        return out

    def subtree(v: int, parent: int):
        """Messages into v from its subtree: list of _Coded / object arrays,
        or None when v is a leaf of the rooted tree."""
        children = [w for w in adj[v] if w != parent]
        if not children:
            return None
        msgs = []
        for c in children:
            below = subtree(c, v)
            if below is None:
                msgs.append(closed_message(c, v))
            else:
                msgs.append(pair_message(c, v, _Coded.combine_to_object(below)))
        return msgs

    msgs = subtree(root, -1)
    if msgs is None:
        return int(gaussian_binomial(m.dims[root], e[root], p))
    if all(isinstance(x, _Coded) for x in msgs):
        return _Coded.combine_and_sum(msgs)
    return int(sum(_Coded.combine_to_object(msgs)))


def _edge_arrow(q: Quiver, u: int, v: int) -> int:
    for a, (s, t) in enumerate(q.arrows):
        if {s, t} == {u, v}:
            return a
    raise CountError("no arrow between adjacent vertices (internal error)")


def _containment(f: PrimeField, vecs: np.ndarray, spaces: np.ndarray, e_space: int) -> np.ndarray:
    """contained[x, y]: rows of vecs[y] all lie in the span of spaces[x].

    vecs: (Ny, r, d); spaces: (Nx, e, d), integer entries that
    ``batched_rank`` reduces mod p.  Returns (Nx, Ny) bool.
    """
    nx = spaces.shape[0]
    ny, r, d = vecs.shape
    out = np.zeros((nx, ny), dtype=bool)
    for x in range(nx):
        stacked = np.concatenate(
            [np.broadcast_to(spaces[x][None, :, :], (ny, e_space, d)), vecs], axis=1
        )
        out[x] = f.batched_rank(stacked) == e_space
    return out


def _choose_root(q: Quiver, d, e, p: int) -> int:
    """Root minimizing the estimated DP cost (pair messages dominate)."""
    adj = q.neighbors()

    def cost(root: int) -> int:
        total = 0

        def walk(v, parent):
            nonlocal total
            children = [w for w in adj[v] if w != parent]
            size_v = gaussian_binomial(d[v], e[v], p)
            for c in children:
                sub_heavy = walk(c, v)
                if sub_heavy:
                    total += size_v * int(gaussian_binomial(d[c], e[c], p))
                else:
                    total += size_v
            return bool(children)

        walk(root, -1)
        return total

    return min(range(q.n), key=lambda v: (cost(v), v))


def brute_force_count(m: Representation, e, p: int, *, budget: int = BRUTE_BUDGET) -> int:
    """Ground-truth oracle: full product enumeration with containment checks.

    ``p`` must be the prime of ``m.field``."""
    q = m.quiver
    e = q.check_dimvector(e)
    f = _field_of(m, p)
    enums = [SubspaceEnum(e[i], m.dims[i], f) for i in range(q.n)]
    total = 1
    for en in enums:
        total *= en.size
    if total > budget:
        raise CountError(f"brute-force budget exceeded: {total} tuples")
    # per-arrow compatibility tables from unvectorized membership solves
    comp = []
    for a, (s, t) in enumerate(q.arrows):
        table = np.zeros((enums[s].size, enums[t].size), dtype=bool)
        for i in range(enums[s].size):
            img = f.mul(m.maps[a], enums[s].bases[i].astype(np.int64).T)
            for j in range(enums[t].size):
                basis_t = enums[t].bases[j].astype(np.int64).T
                table[i, j] = f.solve(basis_t, img) is not None
        comp.append(table)
    count = 0
    for combo in itertools.product(*[range(en.size) for en in enums]):
        if all(comp[a][combo[s], combo[t]] for a, (s, t) in enumerate(q.arrows)):
            count += 1
    return count


# -- interpolation and classification --------------------------------------

@dataclass
class CountingPolynomial:
    """Exact rational polynomial in q, coefficients ascending by degree."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            if c == 1 and k > 0:
                parts.append(term)
            elif c == -1 and k > 0:
                parts.append(f"-{term}")
            else:
                parts.append(f"{c}{'*' if k else ''}{term}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


def interpolate(nodes) -> tuple[CountingPolynomial, bool]:
    """Newton interpolation through (p, count) nodes over exact rationals.

    Returns (polynomial, consistent).  ``consistent`` requires at least
    ``HELDOUT`` effective spare nodes (vanishing top divided differences),
    integer coefficients and a positive integer leading coefficient.
    """
    pts = [(Fraction(p), Fraction(c)) for p, c in nodes]
    if len(set(x for x, _ in pts)) != len(pts):
        raise CountError("interpolation nodes must be distinct")
    if not pts:
        raise CountError("no interpolation nodes")
    xs = [x for x, _ in pts]
    divided = [y for _, y in pts]
    # divided[j] becomes f[x_0..x_j]
    for level in range(1, len(pts)):
        for j in range(len(pts) - 1, level - 1, -1):
            divided[j] = (divided[j] - divided[j - 1]) / (xs[j] - xs[j - level])
    deg = max((j for j, c in enumerate(divided) if c != 0), default=0)
    # expand Newton form into monomial coefficients
    coeffs = [Fraction(0)] * (deg + 1)
    basis = [Fraction(1)]  # product (x - x_0)...(x - x_{j-1})
    for j in range(deg + 1):
        for k, b in enumerate(basis):
            coeffs[k] += divided[j] * b
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for k, b in enumerate(basis):
            new_basis[k] -= xs[j] * b
            new_basis[k + 1] += b
        basis = new_basis
    poly = CountingPolynomial(tuple(coeffs))
    spare = len(pts) - (deg + 1)
    consistent = (
        spare >= HELDOUT
        and poly.is_integral()
        and poly.leading > 0
        and poly.leading.denominator == 1
    )
    return poly, consistent


@dataclass
class Classification:
    """Dimension and top-component count read off the counting polynomial
    (dimension -1 and the zero polynomial for an empty Grassmannian)."""

    dimension: int
    top_count: int
    polynomial: CountingPolynomial
    consistent: bool
    method: str
    counts: dict = dc_field(default_factory=dict)
    reason: str = ""  # why the result is not consistent; '' when it is

    def to_json(self, isoclass: str = "") -> str:
        return json.dumps(self.to_record(isoclass), sort_keys=True)

    def to_record(self, isoclass: str = "") -> dict:
        return {
            "isoclass": isoclass,
            "dim": self.dimension,
            "top_components": self.top_count,
            "poly": [str(c) for c in self.polynomial.coeffs],
            "consistent": self.consistent,
            "method": self.method,
            "primes": sorted(self.counts),
        }


def _primes_from(start: int = 2):
    p = start
    while True:
        if is_prime(p):
            yield p
        p += 1


# -- Euler characteristics and the decode ----------------------------------

@functools.lru_cache(maxsize=None)
def _indecomposable_chi(quiver: Quiver, label, f: tuple[int, ...]) -> int:
    """chi(Gr_f(X)) for the catalog indecomposable X named by ``label``.

    The same decode as ``classify``, bounded by chi <= |Gr_f(X)(F_2)|, which
    holds because the counting polynomial has non-negative coefficients.
    """
    def count_at(p: int) -> int:
        return count_points(get_catalog(quiver, p).models[label], f, p)

    bound = count_at(2)
    primes, heldout = _schedule(bound)
    _, coeffs, reason = _count_and_decode(count_at, primes, heldout, bound, exact=False)
    if reason:
        raise CountError(f"chi of Gr_{f}({label}): {reason}")
    return sum(coeffs)


def euler_characteristic(m: Representation, e) -> int:
    """chi(Gr_e(M)) from the catalog summands of ``m``, no point count.

    chi is multiplicative over direct sums, chi(Gr_e(M + N)) =
    sum over f + g = e of chi(Gr_f(M)) chi(Gr_g(N)), so it is a knapsack
    over the summands reading one table entry per (indecomposable, f).
    """
    q = m.quiver
    e = q.check_dimvector(e)
    try:
        iso = get_catalog(q, m.field.p).decompose(m)
    except CatalogError as exc:
        raise CountError(f"chi needs a catalog of the quiver: {exc}") from exc
    chis = {(0,) * q.n: 1}  # partial sub-dimension vector -> chi
    for label, mult in iso.counts.items():
        for _ in range(mult):
            grown: dict[tuple[int, ...], int] = {}
            for g, c in chis.items():
                ranges = [range(min(x, ei - gi) + 1) for x, ei, gi in zip(label.dims, e, g)]
                for f in itertools.product(*ranges):
                    cx = _indecomposable_chi(q, label, f)
                    if cx:
                        h = tuple(a + b for a, b in zip(g, f))
                        grown[h] = grown.get(h, 0) + c * cx
            chis = grown
    return chis.get(e, 0)


def _schedule(chi: int) -> tuple[list[int], list[int]]:
    """The decode primes 2, 3, 5, ... up to the first whose product exceeds
    ``chi`` (at least p = 2), and the ``HELDOUT`` primes after them (none
    when chi = 0: the empty variety needs only its zero count at p = 2)."""
    primes: list[int] = []
    modulus = 1
    more = _primes_from(2)
    while not primes or modulus <= chi:
        primes.append(next(more))
        modulus *= primes[-1]
    heldout = [next(more) for _ in range(HELDOUT)] if chi else []
    return primes, heldout


def _crt(residues: list[int], fields: list[PrimeField]) -> int:
    """The x in [0, prod p) with x = r mod p for every (r, F_p)."""
    x, modulus = 0, 1
    for r, f in zip(residues, fields):
        x += modulus * (f.inv_scalar(modulus) * (r - x) % f.p)
        modulus *= f.p
    return x


def decode(counts: dict[int, int], chi: int, *, exact: bool = True) -> list[int] | None:
    """Coefficients c_0, c_1, ... of the polynomial with P(p) = counts[p],
    every c_i >= 0 and sum c_i = chi (<= chi unless ``exact``); None when
    there is no such polynomial.

    The product of the primes must exceed chi.  Then c_0 <= chi is the CRT
    residue of the counts; (P(p) - c_0) / p are the values of the polynomial
    of c_1, c_2, ..., which is peeled the same way until every value is 0.
    """
    if math.prod(counts) <= chi:
        raise CountError(f"primes {sorted(counts)} are too few to decode chi = {chi}")
    fields = [PrimeField(p) for p in counts]
    values = list(counts.values())
    coeffs: list[int] = []
    left = chi
    while any(values):
        c = _crt(values, fields)
        if c > left:
            return None
        left -= c
        coeffs.append(c)
        values = [(v - c) // f.p for v, f in zip(values, fields)]
        if min(values) < 0:
            return None
    return None if exact and left else coeffs


def _count_and_decode(count_at, primes: list[int], heldout: list[int], chi: int, *,
                      exact: bool) -> tuple[dict[int, int], list[int] | None, str]:
    """Counts at ``primes``, their decode and the held-out check.

    Returns (counts, coefficients or None, reason); ``reason`` is '' when the
    decode succeeded and every held-out count agrees with it.
    """
    counts = {p: count_at(p) for p in primes}
    coeffs = decode(counts, chi, exact=exact)
    if coeffs is None:
        return counts, None, (f"decode failed: the counts at primes {primes} fit no "
                              f"polynomial with non-negative coefficients summing to "
                              f"{'' if exact else 'at most '}{chi}")
    for p in heldout:
        counts[p] = count_at(p)
        value = sum(c * p**i for i, c in enumerate(coeffs))
        if value != counts[p]:
            return counts, coeffs, (f"held-out mismatch at p={p}: counted {counts[p]}, "
                                    f"decoded polynomial gives {value}")
    return counts, coeffs, ""


def classify(m_for_prime, e, *, max_prime: int = 101,
             enum_budget: int = DEFAULT_ENUM_BUDGET,
             pair_budget: int = DEFAULT_PAIR_BUDGET) -> Classification:
    """Classify a quiver Grassmannian by its chi-bounded counting polynomial.

    ``m_for_prime`` is a callable p -> Representation over F_p (the same
    module realized at each prime).  chi = P(1) comes from the catalog
    summands of the module at p = 2 (``euler_characteristic``); the counts at
    the fewest primes whose product exceeds chi decode P, and ``HELDOUT``
    further primes must reproduce it.  chi = 0 is the empty variety
    (dimension -1, zero polynomial), checked by its count at p = 2 alone.
    Raises CountError when those primes go beyond ``max_prime``; a failed
    decode or held-out check gives ``consistent=False`` and a ``reason``.
    """
    m2 = m_for_prime(2)
    chi = euler_characteristic(m2, e)
    primes, heldout = _schedule(chi)
    need = (heldout or primes)[-1]
    if need > max_prime:
        raise CountError(f"chi = {chi} needs counts up to p={need}, "
                         f"above max_prime={max_prime}")

    def count_at(p: int) -> int:
        m = m2 if p == 2 else m_for_prime(p)
        return count_points(m, e, p, enum_budget=enum_budget, pair_budget=pair_budget)

    counts, coeffs, reason = _count_and_decode(count_at, primes, heldout, chi, exact=True)
    poly = CountingPolynomial(tuple(Fraction(c) for c in coeffs or ()))
    return Classification(
        dimension=poly.degree,
        top_count=int(poly.leading),
        polynomial=poly,
        consistent=not reason,
        method="dp",
        counts=counts,
        reason=reason,
    )
