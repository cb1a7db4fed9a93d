"""Exact point counts of quiver Grassmannians over prime fields.

``count_points`` runs a tree dynamic program that eliminates leaves with
closed-form subspace counts where possible; ``brute_force_count`` is the
slow independent oracle.  When every e_v is 0 or d_v there is one
candidate point (U_v = 0 or M_v), so the count is 0 or 1 and nothing else
is built: this is every count of a thin model.  When the root is a point
root (its subspaces are the lines or the hyperplanes of M_v) and every
neighbour is a leaf, each leaf message takes one value on the points inside
a subspace Z_c and one outside, so the root sum is an inclusion-exclusion
over the ranks of intersections of the Z_c and no subspace is enumerated
(``_point_root_sum``); the ranks add over direct summands, so they are
read from tables per catalog summand.

``classify`` reads off the counting polynomial P(q) = sum c_i q^i, whose
degree and leading coefficient classify the variety (dimension, number of
top-dimensional components).  P is a twisted product over the catalog
summands of the module (``_product``): when Ext^1(N, M) = 0,

    P_{N+M,e}(q) = sum over f + g = e of q^<g, dim M - f> P_{M,f}(q) P_{N,g}(q)

(the Hall-number form of Caldero and Chapoton's product for Euler
characteristics), and adding the summands in the reverse order of
``Catalog.fold_positions`` keeps Ext^1(N, M) = 0 at every step.  The
polynomial of each indecomposable model is decoded once from its counts:
Dynkin quiver Grassmannians have affine pavings, so every c_i >= 0, and
once the product of the primes counted exceeds P(1) every c_i is a CRT
residue of the counts (``decode``).  The DP count of the module itself at
p = 2 and 3 then checks the product; Newton interpolation
(``interpolate``) and ``brute_force_count`` remain as oracles.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
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
CHECK_PRIMES = (2, 3)  # where the DP count must equal the product
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
        self.bases = np.concatenate(chunks, axis=0)
        assert self.bases.shape[0] == self.size


@functools.lru_cache(maxsize=16)
def _cached_enum(e: int, d: int, field: PrimeField, budget: int) -> SubspaceEnum:
    return SubspaceEnum(e, d, field, budget=budget)


def enumerate_subspaces(e: int, d: int, field: PrimeField, *,
                        budget: int = DEFAULT_ENUM_BUDGET) -> SubspaceEnum:
    # converted before the memo, under whose keys a float equals an int
    try:
        e, d = operator.index(e), operator.index(d)
    except TypeError:
        raise CountError(f"subspace dimension {e!r} or ambient {d!r} is not an integer") from None
    return _cached_enum(e, d, field, budget)


def _sum_dims_with_fixed(en: SubspaceEnum, w: np.ndarray, f: PrimeField) -> np.ndarray:
    """dim(U + rowspace(w[j])) for every j of a (K, k, d) stack ``w`` with
    entries reduced mod p and every subspace U in the enumeration: a (K, N)
    array.

    Exploits the rref structure: reducing the fixed rows ``w[j]`` by the
    pivot rows of each basis costs one small matrix product per block, and
    the leftover rank is computed on the non-pivot columns only, at most
    ``_CHUNK`` matrices at a time.
    """
    stack, k, d = w.shape
    e = en.e
    out = np.empty((stack, en.size), dtype=np.int64)
    if k == 0 or e == d:
        out[:] = e
        return out
    dtype = f.dot_dtype(e)
    w = w.astype(dtype)
    for start, stop, pivots in en.blocks:
        nonpiv = [c for c in range(d) if c not in pivots]
        w_piv = w[:, :, pivots]
        w_rest = w[:, :, nonpiv]
        n_step = min(_CHUNK, stop - start)
        k_step = _CHUNK // n_step
        for lo in range(start, stop, n_step):
            hi = min(lo + n_step, stop)
            # the pivot columns of an rref basis form the identity, so only
            # the non-pivot columns of the reduced rows can be nonzero
            b = en.bases[lo:hi, :, :][:, :, nonpiv].astype(dtype)
            for j in range(0, stack, k_step):
                js = slice(j, j + k_step)
                rest = w_rest[js, None] - np.einsum("jke,nef->jnkf", w_piv[js], b)
                if rest.shape[3] == 1:
                    out[js, lo:hi] = e + (f.reduce(rest[..., 0]) != 0).any(axis=2)
                else:
                    ranks = f.batched_rank(rest.reshape(-1, k, d - e))  # reduces its input
                    out[js, lo:hi] = e + ranks.reshape(rest.shape[:2])
    return out


@functools.lru_cache(maxsize=64)
def _gauss_table(p: int, nmax: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(gaussian_binomial(n, k, p) if k <= n else 0 for k in range(nmax + 2))
        for n in range(nmax + 1)
    )


def _field_of(m: Representation, p: int) -> PrimeField:
    """The field of ``m``, which must be F_p."""
    if p != m.field.p:
        raise CountError(f"count at p={p} of a representation over F_{m.field.p}")
    return m.field


def count_points(m: Representation, e, p: int, *,
                 enum_budget: int = DEFAULT_ENUM_BUDGET,
                 pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """|Gr_e(M)(F_p)|: tuples of subspaces U_i with M_a(U_{s(a)}) in U_{t(a)}.

    ``p`` must be the prime of ``m.field``.  When every e_v is 0 or d_v,
    the one candidate point counts unless a nonzero map leaves a full U_s
    for a zero U_t.  Otherwise a root with e_v = 1 or
    e_v = d_v - 1 (0 < e_v < d_v) whose neighbours are all leaves is summed
    in closed form by ``_point_root_sum``; any other root runs the tree DP,
    whose every message is an object array of Python ints, one entry per
    subspace of the receiving vertex.  The point root's ranks add over
    direct summands: a recorded ``isoclass`` sums its catalog summands'
    cached tables, any other module is its own single summand.
    ``enum_budget`` bounds only the enumerations built; a point root has none."""
    q = m.quiver
    e = q.check_dimvector(e)
    for i in range(q.n):
        if e[i] > m.dims[i]:
            raise CountError(f"e = {e[i]} exceeds d = {m.dims[i]} at vertex {q.name(i)}")
    f = _field_of(m, p)
    if all(x in (0, d) for x, d in zip(e, m.dims)):
        # every U_v is 0 or M_v: the one candidate fails only where a nonzero
        # map leaves a full U_s for a zero U_t
        return int(not any(e[s] and not e[t] and m.maps[a].any()
                           for a, (s, t) in enumerate(q.arrows)))
    gauss = _gauss_table(p, max(m.dims, default=0))
    adj = q.neighbors()
    root = _cheapest_root(q, m.dims, e, p)

    def enum(v: int) -> SubspaceEnum:
        return enumerate_subspaces(e[v], m.dims[v], f, budget=enum_budget)

    def leaf_values(child: int, v: int) -> list:
        """Message values of the leaf ``child`` into v: the number of U_child
        compatible with U_v, indexed by dim A^{-1}(U_v) for an arrow
        A: child -> v and by dim B(U_v) for an arrow B: v -> child."""
        dc, ec = m.dims[child], e[child]
        if q.source(q.edge_arrow[child, v]) == child:
            return [gauss[n][ec] for n in range(dc + 1)]
        return [gauss[dc - r][ec - r] if r <= ec else 0 for r in range(min(e[v], dc) + 1)]

    def closed_message(child: int, v: int) -> np.ndarray:
        """Message of an unweighted leaf ``child`` into ``v``, per U_v."""
        a = q.edge_arrow[child, v]
        ev = enum(v)
        values = np.array(leaf_values(child, v), dtype=object)
        if q.source(a) == child:  # arrow child -> v, map A: M_child -> M_v
            # dim of the preimage of U under A, then count subspaces inside
            dim_sum = _sum_dims_with_fixed(ev, m.maps[a].T[None], f)[0]
            return values[m.dims[child] - dim_sum + e[v]]
        # arrow v -> child, map B: M_v -> M_c: count U_c containing B(U_v)
        B = m.maps[a]
        r = np.empty(ev.size, dtype=np.int64)
        for lo in range(0, ev.size, _CHUNK):
            hi = min(lo + _CHUNK, ev.size)
            bu = ev.bases[lo:hi].astype(np.int64)
            r[lo:hi] = f.batched_rank(np.einsum("nij,kj->nik", bu, B))  # reduces its input
        return values[r]

    def point_values(child: int, v: int, dim_y: int) -> tuple[int, int]:
        """The leaf message (g0, g1) at a point root v: it reads only
        t = dim(U_v & Y_c), which is the bit [u in Y_c] for a line U_v = <u>
        and dim Y_c - 1 + [phi kills Y_c] for a hyperplane U_v = ker phi."""
        into = q.source(q.edge_arrow[child, v]) == child
        values = leaf_values(child, v)

        def g(bit: int) -> int:
            t = bit if e[v] == 1 else dim_y - 1 + bit
            k = m.dims[child] - dim_y + t if into else e[v] - t
            # a bit no U_v takes may index past the table; its value is unread
            return values[k] if 0 <= k < len(values) else 0

        return g(0), g(1)

    def pair_message(child: int, v: int, w_child: np.ndarray) -> np.ndarray:
        """Message of a weighted ``child`` into v: per U_v, the sum of
        ``w_child`` over the compatible U_child.  The subspaces on the
        arrow's source side are pushed through its map a slice at a time,
        and one kernel call tests each slice against the target side."""
        a = q.edge_arrow[child, v]
        ec, ev = enum(child), enum(v)
        if ec.size * ev.size > pair_budget:
            raise CountError(
                f"pair budget exceeded at edge {q.name(child)}-{q.name(v)}: "
                f"{ec.size} x {ev.size}"
            )
        into_v = q.source(a) == child
        src, tgt = (ec, ev) if into_v else (ev, ec)
        out = np.zeros(ev.size, dtype=object)
        step = max(1, _CHUNK // tgt.size)
        for lo in range(0, src.size, step):
            img = f.reduce(src.bases[lo:lo + step].astype(np.int64) @ m.maps[a].T)
            # inside[j, x]: the image of source subspace lo + j lies in target x
            inside = _sum_dims_with_fixed(tgt, img, f) == tgt.e
            if into_v:
                out += w_child[lo:lo + step] @ inside
            else:
                out[lo:lo + step] = inside @ w_child
        return out

    dv = m.dims[root]
    if 0 < e[root] < dv and e[root] in (1, dv - 1) and all(len(adj[c]) == 1 for c in adj[root]):
        line = e[root] == 1
        if m.isoclass is None:
            mults, tables = [1], [_point_ranks(m, root, line)]
        else:
            mults = list(m.isoclass.counts.values())
            tables = [_summand_point_ranks(q, p, label, root, line) for label in m.isoclass.counts]
        # dims and ranks of a direct sum: the summands' own, with multiplicity
        totals = (np.array(mults) @ np.array(tables)).tolist()
        gs = [point_values(c, root, dim_y) for c, dim_y in zip(adj[root], totals)]
        return _point_root_sum(p, dv, gs, totals[len(gs):])
    # the message of c into its parent v, per U_v: a leaf's closed message,
    # or the pair message of the product of c's own children's messages
    msgs: dict[int, np.ndarray] = {}
    for c, v in _post_order(adj, root):
        below = [msgs.pop(w) for w in adj[c] if w != v]
        msgs[c] = pair_message(c, v, math.prod(below)) if below else closed_message(c, v)
    if not msgs:
        return int(gaussian_binomial(m.dims[root], e[root], p))
    return int(math.prod(msgs.values()).sum())


def _post_order(adj: tuple[tuple[int, ...], ...], root: int) -> list[tuple[int, int]]:
    """The (child, parent) edges of the tree rooted at ``root`` in the
    order of a recursive post-order: every edge after the edges below it,
    siblings in ``adj`` order.  It is the reverse of a pre-order that
    visits siblings last to first."""
    order, stack = [], [(c, root) for c in adj[root]]
    while stack:
        c, v = stack.pop()
        order.append((c, v))
        stack.extend((w, c) for w in adj[c] if w != v)
    order.reverse()
    return order


def _point_ranks(m: Representation, root: int, line: bool) -> tuple[int, ...]:
    """dim Y_c per leaf c of the point root, then the rank of the stacked
    rows of each subset T of the leaves (``itertools.product`` order).

    Y_c is im A (the row space of W = A^T) for an arrow A: c -> root, and
    ker B (cut out by W = B) for B: root -> c.  The rows of c annihilate
    Y_c for lines and span it for hyperplanes, so every value is the
    dimension of a sum or an intersection of the Y_c: on a direct sum, the
    sum of the summands' values."""
    q, f, d = m.quiver, m.field, m.dims[root]
    dim_ys, blocks = [], []
    for c in q.neighbors()[root]:
        a = q.edge_arrow[c, root]
        into = q.source(a) == c
        w = m.maps[a].T if into else m.maps[a]
        if line == into:  # the rows are the other side of W: its kernel
            rows = f.kernel_basis(w).T
            rank_w = d - rows.shape[0]
        else:
            rows, rank_w = w, f.rank(w)
        dim_ys.append(rank_w if into else d - rank_w)
        blocks.append(rows)
    subsets = np.array(list(itertools.product((0, 1), repeat=len(blocks))), dtype=np.int64)
    rows = np.concatenate(blocks + [np.zeros((0, d), dtype=np.int64)])
    owner = np.repeat(np.arange(len(blocks)), [r.shape[0] for r in blocks])
    # one stack per subset T: the rows of the leaves outside T zeroed
    ranks = f.batched_rank(rows[None, :, :] * subsets[:, owner][:, :, None])
    return tuple(dim_ys) + tuple(ranks.tolist())


@functools.lru_cache(maxsize=None)
def _summand_point_ranks(quiver: Quiver, p: int, label, root: int, line: bool) -> tuple[int, ...]:
    """``_point_ranks`` of the catalog model ``label`` over F_p."""
    return _point_ranks(get_catalog(quiver, p).models[label], root, line)


def _point_root_sum(p: int, d: int, gs: list[tuple[int, int]], ranks: list[int]) -> int:
    """Sum over the points x of P(F_p^d) of prod_c g_c(x), where the leaf
    c = (g0, g1) has g_c(x) = g1 for x in a subspace Z_c and g0 elsewhere.

    Writing g_c = g0 + [x in Z_c] (g1 - g0) and expanding the product gives
    the sum over subsets T of the leaves of prod_{c not in T} g0_c *
    prod_{c in T} (g1_c - g0_c) * |P(Z_T)|, where Z_T, the intersection of
    the Z_c with c in T, has dimension d - ranks[T] (``_point_ranks``).
    """
    total = 0
    for bits, rank in zip(itertools.product((0, 1), repeat=len(gs)), ranks):
        weight = 1
        for bit, (g0, g1) in zip(bits, gs):
            weight *= g1 - g0 if bit else g0
        total += weight * ((p ** (d - rank) - 1) // (p - 1))
    return total


@functools.lru_cache(maxsize=256)
def _cheapest_root(q: Quiver, d: tuple[int, ...], e: tuple[int, ...], p: int) -> int:
    """Root minimizing the estimated DP cost (pair messages dominate)."""
    adj = q.neighbors()
    size = [int(gaussian_binomial(d[v], e[v], p)) for v in range(q.n)]

    def cost(root: int) -> int:
        # an edge into v costs |Gr(e_v, d_v)|, times |Gr(e_c, d_c)| when the
        # child c has children of its own and so sends a pair message
        return sum(size[v] * (size[c] if len(adj[c]) > 1 else 1)
                   for c, v in _post_order(adj, root))

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


# -- per-summand decodes ------------------------------------------------------

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


def decode(counts: dict[int, int], chi: int) -> list[int] | None:
    """Coefficients c_0, c_1, ... of the polynomial with P(p) = counts[p],
    every c_i >= 0 and sum c_i <= chi; None when there is no such polynomial.

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
    return coeffs


def _count_and_decode(count_at, primes: list[int], heldout: list[int],
                      chi: int) -> tuple[list[int] | None, str]:
    """Decode the counts at ``primes`` and check them at ``heldout``.

    Returns (coefficients or None, reason); ``reason`` is '' when the decode
    succeeded and every held-out count agrees with it.
    """
    coeffs = decode({p: count_at(p) for p in primes}, chi)
    if coeffs is None:
        return None, (f"decode failed: the counts at primes {primes} fit no "
                      f"polynomial with non-negative coefficients summing to "
                      f"at most {chi}")
    for p in heldout:
        counted = count_at(p)
        value = sum(c * p**i for i, c in enumerate(coeffs))
        if value != counted:
            return coeffs, (f"held-out mismatch at p={p}: counted {counted}, "
                            f"decoded polynomial gives {value}")
    return coeffs, ""


@functools.lru_cache(maxsize=None)
def _indecomposable_poly(quiver: Quiver, label, f: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The coefficients of P_{X,f}, the counting polynomial of Gr_f(X) for
    the catalog model X named by ``label``, and the largest prime its decode
    counted at.  The decode is bounded by chi <= |Gr_f(X)(F_2)|, which holds
    because the coefficients are non-negative; the decode reuses that count.

    X is rigid, so a nonempty Gr_f(X) is smooth and projective of dimension
    <f, dim X - f> (Caldero and Reineke) with an affine paving: P_{X,f} must
    be a palindrome of that degree (``_check_smooth``)."""
    def count_at(p: int) -> int:
        return count_points(get_catalog(quiver, p).models[label], f, p)

    bound = count_at(2)
    primes, heldout = _schedule(bound)
    coeffs, reason = _count_and_decode(
        lambda p: bound if p == 2 else count_at(p), primes, heldout, bound)
    if reason:
        raise CountError(f"counting polynomial of Gr_{f}({label}): {reason}")
    _check_smooth(quiver, label, f, coeffs)
    return tuple(coeffs), (heldout or primes)[-1]


def _check_smooth(quiver: Quiver, label, f: tuple[int, ...], coeffs: list[int]) -> None:
    """Raise CountError unless ``coeffs`` is empty or a palindrome of degree
    <f, dim X - f>, as P_{X,f} of a rigid X must be."""
    if not coeffs:
        return
    dim = quiver.euler_form(f, [x - y for x, y in zip(label.dims, f)])
    if len(coeffs) - 1 != dim or coeffs != coeffs[::-1]:
        raise CountError(f"counting polynomial of Gr_{f}({label}): coefficients "
                         f"{coeffs} are not a palindrome of degree <f, dim X - f> = {dim}")


# -- the twisted product over catalog summands ------------------------------

class _Box:
    """The sub-dimension vectors g <= e, numbered in mixed radix with the
    last coordinate fastest, so that f + g has number fi + gi whenever
    f + g <= e; e itself is the last.

    ``gprime[gi]`` is g' with g'_t = g_t - sum over arrows s -> t of g_s,
    so that the Euler form is <g, r> = g' . r, and ``dots(gi)[fi]`` is
    g' . f, or None where f + g is not <= e."""

    def __init__(self, quiver: Quiver, e: tuple[int, ...]):
        self.e = e
        self.vectors = list(itertools.product(*(range(x + 1) for x in e)))
        self.index = {g: i for i, g in enumerate(self.vectors)}
        into = [[quiver.source(a) for a in quiver.arrows_in(t)] for t in range(quiver.n)]
        self.gprime = [tuple(g[t] - sum(g[s] for s in into[t]) for t in range(quiver.n))
                       for g in self.vectors]
        self._dots: list = [None] * len(self.vectors)

    def dots(self, gi: int) -> list:
        row = self._dots[gi]
        if row is None:
            room = [x - y for x, y in zip(self.e, self.vectors[gi])]
            row = self._dots[gi] = [
                sum(map(operator.mul, self.gprime[gi], f))
                if all(map(operator.le, f, room)) else None
                for f in self.vectors
            ]
        return row

    def twist(self, gi: int, dim_m) -> int:
        """<g, dim M> = g' . dim M."""
        return sum(map(operator.mul, self.gprime[gi], dim_m))


@functools.lru_cache(maxsize=None)
def _box(quiver: Quiver, e: tuple[int, ...]) -> _Box:
    return _Box(quiver, e)


@functools.lru_cache(maxsize=None)
def _summand_terms(quiver: Quiver, label, e: tuple[int, ...]) -> tuple[tuple, int, int]:
    """The nonzero P_{X,g} with g <= e as (g, coefficients) pairs, the sum
    of all their coefficients, and the largest prime their decodes used."""
    terms, total, top = [], 0, 2
    for g in itertools.product(*(range(min(x, ei) + 1) for x, ei in zip(label.dims, e))):
        coeffs, p = _indecomposable_poly(quiver, label, g)
        top = max(top, p)
        if coeffs:
            terms.append((g, coeffs))
            total += sum(coeffs)
    return tuple(terms), total, top


def _pack(coeffs, width: int) -> int:
    """Kronecker substitution q -> 2^width: coefficient i in bits
    [i * width, (i + 1) * width), so a twist by q^k is a shift."""
    return sum(c << (i * width) for i, c in enumerate(coeffs))


def _unpack(packed: int, width: int) -> list[int]:
    size = width // 8
    raw = packed.to_bytes(-(-packed.bit_length() // width) * size, "little")
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _fold(acc, dim_m, rows, box: _Box, width: int) -> tuple[tuple[int, int], ...]:
    """P_{N+M,h} = sum over f + g = h of q^<g, dim M - f> P_{M,f} P_{N,g}
    for every h <= e, from ``acc`` (P_{M,f}) and ``rows`` (P_{N,g}), each a
    tuple of (box number, packed polynomial) pairs.  Needs Ext^1(N, M) = 0:
    then a subrepresentation U of N + M is a pair (U & M, the image of U in
    N) with a fibre of q^hom(U_N, M/U_M) points, and hom is the Euler form."""
    new = [0] * len(box.vectors)
    terms = [(gi, pg, box.twist(gi, dim_m), box.dots(gi)) for gi, pg in rows]
    for fi, pf in acc:
        for gi, pg, base, dots in terms:
            d = dots[fi]
            if d is not None:
                new[fi + gi] += (pf * pg) << (width * (base - d))
    return tuple([(h, ph) for h, ph in enumerate(new) if ph])


def _fold_at_e(acc, dim_m, rows, box: _Box, width: int) -> int:
    """The entry h = e of ``_fold``, alone."""
    last = len(box.vectors) - 1
    by_number = dict(rows)
    total = 0
    for fi, pf in acc:
        pg = by_number.get(last - fi)
        if pg:
            gi = last - fi
            total += (pf * pg) << (width * (box.twist(gi, dim_m) - box.dots(gi)[fi]))
    return total


@functools.lru_cache(maxsize=None)
def _power_table(quiver: Quiver, label, mult: int, e: tuple[int, ...],
                 width: int) -> tuple[tuple[int, int], ...]:
    """P_{X^mult,g} for g <= e as (box number, packed polynomial) pairs:
    X folded into X^(mult-1), as a rigid X has Ext^1(X, X) = 0."""
    box = _box(quiver, e)
    one = tuple((box.index[g], _pack(c, width)) for g, c in _summand_terms(quiver, label, e)[0])
    if mult == 1:
        return one
    below = _power_table(quiver, label, mult - 1, e, width)
    return _fold(below, [(mult - 1) * x for x in label.dims], one, box, width)


def _product(m: Representation, e) -> tuple[list[int], int]:
    """The coefficients of P_{M,e} from the catalog summands of ``m``, and
    the largest prime the per-summand decodes counted at.

    The summands are ``m.isoclass`` when recorded (``Catalog.realize``),
    else ``Catalog.decompose``.  They are folded in from the last position
    of ``Catalog.fold_positions`` to the first, each label with its whole
    multiplicity, so that no new summand extends the ones before it.  Every
    coefficient of every partial table is at most the product of the
    summands' coefficient totals, which sizes the packed fields."""
    q = m.quiver
    e = q.check_dimvector(e)
    try:
        cat = get_catalog(q, m.field.p)
        iso = cat.decompose(m) if m.isoclass is None else m.isoclass
        position = cat.fold_positions()
    except CatalogError as exc:
        raise CountError(f"the counting polynomial needs a catalog of the quiver: {exc}") from exc
    summands = sorted(iso.counts.items(), key=lambda item: position[item[0]], reverse=True)
    if not summands:
        return ([1] if not any(e) else []), 2
    infos = [_summand_terms(q, label, e) for label, _ in summands]
    bound = math.prod(total ** mult for (_, total, _), (_, mult) in zip(infos, summands))
    # whole 32-bit words, so that nodes with close bounds share power tables
    width = 32 * -(-bound.bit_length() // 32)
    box = _box(q, e)
    acc = _power_table(q, *summands[0], e, width)
    dim_m = [summands[0][1] * x for x in summands[0][0].dims]
    for label, mult in summands[1:-1]:
        acc = _fold(acc, dim_m, _power_table(q, label, mult, e, width), box, width)
        dim_m = [a + mult * x for a, x in zip(dim_m, label.dims)]
    if len(summands) == 1:
        packed = dict(acc).get(len(box.vectors) - 1, 0)
    else:
        label, mult = summands[-1]
        packed = _fold_at_e(acc, dim_m, _power_table(q, label, mult, e, width), box, width)
    return _unpack(packed, width), max(top for _, _, top in infos)


def classify(m_for_prime, e, *, max_prime: int = 101,
             enum_budget: int = DEFAULT_ENUM_BUDGET,
             pair_budget: int = DEFAULT_PAIR_BUDGET) -> Classification:
    """Classify a quiver Grassmannian by its counting polynomial.

    ``m_for_prime`` is a callable p -> Representation over F_p (the same
    module realized at each prime).  The polynomial is the twisted product
    of the per-summand polynomials of the module at p = 2 (``_product``);
    ``count_points`` of the module at each of ``CHECK_PRIMES`` must equal
    its value there.  The zero polynomial is the empty variety (dimension
    -1), checked by its count at p = 2 alone.  Raises CountError when a
    per-summand decode counted at a prime above ``max_prime``; a count
    that disagrees with the product gives ``consistent=False`` and a
    ``reason``.
    """
    m2 = m_for_prime(2)
    coeffs, top = _product(m2, e)
    if top > max_prime:
        raise CountError(f"the per-summand decodes count up to p={top}, "
                         f"above max_prime={max_prime}")
    counts: dict[int, int] = {}
    reason = ""
    for p in CHECK_PRIMES if coeffs else CHECK_PRIMES[:1]:
        m = m2 if p == 2 else m_for_prime(p)
        counts[p] = count_points(m, e, p, enum_budget=enum_budget, pair_budget=pair_budget)
        value = sum(c * p**i for i, c in enumerate(coeffs))
        if counts[p] != value:
            reason = f"check mismatch at p={p}: counted {counts[p]}, product gives {value}"
            break
    poly = CountingPolynomial(tuple(Fraction(c) for c in coeffs))
    return Classification(
        dimension=poly.degree,
        top_count=int(poly.leading),
        polynomial=poly,
        consistent=not reason,
        method="dp",
        counts=counts,
        reason=reason,
    )
