"""Indecomposable catalog and Krull-Schmidt coordinates.

For a Dynkin quiver the indecomposables biject with positive roots.  The
catalog holds one canonical matrix model per positive root, generated by a
deterministic chain of reflection functors from simples, so every run is
bit-reproducible.  The chain runs once per quiver, over F_107, and its maps
are kept as integer matrices (with entries in {-1, 0, 1} on every
orientation of A2-A5 and D4-D5, which the tests check).  A catalog over F_p reduces them mod p and checks End(X) = F_p
for every model with one batched rank, which makes each reduction the
indecomposable of its root.  Isoclasses are multisets of catalog labels;
``realize`` records the isoclass on the module it builds, and ``decompose``
recovers it from any module through Hom-dimension fingerprints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import PrimeField
from .quiver import Quiver, QuiverError
from . import reps
from .reps import Representation, direct_sum, hom_dim, zero_rep


class CatalogError(ValueError):
    pass


# the default catalog prime, over which the reflection functors run once
LIFT_PRIME = 107


@dataclass(frozen=True, order=True)
class IndecLabel:
    """A canonical name for an indecomposable: its dimension vector.

    ``name`` is U(i,j) for type A intervals (external path positions) and
    V(x1,...,xn) otherwise.
    """

    dims: tuple[int, ...]
    name: str

    def __post_init__(self):
        # labels key the per-summand tables of every count: hash once
        object.__setattr__(self, "_hash", hash((self.dims, self.name)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return self.name


class Isoclass:
    """A multiset of indecomposable labels with multiplicities."""

    def __init__(self, counts):
        items = Counter()
        for label, mult in (counts.items() if isinstance(counts, dict) else counts):
            if mult < 0:
                raise CatalogError("negative multiplicity")
            if mult:
                items[label] += mult
        self.counts = dict(sorted(items.items()))
        # isoclasses key reports, loci and poset positions: hash once
        self._hash = hash(tuple(self.counts.items()))

    def dims(self, n: int) -> tuple[int, ...]:
        d = [0] * n
        for label, mult in self.counts.items():
            for i, x in enumerate(label.dims):
                d[i] += mult * x
        return tuple(d)

    def __eq__(self, other):
        return isinstance(other, Isoclass) and self.counts == other.counts

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        c = Counter(self.counts)
        c.update(other.counts)
        return Isoclass(c)

    def __str__(self):
        if not self.counts:
            return "0"
        parts = []
        for label, mult in self.counts.items():
            parts.append(label.name if mult == 1 else f"{mult}*{label.name}")
        return " + ".join(parts)

    __repr__ = __str__


# -- positive roots (independent generator, used for validation) -----------

def positive_roots(q: Quiver) -> set[tuple[int, ...]]:
    """All positive roots of the underlying simply-laced tree diagram.

    Closure of the simple roots under simple reflections, keeping the
    positive ones.  Independent of any module-theoretic computation.
    """
    n = q.n
    adj = q.neighbors()

    def reflect(v, k):
        out = list(v)
        out[k] = sum(v[j] for j in adj[k]) - v[k]
        return tuple(out)

    roots = {tuple(1 if i == k else 0 for i in range(n)) for k in range(n)}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for k in range(n):
                w = reflect(v, k)
                if all(x >= 0 for x in w) and any(w) and w not in roots:
                    new.add(w)
        roots |= new
        frontier = new
    return roots


# -- catalog ----------------------------------------------------------------

def _admissible_sink_sequence(q: Quiver) -> list[int]:
    """A sink ordering: k_1 is a sink of Q, k_2 of the reflected quiver, etc.

    Deterministic (smallest sink first); one pass covers every vertex.
    """
    seq = []
    cur = q
    remaining = set(range(q.n))
    while remaining:
        sinks = sorted(v for v in remaining if cur.is_sink(v))
        if not sinks:
            raise QuiverError("no sink among remaining vertices (not acyclic?)")
        k = sinks[0]
        seq.append(k)
        remaining.discard(k)
        cur = cur.reversed_at(cur.name(k))
    return seq


@lru_cache(maxsize=None)
def _integer_models(q: Quiver) -> tuple:
    """The quiver's catalog models as integer matrices, built once.

    Walks the periodic reflection word k_1 k_2 ... of the admissible sink
    sequence.  Root beta_t = s_{k_1} ... s_{k_{t-1}} (e_{k_t}) is new when
    it is positive and not yet found; its model is the simple at k_t over
    Q reversed at k_1, ..., k_{t-1}, reflected back along k_{t-1}, ..., k_1.
    The functors run once, over F_LIFT_PRIME, and each map is lifted to
    its signed integer representative.

    Returns (labels, models, maps, ends, unknowns), per positive root in
    label order: the label, the model over F_LIFT_PRIME, its lifted maps,
    and a zero-padded stack of the integer End systems with each system's
    own number of unknowns sum_i d_i^2.  The End system's entries are
    +-(map entries), so its lift is the system of the integer maps.
    """
    roots = positive_roots(q)
    base_seq = _admissible_sink_sequence(q)
    adj = q.neighbors()
    found: dict[tuple[int, ...], tuple[int, int]] = {}
    quivers = [q]
    seq: list[int] = []
    t = 0
    while len(found) < len(roots):
        k = base_seq[t % q.n]
        if t > 4 * len(roots):
            raise CatalogError("reflection word failed to exhaust the roots")
        if not quivers[-1].is_sink(k):
            raise CatalogError("sequence is not admissible (internal error)")
        beta = [1 if i == k else 0 for i in range(q.n)]
        for j in reversed(seq):
            beta[j] = sum(beta[i] for i in adj[j]) - beta[j]
        beta = tuple(beta)
        if beta in roots and beta not in found:
            found[beta] = (t, k)
        seq.append(k)
        quivers.append(quivers[-1].reversed_at(quivers[-1].name(k)))
        t += 1
    field = PrimeField(LIFT_PRIME)
    labels, models = [], []
    for dims in sorted(found):
        t, k = found[dims]
        m = reps.simple(quivers[t], field, k)
        for j in range(t - 1, -1, -1):
            # k_j is a source of quivers[j+1]; reflect back toward Q
            m = reps.reflection_functor(m, seq[j])
            if m.quiver != quivers[j]:
                raise CatalogError("reflection bookkeeping error")
        if m.dims != dims:
            raise CatalogError("reflection functor produced a wrong dimension vector")
        labels.append(_label_for(q, dims))
        models.append(m)
    maps = tuple(tuple(field.lift_signed(a) for a in m.maps) for m in models)
    systems = [field.lift_signed(reps._hom_system(m, m)) for m in models]
    ends = np.zeros((len(systems), max(s.shape[0] for s in systems),
                     max(s.shape[1] for s in systems)), dtype=np.int64)
    for a, s in zip(ends, systems):
        a[: s.shape[0], : s.shape[1]] = s
    unknowns = np.array([s.shape[1] for s in systems], dtype=np.int64)
    return tuple(labels), tuple(models), maps, ends, unknowns


def _label_for(q: Quiver, dims: tuple[int, ...]) -> IndecLabel:
    if q.dynkin == "A":
        order = q.path_order()
        support = [pos for pos, v in enumerate(order) if dims[v]]
        i, j = support[0] + 1, support[-1] + 1
        return IndecLabel(dims, f"U({i},{j})")
    return IndecLabel(dims, "V(" + ",".join(str(x) for x in dims) + ")")


class Catalog:
    """Canonical indecomposable models for a Dynkin quiver over F_p."""

    def __init__(self, quiver: Quiver, field: PrimeField):
        if quiver.dynkin not in ("A", "D"):
            raise CatalogError("catalog requires a type A or D quiver")
        self.quiver = quiver
        self.field = field
        self._build()
        self._position = {lab: a for a, lab in enumerate(self.labels)}
        self._by_dims = {lab.dims: lab for lab in self.labels}
        self._hom_matrix: np.ndarray | None = None
        self._order: list[int] | None = None
        self._fold: dict[IndecLabel, int] | None = None

    # construction

    def _build(self):
        """Reduce the quiver's integer models mod p.  Each reduction must
        keep End(X) = F_p: then it is a brick, so by Gabriel's theorem the
        indecomposable of its root over F_p.  At the lift prime the models
        are the reflection output itself."""
        labels, models, maps, ends, unknowns = _integer_models(self.quiver)
        self.labels = list(labels)
        if self.field.p == LIFT_PRIME:
            self.models = dict(zip(labels, models))
            return
        nullity = unknowns - self.field.batched_rank(ends)
        for label, x in zip(labels, nullity):
            if x != 1:
                raise CatalogError(f"the integer model of {label} is not a brick "
                                   f"at p={self.field.p}: dim End = {x}")
        self.models = {label: Representation(self.quiver, self.field, label.dims, m)
                       for label, m in zip(labels, maps)}

    def _unit(self, k: int):
        return [1 if i == k else 0 for i in range(self.quiver.n)]

    # lookup helpers

    def label_by_dims(self, dims) -> IndecLabel:
        dims = tuple(dims)
        if dims not in self._by_dims:
            raise CatalogError(f"{dims} is not a positive root of this quiver")
        return self._by_dims[dims]

    def label_by_name(self, name: str) -> IndecLabel:
        for lab in self.labels:
            if lab.name == name.strip():
                return lab
        raise CatalogError(f"unknown indecomposable {name!r}")

    def simple_label(self, vertex: int) -> IndecLabel:
        return self.label_by_dims(self._unit(vertex))

    def projective_label(self, vertex: int) -> IndecLabel:
        return self.label_by_dims(reps.projective(self.quiver, self.field, vertex).dims)

    def injective_label(self, vertex: int) -> IndecLabel:
        return self.label_by_dims(reps.injective(self.quiver, self.field, vertex).dims)

    # Hom fingerprints

    def hom_matrix(self) -> np.ndarray:
        """H[a, b] = dim Hom(X_a, X_b) over the catalog, computed once."""
        if self._hom_matrix is None:
            n = len(self.labels)
            h = np.zeros((n, n), dtype=np.int64)
            for a, la in enumerate(self.labels):
                for b, lb in enumerate(self.labels):
                    h[a, b] = hom_dim(self.models[la], self.models[lb])
            self._hom_matrix = h
        return self._hom_matrix

    def _topological_order(self) -> list[int]:
        """Order the catalog so the Hom matrix becomes unitriangular."""
        if self._order is None:
            h = self.hom_matrix()
            n = len(self.labels)
            succ = {a: {b for b in range(n) if b != a and h[a, b] > 0} for a in range(n)}
            order: list[int] = []
            remaining = set(range(n))
            while remaining:
                free = sorted(a for a in remaining if not (succ[a] & remaining))
                if not free:
                    raise CatalogError("Hom cycle among indecomposables (not Dynkin?)")
                order.append(free[0])
                remaining.discard(free[0])
            order.reverse()  # sources first: hom only points forward
            self._order = order
        return self._order

    def fold_positions(self) -> dict[IndecLabel, int]:
        """Each label's position in ``_topological_order``, after checking
        once that Ext^1(X_a, X_b) = hom(X_a, X_b) - <dim X_a, dim X_b>
        vanishes whenever X_a does not come after X_b.  A direct sum built
        by adding summands from the last position to the first then never
        adds an N with Ext^1(N, M) != 0 to the part M already built."""
        if self._fold is None:
            h, order = self.hom_matrix(), self._topological_order()
            for i, a in enumerate(order):
                la = self.labels[a]
                for b in order[i:]:
                    lb = self.labels[b]
                    if h[a, b] != self.quiver.euler_form(la.dims, lb.dims):
                        raise CatalogError(f"Ext^1({la}, {lb}) != 0, though {la} "
                                           f"comes before {lb} (not Dynkin?)")
            self._fold = {self.labels[a]: pos for pos, a in enumerate(order)}
        return self._fold

    # realize / decompose

    def realize(self, iso: Isoclass) -> Representation:
        """Direct sum of catalog models with the isoclass multiplicities; the
        result records ``iso`` as its ``isoclass``."""
        summands = []
        for label, mult in iso.counts.items():
            if label not in self.models:
                raise CatalogError(f"label {label} not in catalog")
            summands.extend([self.models[label]] * mult)
        m = direct_sum(*summands) if summands else zero_rep(self.quiver, self.field)
        m.isoclass = iso
        return m

    def fingerprint(self, m: Representation) -> np.ndarray:
        """f[a] = dim Hom(X_a, M) for every catalog indecomposable X_a."""
        return np.array([hom_dim(self.models[lab], m) for lab in self.labels], dtype=np.int64)

    def multiplicities(self, iso: Isoclass) -> np.ndarray:
        """mult[a] = multiplicity of X_a in ``iso``."""
        mult = np.zeros(len(self.labels), dtype=np.int64)
        for label, k in iso.counts.items():
            mult[self._position[label]] = k
        return mult

    def iso_fingerprint(self, iso: Isoclass) -> np.ndarray:
        """Fingerprint of ``realize(iso)`` by additivity; no matrices built."""
        return self.hom_matrix() @ self.multiplicities(iso)

    def dual_iso_fingerprint(self, iso: Isoclass) -> np.ndarray:
        """g[a] = dim Hom(M, X_a)."""
        return self.multiplicities(iso) @ self.hom_matrix()

    def decompose(self, m: Representation) -> Isoclass:
        """Krull-Schmidt coordinates of ``m`` via Hom fingerprints.

        Solves the unitriangular system f_X = sum_Y mult_Y * hom(X, Y); fails
        loudly if the solution is not a non-negative integer vector matching
        the fingerprint (the input is then not a sum of catalog models).
        """
        f = self.fingerprint(m)
        h = self.hom_matrix()
        order = self._topological_order()
        mult = np.zeros(len(self.labels), dtype=np.int64)
        for pos in range(len(order) - 1, -1, -1):
            a = order[pos]
            acc = f[a]
            for later in order[pos + 1 :]:
                acc -= mult[later] * h[a, later]
            mult[a] = acc
        if (mult < 0).any() or not np.array_equal(h @ mult, f):
            raise CatalogError(
                "representation does not decompose over the catalog at this prime"
            )
        iso = Isoclass({self.labels[a]: int(mult[a]) for a in range(len(self.labels))})
        if iso.dims(self.quiver.n) != m.dims:
            raise CatalogError("decomposition dimension mismatch (internal error)")
        return iso

    # text format

    def parse_isoclass(self, text: str) -> Isoclass:
        """Parse `rep: 2*U(1,1) + 1*U(1,2)` (the `rep:` prefix is optional)."""
        body = text.strip()
        if body.lower().startswith("rep:"):
            body = body[4:].strip()
        counts: Counter = Counter()
        if body in ("", "0"):
            return Isoclass(counts)
        for term in body.split("+"):
            term = term.strip()
            if "*" in term:
                mult_s, _, name = term.partition("*")
                mult = int(mult_s.strip())
            else:
                mult, name = 1, term
            counts[self.label_by_name(name.strip())] += mult
        return Isoclass(counts)


@lru_cache(maxsize=None)
def _cached_catalog(quiver: Quiver, p: int) -> Catalog:
    return Catalog(quiver, PrimeField(p))


def get_catalog(quiver: Quiver, p: int = LIFT_PRIME) -> Catalog:
    """Shared read-only catalog for (quiver, prime); built once per pair."""
    return _cached_catalog(quiver, p)
