"""Indecomposable catalog and Krull-Schmidt coordinates.

For a Dynkin quiver the indecomposables biject with positive roots.  The
catalog holds one canonical matrix model per positive root, generated by a
deterministic chain of reflection functors from simples, so every run is
bit-reproducible.  The chain runs once per quiver, over F_107, and its maps
are kept as integer matrices (with entries in {-1, 0, 1} on every
orientation of A2-A5 and D4-D5, which the tests check), with their Hom
matrix and the order in which the chain finds the roots.  A catalog over
F_p reduces the maps mod p and checks End(X) = F_p for every model with one
batched rank, which makes each reduction the indecomposable of its root.
Isoclasses are multisets of catalog labels; ``realize`` records the
isoclass on the module it builds, and ``decompose`` recovers it from any
module through Hom-dimension fingerprints.
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
    """Everything the quiver's catalogs share, whatever their prime, built once.

    Walks the periodic reflection word k_1 k_2 ... of the admissible sink
    sequence.  Root beta_t = s_{k_1} ... s_{k_{t-1}} (e_{k_t}) is new when
    it is positive and not yet found; its model is the simple at k_t over
    Q reversed at k_1, ..., k_{t-1}, reflected back along k_{t-1}, ..., k_1.
    The functors run once, over F_LIFT_PRIME; maps and Hom systems are
    lifted to signed integers (a system's entries are +-(map entries)).

    Returns (labels, maps, ends, unknowns, hom, order): per positive root
    in label order the label, its integer maps, a zero-padded stack of the
    End systems and each one's number of unknowns sum_i d_i^2; then the
    read-only Hom matrix from one batched rank over every ordered pair, and
    the label indices in the order the word finds the roots.
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
    systems = [field.lift_signed(reps._hom_system(a, b)) for a in models for b in models]
    shapes = np.array([s.shape for s in systems], dtype=np.int64)
    stack = np.zeros((len(systems), *shapes.max(axis=0)), dtype=np.int64)
    for a, s in zip(stack, systems):
        a[: s.shape[0], : s.shape[1]] = s
    n = len(models)
    hom = (shapes[:, 1] - field.batched_rank(stack)).reshape(n, n)
    hom.flags.writeable = False
    diagonal = np.arange(n) * (n + 1)
    rows, unknowns = shapes[diagonal].T
    ends = stack[diagonal, : rows.max(), : unknowns.max()]
    order = tuple(sorted(range(n), key=lambda a: found[labels[a].dims]))
    _check_order(q, labels, hom, order)
    return tuple(labels), maps, ends, unknowns, hom, order


def _check_order(q: Quiver, labels, hom: np.ndarray, order) -> None:
    """Require Hom to point forward along ``order`` and Ext^1(X_a, X_b) =
    hom(X_a, X_b) - <dim X_a, dim X_b> to vanish whenever X_a does not
    come after X_b, i.e. H in that order is the upper triangle of the Euler
    form.  A direct sum built by adding summands from the last position to
    the first then never adds an N with Ext^1(N, M) != 0 to the part M
    already built."""
    dims = [labels[a].dims for a in order]
    euler = np.array([[q.euler_form(a, b) for b in dims] for a in dims], dtype=np.int64)
    bad = np.argwhere(hom[np.ix_(order, order)] != np.triu(euler))
    if len(bad):
        i, j = bad[0]
        la, lb = labels[order[i]], labels[order[j]]
        kind, where = ("Ext^1", "before") if i <= j else ("Hom", "after")
        raise CatalogError(f"{kind}({la}, {lb}) != 0, though {la} comes {where} {lb} "
                           "(not Dynkin?)")


def _label_for(q: Quiver, dims: tuple[int, ...]) -> IndecLabel:
    if q.dynkin == "A":
        return IndecLabel(dims, "U({},{})".format(*_interval(q, dims)))
    return IndecLabel(dims, "V(" + ",".join(str(x) for x in dims) + ")")


def _interval(q: Quiver, dims) -> tuple[int, int]:
    """The first and last 1-based line positions of a type-A support."""
    support = [pos for pos, v in enumerate(q.path_order(), 1) if dims[v]]
    return support[0], support[-1]


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
        self._fold = {self.labels[a]: pos for pos, a in enumerate(self._order)}

    # construction

    def _build(self):
        """Reduce the quiver's integer models mod p.  Each reduction must
        keep End(X) = F_p: then it is a brick, so by Gabriel's theorem the
        indecomposable of its root over F_p, and the quiver's Hom matrix
        and Hom order hold over F_p too."""
        labels, maps, ends, unknowns, self._hom, self._order = _integer_models(self.quiver)
        self.labels = list(labels)
        nullity = unknowns - self.field.batched_rank(ends)
        for label, x in zip(labels, nullity):
            if x != 1:
                raise CatalogError(f"the integer model of {label} is not a brick "
                                   f"at p={self.field.p}: dim End = {x}")
        self.models = {label: Representation(self.quiver, self.field, label.dims, m)
                       for label, m in zip(labels, maps)}

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
        return self._support_label((vertex,))

    def projective_label(self, vertex: int) -> IndecLabel:
        """P_v, supported on the vertices that v reaches."""
        return self._support_label(self.quiver.reaches[vertex])

    def injective_label(self, vertex: int) -> IndecLabel:
        """I_v, supported on the vertices that reach v."""
        return self._support_label(self.quiver.reached_by[vertex])

    def interval_label(self, i: int, j: int) -> IndecLabel:
        """Type A: the interval module on 1-based line positions i..j."""
        return self._support_label(self.quiver.path_order()[i - 1 : j])

    def interval(self, label: IndecLabel) -> tuple[int, int]:
        """Type A: the 1-based line positions (i, j) of ``label``'s support."""
        return _interval(self.quiver, label.dims)

    def _support_label(self, support) -> IndecLabel:
        return self.label_by_dims([int(v in support) for v in range(self.quiver.n)])

    # Hom fingerprints

    def hom_matrix(self) -> np.ndarray:
        """H[a, b] = dim Hom(X_a, X_b), shared read-only by the quiver's
        catalogs."""
        return self._hom

    def fold_positions(self) -> dict[IndecLabel, int]:
        """Each label's position in the Hom order that ``_check_order``
        accepted."""
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
        h, order = self._hom, self._order
        mult = np.zeros(len(self.labels), dtype=np.int64)
        for pos in range(len(order) - 1, -1, -1):
            later = list(order[pos + 1 :])
            mult[order[pos]] = f[order[pos]] - h[order[pos], later] @ mult[later]
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
                try:
                    mult = int(mult_s.strip())
                except ValueError:
                    raise CatalogError(f"multiplicity of {term!r} is not an integer") from None
                if mult < 0:
                    raise CatalogError(f"multiplicity of {term!r} is negative")
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
