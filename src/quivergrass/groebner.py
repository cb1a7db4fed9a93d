"""Buchberger's algorithm over F_p for the multihomogeneous Plücker ideals.

Monomial order is graded reverse lexicographic; the variable order is the
ring's own (vertex-major, colex within a vertex) with the first variable
largest.  Inside Buchberger a monomial is one Python int (``_Packing``):
integer order is grevlex, a product by a monomial is an addition,
divisibility is a subtraction and a guard-mask test, and an lcm is a mask
select.  Generators enter packed straight from their variable-index
monomials, and exponent tuples (``GPoly``) appear only where the basis leaves.
Hilbert function values count standard monomials (Macaulay's theorem) block
by block, without listing the candidate monomials.  The work is kept per
basis, not per multidegree: the tables of one block layout and one tuple of
leading terms serve every multidegree asked of them, and the last two such
tables stay cached.  A Hilbert value depends only on the block layout, the
leading terms and the multidegree, so ``hilbert_table`` keeps the values of
its last ``TABLE_MEMO`` (layout, leads, degree list) keys and reads them for
every later ideal with the same leading terms.
"""

from __future__ import annotations

import functools
import heapq
import math
import struct
from collections import Counter

from .linalg import PrimeField
from .pluecker import MPoly, PlueckerRing
from .quiver import Quiver


class GroebnerError(ValueError):
    pass


DEFAULT_PAIR_BUDGET = 200_000
HILBERT_BUDGET = 2_000_000  # candidate monomials of one multidegree
# Hilbert tables kept by ``hilbert_table``.  An entry holds its leads and
# values: at most 2 KB on the five test fixtures and 14 KB on D5
# into-center, whose 256 largest hold 3.1 MB
TABLE_MEMO = 256


class GPoly:
    """A basis element: {exponent tuple: F_p coefficient} and its leading
    exponent tuple."""

    __slots__ = ("coeffs", "lead")

    def __init__(self, coeffs: dict, lead: tuple):
        self.coeffs, self.lead = coeffs, lead


class _Packing:
    """Monomials of ``nvars`` variables and degree <= ``cap`` as Python ints.

    Exponent e_i fills byte-wide field i of E (the last variable's field most
    significant) below the field's top bit, a guard.  The key is
    (deg << nb) | (FULL - E), FULL holding every field's largest guard-free
    value.  So key order is grevlex; keys are affine, a product by m / l
    adding key(m) - key(l) to each; a divides b exactly when the low nb bits
    of key(a) - key(b), which are E(b) - E(a), borrow into no guard; and the
    lcm's low bits are the field-wise minimum of the low bits, a mask select.
    """

    def __init__(self, nvars: int, cap: int):
        size = next((s for s in (1, 2, 4, 8) if cap < 1 << (8 * s - 1)), None)
        if size is None:
            raise GroebnerError(f"degree {cap} exceeds 63-bit exponent fields")
        self.n, self.w, self.nb = nvars, 8 * size, 8 * size * nvars
        self.cap = (1 << (self.w - 1)) - 1
        self.struct = struct.Struct(f"<{nvars}{'BHIQ'[size.bit_length() - 1]}")
        self.units = [1 << (self.w * i) for i in range(nvars)]
        ones = sum(self.units)
        self.ones, self.full, self.guard = ones, self.cap * ones, (self.cap + 1) * ones

    def pack(self, exps) -> int:
        e = int.from_bytes(self.struct.pack(*exps), "little")
        return (sum(exps) << self.nb) | (self.full - e)

    def unpack(self, key: int) -> tuple:
        e = self.full - (key & self.full)
        return self.struct.unpack(e.to_bytes(self.struct.size, "little"))

    def lcm(self, a: int, b: int) -> int:
        full = self.full
        a, b = a & full, b & full  # the low bits, FULL - E
        sel = ((a | self.guard) - b) & self.guard  # guards where b's exponent is larger
        sel -= sel >> (self.w - 1)
        low = (b & sel) | (a & ~sel)
        # field n-1 of E * ones sums the fields of E: the degree, below 2 ** w
        deg = ((full - low) * self.ones >> (self.nb - self.w)) & ((1 << self.w) - 1)
        return (deg << self.nb) | low

    def monic(self, terms: dict, field: PrimeField) -> tuple[int, list]:
        """(lead key, tail as [(key, -coefficient)]) of the monic multiple."""
        lead, p = max(terms), field.p
        inv = field.inv_scalar(terms[lead])
        return lead, [(k, -c * inv % p) for k, c in terms.items() if k != lead]

    def gpoly(self, terms: dict) -> GPoly:
        """The GPoly of reduced nonzero {key: coefficient} terms; the lead is
        the largest key."""
        return GPoly({self.unpack(k): c for k, c in terms.items()}, self.unpack(max(terms)))

    def widen(self, cap: int, basis: list) -> tuple["_Packing", list]:
        """A packing for degree <= cap and the basis moved into it."""
        wide = _Packing(self.n, cap)
        return wide, [(wide.pack(self.unpack(lead)),
                       [(wide.pack(self.unpack(k)), c) for k, c in tail]) for lead, tail in basis]


def _reduce(terms: dict, basis: list, p: int, guard: int) -> dict:
    """Remainder of ``terms`` on division by the monic basis [(lead, tail)].

    Leading terms come off a max-heap of keys; a term that cancels keeps its
    key and a zero coefficient, and is skipped when it surfaces.
    """
    work = dict(terms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for lead, tail in basis:
            if not (lead - m) & guard:
                shift = m - lead
                for k, gc in tail:
                    k += shift
                    if k not in work:
                        work[k] = 0
                        heapq.heappush(heap, -k)
                    work[k] = (work[k] + c * gc) % p
                break
        else:
            remainder[m] = c
    return remainder


def _buchberger(pk: _Packing, basis: list, field: PrimeField,
                max_degree: int | None) -> list[GPoly]:
    """The reduced Gröbner basis of a monic packed basis [(lead, tail)] held
    by ``pk``; with ``max_degree`` set, a degree-truncated basis whose leading
    terms are correct in all total degrees <= max_degree.

    S-pairs are processed in increasing lcm degree so truncation is sound;
    an untruncated run re-packs wider when a pair outgrows ``pk``.  Raises
    GroebnerError when DEFAULT_PAIR_BUDGET pairs did not suffice.
    """
    p = field.p
    heap = [(pk.lcm(basis[i][0], basis[j][0]) >> pk.nb, i, j)
            for i in range(len(basis)) for j in range(i)]
    heapq.heapify(heap)
    processed = 0
    while heap:
        if processed >= DEFAULT_PAIR_BUDGET:
            raise GroebnerError(
                f"S-pair budget {DEFAULT_PAIR_BUDGET} exhausted: {processed} processed, "
                f"{len(heap)} pending, {len(basis)} basis elements")
        processed += 1
        deg, i, j = heapq.heappop(heap)
        if max_degree is not None and deg > max_degree:
            continue
        if deg == (basis[i][0] >> pk.nb) + (basis[j][0] >> pk.nb):
            continue  # coprime leading terms: S-polynomial reduces to zero
        if deg > pk.cap:
            pk, basis = pk.widen(deg, basis)
        (lead_i, tail_i), (lead_j, tail_j) = basis[i], basis[j]
        lcm = pk.lcm(lead_i, lead_j)
        shift_i, shift_j = lcm - lead_i, lcm - lead_j
        s = {k + shift_i: p - c for k, c in tail_i}
        for k, c in tail_j:
            k += shift_j
            s[k] = (s.get(k, 0) + c) % p
        rem = _reduce(s, basis, p, pk.guard)
        if rem:
            k = len(basis)
            basis.append(pk.monic(rem, field))
            for t in range(k):
                heapq.heappush(heap, (pk.lcm(basis[k][0], basis[t][0]) >> pk.nb, k, t))
    return _interreduce(pk, basis, p)


def _interreduce(pk: _Packing, basis: list, p: int) -> list[GPoly]:
    """The monic, mutually reduced basis (unique for a fixed monomial order)
    of a monic packed basis [(lead, tail)] held by ``pk``."""
    kept: list = []
    for g in sorted(basis, key=lambda g: g[0]):  # drop redundant leading terms
        if not any(not (h[0] - g[0]) & pk.guard for h in kept):
            kept.append(g)
    out = []
    for i, (lead, tail) in enumerate(kept):
        terms = {k: p - c for k, c in tail}
        terms[lead] = 1
        # no other kept lead divides this one, so the remainder stays monic
        out.append(pk.gpoly(_reduce(terms, kept[:i] + kept[i + 1:], p, pk.guard)))
    return out


def groebner_basis(ring: PlueckerRing, gens: list[MPoly], p: int, *,
                   max_degree: int | None = None) -> list[GPoly]:
    """The reduced Gröbner basis of the Plücker generators over F_p (see
    ``_buchberger`` for ``max_degree``), packed straight from their sorted
    variable-index monomials."""
    pk = _Packing(len(ring), max([max_degree or 0] + [len(m) for g in gens for m in g.coeffs]))
    field, basis = PrimeField(p), []
    for g in gens:
        terms = {(len(m) << pk.nb) | (pk.full - sum([pk.units[i] for i in m])): c % p
                 for m, c in g.coeffs.items() if c % p}
        if terms:
            basis.append(pk.monic(terms, field))
    return _buchberger(pk, basis, field, max_degree) if basis else []


# -- invariants of the leading-term ideal -----------------------------------

def krull_dimension(basis: list[GPoly], nvars: int) -> int:
    """Krull dimension of the quotient by the basis's leading-term ideal.

    Equals the largest size of a variable subset containing no leading-term
    support; computed by branch and bound on a minimal hitting set.
    """
    supports = []
    for g in basis:
        sup = frozenset(i for i, x in enumerate(g.lead) if x)
        supports.append(sup)
    # minimize the number of excluded variables hitting every support
    supports = [s for s in supports if s]
    best = [nvars]

    def rec(excluded: set, remaining: list):
        if len(excluded) >= best[0]:
            return
        live = [s for s in remaining if not (s & excluded)]
        if not live:
            best[0] = len(excluded)
            return
        pivot = min(live, key=len)
        for v in sorted(pivot):
            rec(excluded | {v}, live)

    rec(set(), supports)
    return nvars - best[0]


def projective_dimension(ring: PlueckerRing, basis: list[GPoly]) -> int:
    """Dimension of the multiprojective variety: Krull minus one cone
    direction per vertex."""
    return krull_dimension(basis, len(ring)) - ring.quiver.n


def hilbert_component(ring: PlueckerRing, basis: list[GPoly], m, *,
                      budget: int = HILBERT_BUDGET) -> int:
    """dim of the multidegree-m graded piece of the quotient ring.

    Counts multidegree-m monomials outside the leading-term ideal; needs a
    basis truncated at total degree >= sum(m).  ``budget`` caps the candidate
    count prod_i C(k_i + m_i - 1, m_i) (k_i variables in block i) before any
    work; that check is ``_checked`` on the one-entry list [m].  The
    count is read from ``_lead_tables``, keyed by the block layout
    and the leads and cached for the last two keys.  Per (basis, block i,
    degree d) it builds the block masks once: n_{i,d} * k_i ORs over the
    n_{i,d} degree-d monomials, leads inside block i striking monomials
    instead of taking a bit.  Per multidegree prefix it folds once: the
    states of the shorter prefix times the distinct masks of the new block.
    A call then costs one pass over the states of m[:-1] times the distinct
    masks of the last block.
    """
    (m,) = _check(ring, (tuple(m),), budget)
    # a list-built key: tuple() of a generator over-allocates and resizes
    return _lead_tables(ring.block, tuple([g.lead for g in basis])).count(m)


def _check(ring: PlueckerRing, degrees: tuple, budget: int) -> tuple:
    """``_checked`` on ``degrees``, a tuple of tuples.  The memo compares
    keys by equality, under which a float entry equals an int, so only a
    list whose entries sum to an int enters it; any other list is checked
    afresh, so a float raises the same error cold or warm and a numpy
    integer is converted."""
    try:
        ints = type(sum(map(sum, degrees))) is int
    except TypeError:  # a string or None entry
        ints = False
    check = _checked if ints else _checked.__wrapped__
    return check(ring.quiver, ring.block, degrees, budget)


@functools.lru_cache(maxsize=1024)
def _checked(quiver: Quiver, blocks: tuple, degrees: tuple, budget: int) -> tuple:
    """The multidegrees as checked dimension vectors, in order, each with
    prod_i C(k_i + m_i - 1, m_i) candidate monomials (k_i variables in
    block i) within the budget; a list with a bad entry is not cached, so
    its error is raised again on every call."""
    out = []
    for m in degrees:
        m = quiver.check_dimvector(m)
        total = math.prod(math.comb(hi - lo + deg - 1, deg) for (lo, hi), deg in zip(blocks, m))
        if total > budget:
            raise GroebnerError(
                f"{total} candidate monomials of multidegree {list(m)} "
                f"exceed the budget {budget}")
        out.append(m)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _monomials(k: int, d: int) -> tuple[dict, list]:
    """The degree-d monomials of k variables as {exponents: position}, and
    for each the positions of its degree-(d-1) divisors x / x_v."""
    if d == 0:
        return {(0,) * k: 0}, [()]
    lower, _ = _monomials(k, d - 1)
    index: dict[tuple, int] = {}
    for y in lower:
        # raise only variables from y's last one on: each x is made once
        last = max((v for v in range(k) if y[v]), default=0)
        for v in range(last, k):
            index[y[:v] + (y[v] + 1,) + y[v + 1:]] = len(index)
    divisors = [tuple(lower[x[:v] + (x[v] - 1,) + x[v + 1:]]
                      for v in range(k) if x[v]) for x in index]
    return index, divisors


class _LeadTables:
    """Standard-monomial counts for one block layout and one list of leads.

    A candidate is one degree-m_i monomial per block, and a lead divides it
    exactly when the lead's part in every block divides that block's factor.
    A lead whose support lies in one block (a constant lead counts as block
    0) strikes the block monomials it divides.  Every other lead gets a bit;
    a block monomial's mask holds the bits of the leads whose part there
    divides it, built degree by degree as the bits of the leads whose part
    equals it OR the masks of its divisors x / x_v.  The blocks fold under
    bitwise AND, and candidates ending at mask 0 are standard.  Masks are
    kept per (block, degree) and folds per multidegree prefix; a partial
    fold drops a state holding the bit of a lead whose last block is folded,
    since no later block clears it.
    """

    def __init__(self, blocks: tuple, leads: tuple):
        self.blocks = blocks
        self.bits = [{} for _ in blocks]  # per block: {lead part: bits}
        self.struck = [set() for _ in blocks]  # per block: in-block lead parts
        self.done = [0] * len(blocks)  # bits of leads with last block <= i
        nbits = 0
        for lead in leads:
            touched = [i for i, (lo, hi) in enumerate(blocks) if any(lead[lo:hi])]
            if len(touched) <= 1:
                i = touched[0] if touched else 0
                lo, hi = blocks[i]
                self.struck[i].add(lead[lo:hi])
                continue
            bit = 1 << nbits
            nbits += 1
            for i, (lo, hi) in enumerate(blocks):
                part = lead[lo:hi]
                self.bits[i][part] = self.bits[i].get(part, 0) | bit
                if i >= touched[-1]:
                    self.done[i] |= bit
        self.masks: list[list] = [[] for _ in blocks]  # [i][d]: None if struck
        self.counts: dict[tuple, list] = {}  # (i, d): [(mask, monomials)]
        self.folds: dict[tuple, dict] = {(): {(1 << nbits) - 1: 1}}

    def _block(self, i: int, d: int) -> list:
        """(mask, count) over the unstruck degree-d monomials of block i."""
        if (i, d) in self.counts:
            return self.counts[i, d]
        lo, hi = self.blocks[i]
        levels = self.masks[i]
        while len(levels) <= d:
            index, divisors = _monomials(hi - lo, len(levels))
            below = levels[-1] if levels else []
            level = []
            for divs in divisors:
                mask = 0
                for j in divs:
                    if below[j] is None:
                        mask = None
                        break
                    mask |= below[j]
                level.append(mask)
            for part, bits in self.bits[i].items():
                j = index.get(part)
                if j is not None and level[j] is not None:
                    level[j] |= bits
            for part in self.struck[i]:
                if part in index:
                    level[index[part]] = None
            levels.append(level)
        self.counts[i, d] = out = list(
            Counter(mask for mask in levels[d] if mask is not None).items())
        return out

    def _fold(self, prefix: tuple) -> dict:
        """{mask: candidates} over the blocks of the prefix, dead states dropped."""
        states = self.folds.get(prefix)
        if states is None:
            i = len(prefix) - 1
            done = self.done[i]
            states = {}
            for a, ca in self._fold(prefix[:-1]).items():
                for b, cb in self._block(i, prefix[-1]):
                    s = a & b
                    if not s & done:
                        states[s] = states.get(s, 0) + ca * cb
            self.folds[prefix] = states
        return states

    def count(self, m: tuple) -> int:
        # the last block is summed straight to the mask-0 candidates
        last = self._block(len(m) - 1, m[-1])
        return sum(ca * cb for a, ca in self._fold(m[:-1]).items()
                   for b, cb in last if not a & b)


@functools.lru_cache(maxsize=2)
def _lead_tables(blocks: tuple, leads: tuple) -> _LeadTables:
    """The tables of one (block layout, leads); two bases stay warm."""
    return _LeadTables(blocks, leads)


def hilbert_table(ring: PlueckerRing, gens: list[MPoly], p: int, degrees) -> list[dict]:
    """Entries {"m": [...], "dim": N} for each requested multidegree.

    Every multidegree is checked, as in ``hilbert_component``, before any
    basis or table is built, so an error names the first bad entry; a list
    that passed is not checked again.  The values are read from
    ``_table_values``, keyed by the block layout, the basis's leads and the
    checked list, so ideals with one leading-term ideal share one table."""
    degrees = _check(ring, tuple([tuple(m) for m in degrees]), HILBERT_BUDGET)
    max_total = max((sum(m) for m in degrees), default=0)
    basis = groebner_basis(ring, gens, p, max_degree=max_total)
    dims = _table_values(ring.block, tuple([g.lead for g in basis]), degrees)
    return [{"m": list(m), "dim": dim} for m, dim in zip(degrees, dims)]


@functools.lru_cache(maxsize=TABLE_MEMO)
def _table_values(blocks: tuple, leads: tuple, degrees: tuple) -> tuple:
    """The Hilbert values at ``degrees`` of every ideal with these leads in
    this block layout (Macaulay's theorem)."""
    tables = _lead_tables(blocks, leads)
    return tuple([tables.count(m) for m in degrees])
