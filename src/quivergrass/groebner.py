"""Buchberger's algorithm over F_p for the multihomogeneous Plücker ideals.

Monomial order is graded reverse lexicographic; the variable order is the
ring's own (vertex-major, colex within a vertex) with the first variable
largest.  Ideals here are small enough (tens of variables, quadric
generators) that a careful dense-exponent implementation is fast enough.
Hilbert function values count standard monomials (Macaulay's theorem) block
by block, without listing the candidate monomials.  The work is kept per
basis, not per multidegree: the tables of one block layout and one tuple of
leading terms serve every multidegree asked of them, and the last two such
tables stay cached.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
from collections import Counter

from .linalg import PrimeField
from .pluecker import MPoly, PlueckerRing


class GroebnerError(ValueError):
    pass


DEFAULT_PAIR_BUDGET = 200_000


def _grevlex_key(mono: tuple[int, ...]):
    # first listed variable is largest; standard grevlex tie-break
    return (sum(mono), tuple(-x for x in reversed(mono)))


class GPoly:
    """Polynomial with F_p coefficients on dense exponent-tuple monomials.

    Coefficients are Python ints reduced inline: a call per term would cost."""

    __slots__ = ("coeffs", "lead")

    def __init__(self, coeffs: dict, p: int):
        self.coeffs = {m: c % p for m, c in coeffs.items() if c % p}
        self.lead = max(self.coeffs, key=_grevlex_key) if self.coeffs else None

    def __bool__(self):
        return bool(self.coeffs)

    @classmethod
    def from_mpoly(cls, f: MPoly, nvars: int, p: int) -> "GPoly":
        out: dict = {}
        for mono, c in f.coeffs.items():
            exps = [0] * nvars
            for idx in mono:
                exps[idx] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + c
        return cls(out, p)


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _mono_div(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: GPoly, basis: list[GPoly], field: PrimeField) -> GPoly:
    """Remainder of f on division by the basis (monomial order above)."""
    p = field.p
    work = dict(f.coeffs)
    remainder: dict = {}
    while work:
        m = max(work, key=_grevlex_key)
        c = work[m] % p
        if not c:
            del work[m]
            continue
        for g in basis:
            if g.lead is not None and _divides(g.lead, m):
                shift = _mono_div(m, g.lead)
                factor = (c * field.inv_scalar(g.coeffs[g.lead])) % p
                for gm, gc in g.coeffs.items():
                    key = _mono_mul(gm, shift)
                    val = (work.get(key, 0) - factor * gc) % p
                    if val:
                        work[key] = val
                    else:
                        work.pop(key, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return GPoly(remainder, p)


def buchberger(gens: list[GPoly], field: PrimeField, *, max_degree: int | None = None,
               pair_budget: int = DEFAULT_PAIR_BUDGET) -> list[GPoly]:
    """A reduced Gröbner basis; with ``max_degree`` set, a degree-truncated
    basis whose leading terms are correct in all total degrees <= max_degree.

    S-pairs are processed in increasing lcm degree so truncation is sound.
    Raises GroebnerError when the pair budget is exhausted.
    """
    p = field.p
    basis = [g for g in gens if g]
    heap = [
        (sum(_lcm(basis[i].lead, basis[j].lead)), i, j)
        for i in range(len(basis))
        for j in range(i)
    ]
    heapq.heapify(heap)
    processed = 0
    while heap:
        processed += 1
        if processed > pair_budget:
            raise GroebnerError(f"S-pair budget {pair_budget} exhausted")
        _, i, j = heapq.heappop(heap)
        gi, gj = basis[i], basis[j]
        lcm = _lcm(gi.lead, gj.lead)
        if max_degree is not None and sum(lcm) > max_degree:
            continue
        if lcm == _mono_mul(gi.lead, gj.lead):
            continue  # coprime leading terms: S-polynomial reduces to zero
        ci = field.inv_scalar(gi.coeffs[gi.lead])
        cj = field.inv_scalar(gj.coeffs[gj.lead])
        s: dict = {}
        for m, c in gi.coeffs.items():
            key = _mono_mul(m, _mono_div(lcm, gi.lead))
            s[key] = (s.get(key, 0) + c * ci) % p
        for m, c in gj.coeffs.items():
            key = _mono_mul(m, _mono_div(lcm, gj.lead))
            s[key] = (s.get(key, 0) - c * cj) % p
        rem = normal_form(GPoly(s, p), basis, field)
        if rem:
            k = len(basis)
            basis.append(rem)
            for t in range(k):
                heapq.heappush(
                    heap, (sum(_lcm(rem.lead, basis[t].lead)), k, t))
    return interreduce(basis, field)


def interreduce(basis: list[GPoly], field: PrimeField) -> list[GPoly]:
    """Monic, mutually reduced basis (unique for a fixed monomial order)."""
    # drop redundant leading terms
    kept: list[GPoly] = []
    for g in sorted(basis, key=lambda g: _grevlex_key(g.lead)):
        if not any(_divides(h.lead, g.lead) for h in kept):
            kept.append(g)
    out = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        r = normal_form(g, others, field)
        if r:
            inv = field.inv_scalar(r.coeffs[r.lead])
            out.append(GPoly({m: c * inv for m, c in r.coeffs.items()}, field.p))
    out.sort(key=lambda g: _grevlex_key(g.lead))
    return out


def groebner_basis(ring: PlueckerRing, gens: list[MPoly], p: int, *,
                   max_degree: int | None = None) -> list[GPoly]:
    nvars = len(ring)
    return buchberger([GPoly.from_mpoly(g, nvars, p) for g in gens], PrimeField(p),
                      max_degree=max_degree)


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
                      budget: int = 2_000_000) -> int:
    """dim of the multidegree-m graded piece of the quotient ring.

    Counts multidegree-m monomials outside the leading-term ideal; needs a
    basis truncated at total degree >= sum(m).  ``budget`` caps the candidate
    count prod_i C(k_i + m_i - 1, m_i) (k_i variables in block i) before any
    work.  The count is read from ``_lead_tables``, keyed by the block layout
    and the leads and cached for the last two keys.  Per (basis, block i,
    degree d) it builds the block masks once: n_{i,d} * k_i ORs over the
    n_{i,d} degree-d monomials, leads inside block i striking monomials
    instead of taking a bit.  Per multidegree prefix it folds once: the
    states of the shorter prefix times the distinct masks of the new block.
    A call then costs one pass over the states of m[:-1] times the distinct
    masks of the last block.
    """
    m = ring.quiver.check_dimvector(m)
    total = math.prod(math.comb(hi - lo + deg - 1, deg)
                      for (lo, hi), deg in zip(ring.block, m))
    if total > budget:
        raise GroebnerError(
            f"{total} candidate monomials of multidegree {list(m)} "
            f"exceed the budget {budget}")
    # a list-built key: tuple() of a generator over-allocates and resizes
    return _lead_tables(tuple(ring.block), tuple([g.lead for g in basis])).count(m)


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
    """Entries {"m": [...], "dim": N} for each requested multidegree."""
    degrees = [ring.quiver.check_dimvector(m) for m in degrees]
    max_total = max((sum(m) for m in degrees), default=0)
    basis = groebner_basis(ring, gens, p, max_degree=max_total)
    return [
        {"m": list(m), "dim": hilbert_component(ring, basis, m)}
        for m in degrees
    ]


def hilbert_table_json(table: list[dict]) -> str:
    return json.dumps(table, indent=2)
