"""Buchberger's algorithm over F_p for the multihomogeneous Plücker ideals.

Monomial order is graded reverse lexicographic; the variable order is the
ring's own (vertex-major, colex within a vertex) with the first variable
largest.  Ideals here are small enough (tens of variables, quadric
generators) that a careful dense-exponent implementation is fast enough.
Hilbert function values count standard monomials (Macaulay's theorem) block
by block, without listing the candidate monomials.
"""

from __future__ import annotations

import heapq
import itertools
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
    basis truncated at total degree >= sum(m).  A candidate is one degree-m_i
    monomial per vertex block, and a lead divides it exactly when the lead's
    part in every block divides that block's factor.  Each block's monomials
    map to bitmasks of the leads dividing them there, grouped with counts;
    the blocks fold under bitwise AND and candidates ending at mask 0 are
    standard.  Cost: sum_i n_i * P_i * k_i (n_i block monomials, P_i distinct
    lead parts, k_i variables) plus the fold over distinct masks.  ``budget``
    caps the candidate count prod_i C(k_i + m_i - 1, m_i) before any work.
    """
    m = ring.quiver.check_dimvector(m)
    blocks = [(lo, hi, deg) for (lo, hi), deg in zip(ring.block, m)]
    total = math.prod(math.comb(hi - lo + deg - 1, deg) for lo, hi, deg in blocks)
    if total > budget:
        raise GroebnerError(
            f"{total} candidate monomials of multidegree {list(m)} "
            f"exceed the budget {budget}")
    # a lead of degree > m_i in some block divides no candidate
    leads = [g.lead for g in basis
             if all(sum(g.lead[lo:hi]) <= deg for lo, hi, deg in blocks)]
    folded = Counter({(1 << len(leads)) - 1: 1})
    for lo, hi, deg in blocks:
        part_masks: dict[tuple, int] = {}
        for bit, lead in enumerate(leads):
            part = lead[lo:hi]
            part_masks[part] = part_masks.get(part, 0) | (1 << bit)
        block_masks: Counter = Counter()
        for combo in itertools.combinations_with_replacement(range(hi - lo), deg):
            exps = [0] * (hi - lo)
            for idx in combo:
                exps[idx] += 1
            mask = 0
            for part, bits in part_masks.items():
                if _divides(part, exps):
                    mask |= bits
            block_masks[mask] += 1
        step: Counter = Counter()
        for a, ca in folded.items():
            for b, cb in block_masks.items():
                step[a & b] += ca * cb
        folded = step
    return folded[0]


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
