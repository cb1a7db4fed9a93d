"""The benchmark's three workloads: inputs, one timed op, digests and checks.

Each workload builds its state in ``setup`` (configuration, catalogs at every
interpolation prime, degeneration poset), orders its keys from a seed (the
runner takes a prefix as its sample), runs one op per key, and reduces each
op's result to a digest that is compared with the golden record of the key.
Digests hold only deterministic results: no interpolation node lists and no
timings, so a change of node schedule still matches.

Why these three workloads (see README.md for the measured shares):

* ``count-d4``: point counting on the 424-node D4 into-center family; almost
  all time is ``count_points`` itself, most of it at primes q >= 20.
* ``hilbert-d4``: the Pluecker ideal, truncated Groebner basis and Hilbert
  values of one node of the D4 subspace configuration; no point counting.
* ``research-small``: the full research pass (classification, conjectures
  A-E, JSON and DOT reports) on three small configurations, where per-call
  overhead outweighs kernel throughput.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from quivergrass import groebner, lab, pluecker, pointcount, poset
from quivergrass.lab import PrincipalConfig
from quivergrass.linalg import is_prime
from quivergrass.quiver import Quiver, zigzag_quiver


def _all_catalogs(cfg: PrincipalConfig) -> None:
    """Build the catalog at every prime an interpolation may use."""
    for p in range(2, cfg.max_prime + 1):
        if is_prime(p):
            cfg.catalog_at(p)


def stratified_order(keys, stratum_of, rng: random.Random) -> list:
    """A seeded permutation whose every prefix keeps the strata shares.

    The j-th of the n members of a stratum takes position key (j + 1/2) / n,
    and all members are sorted by that key (ties by stratum).  Which stratum
    fills each position therefore does not depend on the seed: a prefix of
    length L holds about L * n_s / N members of stratum s for every seed.
    The seed only shuffles the members within each stratum.
    """
    strata: dict = {}
    for k in keys:
        strata.setdefault(stratum_of(k), []).append(k)
    ranked = []
    for s in sorted(strata):
        members = sorted(strata[s])
        rng.shuffle(members)
        n = len(members)
        ranked.extend(((j + 0.5) / n, s, k) for j, k in enumerate(members))
    ranked.sort(key=lambda t: t[:2])
    return [k for _, _, k in ranked]


class Workload:
    """Defaults for the checks a workload does not need."""

    @staticmethod
    def op_ok(out) -> bool:
        """False when the op ran but produced a gap or no usable result."""
        return True

    def op_checks(self, key: str, out) -> list[str]:
        """Problems found in one op's result without the golden record."""
        return []

    def run_checks(self, done: list) -> list[str]:
        """Problems found after the timed ops in the first (key, result)
        pairs that passed."""
        return []


class CountD4(Workload):
    """One op classifies one isoclass of the D4 into-center family."""

    name = "count-d4"
    quiver = Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 2)])
    proj, inj = (1, 1, 1, 1), (1, 1, 1, 1)

    def setup(self):
        cfg = PrincipalConfig(self.quiver, self.proj, self.inj)
        _all_catalogs(cfg)
        nodes = poset.build_poset(cfg.catalog, cfg.d, budget=cfg.max_nodes).nodes
        self.cfg = cfg
        self.nodes = {str(iso): iso for iso in nodes}

    def keys(self) -> list[str]:
        return list(self.nodes)

    def order(self, seed: int, golden: dict) -> list[str]:
        # stratified by the golden dimension: the dimension fixes how many
        # interpolation primes a node needs, which dominates its cost
        return stratified_order(self.keys(), lambda k: golden[k]["dim"],
                                random.Random(seed))

    def run_op(self, key: str):
        cfg, iso = self.cfg, self.nodes[key]
        return pointcount.classify(
            lambda p: cfg.catalog_at(p).realize(iso),
            cfg.e,
            max_prime=cfg.max_prime,
            enum_budget=cfg.enum_budget,
            pair_budget=cfg.pair_budget,
        )

    @staticmethod
    def digest(cls) -> dict:
        return {
            "dim": cls.dimension,
            "top_components": cls.top_count,
            "poly": [str(c) for c in cls.polynomial.coeffs],
            "consistent": cls.consistent,
        }

    @staticmethod
    def op_ok(cls) -> bool:
        return cls.consistent

    def run_checks(self, done: list) -> list[str]:
        """Brute force at p = 2 on the first two ops of the run must agree
        with ``count_points`` and with the polynomial at q = 2."""
        problems = []
        for key, cls in done[:2]:
            m = self.cfg.catalog_at(2).realize(self.nodes[key])
            brute = pointcount.brute_force_count(m, self.cfg.e, 2)
            dp = pointcount.count_points(m, self.cfg.e, 2)
            if not brute == dp == cls.polynomial(2):
                problems.append(f"{key}: brute force {brute}, count_points {dp}, "
                                f"P(2) = {cls.polynomial(2)}")
        return problems


DEGREES_E = list(itertools.product(range(3), repeat=4))
DEGREES_A = list(itertools.product(range(2), repeat=4))


class HilbertD4(Workload):
    """One op computes the Hilbert data conjectures A and E need for one
    isoclass of the D4 subspace configuration."""

    name = "hilbert-d4"
    quiver = Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)])
    proj, inj = (1, 0, 1, 1), (1, 1, 1, 1)

    def setup(self):
        cfg = PrincipalConfig(self.quiver, self.proj, self.inj)
        nodes = poset.build_poset(cfg.catalog, cfg.d, budget=cfg.max_nodes).nodes
        self.cfg = cfg
        self.nodes = {str(iso): iso for iso in nodes}

    def keys(self) -> list[str]:
        return list(self.nodes)

    def order(self, seed: int, golden: dict) -> list[str]:
        # stratified by the sum of the golden Hilbert table: a smaller
        # quotient means a larger ideal and more Groebner work
        return stratified_order(self.keys(), lambda k: sum(golden[k]["E_arrows"]),
                                random.Random(seed))

    def _table(self, m, scope: str, degrees) -> list[int]:
        cfg = self.cfg
        ring, gens = pluecker.ideal(m, cfg.e, scope=scope)
        basis = groebner.groebner_basis(ring, gens, cfg.catalog_prime,
                                        max_degree=max(sum(d) for d in degrees))
        return [groebner.hilbert_component(ring, basis, d) for d in degrees]

    def run_op(self, key: str) -> dict:
        m = self.cfg.catalog.realize(self.nodes[key])
        return {
            "E_arrows": self._table(m, "arrows", DEGREES_E),
            "A_arrows": self._table(m, "arrows", DEGREES_A),
            "A_paths": self._table(m, "paths", DEGREES_A),
        }

    @staticmethod
    def digest(tables: dict) -> dict:
        return tables

    def op_checks(self, key: str, tables: dict) -> list[str]:
        """h(0) = 1, and path relations never enlarge a graded piece."""
        problems = []
        for name, values in tables.items():
            if values[0] != 1:
                problems.append(f"{key}: {name} h(0) = {values[0]}")
        if any(pa > ar for ar, pa in zip(tables["A_arrows"], tables["A_paths"])):
            problems.append(f"{key}: a path-scope value exceeds the arrow scope")
        return problems


class ResearchSmall(Workload):
    """One op is the complete research pass on one small configuration."""

    name = "research-small"
    configs = {
        "zigzag-a3": (zigzag_quiver(3), (1, 1, 1), (1, 1, 1)),
        "p1xp1": (zigzag_quiver(3), (1, 1, 1), (1, 0, 1)),
        "a4-deficient": (Quiver([1, 2, 3, 4], [(1, 2), (3, 2), (4, 3)]),
                         (1, 1, 1, 1), (1, 0, 1, 1)),
    }

    def setup(self):
        self.cfgs = {}
        for name, (q, proj, inj) in self.configs.items():
            cfg = PrincipalConfig(q, proj, inj)
            _all_catalogs(cfg)
            poset.build_poset(cfg.catalog, cfg.d, budget=cfg.max_nodes)
            self.cfgs[name] = cfg

    def keys(self) -> list[str]:
        return list(self.configs)

    def order(self, seed: int, golden: dict) -> list[str]:
        order = self.keys()
        random.Random(seed).shuffle(order)
        return order

    def run_op(self, key: str) -> dict:
        cfg = self.cfgs[key]
        report = lab.classify_all(cfg)
        for which in "ABCDE":
            report.verdicts[which] = lab.check_conjecture(cfg, which, report=report)
        return {"json": lab.report_json(report), "dot": lab.report_dot(report)}

    @staticmethod
    def digest(out: dict) -> dict:
        data = json.loads(out["json"])
        for node in data["nodes"]:
            node.pop("primes", None)
        data["dot_sha256"] = hashlib.sha256(out["dot"].encode()).hexdigest()
        return data

    @staticmethod
    def op_ok(out: dict) -> bool:
        return not json.loads(out["json"])["gaps"]


WORKLOADS = {w.name: w for w in (CountD4, HilbertD4, ResearchSmall)}
