"""The principal-Grassmannian workbench: loci, sinks, and conjecture checks.

A *principal* configuration fixes a projective P and an injective I over a
Dynkin quiver; the ambient dimension vector is d = dim P + dim I and the
subspace dimension is e = dim P.  Every isoclass of dimension d is
classified by exact point counting, which stratifies the degeneration
poset into the loci of minimal dimension (gamma2) and of minimal dimension
with a single top component (gamma1, an irreducibility proxy).  Conjectures
A and E read one Hilbert table per node and scope, kept on the report; a
node on which every path of length >= 2 acts by zero has one path ideal and
arrow ideal, and its path table is read from its arrow table.
"""

from __future__ import annotations

import configparser
import functools
import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .catalog import LIFT_PRIME, Catalog, Isoclass, get_catalog
from .groebner import hilbert_table
from .pluecker import ideal
from .pointcount import (
    Classification,
    CountError,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_PAIR_BUDGET,
    classify,
)
from .poset import DEFAULT_NODE_BUDGET, IsoclassPoset, build_poset
from .quiver import Quiver, parse_quiver
from .reps import is_rigid


class LabError(ValueError):
    pass


_CONFIG_KEYS = {
    "quiver": ("file", "text"),
    "principal": ("proj", "inj"),
    "compute": ("catalog_prime", "max_prime", "max_nodes", "enum_budget", "pair_budget"),
}


class PrincipalConfig:
    """P = sum u^P_j P_j, I = sum u^I_j I_j and everything derived from them."""

    def __init__(self, quiver: Quiver, proj_mult, inj_mult, *,
                 catalog_prime: int = LIFT_PRIME, max_prime: int = 101,
                 max_nodes: int = DEFAULT_NODE_BUDGET,
                 enum_budget: int = DEFAULT_ENUM_BUDGET,
                 pair_budget: int = DEFAULT_PAIR_BUDGET):
        self.quiver = quiver
        self.proj_mult = quiver.check_dimvector(proj_mult)
        self.inj_mult = quiver.check_dimvector(inj_mult)
        self.catalog_prime = catalog_prime
        self.max_prime = max_prime
        self.max_nodes = max_nodes
        self.enum_budget = enum_budget
        self.pair_budget = pair_budget
        cat = self.catalog
        self.proj_iso = _multiplicity_iso(self.proj_mult, cat.projective_label)
        self.inj_iso = _multiplicity_iso(self.inj_mult, cat.injective_label)
        n = quiver.n
        self.e = self.proj_iso.dims(n) if self.proj_iso.counts else (0,) * n
        dim_i = self.inj_iso.dims(n) if self.inj_iso.counts else (0,) * n
        self.d = tuple(a + b for a, b in zip(self.e, dim_i))
        self.expected_dim = quiver.euler_form(self.e, dim_i)

    @property
    def catalog(self) -> Catalog:
        return get_catalog(self.quiver, self.catalog_prime)

    def catalog_at(self, p: int) -> Catalog:
        return get_catalog(self.quiver, p)

    @functools.cached_property
    def poset(self) -> IsoclassPoset:
        """The degeneration poset of every isoclass of dimension d, built once."""
        return build_poset(self.catalog, self.d, budget=self.max_nodes)

    def generic(self) -> Isoclass:
        """The rigid isoclass of dimension d: the poset's minimal element."""
        iso = self.poset.minimal_element()
        assert is_rigid(self.catalog.realize(iso))
        return iso

    def deficient_vertices(self) -> list[int]:
        """Internal indices where dim P or dim I vanishes."""
        return [
            i for i in range(self.quiver.n)
            if self.e[i] == 0 or self.d[i] - self.e[i] == 0
        ]

    @classmethod
    def from_file(cls, path: str, **overrides) -> "PrincipalConfig":
        """Plain sectioned key-value config; see the repository examples.

        Sections: [quiver] (file= relative to the config file's directory,
        or inline text=), [principal] (proj=/inj= comma lists), [compute]
        (catalog_prime, max_prime, max_nodes, enum_budget, pair_budget;
        integers).  An unknown section or key, a missing [principal]
        section or key and a value that is not an integer raise LabError
        naming the file, rather than running with a default.
        """
        cp = configparser.ConfigParser()
        with open(path) as fh:
            cp.read_string(fh.read())
        for section in cp.sections():
            if section not in _CONFIG_KEYS:
                raise LabError(f"unknown section [{section}] in {path}")
            for key in cp.options(section):
                if key not in _CONFIG_KEYS[section]:
                    raise LabError(f"unknown [{section}] key {key!r} in {path}")
        if cp.has_option("quiver", "file"):
            with open(Path(path).parent / cp.get("quiver", "file")) as fh:
                quiver = parse_quiver(fh.read())
        elif cp.has_option("quiver", "text"):
            quiver = parse_quiver(cp.get("quiver", "text").replace(";", "\n"))
        else:
            raise LabError(f"config needs [quiver] file= or text= in {path}")

        def value(section, key, parse):
            try:
                text = cp.get(section, key)
                return parse(text)
            except configparser.Error as err:
                raise LabError(f"{err.message} in {path}") from None
            except ValueError:
                raise LabError(f"[{section}] {key} = {text!r} in {path} "
                               "is not an integer") from None

        proj = value("principal", "proj", _int_list)
        inj = value("principal", "inj", _int_list)
        compute = cp.options("compute") if cp.has_section("compute") else []
        kwargs = {k: value("compute", k, int) for k in compute}
        kwargs.update(overrides)
        return cls(quiver, proj, inj, **kwargs)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in re.split(r"[,\s]+", text.strip()) if tok]


def _multiplicity_iso(mult, label_of) -> Isoclass:
    counts = {}
    for i, u in enumerate(mult):
        if u:
            counts[label_of(i)] = u
    return Isoclass(counts)


@dataclass
class ExperimentReport:
    """Everything classify_all learns about one principal configuration,
    and the Hilbert tables of conjectures A and E."""

    config: PrincipalConfig
    classifications: dict = dc_field(default_factory=dict)
    gamma1: list = dc_field(default_factory=list)
    gamma2: list = dc_field(default_factory=list)
    gaps: list = dc_field(default_factory=list)
    verdicts: dict = dc_field(default_factory=dict)
    hilbert: dict = dc_field(default_factory=dict, init=False)

    @property
    def poset(self) -> IsoclassPoset:
        return self.config.poset

    def hilbert_values(self, iso: Isoclass, scope: str) -> list[int]:
        """Hilbert values of iso's ``scope`` ideal over ``_box(n, scope)``,
        computed on first use.

        When every path of length >= 2 acts by zero on iso, its path ideal
        is its arrow ideal, and the path table is the arrow table's m <= 1
        entries; the module is then not realized for the path scope."""
        key, cfg = (iso, scope), self.config
        if key not in self.hilbert:
            n = cfg.quiver.n
            if scope == "paths" and _path_labels(cfg.catalog).isdisjoint(iso.counts):
                table = self.hilbert_values(iso, "arrows")
                self.hilbert[key] = [table[k] for k in _inner(n)]
            else:
                ring, gens = ideal(cfg.catalog.realize(iso), cfg.e, scope=scope)
                table = hilbert_table(ring, gens, cfg.catalog_prime, _box(n, scope))
                self.hilbert[key] = [row["dim"] for row in table]
        return self.hilbert[key]

    def classification(self, iso: Isoclass) -> Classification:
        return self.classifications[iso]

    def gamma1_sinks(self) -> list[Isoclass]:
        return self.poset.sinks(self.gamma1)

    def gamma2_sinks(self) -> list[Isoclass]:
        return self.poset.sinks(self.gamma2)


# nodes whose check counts share one stacked DP pass in ``classify_all``
_STACK = 128


def classify_node(cfg: PrincipalConfig, iso):
    """Counting-polynomial classification of one isoclass within cfg's
    budgets.  For a sequence of isoclasses, a list of each one's
    Classification or CountError, their check counts stacked (``classify``)."""
    def realize(p: int):
        cat = cfg.catalog_at(p)
        return cat.realize(iso) if isinstance(iso, Isoclass) else [cat.realize(x) for x in iso]

    return classify(
        realize,
        cfg.e,
        max_prime=cfg.max_prime,
        enum_budget=cfg.enum_budget,
        pair_budget=cfg.pair_budget,
    )


def classify_all(cfg: PrincipalConfig, *, progress=None) -> ExperimentReport:
    """Classify every isoclass of dimension d and stratify the poset.

    gamma2 = nodes of expected (minimal) dimension; gamma1 additionally
    requires a single top-dimensional component (irreducibility proxy).
    Both are asserted to be lower ideals.  Nodes whose classification fails
    within budget are recorded in ``gaps`` and excluded from the loci, and
    so are empty Grassmannians (dimension -1).  The generic node is rigid,
    so its Grassmannian is smooth and projective with an affine paving: a
    polynomial that is not a palindrome of degree ``expected_dim`` is a
    smoothness mismatch, and a gap.  The nodes are classified ``_STACK``
    at a time in poset order, and ``progress(k, n, iso, cls)`` is called
    for every node of a stack once the stack is done, with ``cls`` None
    for a budget gap.
    """
    poset = cfg.poset
    nodes = poset.nodes
    generic = poset.minimal_element()
    report = ExperimentReport(cfg)
    for lo in range(0, len(nodes), _STACK):
        stack = nodes[lo:lo + _STACK]
        for k, iso, cls in zip(itertools.count(lo + 1), stack, classify_node(cfg, stack)):
            if isinstance(cls, CountError):
                report.gaps.append(f"{iso}: {cls}")
                cls = None
            else:
                if iso == generic and cls.consistent:
                    coeffs = [int(c) for c in cls.polynomial.coeffs]
                    if len(coeffs) - 1 != cfg.expected_dim or coeffs != coeffs[::-1]:
                        cls.consistent = False
                        cls.reason = (f"smoothness mismatch: coefficients {coeffs} are not "
                                      f"a palindrome of degree expected_dim = {cfg.expected_dim}")
                if not cls.consistent:
                    report.gaps.append(f"{iso}: {cls.reason}")
                report.classifications[iso] = cls
            if progress:
                progress(k, len(nodes), iso, cls)
    classified = [x for x, cls in report.classifications.items()
                  if cls.consistent and cls.dimension >= 0]
    if classified:
        dims = {x: report.classifications[x].dimension for x in classified}
        min_dim = min(dims.values())
        if min_dim < cfg.expected_dim:
            raise LabError(
                f"classified dimension {min_dim} below expected {cfg.expected_dim}")
        report.gamma2 = [x for x in classified if dims[x] == cfg.expected_dim]
        report.gamma1 = [x for x in report.gamma2
                         if report.classifications[x].top_count == 1]
        if not report.gaps:
            for locus in (set(report.gamma2), set(report.gamma1)):
                poset.lower_ideal(locus.__contains__)
    return report


# -- combinatorial candidates for the deepest representations ---------------

def split_at_deficient(cfg: PrincipalConfig) -> Isoclass:
    """The candidate gamma1 sink for type A with deficient vertices.

    Every interval summand of P + I is cut along each edge touching a
    deficient vertex; the resulting interval multiset is returned.
    """
    q = cfg.quiver
    if q.dynkin != "A":
        raise LabError("deficient-vertex splitting is defined for type A")
    cat = cfg.catalog
    order = q.path_order()
    deficient = {order.index(i) + 1 for i in cfg.deficient_vertices()}
    counts: Counter = Counter()
    for lab, mult in (cfg.proj_iso + cfg.inj_iso).counts.items():
        i, j = cat.interval(lab)
        # cut every edge (t, t+1) incident to a deficient position
        cur = i
        for t in range(i, j):
            if t in deficient or t + 1 in deficient:
                counts[cur, t] += mult
                cur = t + 1
        counts[cur, j] += mult
    return Isoclass({cat.interval_label(i, j): mult for (i, j), mult in counts.items()})


def _segment_m2(a: int, b: int, toward_b: bool) -> Counter:
    """Deepest-candidate summands of one equioriented segment [a..b].

    Returns intervals (i, j) of path-order positions with multiplicities
    for P + S + I/S of the segment viewed as an equioriented A quiver.
    """
    out: Counter = Counter()
    for j in range(a, b + 1):
        out[j, j] += 1  # the simple S_j
        # the segment's projective at j and its injective at j modulo the socle
        pieces = [(j, b), (a, j - 1)] if toward_b else [(a, j), (j + 1, b)]
        out.update(x for x in pieces if x[0] <= x[1])
    return out


def conjectured_m2(cfg: PrincipalConfig) -> Isoclass | None:
    """The conjectural unique gamma2 sink for type A configurations.

    Built per maximal equioriented segment as P + S + I/S, glued by
    removing two simples at each junction, then stacked with the excess
    projective and injective multiplicities.  Returns None when the shape
    is out of scope (non-A quiver or some multiplicity zero).
    """
    q = cfg.quiver
    if q.dynkin != "A" or q.n < 2:
        return None
    if any(u < 1 for u in cfg.proj_mult) or any(u < 1 for u in cfg.inj_mult):
        return None
    cat = cfg.catalog
    order = q.path_order()
    # direction of each edge along the path: True if it points forward
    forward = [(s, t) in q.arrows for s, t in zip(order, order[1:])]
    # maximal equioriented segments [a, b] in 1-based positions
    segments, a = [], 1
    for toward_b, run in itertools.groupby(forward):
        b = a + len(list(run))
        segments.append((a, b, toward_b))
        a = b
    counts: Counter = Counter()
    for a, b, toward_b in segments:
        counts.update(_segment_m2(a, b, toward_b))
    # gluing: drop two copies of the simple at each junction vertex
    for a, b, _ in segments[:-1]:
        counts[b, b] -= 2
        if counts[b, b] < 0:
            raise LabError("gluing removed a summand that is not present")
    base = Isoclass({cat.interval_label(i, j): mult for (i, j), mult in counts.items() if mult})
    # stacking: excess multiplicities ride along unchanged
    extra: Counter = Counter()
    for i in range(q.n):
        extra[cat.projective_label(i)] += cfg.proj_mult[i] - 1
        extra[cat.injective_label(i)] += cfg.inj_mult[i] - 1
    return base + Isoclass(extra)


# -- the Hom-dimension criterion --------------------------------------------

@dataclass
class HomCriterion:
    members: list
    sinks: list
    dual_members: list
    dual_agrees: bool


def hom_criterion_set(cfg: PrincipalConfig) -> HomCriterion:
    """Nodes M with hom(M, X) <= hom(P, X) + 1 for all non-injective
    indecomposable X; also the dual form against I over non-projectives."""
    cat = cfg.catalog
    poset = cfg.poset
    inj_labels = {cat.injective_label(i) for i in range(cfg.quiver.n)}
    proj_labels = {cat.projective_label(i) for i in range(cfg.quiver.n)}
    non_inj = [b for b, lab in enumerate(cat.labels) if lab not in inj_labels]
    non_proj = [b for b, lab in enumerate(cat.labels) if lab not in proj_labels]
    bound = cat.dual_iso_fingerprint(cfg.proj_iso)[non_inj] + 1
    dual_bound = cat.iso_fingerprint(cfg.inj_iso)[non_proj] + 1
    is_member = (poset.fingerprints[:, non_inj] <= bound).all(axis=1)  # hom(M, X)
    hom_into = poset.multiplicities @ cat.hom_matrix().T  # hom(X, M)
    is_dual_member = (hom_into[:, non_proj] <= dual_bound).all(axis=1)
    members = [x for x, ok in zip(poset.nodes, is_member) if ok]
    dual_members = [x for x, ok in zip(poset.nodes, is_dual_member) if ok]
    return HomCriterion(
        members=members,
        sinks=poset.sinks(members),
        dual_members=dual_members,
        dual_agrees=members == dual_members,
    )


# -- conjecture checks ------------------------------------------------------

@dataclass
class Verdict:
    which: str
    holds: bool | None  # None: evidence-only probe
    summary: str
    details: dict = dc_field(default_factory=dict)


# E compares arrow tables over m <= 2 and A both scopes over m <= 1; an arrow
# basis truncated at total degree 2n is exact in every lower degree.
_HILBERT_BOX = {"arrows": 2, "paths": 1}


def _box(n: int, scope: str) -> list[tuple[int, ...]]:
    return list(itertools.product(range(_HILBERT_BOX[scope] + 1), repeat=n))


@functools.lru_cache(maxsize=8)
def _inner(n: int) -> tuple[int, ...]:
    """Positions of the path box's multidegrees in the arrow box."""
    arrows = _box(n, "arrows")
    return tuple([arrows.index(m) for m in _box(n, "paths")])


@functools.lru_cache(maxsize=64)
def _path_labels(cat: Catalog) -> frozenset:
    """Labels of the catalog models on which some path of length >= 2 acts
    by a nonzero matrix.  A path acts by zero on a direct sum exactly when
    it does on every summand, and then ``ideal`` adds no relation for it."""
    paths = [path for path in cat.quiver.paths() if len(path) > 1]
    return frozenset(label for label, model in cat.models.items()
                     if any(model.path_matrix(path).any() for path in paths))


def check_conjecture(cfg: PrincipalConfig, which: str, *,
                     report: ExperimentReport | None = None) -> Verdict:
    """Evaluate one of the five conjecture-style statements A-E.

    Without a report, A reads Hilbert values into a bare report and B-E
    classify the configuration first."""
    check = {"A": _check_a, "B": _check_b, "C": _check_c,
             "D": _check_d, "E": _check_e}.get(which.upper())
    if check is None:
        raise LabError(f"unknown conjecture {which!r}")
    if report is None:
        report = ExperimentReport(cfg) if check is _check_a else classify_all(cfg)
    return check(cfg, report)


def _check_a(cfg: PrincipalConfig, report: ExperimentReport) -> Verdict:
    """Probe: does adding path relations to arrow relations change any
    Hilbert value at m <= 1?  A strict drop means the arrow ideal alone is
    too small; no verdict on reducedness is implied either way."""
    degrees, inner = _box(cfg.quiver.n, "paths"), _inner(cfg.quiver.n)
    drops = []
    nodes = report.poset.nodes
    for iso in nodes:
        table = report.hilbert_values(iso, "arrows")
        arrows = [table[k] for k in inner]
        paths = report.hilbert_values(iso, "paths")
        if any(pa > ar for ar, pa in zip(arrows, paths)):
            raise LabError("path ideal smaller than arrow ideal (impossible)")
        strict = [list(mm) for mm, ar, pa in zip(degrees, arrows, paths) if pa < ar]
        if strict:
            drops.append({"isoclass": str(iso), "degrees": strict})
    summary = (f"path relations strictly refine arrow relations on "
               f"{len(drops)}/{len(nodes)} nodes")
    return Verdict("A", None, summary, {"drops": drops})


def _check_b(cfg: PrincipalConfig, report: ExperimentReport) -> Verdict:
    sinks = report.gamma1_sinks()
    if not cfg.deficient_vertices():
        candidate = cfg.proj_iso + cfg.inj_iso
        source = "P+I"
    elif cfg.quiver.dynkin == "A":
        candidate = split_at_deficient(cfg)
        source = "split_at_deficient(P+I)"
    else:
        return Verdict("B", None,
                       f"no candidate formula; observed sinks: "
                       f"{[str(s) for s in sinks]}",
                       {"sinks": [str(s) for s in sinks]})
    holds = sinks == [candidate]
    return Verdict(
        "B", holds,
        f"gamma1 sinks {[str(s) for s in sinks]} vs {source} = {candidate}",
        {"sinks": [str(s) for s in sinks], "candidate": str(candidate)},
    )


def _check_c(cfg: PrincipalConfig, report: ExperimentReport) -> Verdict:
    sinks = report.gamma2_sinks()
    candidate = conjectured_m2(cfg)
    if candidate is None:
        pairwise = all(
            not report.poset.less_equal(x, y)
            for x in sinks for y in sinks if x != y
        )
        return Verdict(
            "C", None,
            f"{len(sinks)} gamma2 sink(s), pairwise incomparable: {pairwise}",
            {"sinks": [str(s) for s in sinks], "pairwise_incomparable": pairwise},
        )
    holds = sinks == [candidate]
    return Verdict(
        "C", holds,
        f"gamma2 sinks {[str(s) for s in sinks]} vs conjectured {candidate}",
        {"sinks": [str(s) for s in sinks], "candidate": str(candidate)},
    )


def _check_d(cfg: PrincipalConfig, report: ExperimentReport) -> Verdict:
    crit = hom_criterion_set(cfg)
    holds = set(crit.members) == set(report.gamma2)
    extra = sorted(str(x) for x in set(crit.members) - set(report.gamma2))
    missing = sorted(str(x) for x in set(report.gamma2) - set(crit.members))
    return Verdict(
        "D", holds,
        f"hom-bound set ({len(crit.members)} nodes, {len(crit.sinks)} sinks) "
        f"vs gamma2 ({len(report.gamma2)} nodes); dual agrees: {crit.dual_agrees}",
        {"hom_sinks": [str(s) for s in crit.sinks],
         "only_hom": extra, "only_gamma2": missing,
         "dual_agrees": crit.dual_agrees},
    )


def _check_e(cfg: PrincipalConfig, report: ExperimentReport) -> Verdict:
    """dim Pl_m(M) >= dim Pl_m(M0) at every m <= 2, with equality at every m
    exactly on the minimal-dimension locus."""
    generic = cfg.generic()
    tables = {iso: report.hilbert_values(iso, "arrows") for iso in report.poset.nodes}
    base = tables[generic]
    violations = []
    equal_set = []
    for iso, dims in tables.items():
        if any(dn < db for dn, db in zip(dims, base)):
            violations.append(str(iso))
        if dims == base:
            equal_set.append(iso)
    holds = not violations and set(equal_set) == set(report.gamma2)
    return Verdict(
        "E", holds,
        f"lower bound violated on {len(violations)} nodes; table equality on "
        f"{len(equal_set)} nodes vs |gamma2| = {len(report.gamma2)}",
        {"violations": violations,
         "equal_nodes": sorted(str(x) for x in equal_set),
         "gamma2": sorted(str(x) for x in report.gamma2)},
    )


# -- reports ----------------------------------------------------------------

def report_json(report: ExperimentReport) -> str:
    cfg = report.config
    gamma1, gamma2 = set(report.gamma1), set(report.gamma2)

    def node_record(x: Isoclass) -> dict:
        cls = report.classifications.get(x)
        if cls is None:
            return {"isoclass": str(x)}
        return {**cls.to_record(str(x)), "gamma2": x in gamma2,
                "irreducible_proxy": x in gamma1}

    data = {
        "quiver": repr(cfg.quiver),
        "proj": list(cfg.proj_mult),
        "inj": list(cfg.inj_mult),
        "d": list(cfg.d),
        "e": list(cfg.e),
        "expected_dim": cfg.expected_dim,
        "nodes": [node_record(x) for x in report.poset.nodes],
        "gamma1": sorted(str(x) for x in report.gamma1),
        "gamma2": sorted(str(x) for x in report.gamma2),
        "gamma1_sinks": [str(x) for x in report.gamma1_sinks()],
        "gamma2_sinks": [str(x) for x in report.gamma2_sinks()],
        "gaps": report.gaps,
        "verdicts": {
            k: {"holds": v.holds, "summary": v.summary, "details": v.details}
            for k, v in sorted(report.verdicts.items())
        },
    }
    return json.dumps(data, indent=2, sort_keys=True)


def report_dot(report: ExperimentReport) -> str:
    colors = {}
    if report.gamma2:
        colors["palegreen"] = report.gamma2
    if report.gamma1:
        colors["lightblue"] = report.gamma1
    return report.poset.to_dot(colors or None)
