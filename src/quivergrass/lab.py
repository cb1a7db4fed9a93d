"""The principal-Grassmannian workbench: loci, sinks, and conjecture checks.

A *principal* configuration fixes a projective P and an injective I over a
Dynkin quiver; the ambient dimension vector is d = dim P + dim I and the
subspace dimension is e = dim P.  Every isoclass of dimension d is
classified by exact point counting, which stratifies the degeneration
poset into the loci of minimal dimension (gamma2) and of minimal dimension
with a single top component (gamma1, an irreducibility proxy).
"""

from __future__ import annotations

import configparser
import functools
import itertools
import json
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .catalog import Catalog, Isoclass, IndecLabel, get_catalog
from .groebner import GroebnerError, hilbert_table
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
                 catalog_prime: int = 107, max_prime: int = 101,
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
        integers).  An unknown section or key raises LabError rather than
        running with a default.
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
            raise LabError("config needs [quiver] file= or text=")
        proj = _int_list(cp.get("principal", "proj"))
        inj = _int_list(cp.get("principal", "inj"))
        kwargs = {k: int(v) for k, v in cp.items("compute")} if cp.has_section("compute") else {}
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
    """Everything classify_all learns about one principal configuration."""

    config: PrincipalConfig
    classifications: dict = dc_field(default_factory=dict)
    gamma1: list = dc_field(default_factory=list)
    gamma2: list = dc_field(default_factory=list)
    gaps: list = dc_field(default_factory=list)
    verdicts: dict = dc_field(default_factory=dict)

    @property
    def poset(self) -> IsoclassPoset:
        return self.config.poset

    def classification(self, iso: Isoclass) -> Classification:
        return self.classifications[iso]

    def gamma1_sinks(self) -> list[Isoclass]:
        return self.poset.sinks(self.gamma1)

    def gamma2_sinks(self) -> list[Isoclass]:
        return self.poset.sinks(self.gamma2)


def classify_node(cfg: PrincipalConfig, iso: Isoclass) -> Classification:
    """Counting-polynomial classification of one isoclass within cfg's budgets."""
    return classify(
        lambda p: cfg.catalog_at(p).realize(iso),
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
    so are empty Grassmannians (dimension -1).
    """
    poset = cfg.poset
    report = ExperimentReport(cfg)
    for k, iso in enumerate(poset.nodes):
        try:
            cls = classify_node(cfg, iso)
        except (CountError, GroebnerError) as exc:
            report.gaps.append(f"{iso}: {exc}")
            continue
        if not cls.consistent:
            report.gaps.append(f"{iso}: {cls.reason}")
        report.classifications[iso] = cls
        if progress:
            progress(k + 1, len(poset.nodes), iso, cls)
    classified = [x for x, cls in report.classifications.items()
                  if cls.consistent and cls.dimension >= 0]
    if classified:
        dims = {x: report.classifications[x].dimension for x in classified}
        min_dim = min(dims.values())
        if min_dim < cfg.expected_dim:
            raise LabError(
                f"classified dimension {min_dim} below expected {cfg.expected_dim}")
        report.gamma2 = [x for x in classified if dims[x] == cfg.expected_dim]
        report.gamma1 = [
            x for x in report.gamma2
            if report.classifications[x].top_count == 1 and dims[x] == min_dim
        ]
        if not report.gaps:
            poset.lower_ideal(lambda x: x in set(report.gamma2))
            poset.lower_ideal(lambda x: x in set(report.gamma1))
    return report


# -- combinatorial candidates for the deepest representations ---------------

def _interval(lab_name: str) -> tuple[int, int]:
    m = re.fullmatch(r"U\((\d+),(\d+)\)", lab_name)
    if not m:
        raise LabError(f"not an interval label: {lab_name}")
    return int(m.group(1)), int(m.group(2))


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
    counts: dict[IndecLabel, int] = {}
    for lab, mult in (cfg.proj_iso + cfg.inj_iso).counts.items():
        i, j = _interval(lab.name)
        # cut every edge (t, t+1) incident to a deficient position
        cur = i
        for t in range(i, j):
            if t in deficient or t + 1 in deficient:
                piece = cat.label_by_name(f"U({cur},{t})")
                counts[piece] = counts.get(piece, 0) + mult
                cur = t + 1
        piece = cat.label_by_name(f"U({cur},{j})")
        counts[piece] = counts.get(piece, 0) + mult
    return Isoclass(counts)


def _segment_m2(a: int, b: int, toward_b: bool) -> dict[str, int]:
    """Deepest-candidate summands of one equioriented segment [a..b].

    Returns interval names (path-order positions) with multiplicities for
    P + S + I/S of the segment viewed as an equioriented A quiver.
    """
    out: dict[str, int] = {}

    def add(i, j, mult=1):
        if i > j:
            return
        key = f"U({i},{j})"
        out[key] = out.get(key, 0) + mult

    for j in range(a, b + 1):
        add(j, j)  # the simple S_j
        if toward_b:
            add(j, b)          # projective of the segment at j
            add(a, j - 1)      # injective at j modulo its socle
        else:
            add(a, j)
            add(j + 1, b)
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
    forward = []
    for t in range(q.n - 1):
        s, tt = order[t], order[t + 1]
        forward.append((s, tt) in q.arrows)
    # maximal equioriented segments [a, b] in 1-based positions
    segments = []
    a = 1
    for t in range(1, q.n - 1):
        if forward[t] != forward[t - 1]:
            segments.append((a, t + 1, forward[t - 1]))
            a = t + 1
    segments.append((a, q.n, forward[-1]))
    counts: dict[str, int] = {}
    for a, b, toward_b in segments:
        for name, mult in _segment_m2(a, b, toward_b).items():
            counts[name] = counts.get(name, 0) + mult
    # gluing: drop two copies of the simple at each junction vertex
    for a, b, _ in segments[:-1]:
        key = f"U({b},{b})"
        counts[key] = counts.get(key, 0) - 2
        if counts[key] < 0:
            raise LabError("gluing removed a summand that is not present")
    base = Isoclass({
        cat.label_by_name(name): mult for name, mult in counts.items() if mult
    })
    # stacking: excess multiplicities ride along unchanged
    extra: dict[IndecLabel, int] = {}
    for i in range(q.n):
        if cfg.proj_mult[i] > 1:
            lab = cat.projective_label(i)
            extra[lab] = extra.get(lab, 0) + cfg.proj_mult[i] - 1
        if cfg.inj_mult[i] > 1:
            lab = cat.injective_label(i)
            extra[lab] = extra.get(lab, 0) + cfg.inj_mult[i] - 1
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
    bound = cat.dual_iso_fingerprint(cfg.proj_iso)
    dual_bound = cat.iso_fingerprint(cfg.inj_iso)
    members, dual_members = [], []
    for iso in poset.nodes:
        fp = cat.dual_iso_fingerprint(iso)
        if all(fp[b] <= bound[b] + 1 for b in non_inj):
            members.append(iso)
        dfp = cat.iso_fingerprint(iso)
        if all(dfp[b] <= dual_bound[b] + 1 for b in non_proj):
            dual_members.append(iso)
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


def _hilbert_dims(cfg: PrincipalConfig, iso: Isoclass, degrees, scope: str) -> list[int]:
    ring, gens = ideal(cfg.catalog.realize(iso), cfg.e, scope=scope)
    return [row["dim"] for row in hilbert_table(ring, gens, cfg.catalog_prime, degrees)]


def check_conjecture(cfg: PrincipalConfig, which: str, *,
                     report: ExperimentReport | None = None,
                     max_multidegree: int = 1) -> Verdict:
    """Evaluate one of the five conjecture-style statements A-E."""
    which = which.upper()
    if which == "A":
        return _check_a(cfg, max_multidegree)
    if report is None:
        report = classify_all(cfg)
    if which == "B":
        return _check_b(cfg, report)
    if which == "C":
        return _check_c(cfg, report)
    if which == "D":
        return _check_d(cfg, report)
    if which == "E":
        return _check_e(cfg, report, max(max_multidegree, 2))
    raise LabError(f"unknown conjecture {which!r}")


def _check_a(cfg: PrincipalConfig, max_multidegree: int) -> Verdict:
    """Probe: does adding path relations to arrow relations change any
    Hilbert value?  A strict drop means the arrow ideal alone is too small;
    no verdict on reducedness is implied either way."""
    degrees = list(itertools.product(range(max_multidegree + 1), repeat=cfg.quiver.n))
    drops = []
    nodes = cfg.poset.nodes
    for iso in nodes:
        arrows = _hilbert_dims(cfg, iso, degrees, "arrows")
        paths = _hilbert_dims(cfg, iso, degrees, "paths")
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


def _check_e(cfg: PrincipalConfig, report: ExperimentReport,
             max_multidegree: int) -> Verdict:
    """dim Pl_m(M) >= dim Pl_m(M0) everywhere, with equality at every m
    exactly on the minimal-dimension locus."""
    degrees = list(itertools.product(range(max_multidegree + 1), repeat=cfg.quiver.n))
    generic = cfg.generic()
    tables = {iso: _hilbert_dims(cfg, iso, degrees, "arrows") for iso in report.poset.nodes}
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
