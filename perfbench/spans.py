"""Spans around the public entry points of each quivergrass module.

``instrument`` rebinds module attributes (and a few methods) to wrappers that
record a span per call, in this process only; nothing under ``src/`` is
edited.  A function imported by name into another quivergrass module is
rebound there too, so calls from inside the package are seen as well.  The
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import statistics
import sys
import time


class SpanRecorder:
    """Spans as parallel lists: name, start, end, parent index, op id, attrs."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attrs: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1

    def __len__(self):
        return len(self.name)

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.attrs.append({})
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: list[list[int]] = [[] for _ in self.name]
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out = []
        for i, kids in enumerate(children):
            lo, hi = self.start[i], self.end[i]
            covered, reach = 0.0, lo
            for k in sorted(kids, key=lambda k: self.start[k]):
                a, b = max(self.start[k], reach), min(self.end[k], hi)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((hi - lo) - covered)
        return out

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "op": o, **a}
            for n, s, e, p, o, a in zip(self.name, self.start, self.end,
                                        self.parent, self.op, self.attrs)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _shape_attrs(name: str, args, kwargs, result) -> dict:
    """Work counts computed at the boundary from arguments and results."""
    if name == "pointcount.count_points":
        return {"q": args[2] if len(args) > 2 else kwargs["p"]}
    if name == "pointcount.enumerate_subspaces":
        bases = result.bases
        return {"bytes": int(math.prod(bases.shape)) * bases.itemsize}
    if name == "linalg.batched_rank":
        b, m, n = args[1].shape
        return {"matrices": b, "entries": b * m * n}
    if name == "lab.check_conjecture":
        return {"which": str(args[1]).upper()}
    if name == "poset.build_poset":
        return {"nodes": len(result)}
    if name == "poset.hasse":
        return {"covers": len(result)}
    if name == "pluecker.ideal":
        return {"generators": len(result[1])}
    if name == "groebner.groebner_basis":
        return {"basis_elements": len(result)}
    if name == "groebner.hilbert_component":
        ring, m = args[0], args[2]
        tested = 1
        for (lo, hi), deg in zip(ring.block, m):
            tested *= math.comb(hi - lo + deg - 1, deg)
        return {"monomials_tested": tested}
    return {}


# (module, attribute, span name); "Class.method" rebinds a method
TARGETS = [
    ("quivergrass.pointcount", "classify", "pointcount.classify"),
    ("quivergrass.pointcount", "count_points", "pointcount.count_points"),
    ("quivergrass.pointcount", "enumerate_subspaces", "pointcount.enumerate_subspaces"),
    ("quivergrass.pointcount", "interpolate", "pointcount.interpolate"),
    ("quivergrass.linalg", "PrimeField.batched_rank", "linalg.batched_rank"),
    ("quivergrass.linalg", "PrimeField.rank", "linalg.rank"),
    ("quivergrass.catalog", "get_catalog", "catalog.get_catalog"),
    ("quivergrass.catalog", "Catalog.__init__", "catalog.build"),
    ("quivergrass.catalog", "Catalog.realize", "catalog.realize"),
    ("quivergrass.reps", "hom_dim", "reps.hom_dim"),
    ("quivergrass.poset", "build_poset", "poset.build_poset"),
    ("quivergrass.poset", "IsoclassPoset.hasse", "poset.hasse"),
    ("quivergrass.poset", "generic_isoclass", "poset.generic_isoclass"),
    ("quivergrass.lab", "classify_all", "lab.classify_all"),
    ("quivergrass.lab", "check_conjecture", "lab.check_conjecture"),
    ("quivergrass.lab", "report_json", "lab.report"),
    ("quivergrass.lab", "report_dot", "lab.report"),
    ("quivergrass.pluecker", "ideal", "pluecker.ideal"),
    ("quivergrass.groebner", "groebner_basis", "groebner.groebner_basis"),
    ("quivergrass.groebner", "hilbert_component", "groebner.hilbert_component"),
]


def _wrap(fn, name: str, rec: SpanRecorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        rec.attrs[i] = _shape_attrs(name, args, kwargs, result)
        return result
    return traced


@contextlib.contextmanager
def instrument(rec: SpanRecorder):
    """Rebind every target to a traced wrapper; restore all on exit."""
    undo = []
    try:
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, _wrap(orig, name, rec))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            traced = _wrap(orig, name, rec)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("quivergrass")
                        and getattr(other, attr, None) is orig):
                    setattr(other, attr, traced)
                    undo.append((other, attr, orig))
        yield rec
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def layer_metrics(rec: SpanRecorder, rounds: int, traced_wall: float,
                  untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run.

    Spans of ops (op id >= 0) give figures per round of the sample, so runs
    that fit a different number of rounds compare directly.  Spans with op
    id -1 come from one traced set-up and give the ``setup.*`` figures.
    """
    selfs = rec.self_times()
    ops_by: dict[str, list[int]] = {}
    setup_by: dict[str, list[int]] = {}
    for i, n in enumerate(rec.name):
        (ops_by if rec.op[i] >= 0 else setup_by).setdefault(n, []).append(i)

    def total(n, of=None):
        return sum(rec.duration(i) if of is None else of[i] for i in ops_by.get(n, [])) / rounds

    def attr_sum(n, key):
        return sum(rec.attrs[i].get(key, 0) for i in ops_by.get(n, [])) / rounds

    def calls(n):
        return len(ops_by.get(n, [])) / rounds

    def setup_total(n):
        return sum(rec.duration(i) for i in setup_by.get(n, []))

    def setup_calls(n):
        return len(setup_by.get(n, []))

    counts = ops_by.get("pointcount.count_points", [])
    q_lt = sum(rec.duration(i) for i in counts if rec.attrs[i].get("q", 0) < 20) / rounds
    max_q: dict[int, int] = {}
    for i in counts:
        max_q[rec.op[i]] = max(max_q.get(rec.op[i], 0), rec.attrs[i].get("q", 0))
    ops = len({o for o in rec.op if o >= 0})
    checks = {w: 0.0 for w in "ABCDE"}
    for i in ops_by.get("lab.check_conjecture", []):
        if rec.attrs[i]:  # a call that raised has no attributes
            checks[rec.attrs[i]["which"]] += rec.duration(i) / rounds

    def layer_self(*prefixes):
        return sum(s for n, s, o in zip(rec.name, selfs, rec.op)
                   if o >= 0 and n.startswith(prefixes))

    return {
        "pointcount.count_points.s": (total("pointcount.count_points"), "s"),
        "pointcount.count_points.calls": (calls("pointcount.count_points"), "count"),
        "pointcount.count_points.self_s": (total("pointcount.count_points", selfs), "s"),
        "pointcount.count_points.s_q_lt_20": (q_lt, "s"),
        "pointcount.count_points.s_q_ge_20": (total("pointcount.count_points") - q_lt, "s"),
        "pointcount.max_q_p50": (statistics.median(max_q.values()) if max_q else 0, "q"),
        "pointcount.counts_per_op": (len(counts) / ops if ops else 0, "count"),
        "pointcount.enumerate_subspaces.s": (total("pointcount.enumerate_subspaces"), "s"),
        "pointcount.enumerate_subspaces.calls": (calls("pointcount.enumerate_subspaces"), "count"),
        "pointcount.enum_bytes": (attr_sum("pointcount.enumerate_subspaces", "bytes"), "bytes"),
        "pointcount.interpolate.s": (total("pointcount.interpolate"), "s"),
        "pointcount.interpolate.calls": (calls("pointcount.interpolate"), "count"),
        "pointcount.classify.self_s": (total("pointcount.classify", selfs), "s"),
        "linalg.batched_rank.s": (total("linalg.batched_rank"), "s"),
        "linalg.batched_rank.calls": (calls("linalg.batched_rank"), "count"),
        "linalg.batched_rank.matrices": (attr_sum("linalg.batched_rank", "matrices"), "count"),
        "linalg.batched_rank.entries": (attr_sum("linalg.batched_rank", "entries"), "count"),
        "linalg.rank.s": (total("linalg.rank"), "s"),
        "linalg.rank.calls": (calls("linalg.rank"), "count"),
        "catalog.get_catalog.s": (total("catalog.get_catalog"), "s"),
        "catalog.get_catalog.builds": (calls("catalog.build"), "count"),
        "catalog.realize.s": (total("catalog.realize"), "s"),
        "catalog.realize.calls": (calls("catalog.realize"), "count"),
        "reps.hom_dim.s": (total("reps.hom_dim"), "s"),
        "reps.hom_dim.calls": (calls("reps.hom_dim"), "count"),
        "poset.build_poset.s": (total("poset.build_poset"), "s"),
        "poset.nodes": (attr_sum("poset.build_poset", "nodes"), "count"),
        "poset.hasse.s": (total("poset.hasse"), "s"),
        "poset.covers": (attr_sum("poset.hasse", "covers"), "count"),
        "poset.generic_isoclass.s": (total("poset.generic_isoclass"), "s"),
        "lab.classify_all.self_s": (total("lab.classify_all", selfs), "s"),
        **{f"lab.check_conjecture.s.{w}": (checks[w], "s") for w in "ABCDE"},
        "lab.report.s": (total("lab.report"), "s"),
        "pluecker.ideal.s": (total("pluecker.ideal"), "s"),
        "pluecker.ideal.calls": (calls("pluecker.ideal"), "count"),
        "pluecker.generators": (attr_sum("pluecker.ideal", "generators"), "count"),
        "groebner.groebner_basis.s": (total("groebner.groebner_basis"), "s"),
        "groebner.groebner_basis.calls": (calls("groebner.groebner_basis"), "count"),
        "groebner.basis_elements":
            (attr_sum("groebner.groebner_basis", "basis_elements"), "count"),
        "groebner.hilbert_component.s": (total("groebner.hilbert_component"), "s"),
        "groebner.hilbert_component.calls": (calls("groebner.hilbert_component"), "count"),
        "groebner.monomials_tested":
            (attr_sum("groebner.hilbert_component", "monomials_tested"), "count"),
        "setup.catalog.get_catalog.s": (setup_total("catalog.get_catalog"), "s"),
        "setup.catalog.builds": (setup_calls("catalog.build"), "count"),
        "setup.reps.hom_dim.s": (setup_total("reps.hom_dim"), "s"),
        "setup.reps.hom_dim.calls": (setup_calls("reps.hom_dim"), "count"),
        "setup.linalg.rank.s": (setup_total("linalg.rank"), "s"),
        "setup.linalg.rank.calls": (setup_calls("linalg.rank"), "count"),
        "setup.poset.build_poset.s": (setup_total("poset.build_poset"), "s"),
        "layer.pointcount_linalg.self_frac":
            (layer_self("pointcount.", "linalg.") / traced_wall, "frac"),
        "layer.pluecker_groebner.self_frac":
            (layer_self("pluecker.", "groebner.") / traced_wall, "frac"),
        "trace.spans": (sum(1 for o in rec.op if o >= 0) / rounds, "count"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "frac"),
    }
