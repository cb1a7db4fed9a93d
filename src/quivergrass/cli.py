"""Command-line entry points for the workbench.

Verbs: catalog, poset, relations, hilbert, count, classify, conjecture,
report.  Every verb takes a quiver file (--quiver), a working prime
(--prime) and an output directory (--out).  All but catalog take the
projective/injective multiplicities (--proj/--inj) that pin down the
principal configuration and the poset budget (--max-nodes); classify,
conjecture and report also take the largest prime a count may use
(--max-prime), and conjecture and report print one line per classified
node to stderr with --progress.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .catalog import LIFT_PRIME, CatalogError, get_catalog
from .groebner import HILBERT_BUDGET, GroebnerError, check_multidegrees, hilbert_table
from .lab import (
    PrincipalConfig,
    check_conjecture,
    classify_all,
    classify_node,
    report_dot,
    report_json,
)
from .linalg import LinalgError
from .pluecker import export_macaulay2, export_text, ideal
from .pointcount import CountError, count_points
from .poset import PosetError
from .quiver import QuiverError, parse_quiver


def _read_quiver(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(f"cannot read quiver file {path}: {exc.strerror}") from None
    return parse_quiver(text)


def _mult(text: str, n: int):
    try:
        vals = [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise SystemExit(f"multiplicities must be integers, got {text!r}") from None
    if len(vals) != n:
        raise SystemExit(f"expected {n} multiplicities, got {len(vals)}")
    return vals


def _config(args) -> PrincipalConfig:
    q = _read_quiver(args.quiver)
    kwargs = {}
    if args.prime:
        kwargs["catalog_prime"] = args.prime
    if getattr(args, "max_prime", 0):
        kwargs["max_prime"] = args.max_prime
    if args.max_nodes:
        kwargs["max_nodes"] = args.max_nodes
    return PrincipalConfig(q, _mult(args.proj, q.n), _mult(args.inj, q.n), **kwargs)


def _print_progress(k: int, n: int, iso, cls) -> None:
    """``classify_all``'s progress callback: k/n, the isoclass, and its
    dimension or ``gap``."""
    shown = f"dim {cls.dimension}" if cls is not None and cls.consistent else "gap"
    print(f"{k}/{n} {iso}: {shown}", file=sys.stderr, flush=True)


def _write(args, name: str, text: str):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    """Run one verb; a library error or bad input exits with its message as
    one line."""
    try:
        return _main(argv)
    except (QuiverError, PosetError, LinalgError, CountError, CatalogError,
            GroebnerError) as exc:
        raise SystemExit(str(exc)) from None


def _main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="quivergrass",
        description="Exact computations with principal quiver Grassmannians.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, principal=True, decodes=False, progress=False):
        p.add_argument("--quiver", required=True, help="quiver description file")
        if principal:
            p.add_argument("--proj", required=True, help="projective multiplicities, e.g. 1,1,1")
            p.add_argument("--inj", required=True, help="injective multiplicities")
            p.add_argument("--max-nodes", type=int, default=0, help="poset size budget")
        if decodes:
            p.add_argument("--max-prime", type=int, default=0,
                           help="largest prime a per-summand decode may count at; "
                                "a node whose summands need more is an error "
                                "(default 101)")
        if progress:
            p.add_argument("--progress", action="store_true",
                           help="print k/n, the isoclass and its dimension or 'gap' "
                                "to stderr as each node is classified")
        p.add_argument("--prime", type=int, default=0,
                       help=f"working prime (default {LIFT_PRIME}; 2 for count)")
        p.add_argument("--out", default="", help="output directory (default: stdout)")

    p = sub.add_parser("catalog", help="list the indecomposables and Hom matrix")
    common(p, principal=False)

    p = sub.add_parser("poset", help="degeneration poset of one dimension vector")
    common(p)
    p.add_argument("--dot", action="store_true", help="emit DOT instead of JSON")

    p = sub.add_parser("relations", help="export the defining ideal of Gr_e(M)")
    common(p)
    p.add_argument("--isoclass", default="", help="module (default: generic)")
    p.add_argument("--scope", choices=["arrows", "paths"], default="arrows")
    p.add_argument("--macaulay2", action="store_true")

    p = sub.add_parser("hilbert", help="multigraded Hilbert values of the ideal")
    common(p)
    p.add_argument("--isoclass", default="")
    p.add_argument("--max-multidegree", type=int, default=2)

    p = sub.add_parser("count", help="count F_p points of one quiver Grassmannian")
    common(p)
    p.add_argument("--isoclass", default="")

    p = sub.add_parser("classify", help="counting polynomial of one isoclass")
    common(p, decodes=True)
    p.add_argument("--isoclass", default="")

    p = sub.add_parser("conjecture", help="evaluate one conjecture statement")
    common(p, decodes=True, progress=True)
    p.add_argument("which", choices=list("ABCDE"))

    p = sub.add_parser("report", help="classify the whole poset and report")
    common(p, decodes=True, progress=True)
    p.add_argument("--dot", action="store_true")

    args = parser.parse_args(argv)

    if args.verb == "catalog":
        q = _read_quiver(args.quiver)
        cat = get_catalog(q, args.prime or LIFT_PRIME)
        h = cat.hom_matrix()
        data = {
            "quiver": repr(q),
            "indecomposables": [
                {"name": lab.name, "dims": list(lab.dims)} for lab in cat.labels
            ],
            "hom_matrix": h.tolist(),
        }
        _write(args, "catalog.json", json.dumps(data, indent=2) + "\n")
        return 0

    cfg = _config(args)
    cat = cfg.catalog
    progress = _print_progress if getattr(args, "progress", False) else None

    def pick_isoclass(text: str):
        if not text:
            return cfg.generic()
        iso = cat.parse_isoclass(text)
        dims = iso.dims(cfg.quiver.n)
        if dims != cfg.d:
            raise SystemExit(f"isoclass {iso} has dimension vector {list(dims)}, "
                             f"not the configuration's d = {list(cfg.d)}")
        return iso

    if args.verb == "poset":
        if args.dot:
            _write(args, "poset.dot", cfg.poset.to_dot())
        else:
            _write(args, "poset.json", cfg.poset.to_json() + "\n")
    elif args.verb == "relations":
        iso = pick_isoclass(args.isoclass)
        m = cat.realize(iso)
        ring, gens = ideal(m, cfg.e, scope=args.scope)
        if args.macaulay2:
            _write(args, "ideal.m2", export_macaulay2(ring, gens, cfg.catalog_prime))
        else:
            _write(args, "ideal.txt", export_text(gens))
    elif args.verb == "hilbert":
        if args.max_multidegree < 0:
            raise SystemExit(f"--max-multidegree must be >= 0, got {args.max_multidegree}")
        iso = pick_isoclass(args.isoclass)
        m = cat.realize(iso)
        ring, gens = ideal(m, cfg.e)
        top = args.max_multidegree
        check_multidegrees(ring, ((top,) * cfg.quiver.n,), HILBERT_BUDGET)
        degrees = itertools.product(range(top + 1), repeat=cfg.quiver.n)
        table = hilbert_table(ring, gens, cfg.catalog_prime, degrees)
        _write(args, "hilbert.json", json.dumps(table, indent=2) + "\n")
    elif args.verb == "count":
        iso = pick_isoclass(args.isoclass)
        p = args.prime or 2
        m = cfg.catalog_at(p).realize(iso)
        value = count_points(m, cfg.e, p,
                             enum_budget=cfg.enum_budget,
                             pair_budget=cfg.pair_budget)
        _write(args, "count.json",
               json.dumps({"isoclass": str(iso), "p": p, "count": str(value)}) + "\n")
    elif args.verb == "classify":
        iso = pick_isoclass(args.isoclass)
        cls = classify_node(cfg, iso)
        _write(args, "classify.json", cls.to_json(str(iso)) + "\n")
    elif args.verb == "conjecture":
        # A reads Hilbert tables alone; B-E read the whole classification
        report = None if args.which == "A" else classify_all(cfg, progress=progress)
        verdict = check_conjecture(cfg, args.which, report=report)
        _write(args, f"conjecture_{args.which}.json", json.dumps({
            "which": verdict.which,
            "holds": verdict.holds,
            "summary": verdict.summary,
            "details": verdict.details,
        }, indent=2) + "\n")
    elif args.verb == "report":
        rep = classify_all(cfg, progress=progress)
        if args.dot:
            _write(args, "report.dot", report_dot(rep))
        else:
            _write(args, "report.json", report_json(rep) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
