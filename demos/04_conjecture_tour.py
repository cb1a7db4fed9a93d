"""Probe the structural conjectures on a small principal family and exhibit
the D4 subspace quiver counterexample to the naive Hom bound.

Run with:  python3 demos/04_conjecture_tour.py
"""

from quivergrass import reps
from quivergrass.lab import (
    PrincipalConfig,
    check_conjecture,
    classify_all,
    hom_criterion_set,
)
from quivergrass.quiver import Quiver, zigzag_quiver


def main():
    cfg = PrincipalConfig(zigzag_quiver(3), (1, 1, 1), (1, 1, 1))
    report = classify_all(cfg)
    print(f"zigzag A3, d = {cfg.d}, expected dimension {cfg.expected_dim}")
    for which in "BCDEA":
        v = check_conjecture(cfg, which, report=report)
        print(f"  conjecture {which}: holds={v.holds}  ({v.summary})")

    print("\nD4 subspace quiver, P = P1 + P3 + P4, full injectives:")
    d4 = Quiver([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)])
    cfg2 = PrincipalConfig(d4, (1, 0, 1, 1), (1, 1, 1, 1))
    cat = cfg2.catalog
    m2 = cat.parse_isoclass(
        "2*V(1,0,0,0) + V(1,1,0,0) + V(0,1,0,0) + V(1,1,1,0) + "
        "2*V(0,0,1,0) + V(1,1,0,1) + 2*V(0,0,0,1)")
    x = cat.realize(cat.parse_isoclass("V(0,1,1,1)"))
    h_m2 = reps.hom_dim(cat.realize(m2), x)
    h_p = reps.hom_dim(cat.realize(cfg2.proj_iso), x)
    print(f"  hom(M2, V(0,1,1,1)) = {h_m2}, but hom(P, .) + 1 = {h_p + 1}")
    crit = hom_criterion_set(cfg2)
    print(f"  the Hom-bound locus has {len(crit.sinks)} sinks "
          f"(no single deepest stratum)")


if __name__ == "__main__":
    main()
