"""Walk through the basic objects: a Dynkin quiver, its catalog of
indecomposables, and the degeneration poset of a principal dimension vector.

Run with:  python3 demos/01_catalog_and_poset.py
"""

from quivergrass.catalog import get_catalog
from quivergrass.lab import PrincipalConfig
from quivergrass.poset import enumerate_isoclasses, generic_isoclass
from quivergrass.quiver import dynkin_type, zigzag_quiver


def main():
    q = zigzag_quiver(3)  # 1 -> 2 <- 3
    print(f"quiver: {q}")
    print(f"Dynkin type: {dynkin_type(q)}")

    cat = get_catalog(q)
    print(f"\nindecomposables ({len(cat.labels)}):")
    for lab in cat.labels:
        print(f"  {lab}  dims={lab.dims}")

    cfg = PrincipalConfig(q, (1, 1, 1), (1, 1, 1))
    print(f"\nprincipal setup: e = dim P = {cfg.e}, d = dim(P + I) = {cfg.d}")
    print(f"expected dimension <dim P, dim I> = {cfg.expected_dim}")

    isos = enumerate_isoclasses(cat, cfg.d)
    print(f"\n{len(isos)} isomorphism classes of dimension vector {cfg.d}")

    poset = cfg.poset  # built on first use, then shared by the lab
    generic = generic_isoclass(cat, cfg.d)
    print(f"generic (rigid) class: {generic}")
    print(f"Hasse diagram has {len(poset.hasse())} covers")
    print(f"unique maximal element: {poset.maximal_elements()[0]}")


if __name__ == "__main__":
    main()
