"""Exact computational workbench for quiver Grassmannians of Dynkin quivers."""

from .quiver import Quiver, Path, parse_quiver, format_quiver, dynkin_type, linear_quiver, zigzag_quiver
from .linalg import PrimeField, gaussian_binomial
from .reps import (
    Representation,
    simple,
    projective,
    injective,
    direct_sum,
    hom_dim,
    ext1_dim,
    end_dim,
    is_rigid,
    reflection_functor,
)
from .catalog import Catalog, Isoclass, IndecLabel, get_catalog, positive_roots
from .poset import IsoclassPoset, build_poset, enumerate_isoclasses, generic_isoclass
from .pointcount import (
    Classification,
    CountingPolynomial,
    brute_force_count,
    classify,
    count_points,
    interpolate,
)
from .pluecker import PlueckerRing, MPoly, ideal, pluecker_coordinates
from .groebner import groebner_basis, hilbert_component, hilbert_table, projective_dimension
from .lab import (
    PrincipalConfig,
    ExperimentReport,
    classify_all,
    check_conjecture,
    conjectured_m2,
    hom_criterion_set,
    split_at_deficient,
)

__all__ = [
    "Quiver",
    "Path",
    "parse_quiver",
    "format_quiver",
    "dynkin_type",
    "linear_quiver",
    "zigzag_quiver",
    "PrimeField",
    "gaussian_binomial",
    "Representation",
    "simple",
    "projective",
    "injective",
    "direct_sum",
    "hom_dim",
    "ext1_dim",
    "end_dim",
    "is_rigid",
    "reflection_functor",
    "Catalog",
    "Isoclass",
    "IndecLabel",
    "get_catalog",
    "positive_roots",
    "IsoclassPoset",
    "build_poset",
    "enumerate_isoclasses",
    "generic_isoclass",
    "Classification",
    "CountingPolynomial",
    "brute_force_count",
    "classify",
    "count_points",
    "interpolate",
    "PlueckerRing",
    "MPoly",
    "ideal",
    "pluecker_coordinates",
    "groebner_basis",
    "hilbert_component",
    "hilbert_table",
    "projective_dimension",
    "PrincipalConfig",
    "ExperimentReport",
    "classify_all",
    "check_conjecture",
    "conjectured_m2",
    "hom_criterion_set",
    "split_at_deficient",
]

__version__ = "0.1.0"
